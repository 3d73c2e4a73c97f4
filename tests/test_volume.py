"""Adelic region volumes: exact factorization against the Monte Carlo oracle."""

import dataclasses
import hashlib
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sapprox
from sapprox import _kernel
from sapprox.approx import (
    ApproxCollection,
    ConstantOne,
    FiniteApproxFunction,
    LogLaw,
    PowerLaw,
    Scaled,
    UserStep,
    inflate,
    psi_one,
)
from sapprox.checks import check_volume_identity, random_region
from sapprox.sring import NormProfile, PlaceSet, derive_seed
from sapprox.volume import (
    Region,
    _cover_radius,
    _real_cuts,
    _real_member,
    contains,
    contains_pair,
    volume_exact,
    volume_monte_carlo,
)

S2 = PlaceSet((2,))


class TestVolumeExact:
    def test_sixteen(self):
        # S={inf,2}, m=n=1, psi=1, T=(2,2): real factor 4, 2-adic factor 2
        reg = Region(psi_one(S2, 1, 1), NormProfile.of(Fraction(2), {2: 1}), S2)
        res = volume_exact(reg)
        assert res.real_factor == 4
        assert dict(res.finite_factors)[2] == 2
        assert res.total == 16

    def test_unit_adelic_box(self):
        for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
            S = PlaceSet((2, 3))
            reg = Region(psi_one(S, m, n), NormProfile.of(Fraction(1), {2: 0, 3: 0}), S)
            assert volume_exact(reg).total == 2 ** (m + n)

    def test_log_real_factor_near_e(self):
        # psi = min(1, 1/r): the truncated integral is 1 + ln T, about 2 at T = e
        T = Fraction(2718281828459045235, 10**18)
        psi = ApproxCollection.of(PowerLaw(Fraction(1), Fraction(1)), {}, 1, 1)
        reg = Region(psi, NormProfile.of(T, {}), PlaceSet(()))
        res = volume_exact(reg)
        with mpmath.workdps(30):
            expected = 2 * (1 + mpmath.log(mpmath.mpf(T.numerator) / T.denominator))
        assert not res.is_exact
        assert abs(res.real_factor - float(expected)) <= max(res.real_error, 1e-12)
        assert math.isclose(res.real_factor, 4.0, rel_tol=1e-15)

    def test_exact_power_law(self):
        # a = 2, c = 1: int_0^T = 2 - 1/T exactly
        psi = ApproxCollection.of(PowerLaw(Fraction(1), Fraction(2)), {}, 1, 1)
        reg = Region(psi, NormProfile.of(Fraction(8), {}), PlaceSet(()))
        res = volume_exact(reg)
        assert res.is_exact
        assert res.real_factor == 2 * (2 - Fraction(1, 8))

    def test_user_step_exact(self):
        psi = ApproxCollection.of(
            UserStep(((Fraction(2), Fraction(1, 2)), (Fraction(4), Fraction(1, 4)))), {}, 1, 1
        )
        reg = Region(psi, NormProfile.of(Fraction(6), {}), PlaceSet(()))
        # 1*2 + (1/2)*2 + (1/4)*2 = 3.5, times 2^n
        assert volume_exact(reg).real_factor == 7

    def test_sub_unit_finite_bound(self):
        # T_2 = 2^-2 shrinks the 2-adic ball to volume T_2
        reg = Region(psi_one(S2, 1, 1), NormProfile.of(Fraction(1), {2: -2}), S2)
        res = volume_exact(reg)
        assert dict(res.finite_factors)[2] == Fraction(1, 4)
        assert res.total == 1

    def test_finite_step_data(self):
        # z_1 = 1 at p=2, m=n=1, T_2 = 2: factor 1 + 2*(1/2)*(1/2) = 3/2
        psi = ApproxCollection.of(
            PowerLaw(Fraction(1), Fraction(2)),
            {2: FiniteApproxFunction(2, 1, 1, (1,))},
            1,
            1,
        )
        reg = Region(psi, NormProfile.of(Fraction(4), {2: 1}), S2)
        assert dict(volume_exact(reg).finite_factors)[2] == Fraction(3, 2)

    def test_identity_and_place_factors(self):
        ok, detail = check_volume_identity(random.Random(77), rounds=25)
        assert ok, detail

    def test_profile_exponent_divisibility(self):
        with pytest.raises(ValueError):
            Region(psi_one(S2, 1, 2), NormProfile.of(Fraction(2), {2: 1}), S2)


class TestContains:
    def test_trivial_membership(self):
        reg = Region(psi_one(S2, 1, 1), NormProfile.of(Fraction(2), {2: 1}), S2)
        assert contains_pair(reg, (Fraction(0),), (Fraction(0),))
        assert contains_pair(reg, (Fraction(1),), (Fraction(2),))
        assert not contains_pair(reg, (Fraction(3, 2),), (Fraction(0),))  # |x| > 1

    def test_boundary_strictness(self):
        psi = ApproxCollection.of(PowerLaw(Fraction(1), Fraction(1)), {}, 1, 1)
        reg = Region(psi, NormProfile.of(Fraction(4), {}), PlaceSet(()))
        assert contains_pair(reg, (Fraction(1, 2),), (Fraction(2),))  # 1/2 = psi(2)
        assert not contains_pair(reg, (Fraction(1, 2) + Fraction(1, 1000),), (Fraction(2),))

    def test_ties_lie_inside(self):
        # psi = 2 t**(-1/2) has the triple (4, t, 2) and psi(64) = 1/4 = (1/2)**2;
        # with ||y|| = 64 = T_inf both comparisons tie, and a tie is inside
        psi = ApproxCollection.of(PowerLaw(Fraction(2), Fraction(1, 2)), {}, 2, 1)
        reg = Region(psi, NormProfile.of(Fraction(64), {}), PlaceSet(()))
        half, eps = Fraction(1, 2), Fraction(1, 10**6)
        assert contains_pair(reg, (half, -half), (Fraction(-64),))
        assert not contains_pair(reg, (half + eps, half), (Fraction(64),))
        assert not contains_pair(reg, (half, half), (Fraction(64) + eps,))

    def test_log_law_without_a_triple(self):
        # g(3) = 2 / (3 (ln 3)**2), about 0.552, and 2 g(6 / 2) about 1.105
        base = LogLaw(Fraction(2), Fraction(2))
        for real, y, inside in (
            (base, 3, Fraction(55, 100)),
            (Scaled(base, Fraction(2), Fraction(1, 2)), 6, Fraction(110, 100)),
        ):
            psi = ApproxCollection.of(real, {}, 1, 1)
            reg = Region(psi, NormProfile.of(Fraction(8), {}), PlaceSet(()))
            assert contains_pair(reg, (inside,), (Fraction(y),))
            assert not contains_pair(reg, (inside + Fraction(1, 100),), (Fraction(y),))

    def test_finite_place_violation(self):
        reg = Region(psi_one(S2, 1, 1), NormProfile.of(Fraction(2), {2: 0}), S2)
        # |1/2|_2 = 2 > 1 = psi_2
        assert not contains_pair(reg, (Fraction(1, 2),), (Fraction(0),))
        assert not contains_pair(reg, (Fraction(0),), (Fraction(1, 2),))  # ||y||_2 > T_2

    def test_adelic_point(self):
        reg = Region(psi_one(S2, 1, 1), NormProfile.of(Fraction(2), {2: 1}), S2)
        x_at = {"inf": (Fraction(1, 2),), 2: (Fraction(1),)}
        y_at = {"inf": (Fraction(3, 2),), 2: (Fraction(1, 2),)}
        assert contains(reg, x_at, y_at)
        y_at[2] = (Fraction(1, 4),)  # ||y||_2 = 4 > 2
        assert not contains(reg, x_at, y_at)

    def test_zero_y_lies_in_every_finite_ball(self):
        # ||0||_2 = 0 <= T_2 = 2**-1; a nonzero y needs valuation >= 1
        reg = Region(psi_one(S2, 1, 1), NormProfile.of(Fraction(2), {2: -1}), S2)
        assert contains_pair(reg, (Fraction(1),), (Fraction(0),))
        assert not contains_pair(reg, (Fraction(1),), (Fraction(1),))
        assert contains_pair(reg, (Fraction(1),), (Fraction(2),))

    def test_zero_y_takes_the_x_test_z_0(self):
        # z_1 = 1 and z_2 = 2, but y = 0 asks only v_2(x) >= 0
        psi = ApproxCollection.of(ConstantOne(), {2: FiniteApproxFunction(2, 1, 1, (1, 2))}, 1, 1)
        reg = Region(psi, NormProfile.of(Fraction(2), {2: 2}), S2)
        assert contains_pair(reg, (Fraction(1),), (Fraction(0),))
        assert not contains_pair(reg, (Fraction(1, 2),), (Fraction(0),))
        assert not contains_pair(reg, (Fraction(1),), (Fraction(1, 2),))  # z_1 = 1
        assert contains_pair(reg, (Fraction(2, 3),), (Fraction(1, 2),))


class TestMonteCarlo:
    def test_exact_on_box_region(self):
        reg = Region(psi_one(S2, 1, 1), NormProfile.of(Fraction(1), {2: 0}), S2)
        mc = volume_monte_carlo(reg, 3000, seed=5)
        assert mc.std_error == 0.0
        assert mc.estimate == 4.0

    def test_agreement_sixteen(self):
        reg = Region(psi_one(S2, 1, 1), NormProfile.of(Fraction(2), {2: 1}), S2)
        mc = volume_monte_carlo(reg, 20_000, seed=9)
        assert abs(mc.estimate - 16.0) <= 4 * mc.std_error + 1e-9

    def test_rejects_sub_unit_real_bound(self):
        reg = Region(psi_one(S2, 1, 1), NormProfile.of(Fraction(1, 2), {2: 0}), S2)
        with pytest.raises(ValueError):
            volume_monte_carlo(reg, 100, seed=1)

    @pytest.mark.parametrize("samples", [9000.0, 1e6, True, "100"])
    def test_rejects_a_non_int_sample_count(self, samples):
        reg = Region(psi_one(S2, 1, 1), NormProfile.of(Fraction(2), {2: 1}), S2)
        with pytest.raises(ValueError, match="samples must be an int >= 1"):
            volume_monte_carlo(reg, samples, seed=1)

    @pytest.mark.parametrize(
        "n, t_inf, exps, message, sup",
        [
            (1, Fraction(10**400), {2: 1}, "requires T_inf <= 2**1022 for n = 1", 1),
            (2, Fraction(10**400), {2: 2}, "below 2**1024 for n > 1", 1),
            (1, Fraction(2**1022), {2: 1}, "bounding box volume within the float range", 1),
            (1, Fraction(2), {2: 1100}, "bounding box volume within the float range", 1),
            (1, Fraction(2), {}, "requires the real part's sup value <= 2**1022 for m = 1", Fraction(10**400)),
            (1, Fraction(2), {}, "requires the real part's sup value >= 2**-1022", Fraction(1, 10**400)),
        ],
    )
    def test_rejects_a_box_beyond_the_float_range(self, n, t_inf, exps, message, sup, monkeypatch):
        # before, each raised a bare OverflowError, or drew (a sup below 2**-1022
        # hung in _cover_radius at m >= 2); now a ValueError before any draw
        places = PlaceSet(tuple(exps))
        psi = psi_one(places, 1, n)
        if sup != 1:
            psi = dataclasses.replace(psi, real=Scaled(ConstantOne(), Fraction(sup), Fraction(1)))
        reg = Region(psi, NormProfile.of(t_inf, exps), places)
        monkeypatch.setattr("sapprox.volume.derive_seed", lambda *a: pytest.fail("drew"))
        with pytest.raises(ValueError, match=re.escape(message)):
            volume_monte_carlo(reg, 100, seed=1)

    def test_deterministic(self):
        reg = Region(psi_one(S2, 2, 1), NormProfile.of(Fraction(3), {2: 1}), S2)
        a = volume_monte_carlo(reg, 5000, seed=123)
        b = volume_monte_carlo(reg, 5000, seed=123)
        assert a == b

    def test_nontrivial_region_agreement(self):
        psi = ApproxCollection.of(
            PowerLaw(Fraction(1), Fraction(2)),
            {2: FiniteApproxFunction(2, 1, 1, (1, 2))},
            1,
            1,
        )
        reg = Region(psi, NormProfile.of(Fraction(5), {2: 2}), S2)
        res = volume_exact(reg)
        mc = volume_monte_carlo(reg, 40_000, seed=21)
        assert abs(float(res.total) - mc.estimate) <= 4 * mc.std_error


def monte_carlo_table() -> list[str]:
    """(hits, samples, box volume) of the oracle on seeded random regions,
    then on log-law regions, bare and scaled, where the real kind has no
    exact triple for b > 0 and decides through its own ``leq_value``."""
    lines = []
    for seed in range(6):
        rng = random.Random(f"mc-table/{seed}")
        for _ in range(4):
            reg = random_region(rng)
            mc = volume_monte_carlo(reg, 300, seed=rng.randrange(2**32))
            lines.append(f"{mc.hits} {mc.samples} {mc.box_volume}")
    reals = [LogLaw(Fraction(2), b) for b in (Fraction(0), Fraction(1, 2), Fraction(2))]
    reals.append(Scaled(LogLaw(Fraction(3, 2), Fraction(1)), Fraction(3, 2), Fraction(2, 3)))
    for k, real in enumerate(reals):
        for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
            for primes in ((), (2,), (2, 3)):
                places = PlaceSet(primes)
                fin = {p: FiniteApproxFunction(p, m, n, (0, 1)) for p in primes}
                psi = ApproxCollection.of(real, fin, m, n)
                prof = NormProfile.of(Fraction(21, 4) ** n, {p: n for p in primes})
                mc = volume_monte_carlo(Region(psi, prof, places), 150, seed=1000 * k + 10 * m + n)
                lines.append(f"{mc.hits} {mc.samples} {mc.box_volume}")
    return lines


class TestPinnedMonteCarlo:
    """The oracle's hits, hashed: any change in the draws, their order or a
    membership decision away from the boundary shows here.  A float draw
    lands on the boundary with probability about 2**-52, so the ties are
    pinned by ``TestContains``, which runs the same real-place test."""

    SHA256 = "d5070ba87163cb216eccdc7392d4f763aefcd190431e4843d7038f77e9d5fdf1"

    def test_table(self):
        lines = monte_carlo_table()
        assert len(lines) == 72
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.SHA256


def reference_monte_carlo(region: Region, samples: int, seed: int):
    """(hits, samples, box volume) from the oracle's draw loop as first
    written: ``uniform`` and ``randrange`` draws, ``_kernel.valuation`` at the
    finite places and ``_real_member`` on every draw.  The oracle must draw
    the same stream and reach the same hits."""
    m, n = region.m, region.n
    rx = _cover_radius(region.psi.real.sup_value(), m)
    ry = _cover_radius(region.profile.t_inf, n)
    member = _real_member(region)
    fin_data = []
    box_vol = (2 * Fraction(rx)) ** m * (2 * Fraction(ry)) ** n
    for p in region.places.primes:
        fn = region.psi.finite_fn(p)
        t = region.t_block(p)
        z_max = fn.z_at_block(t) if t >= 1 else 0
        depth_y = max(t, 0) + 1
        depth_x = z_max + 1
        fin_data.append((p, t, depth_y, depth_x, p**depth_y, p**depth_x, fn))
        box_vol *= Fraction(p) ** (t * n)
    hits = 0
    block = 8192
    for block_index, start in enumerate(range(0, samples, block)):
        count = min(block, samples - start)
        rng = random.Random(derive_seed(seed, "mc-block", block_index))
        uniform, randrange = rng.uniform, rng.randrange
        for _ in range(count):
            ax = max([abs(uniform(-rx, rx)) for _ in range(m)])
            ay = max([abs(uniform(-ry, ry)) for _ in range(n)])
            ok = member(*ax.as_integer_ratio(), *ay.as_integer_ratio())
            for p, t, dy, dx, my, mx, fn in fin_data:
                ry_res = [randrange(my) for _ in range(n)]
                rx_res = [randrange(mx) for _ in range(m)]
                if not ok:
                    continue
                mv_y = min((_kernel.valuation(r, p) if r else dy for r in ry_res), default=dy)
                kappa = t - mv_y
                z = fn.z_at_block(kappa) if kappa >= 1 else 0
                if z > 0 and min(_kernel.valuation(r, p) if r else dx for r in rx_res) < z:
                    ok = False
                    break
            hits += ok
    return hits, samples, box_vol


MC_REALS = (
    ConstantOne(),
    PowerLaw(Fraction(2), Fraction(1)),
    PowerLaw(Fraction(3), Fraction(3, 2)),
    LogLaw(Fraction(2), Fraction(0)),
    LogLaw(Fraction(2), Fraction(1, 2)),
    LogLaw(Fraction(3, 2), Fraction(2)),
    Scaled(PowerLaw(Fraction(3), Fraction(1, 2)), Fraction(3, 2), Fraction(2, 3)),
    Scaled(LogLaw(Fraction(3, 2), Fraction(1)), Fraction(1, 2), Fraction(2)),
)


def finite_test_region(rng: random.Random, real=None) -> Region:
    """A region whose finite places run x tests: m, n in 1..2, S = {2},
    {2, 3} or {3, 5}, t_p in 0..3, and step heads that reach z >= 1.  A draw
    that misses at the first of two places stops there, so the next draw
    starts where the loop left the stream.  The real part is drawn from
    ``MC_REALS`` unless given."""
    m, n = rng.randint(1, 2), rng.randint(1, 2)
    primes = rng.choice(((2,), (2, 3), (3, 5)))
    fin = {}
    for p in primes:
        head, z = [], 0
        for _ in range(rng.randint(1, 3)):
            z += rng.randint(0, 2)
            head.append(z)
        head[-1] = max(head[-1], 1)
        fin[p] = FiniteApproxFunction(p, m, n, tuple(head))
    psi = ApproxCollection.of(real or rng.choice(MC_REALS), fin, m, n)
    prof = NormProfile.of(Fraction(rng.randint(4, 20), 4) ** n, {p: n * rng.randint(0, 3) for p in primes})
    return Region(psi, prof, PlaceSet(primes))


MISS_REALS = (
    PowerLaw(Fraction(1), Fraction(2)),
    LogLaw(Fraction(3, 2), Fraction(2)),
    Scaled(PowerLaw(Fraction(3), Fraction(1, 2)), Fraction(1, 2), Fraction(2)),
)


def draw_only_test_region(rng: random.Random) -> Region:
    """A region whose first finite place cannot reject, before a place that
    tests x: S = {2, 3}, {3, 5} or {2, 3, 5}, and the first and third places
    have psi_p = 1 or steps that start beyond their t_p, so their x test is
    0 at every y valuation.  The real part falls below 1 early and T_inf is
    up to 10**n, so most draws miss at the real place and still draw every
    place's residues."""
    m, n = rng.randint(1, 2), rng.randint(1, 2)
    primes = rng.choice(((2, 3), (3, 5), (2, 3, 5)))
    fin, exps = {}, {}
    for i, p in enumerate(primes):
        t = rng.randint(0, 3)
        if i == 1:  # tests x
            head = tuple(range(1, rng.randint(1, 3) + 1))
        elif rng.random() < 0.5:
            head = ()
        else:
            head = (0,) * t + (rng.randint(1, 2),)
        fin[p] = FiniteApproxFunction(p, m, n, head)
        exps[p] = n * t
    psi = ApproxCollection.of(rng.choice(MISS_REALS), fin, m, n)
    prof = NormProfile.of(Fraction(rng.randint(4, 40), 4) ** n, exps)
    return Region(psi, prof, PlaceSet(primes))


class TestStreamContract:
    """The oracle against the draw loop as first written, on regions where
    the finite places test x and a miss there stops the sample."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_matches_the_reference_loop(self, region_seed, seed):
        reg = finite_test_region(random.Random(region_seed))
        mc = volume_monte_carlo(reg, 300, seed)
        assert (mc.hits, mc.samples, mc.box_volume) == reference_monte_carlo(reg, 300, seed)

    def test_matches_the_reference_loop_on_boundary_draws(self, monkeypatch):
        # every fourth random() is 0.0, 0.25 or 0.5, so a coordinate lands on
        # -r, -r/2 or 0 exactly, and each region puts cuts there: x_flat = rx
        # (sup 1, or 9/4 at m = 2), y_cut = ry (T_inf = 9/4 at n = 2, or 4),
        # y_flat = y_cut (psi = 1), and y_flat = 2 = ry/2 at the plateau end
        # of 4 t**-2 and of a step at t = 2; psi(10**400 t) leaves the plateau
        # below every positive float, so no y is flat and every draw runs member
        two = {p: FiniteApproxFunction(p, 1, 2, (1, 2)) for p in (2, 3)}
        one = {p: FiniteApproxFunction(p, 2, 1, (1, 2)) for p in (2, 3)}
        regions = [
            Region(ApproxCollection.of(ConstantOne(), two, 1, 2), NormProfile.of(Fraction(9, 4), {2: 2, 3: 2}), PlaceSet((2, 3))),
            Region(
                ApproxCollection.of(Scaled(ConstantOne(), Fraction(9, 4), Fraction(1)), one, 2, 1),
                NormProfile.of(Fraction(4), {2: 1, 3: 1}),
                PlaceSet((2, 3)),
            ),
            Region(ApproxCollection.of(PowerLaw(Fraction(4), Fraction(2)), one, 2, 1), NormProfile.of(Fraction(4), {2: 2, 3: 1}), PlaceSet((2, 3))),
            Region(
                ApproxCollection.of(UserStep(((Fraction(2), Fraction(1, 4)),)), one, 2, 1),
                NormProfile.of(Fraction(4), {2: 1, 3: 2}),
                PlaceSet((2, 3)),
            ),
            Region(
                ApproxCollection.of(Scaled(PowerLaw(Fraction(4), Fraction(2)), Fraction(1), Fraction(10**400)), two, 1, 2),
                NormProfile.of(Fraction(9, 4), {2: 2, 3: 2}),
                PlaceSet((2, 3)),
            ),
        ]

        class BoundaryRandom(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                self.calls = 0

            def random(self):
                self.calls += 1
                u = super().random()
                return u if self.calls % 4 else (0.0, 0.25, 0.5)[int(3 * u)]

            def getrandbits(self, k):  # keeps randrange on getrandbits
                return super().getrandbits(k)

        monkeypatch.setattr(random, "Random", BoundaryRandom)
        for i, reg in enumerate(regions):
            mc = volume_monte_carlo(reg, 600, i)
            assert (mc.hits, mc.samples, mc.box_volume) == reference_monte_carlo(reg, 600, i)

    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1])
    def test_draws_are_the_generators_own(self, seed):
        # volume_monte_carlo draws a residue below p**d as randrange's own
        # loop on getrandbits, and a coordinate in [-r, r] as uniform's own
        # formula; if CPython changes either, its stream drifts from the one
        # these methods gave
        for p in (2, 3, 5):
            for d in range(1, 9):
                mod = p**d
                k = mod.bit_length()
                ref, own = random.Random(seed), random.Random(seed)
                for _ in range(40):
                    r = own.getrandbits(k)
                    while r >= mod:
                        r = own.getrandbits(k)
                    assert r == ref.randrange(mod), "volume_monte_carlo's residue draw left randrange"
        for r in (1.0, 1.5, 2.0 ** 0.5, 5.25, 2.0**1022):
            ref, own = random.Random(seed), random.Random(seed)
            for _ in range(40):
                assert -r + (r - -r) * own.random() == ref.uniform(-r, r), "volume_monte_carlo's coordinate draw left uniform"

    def test_matches_the_reference_loop_across_a_block(self):
        # 8,192 draws per block, each block on its own derived stream
        reg = finite_test_region(random.Random(5))
        mc = volume_monte_carlo(reg, 8300, 17)
        assert (mc.hits, mc.samples, mc.box_volume) == reference_monte_carlo(reg, 8300, 17)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_matches_the_reference_loop_past_places_that_cannot_reject(self, region_seed, seed):
        # a place that cannot reject, and every place after a real-place
        # miss, only draws its residues; the stream must not change
        reg = draw_only_test_region(random.Random(region_seed))
        mc = volume_monte_carlo(reg, 300, seed)
        assert (mc.hits, mc.samples, mc.box_volume) == reference_monte_carlo(reg, 300, seed)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.sampled_from(((), (2,), (2, 3))),
        st.sampled_from((ConstantOne(), PowerLaw(Fraction(2), Fraction(1)), PowerLaw(Fraction(3), Fraction(1, 2)))),
        st.data(),
    )
    def test_matches_the_reference_loop_up_to_three_dimensions(self, m, n, primes, real, data):
        # m and n drawn apart up to 3, so a loop that draws x where it
        # should draw y, at the real place or in the residues, leaves the
        # stream; every finite head reaches z >= 1
        fin, exps = {}, {}
        for p in primes:
            head, z = [], 0
            for step in data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3)):
                z += step
                head.append(z)
            head[-1] = max(head[-1], 1)
            fin[p] = FiniteApproxFunction(p, m, n, tuple(head))
            exps[p] = n * data.draw(st.integers(0, 3))
        t_inf = Fraction(data.draw(st.integers(4, 20)), 4) ** n
        reg = Region(ApproxCollection.of(real, fin, m, n), NormProfile.of(t_inf, exps), PlaceSet(primes))
        seed = data.draw(st.integers(0, 2**32 - 1))
        mc = volume_monte_carlo(reg, 300, seed)
        assert (mc.hits, mc.samples, mc.box_volume) == reference_monte_carlo(reg, 300, seed)


CUT_REALS = MC_REALS + (
    PowerLaw(Fraction(4), Fraction(2)),
    UserStep(((Fraction(2), Fraction(1, 2)), (Fraction(9, 2), Fraction(1, 4)))),
    Scaled(UserStep(((Fraction(3), Fraction(1, 3)),)), Fraction(9, 4), Fraction(3, 2)),
)


class TestRealCuts:
    """Each cut is the largest float passing its exact test: it passes and the
    next float up fails, on ties (T_inf = 9/4 at n = 2, powers of 2, sup 1
    and 9/4, plateau ends at t = 2) and on seeded bounds."""

    @pytest.mark.parametrize("real", CUT_REALS, ids=lambda r: type(r).__name__)
    def test_each_cut_is_the_largest_passing_float(self, real):
        rng = random.Random(f"cuts/{real!r}")
        bounds = [Fraction(1), Fraction(2), Fraction(4), Fraction(9, 4), Fraction(2**60), Fraction(1, 2**40) + 1]
        bounds += [Fraction(rng.randint(4, 10**6), rng.randint(1, 4)) for _ in range(4)]
        for m, n in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1)):
            for t_inf in bounds:
                reg = Region(ApproxCollection.of(real, {}, m, n), NormProfile.of(t_inf, {}), PlaceSet(()))
                sup = real.sup_value()
                rx, ry = _cover_radius(sup, m), _cover_radius(t_inf, n)
                member = _real_member(reg)
                y_cut, x_flat, y_flat = _real_cuts(reg, member, rx, ry)

                def flat(y, xr=x_flat.as_integer_ratio()):
                    return y <= y_cut and member(*xr, *y.as_integer_ratio())

                for cut, passes in (
                    (y_cut, lambda y: Fraction(y) ** n <= t_inf),
                    (x_flat, lambda x: Fraction(x) ** m <= sup),
                    (y_flat, flat),
                ):
                    assert cut > 0 and passes(cut), (m, n, t_inf, cut)
                    assert not passes(math.nextafter(cut, math.inf)), (m, n, t_inf, cut)


def float_filter_regions() -> list[Region]:
    """40 seeded random regions, then power-law regions at every (m, n) in
    {1, 2}**2 and S in {}, {2}, {2, 3}."""
    rng = random.Random("float-filter")
    regions = [random_region(rng) for _ in range(40)]
    for real in (PowerLaw(Fraction(7, 2), Fraction(5, 3)), PowerLaw(Fraction(2), Fraction(1, 2))):
        for m in (1, 2):
            for n in (1, 2):
                for primes in ((), (2,), (2, 3)):
                    places = PlaceSet(primes)
                    fin = {p: FiniteApproxFunction(p, m, n, (0, 1)) for p in primes}
                    psi = ApproxCollection.of(real, fin, m, n)
                    prof = NormProfile.of(Fraction(9, 2), {p: n for p in primes})
                    regions.append(Region(psi, prof, places))
    return regions


class TestFloatFilterOracle:
    """The oracle gives the same hits with psi's float filter as with every
    band draw decided exactly."""

    def test_same_result_without_the_filter(self, monkeypatch):
        regions = float_filter_regions()
        decided = [0]
        float_leq = PowerLaw.float_leq

        def counting_float_leq(self, m, n):
            decide = float_leq(self, m, n)

            def counted(ax, ay):
                got = decide(ax, ay)
                decided[0] += got is not None
                return got

            return counted

        monkeypatch.setattr(PowerLaw, "float_leq", counting_float_leq)
        filtered = [volume_monte_carlo(reg, 2000, seed=i) for i, reg in enumerate(regions)]
        assert decided[0] > 10_000
        monkeypatch.setattr(PowerLaw, "float_leq", lambda self, m, n: None)
        exact = [volume_monte_carlo(reg, 2000, seed=i) for i, reg in enumerate(regions)]
        for reg, a, b in zip(regions, filtered, exact):
            assert (a.hits, a.samples, a.box_volume) == (b.hits, b.samples, b.box_volume), reg


def finite_test_table() -> list[str]:
    """(hits, samples, box volume) of the oracle on seeded ``finite_test_region``
    regions, every real kind of ``MC_REALS`` in turn."""
    lines = []
    for seed in range(80):
        rng = random.Random(f"mc-finite-table/{seed}")
        reg = finite_test_region(rng, MC_REALS[seed % len(MC_REALS)])
        mc = volume_monte_carlo(reg, 200, seed=rng.randrange(2**32))
        lines.append(f"{mc.hits} {mc.samples} {mc.box_volume}")
    return lines


class TestLogLawDraws:
    @pytest.mark.parametrize("m, n, primes", [(1, 1, ()), (2, 1, (2,)), (1, 2, (2, 3))])
    def test_few_draws_run_interval_arithmetic(self, m, n, primes, monkeypatch):
        # leq_value decides the draws in floats; only near-ties and t <= 2,
        # where the float filter claims nothing, run _g_interval
        calls = [0]
        g_interval = LogLaw._g_interval

        def counted(self, t, prec):
            calls[0] += 1
            return g_interval(self, t, prec)

        monkeypatch.setattr(LogLaw, "_g_interval", counted)
        fin = {p: FiniteApproxFunction(p, m, n, (0, 1)) for p in primes}
        psi = ApproxCollection.of(LogLaw(Fraction(2), Fraction(2)), fin, m, n)
        reg = Region(psi, NormProfile.of(Fraction(21, 4) ** n, {p: n for p in primes}), PlaceSet(primes))
        mc = volume_monte_carlo(reg, 4000, seed=3)
        assert 0 < mc.hits < mc.samples
        assert calls[0] <= 40


class TestPinnedFiniteMonteCarlo:
    """The oracle's hits on regions with finite x tests, hashed: the draws
    after a finite-place miss show here, which ``TestPinnedMonteCarlo``
    (heads (0, 1) at t = 1, so z = 0) never reaches."""

    SHA256 = "ecaa6812e785088d5a1272f1c6657c82207b85b585826a54d842ce6a52d974ce"

    def test_table(self):
        lines = finite_test_table()
        assert len(lines) == 80
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.SHA256


class TestMpmathFree:
    def test_power_law_volumes_never_load_mpmath(self):
        # the power law's non-rational integrals run in decimal arithmetic:
        # a = 1, an irrational c**(1/a) at T = 9/2, a rational root 4 with an
        # irrational T**(-1/2) at T = 5, and both irrational at T = 7
        script = """
import random, sys
from fractions import Fraction
from sapprox import checks
from sapprox.approx import ApproxCollection, FiniteApproxFunction, PowerLaw, Scaled
from sapprox.sring import NormProfile, PlaceSet
from sapprox.volume import Region, volume_exact, volume_monte_carlo
S = PlaceSet((2,))
fin = {2: FiniteApproxFunction(2, 1, 1, (0, 1))}
regions = [
    Region(ApproxCollection.of(real, fin, 1, 1), NormProfile.of(Fraction(t), {2: 1}), S)
    for real, t in (
        (PowerLaw(2, 1), 9),
        (PowerLaw(2, 2), Fraction(9, 2)),
        (PowerLaw(8, Fraction(3, 2)), 5),
        (Scaled(PowerLaw(3, Fraction(5, 2)), Fraction(3, 2), Fraction(2, 3)), 7),
    )
]
floats = [isinstance(volume_exact(reg).total, float) for reg in regions]
rng = random.Random(17)
regions += [checks.random_region(rng) for _ in range(12)]
for reg in regions:
    volume_exact(reg)
    volume_monte_carlo(reg, 200, 5)
print(floats, "mpmath" in sys.modules)
"""
        src = str(Path(sapprox.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[True, True, True, True] False"


class TestMonotonicityAndScaling:
    def test_monotone_in_profile(self):
        psi = psi_one(S2, 1, 1)
        small = volume_exact(Region(psi, NormProfile.of(Fraction(2), {2: 0}), S2)).total
        large = volume_exact(Region(psi, NormProfile.of(Fraction(3), {2: 2}), S2)).total
        assert large >= small

    def test_monotone_in_psi(self):
        lower = ApproxCollection.of(
            PowerLaw(Fraction(1), Fraction(2)), {2: FiniteApproxFunction(2, 1, 1, (2,))}, 1, 1
        )
        upper = psi_one(S2, 1, 1)
        prof = NormProfile.of(Fraction(4), {2: 1})
        v_low = volume_exact(Region(lower, prof, S2)).total
        v_up = volume_exact(Region(upper, prof, S2)).total
        assert v_up >= v_low

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (3, 2)])
    def test_inflation_scales_volume_by_square(self, m, n):
        # the observed exponent is exactly +-2 for every (m, n)
        S = PlaceSet((2,))
        psi = psi_one(S, m, n)
        prof = NormProfile.of(Fraction(3), {2: n})
        base = volume_exact(Region(psi, prof, S)).total
        eps = Fraction(1, 4)
        for sign in (+1, -1):
            up = inflate(psi, eps, sign)
            prof2 = prof.with_real(prof.t_inf * (1 + eps) ** sign)
            v = volume_exact(Region(up, prof2, S)).total
            assert v == base * (1 + eps) ** (2 * sign)

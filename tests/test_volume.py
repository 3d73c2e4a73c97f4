"""Adelic region volumes: exact factorization against the Monte Carlo oracle."""

import hashlib
import math
import random
import re
from fractions import Fraction

import mpmath
import pytest

from sapprox.approx import (
    ApproxCollection,
    FiniteApproxFunction,
    LogLaw,
    PowerLaw,
    Scaled,
    UserStep,
    inflate,
    psi_one,
)
from sapprox.checks import check_volume_identity, random_region
from sapprox.sring import NormProfile, PlaceSet
from sapprox.volume import Region, contains, contains_pair, volume_exact, volume_monte_carlo

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
        "n, t_inf, exps, message",
        [
            (1, Fraction(10**400), {2: 1}, "requires T_inf <= 2**1022 for n = 1"),
            (2, Fraction(10**400), {2: 2}, "below 2**1024 for n > 1"),
            (1, Fraction(2**1022), {2: 1}, "bounding box volume within the float range"),
            (1, Fraction(2), {2: 1100}, "bounding box volume within the float range"),
        ],
    )
    def test_rejects_a_box_beyond_the_float_range(self, n, t_inf, exps, message, monkeypatch):
        # before, each raised a bare OverflowError; now a ValueError before any draw
        reg = Region(psi_one(S2, 1, n), NormProfile.of(t_inf, exps), S2)
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

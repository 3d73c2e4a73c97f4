"""S-integer arithmetic: valuations, norms, congruences, box enumeration."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapprox.checks import check_box_enumeration, check_congruence_relation, check_kernel_ap
from sapprox.sring import (
    NormProfile,
    PlaceSet,
    box_size,
    congruent_mod,
    enumerate_box,
    enumerate_box_raw,
    norm_at,
    padic_valuation,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)


class TestPlaceSet:
    def test_validation(self):
        PlaceSet((2, 3, 5))
        PlaceSet(())  # s = 0 degenerates to the classical real case
        with pytest.raises(ValueError):
            PlaceSet((4,))
        with pytest.raises(ValueError):
            PlaceSet((3, 2))
        with pytest.raises(ValueError):
            PlaceSet((2, 2))

    def test_membership_predicate(self):
        S = PlaceSet((2, 3))
        assert S.contains(Fraction(5, 12))
        assert not S.contains(Fraction(1, 5))
        assert S.contains(7)

    def test_admissible_modulus(self):
        S = PlaceSet((2, 3))
        assert S.admissible_modulus(5)
        assert S.admissible_modulus(1)
        assert not S.admissible_modulus(6)
        assert not S.admissible_modulus(2)


class TestValuation:
    def test_examples(self):
        assert padic_valuation(12, 2) == 2
        assert padic_valuation(0, 5) == math.inf
        # 20 = 2^2 * 5, so v_2(9/20) = -2
        assert padic_valuation(Fraction(9, 20), 2) == -2

    @given(x=rationals, y=rationals, p=st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=400, deadline=None)
    def test_valuation_algebra(self, x, y, p):
        if x == 0 or y == 0:
            return
        assert padic_valuation(x * y, p) == padic_valuation(x, p) + padic_valuation(y, p)
        if x + y != 0:
            vx, vy = padic_valuation(x, p), padic_valuation(y, p)
            vs = padic_valuation(x + y, p)
            assert vs >= min(vx, vy)
            if vx != vy:
                assert vs == min(vx, vy)


class TestNorms:
    def test_examples(self):
        assert norm_at((Fraction(3), Fraction(-5)), "inf") == 5
        assert norm_at((Fraction(1, 2), Fraction(4)), 2) == 2
        assert norm_at((Fraction(0), Fraction(0)), 3) == 0
        assert norm_at((Fraction(0), Fraction(0)), "inf") == 0

    @given(
        x=st.tuples(rationals, rationals),
        y=st.tuples(rationals, rationals),
        p=st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=300, deadline=None)
    def test_ultrametric(self, x, y, p):
        s = tuple(a + b for a, b in zip(x, y))
        assert norm_at(s, p) <= max(norm_at(x, p), norm_at(y, p))

    def test_zero_norm_is_comparable(self):
        assert norm_at((Fraction(0),), 2) < Fraction(1, 128)


class TestCongruence:
    S = PlaceSet((2,))

    def test_examples(self):
        assert congruent_mod((Fraction(7),), (Fraction(2),), 5, self.S)
        # 5/4 = 5 * (1/4) lies in 5 Z_S for S containing 2
        assert congruent_mod(
            (Fraction(3, 2),), (Fraction(3, 2) + Fraction(5, 4),), 5, self.S
        )
        assert not congruent_mod((Fraction(1),), (Fraction(0),), 3, self.S)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            congruent_mod((Fraction(1),), (Fraction(0),), 2, self.S)

    def test_rejects_non_s_integers(self):
        with pytest.raises(ValueError):
            congruent_mod((Fraction(1, 5),), (Fraction(0),), 3, self.S)

    def test_equivalence_and_additivity(self):
        ok, detail = check_congruence_relation(random.Random(4), rounds=100)
        assert ok, detail


class TestCountInAp:
    def test_against_loop(self):
        ok, detail = check_kernel_ap(random.Random(11), rounds=1000)
        assert ok, detail


class TestEnumerateBox:
    def test_nine_halves(self):
        S = PlaceSet((2,))
        got = list(enumerate_box(1, S, Fraction(2), {2: 1}))
        assert got == [(Fraction(a, 2),) for a in range(-4, 5)]

    def test_only_zero(self):
        S = PlaceSet((2,))
        assert list(enumerate_box(1, S, Fraction(1, 2), {2: 0})) == [(Fraction(0),)]

    def test_congruence_filter(self):
        # the printed variant of this example pairs N = 2 with 2 in S, which
        # its own modulus precondition rejects; the same geometry over
        # S = {inf} exercises the intended filter
        got = list(
            enumerate_box(2, PlaceSet(()), Fraction(1), {}, congruence=(2, (Fraction(1), Fraction(0))))
        )
        assert got == [(Fraction(-1), Fraction(0)), (Fraction(1), Fraction(0))]

    def test_incompatible_modulus_rejected(self):
        with pytest.raises(ValueError):
            list(
                enumerate_box(
                    1, PlaceSet((2,)), Fraction(1), {2: 0}, congruence=(2, (Fraction(0),))
                )
            )

    def test_negative_exponent_bounds(self):
        # |q|_2 <= 1/2 forces even numerators
        S = PlaceSet((2,))
        got = list(enumerate_box(1, S, Fraction(4), {2: -1}))
        assert got == [(Fraction(a),) for a in (-4, -2, 0, 2, 4)]

    def test_nth_root_bound(self):
        # bound on |q| is 8**(1/2); integers up to 2 qualify
        got = list(enumerate_box(1, PlaceSet(()), Fraction(8), {}, u_inf_root=2))
        assert got == [(Fraction(a),) for a in (-2, -1, 0, 1, 2)]

    def test_matches_direct_filter(self):
        ok, detail = check_box_enumeration(random.Random(31), rounds=30)
        assert ok, detail

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_box_size_is_the_number_enumerated(self, seed):
        rng = random.Random(seed)
        places = PlaceSet(rng.choice([(), (2,), (3,), (2, 3), (3, 5)]))
        while True:  # keep the enumerated box under 5,000 points
            dim = rng.randint(1, 3)
            root = rng.randint(1, 3)
            u_inf = Fraction(rng.randint(0, 12), rng.randint(1, 4))
            u_fin = {p: rng.randint(-2, 2) for p in places.primes}
            D = math.prod(p ** max(e, 0) for p, e in u_fin.items())
            if (2 * D * max(u_inf, 1) + 1) ** dim <= 5000:
                break
        congruence = None
        if rng.random() < 0.6:
            N = rng.choice([N for N in (2, 3, 5, 7) if places.admissible_modulus(N)])
            den = rng.choice([1] + list(places.primes))
            congruence = (N, tuple(Fraction(rng.randint(-9, 9), den) for _ in range(dim)))
        args = (dim, places, u_inf, u_fin, congruence, root)
        assert box_size(*args) == len(list(enumerate_box_raw(*args)[1]))

    def test_deterministic_order(self):
        S = PlaceSet((2,))
        a = list(enumerate_box(2, S, Fraction(3, 2), {2: 1}))
        b = list(enumerate_box(2, S, Fraction(3, 2), {2: 1}))
        assert a == b
        assert a == sorted(a)


class TestNormProfile:
    def test_product_and_order(self):
        t = NormProfile.of(Fraction(3), {2: 2, 3: -1})
        assert t.product() == Fraction(3) * 4 / 3
        bigger = NormProfile.of(Fraction(4), {2: 2, 3: 0})
        assert bigger.dominates(t)
        assert not t.dominates(bigger)

    def test_positive_real_required(self):
        with pytest.raises(ValueError):
            NormProfile.of(Fraction(0), {})

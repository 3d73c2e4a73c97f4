"""Approximation-function collections: validation, evaluation, divergence."""

import collections
import hashlib
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapprox.approx import (
    ApproxCollection,
    ConstantOne,
    FiniteApproxFunction,
    IntegralUndecidable,
    LogLaw,
    PowerLaw,
    RootVal,
    Scaled,
    UndecidedComparison,
    UserStep,
    _exact_pow,
    diverges,
    evaluate,
    inflate,
    integral_diverges,
    psi_one,
)
from sapprox.checks import check_loglaw_filter
from sapprox.counting import x_region_bound
from sapprox.sring import NormProfile, PlaceSet
from sapprox.volume import Region, volume_exact


class TestEvaluation:
    def test_trivial_examples(self):
        assert evaluate(ConstantOne(), Fraction(173, 10)) == 1
        # power law c=1, a=1 is min(1, 1/t)
        assert evaluate(PowerLaw(Fraction(1), Fraction(1)), Fraction(4)) == Fraction(1, 4)
        # finite place p=2, m=n=1, z_k = k: value at 8 is 2^-3
        fn = FiniteApproxFunction(2, 1, 1, (), ("linear", 1, 0))
        assert fn.evaluate(Fraction(8)) == Fraction(1, 8)

    def test_plateau_and_zero_extension(self):
        fn = PowerLaw(Fraction(3, 2), Fraction(2))
        assert fn.value_exact(Fraction(1)) == 1
        assert fn.value_exact(Fraction(0)) == 1
        f2 = FiniteApproxFunction(3, 2, 1, (1, 1))
        assert f2.evaluate(Fraction(0)) == 1
        assert f2.evaluate(Fraction(1)) == 1

    def test_root_values(self):
        fn = PowerLaw(Fraction(2), Fraction(1, 2))  # min(1, 2 t^(-1/2))
        v = fn.value_exact(Fraction(8))  # 2/sqrt(8) = sqrt(1/2)
        assert isinstance(v, RootVal) and (v.num, v.den, v.root) == (1, 2, 2)
        assert fn.value_exact(Fraction(16)) == Fraction(1, 2)  # collapses to rational

    def test_finite_block_structure(self):
        # n = 2: psi_p is constant on {p^(2k), p^(2k+1)}
        fn = FiniteApproxFunction(2, 1, 2, (1, 3))
        assert fn.evaluate(Fraction(4)) == fn.evaluate(Fraction(8)) == Fraction(1, 2)
        assert fn.evaluate(Fraction(16)) == Fraction(1, 8)
        assert fn.evaluate(Fraction(2)) == 1  # block k=0

    def test_non_increasing_on_grids(self):
        rng = random.Random(9)
        fns = [
            ConstantOne(),
            PowerLaw(Fraction(2), Fraction(3, 2)),
            LogLaw(Fraction(2), Fraction(2)),
            UserStep(((Fraction(3, 2), Fraction(1, 3)),)),
            FiniteApproxFunction(3, 1, 1, (0, 2), ("linear", 3, -1)),
        ]
        for fn in fns:
            grid = sorted(Fraction(rng.randint(1, 500), rng.randint(1, 7)) for _ in range(12))
            floats = [float(evaluate(fn, t)) for t in grid]
            assert all(a >= b - 1e-12 for a, b in zip(floats, floats[1:]))


def real_evaluation_table() -> list[str]:
    """value_exact, leq_value and max_root_leq of each real kind, bare and
    inflated both ways, on one seeded grid of (t, lhs, mult, e)."""
    rng = random.Random(20261018)
    bases = [
        ConstantOne(),
        PowerLaw(Fraction(3, 2), Fraction(2)),
        PowerLaw(Fraction(2), Fraction(1, 2)),
        UserStep(((Fraction(2), Fraction(1, 2)), (Fraction(5), Fraction(1, 8)))),
        LogLaw(Fraction(3), Fraction(0)),
        LogLaw(Fraction(2), Fraction(2)),
        PowerLaw(Fraction(1), Fraction(1)),
    ]
    kinds = []
    for fn in bases:
        kinds += [
            fn,
            Scaled(fn, Fraction(3, 2), Fraction(2, 3)),
            Scaled(fn, Fraction(2, 3), Fraction(3, 2)),
        ]
    lines = []
    for fn in kinds:
        for _ in range(50):
            t = Fraction(rng.randint(0, 400), rng.randint(1, 12))
            lhs = Fraction(rng.randint(0, 30), rng.randint(1, 20))
            mult = Fraction(rng.randint(1, 50), rng.randint(1, 6))
            e = rng.randint(1, 3)
            outs = []
            for call in (
                lambda: fn.value_exact(t),
                lambda: fn.leq_value(lhs, t),
                lambda: fn.max_root_leq(t, mult, e),
            ):
                try:
                    outs.append(repr(call()))
                except UndecidedComparison:
                    outs.append("undecided")
            lines.append(f"{fn!r}|{t}|{lhs}|{mult}|{e}|" + "|".join(outs))
    return lines


class TestPinnedRealEvaluation:
    """The exact outputs of real-place evaluation, hashed: any change in a
    value, a comparison or a root threshold shows here."""

    SHA256 = "bbf7f08d921fe9cd021949bcb42512c7581181063be7462da530d87821036e0d"

    def test_table(self):
        lines = real_evaluation_table()
        assert len(lines) == 1050
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.SHA256


def _finite_fn(rng: random.Random, p: int, m: int, n: int) -> FiniteApproxFunction:
    """A seeded finite-place function: a short head, then a constant tail or
    a linear tail that converges or diverges."""
    head = tuple(sorted(rng.randint(0, 3) for _ in range(rng.randint(0, 3))))
    rule = rng.choice(("constant", "linear-convergent", "linear-divergent"))
    if rule == "constant":
        return FiniteApproxFunction(p, m, n, head)
    # m * alpha > n converges; alpha = 0 always diverges
    alpha = n // m + 1 + rng.randint(0, 1) if rule == "linear-convergent" else 0
    beta = (head[-1] if head else 0) - alpha * (len(head) + 1) + rng.randint(0, 2)
    return FiniteApproxFunction(p, m, n, head, ("linear", alpha, beta))


def integral_kinds() -> list:
    """The real kinds of the integral table, bare and inflated both ways."""
    bases = [
        ConstantOne(),
        PowerLaw(Fraction(3, 2), Fraction(2)),  # irrational plateau end
        PowerLaw(Fraction(4), Fraction(2)),  # rational plateau end and tail
        PowerLaw(Fraction(2), Fraction(1, 2)),  # a < 1
        PowerLaw(Fraction(1), Fraction(1)),  # a = 1, the logarithmic integral
        PowerLaw(Fraction(2), Fraction(3, 2)),  # irrational plateau end, a > 1
        UserStep(((Fraction(2), Fraction(1, 2)), (Fraction(5), Fraction(1, 8)))),
        UserStep(((Fraction(3, 2), Fraction(1, 3)),), tail=None),
        LogLaw(Fraction(3), Fraction(0)),
        LogLaw(Fraction(1), Fraction(1)),
        LogLaw(Fraction(2), Fraction(2)),
    ]
    kinds = []
    for fn in bases:
        kinds += [
            fn,
            Scaled(fn, Fraction(3, 2), Fraction(2, 3)),
            Scaled(fn, Fraction(2, 3), Fraction(3, 2)),
        ]
    return kinds


def integral_table() -> list[str]:
    """integral_to at finite T of each real kind, bare and inflated both
    ways; integral_diverges on collections of each real kind with seeded
    finite places; volume_exact on seeded regions of each real kind."""
    rng = random.Random(20261019)
    kinds = integral_kinds()

    def line(*parts, call):
        try:
            out = repr(call())
        except (IntegralUndecidable, UndecidedComparison) as exc:
            out = type(exc).__name__
        return "|".join(map(str, parts + (out,)))

    lines = []
    for fn in kinds:
        for i in range(6):
            if i % 2:  # squares, where fractional powers of T stay rational
                T = Fraction(rng.randint(1, 20) ** 2, rng.randint(1, 4) ** 2)
            else:
                T = Fraction(rng.randint(1, 400), rng.randint(1, 12))
            lines.append(line("integral_to", fn, T, call=lambda: fn.integral_to(T)))
        for _ in range(3):
            m, n = rng.choice(((1, 1), (2, 1), (1, 2)))
            places = PlaceSet(rng.choice(((), (2,), (2, 3))))
            fin = {p: _finite_fn(rng, p, m, n) for p in places.primes}
            psi = ApproxCollection.of(fn, fin, m, n)
            lines.append(
                line("diverges", psi, call=lambda: integral_diverges(psi, places))
            )
            t_inf = Fraction(rng.randint(1, 300), rng.randint(1, 6))
            exps = {p: n * rng.randint(-2, 4) for p in places.primes}
            region = Region(psi, NormProfile.of(t_inf, exps), places)
            lines.append(line("volume", region, call=lambda: volume_exact(region)))
    return lines


class TestPinnedIntegrals:
    """The local integrals, hashed: truncated real integrals, the divergence
    verdicts with their convergent values, and exact volumes."""

    SHA256 = "862db5f936b2cd10e2c99a0cd972c2ed882ccf698b1c2ce39de169708c4bfa07"

    def test_table(self):
        lines = integral_table()
        assert len(lines) == 396
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.SHA256


def reference_power_integral(fn: PowerLaw, T) -> tuple:
    """``PowerLaw.integral_to`` as first written: the non-rational closed
    forms (the a = 1 logarithm, the root c**(1/a) and the power T**(1-a))
    evaluated in 40-digit mpmath.  The decimal evaluation must give the same
    floats."""

    def mpf(x):
        x = Fraction(x)
        return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)

    c, a = fn.c, fn.a
    to_inf = T == math.inf
    if to_inf:
        if fn.tail_diverges():
            return math.inf, 0
    elif fn.value_triple(T.numerator, T.denominator) == (1, 1, 1):
        return T, Fraction(0)
    r0 = _exact_pow(c, 1 / a)
    if a != 1 and r0 is not None:
        t_pow = Fraction(0) if to_inf else _exact_pow(T, 1 - a)
        if t_pow is not None:
            return r0 + (c * t_pow - r0) / (1 - a), Fraction(0)
    with mpmath.workdps(40):
        r = mpf(r0) if r0 is not None else mpmath.exp(mpmath.log(mpf(c)) / mpf(a))
        if a == 1:
            v = r + mpf(c) * mpmath.log(mpf(T) / r)
        else:
            t_pow = 0 if to_inf else mpf(T) ** mpf(1 - a)
            v = r + (mpf(c) * t_pow - r) / mpf(1 - a)
        err = abs(v) * mpmath.mpf("1e-30") + mpmath.mpf("1e-30")
        return float(v), float(err)


class TestPowerLawClosedForms:
    """The power law's non-rational integrals against the 40-digit mpmath
    evaluation they replaced, on seeded (c, a, T) with T = inf included."""

    def test_matches_the_mpmath_reference(self):
        rng = random.Random("power-law-closed-forms")
        branches = collections.Counter()
        for _ in range(500):
            c = rng.choice((Fraction(rng.randint(1, 10**6)), 1 + Fraction(rng.randint(0, 999), rng.randint(1, 1000))))
            a = rng.choice((Fraction(1), Fraction(rng.randint(1, 12), rng.randint(1, 6)), Fraction(rng.randint(1, 40), rng.randint(1, 40))))
            u = rng.random()
            if u < 0.25:
                T = math.inf
            elif u < 0.4:
                T = Fraction(rng.randint(1, 10**40), rng.randint(1, 10**5))
            else:
                T = Fraction(rng.randint(1, 10 ** rng.randint(1, 8)), rng.randint(1, 100))
            fn = PowerLaw(c, a)
            got = fn.integral_to(T)
            assert repr(got) == repr(reference_power_integral(fn, T)), (c, a, T)
            if isinstance(got[0], float) and got[0] != math.inf:
                branches["log" if a == 1 else "inf" if T == math.inf else "finite"] += 1
        # the logarithm, the root at T = inf and the power at finite T all ran
        assert min(branches[k] for k in ("log", "inf", "finite")) >= 40, branches

    def test_root_float_is_the_nearest_float(self):
        # 60-digit mpmath as the reference; mpmath.root at its default 53 bits,
        # which float(RootVal) once took, was off by one ulp on about 8 % of these
        rng = random.Random("root-float")
        for _ in range(500):
            num, den = rng.randint(1, 10 ** rng.randint(1, 30)), rng.randint(1, 10 ** rng.randint(1, 30))
            root = rng.randint(2, 7)
            with mpmath.workdps(60):
                want = float(mpmath.root(mpmath.mpf(num) / den, root))
            assert float(RootVal(num, den, root)) == want, (num, den, root)


class TestLogLawFloat:
    """The float evaluation of the log law and its filter."""

    fn = LogLaw(Fraction(1), Fraction(2))
    S0 = PlaceSet(())

    def test_value_float_just_above_one_is_the_plateau(self):
        # float(t) == 1.0 here, but g(t) -> infinity as t -> 1+
        t = 1 + Fraction(1, 10**20)
        assert self.fn.value_float(t) == 1.0
        assert evaluate(self.fn, t) == 1.0
        psi = ApproxCollection.of(self.fn, {}, 1, 1)
        assert x_region_bound((t,), psi, self.S0) == 2.0

    def test_value_float_beyond_the_float_range(self):
        # g(10**400) is about 1e-406, below the smallest float
        t = Fraction(10**400)
        assert self.fn.value_float(t) == 0.0
        assert evaluate(self.fn, t) == 0.0
        psi = ApproxCollection.of(self.fn, {}, 1, 1)
        assert x_region_bound((t,), psi, self.S0) == 0.0

    def test_value_float_matches_high_precision(self):
        for t in (Fraction(3), Fraction(10**6, 7), Fraction(10**300)):
            with mpmath.workdps(40):
                tt = mpmath.mpf(t.numerator) / t.denominator
                want = float(1 / (tt * mpmath.log(tt) ** 2))
            assert self.fn.value_float(t) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("b", [Fraction(1, 2), Fraction(2)])
    def test_scaled_float_evaluation(self, b):
        # s * min(1, g(lam t)) with g(u) = c / (u (ln u)**b): on the plateau
        # (lam t <= 1 at t = 2, 3; g(lam t) >= 1 at t = 5) and off it
        c, s, lam = Fraction(3, 2), Fraction(7, 5), Fraction(1, 3)
        fn = Scaled(LogLaw(c, b), s, lam)
        psi = ApproxCollection.of(fn, {}, 1, 1)
        for t in (Fraction(2), Fraction(3), Fraction(5), Fraction(12), Fraction(10**6 + 1), Fraction(10**30)):
            with mpmath.workdps(40):
                u = mpmath.mpf((lam * t).numerator) / (lam * t).denominator
                g = c.numerator / (c.denominator * u * mpmath.log(u) ** b) if u > 1 else 1
                want = float(s.numerator * min(1, g) / s.denominator)
            assert fn.value_float(t) == pytest.approx(want, rel=1e-12)
            assert float(evaluate(fn, t)) == pytest.approx(want, rel=1e-12)
            assert x_region_bound((t,), psi, self.S0) == pytest.approx(2 * want, rel=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_filter_matches_interval_arithmetic(self, seed):
        ok, detail = check_loglaw_filter(random.Random(seed), rounds=40, ties=10)
        assert ok, detail


class TestValidation:
    def test_rejections(self):
        with pytest.raises(ValueError):
            PowerLaw(Fraction(1, 2), Fraction(1))  # breaks the plateau
        with pytest.raises(ValueError):
            PowerLaw(Fraction(2), Fraction(0))
        with pytest.raises(ValueError):
            UserStep(((Fraction(1, 2), Fraction(1, 2)),))  # value below 1 before t=1
        with pytest.raises(ValueError):
            UserStep(((Fraction(2), Fraction(1, 4)), (Fraction(3), Fraction(1, 2))))
        with pytest.raises(ValueError):
            UserStep(((Fraction(2), Fraction(2)),))  # value above 1
        with pytest.raises(ValueError):
            FiniteApproxFunction(2, 1, 1, (2, 1))  # increasing step data
        with pytest.raises(ValueError):
            FiniteApproxFunction(2, 1, 1, (-1,))  # value above 1
        with pytest.raises(ValueError):
            FiniteApproxFunction(2, 1, 1, (Fraction(1, 2),))  # not in p^mZ
        with pytest.raises(ValueError):
            FiniteApproxFunction(2, 1, 1, (3,), ("linear", 1, 0))  # tail jumps down
        with pytest.raises(ValueError):
            FiniteApproxFunction(4, 1, 1, ())  # 4 is not prime

    def test_collection_consistency(self):
        S = PlaceSet((2, 3))
        with pytest.raises(ValueError):
            ApproxCollection.of(
                ConstantOne(),
                {2: FiniteApproxFunction(2, 1, 1), 3: FiniteApproxFunction(3, 2, 1)},
                1,
                1,
            )
        psi = psi_one(S, 1, 1)
        with pytest.raises(ValueError):
            psi.check_places(PlaceSet((2,)))


class TestInflate:
    def test_constant_case(self):
        psi = psi_one(PlaceSet(()), 1, 1)
        up = inflate(psi, Fraction(1), +1)
        assert up.real.value_exact(Fraction(1, 2)) == 2
        assert up.real.value_exact(Fraction(10)) == 2 * 1  # 2 * psi(5)

    def test_power_law_algebra(self):
        # (1+eps) psi(t/(1+eps)) = min(1+eps, (1+eps)^2 / t) for psi = min(1, 1/t)
        eps = Fraction(1, 2)
        up = Scaled(PowerLaw(Fraction(1), Fraction(1)), 1 + eps, 1 / (1 + eps))
        assert up.value_exact(Fraction(9)) == (1 + eps) ** 2 / 9
        assert up.value_exact(Fraction(1)) == 1 + eps

    def test_inverse_pair_pointwise(self):
        rng = random.Random(3)
        psi = psi_one(PlaceSet((2,)), 1, 2)
        eps = Fraction(2, 7)
        back = inflate(inflate(psi, eps, +1), eps, -1)
        for _ in range(25):
            t = Fraction(rng.randint(1, 60), rng.randint(1, 6))
            assert back.real.value_exact(t) == psi.real.value_exact(t)

    def test_sandwich(self):
        rng = random.Random(13)
        base = ApproxCollection.of(PowerLaw(Fraction(2), Fraction(2)), {}, 1, 1)
        eps = Fraction(1, 3)
        up, down = inflate(base, eps, +1), inflate(base, eps, -1)
        for _ in range(25):
            t = Fraction(rng.randint(1, 80), rng.randint(1, 5))
            lo = down.real.value_exact(t)
            mid = base.real.value_exact(t)
            hi = up.real.value_exact(t)
            assert float(lo) <= float(mid) <= float(hi)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            inflate(psi_one(PlaceSet(()), 1, 1), Fraction(0), +1)


class TestIntegralDiverges:
    S = PlaceSet((2,))

    def test_psi_one_divergent(self):
        assert integral_diverges(psi_one(self.S, 1, 1), self.S).divergent

    def test_finite_factor_divergence(self):
        # real part integrable, but the 2-adic factor is a divergent geometric sum
        psi = ApproxCollection.of(
            PowerLaw(Fraction(1), Fraction(2)), {2: FiniteApproxFunction(2, 1, 1)}, 1, 1
        )
        res = integral_diverges(psi, self.S)
        assert res.divergent and not res.real_divergent
        assert dict(res.finite_divergent)[2]

    def test_convergent_with_value(self):
        psi = ApproxCollection.of(
            PowerLaw(Fraction(1), Fraction(2)),
            {2: FiniteApproxFunction(2, 1, 1, (), ("linear", 2, 0))},
            1,
            1,
        )
        res = integral_diverges(psi, self.S)
        # real: 2^n * int min(1, r^-2) = 2 * 2; finite: 1 + (1/2) sum 2^-k = 3/2
        assert not res.divergent
        assert res.value == 6

    def test_log_law_borderline(self):
        S0 = PlaceSet(())
        conv = ApproxCollection.of(LogLaw(Fraction(1), Fraction(2)), {}, 1, 1)
        div = ApproxCollection.of(LogLaw(Fraction(1), Fraction(1)), {}, 1, 1)
        assert not integral_diverges(conv, S0).divergent
        assert integral_diverges(div, S0).divergent

    def test_user_step_needs_tail_rule(self):
        fn = UserStep(((Fraction(2), Fraction(1, 2)),), tail=None)
        psi = ApproxCollection.of(fn, {}, 1, 1)
        with pytest.raises(IntegralUndecidable):
            integral_diverges(psi, PlaceSet(()))
        acknowledged = ApproxCollection.of(
            UserStep(((Fraction(2), Fraction(1, 2)),), tail="constant"), {}, 1, 1
        )
        assert integral_diverges(acknowledged, PlaceSet(())).divergent

    def test_verdict_matches_integral_diverges(self):
        # every real kind of the integral table with seeded finite places:
        # the same verdict, or the same exception
        def outcome(call):
            try:
                return call()
            except Exception as exc:
                return type(exc)

        rng = random.Random(20261020)
        seen = set()
        for fn in integral_kinds():
            for _ in range(4):
                m, n = rng.choice(((1, 1), (2, 1), (1, 2)))
                places = PlaceSet(rng.choice(((), (2,), (2, 3))))
                fin = {p: _finite_fn(rng, p, m, n) for p in places.primes}
                psi = ApproxCollection.of(fn, fin, m, n)
                want = outcome(lambda: integral_diverges(psi, places).divergent)
                assert outcome(lambda: diverges(psi, places)) == want, psi
                seen.add(want)
        assert seen == {True, False, IntegralUndecidable}
        with pytest.raises(ValueError, match="places"):
            diverges(psi_one(self.S, 1, 1), PlaceSet(()))

    def test_linear_tail_threshold(self):
        # z_k = alpha k converges exactly when m*alpha > n
        psi_border = ApproxCollection.of(
            ConstantOne(), {2: FiniteApproxFunction(2, 1, 1, (), ("linear", 1, 0))}, 1, 1
        )
        assert integral_diverges(psi_border, self.S).divergent


class TestJsonRoundTrip:
    def test_collections(self):
        S = PlaceSet((2, 3))
        examples = [
            psi_one(S, 2, 1),
            ApproxCollection.of(
                PowerLaw(Fraction(3, 2), Fraction(2)),
                {
                    2: FiniteApproxFunction(2, 1, 2, (0, 1), ("linear", 2, -1)),
                    3: FiniteApproxFunction(3, 1, 2, (1,)),
                },
                1,
                2,
            ),
            ApproxCollection.of(
                Scaled(LogLaw(Fraction(2), Fraction(3)), Fraction(1, 4), Fraction(9)),
                {2: FiniteApproxFunction(2, 2, 1), 3: FiniteApproxFunction(3, 2, 1)},
                2,
                1,
            ),
            ApproxCollection.of(
                UserStep(((Fraction(3, 2), Fraction(1, 2)),), tail=None), {}, 1, 1
            ),
        ]
        for psi in examples:
            if psi.finite:
                assert ApproxCollection.from_json(psi.to_json()) == psi
            else:
                round_tripped = ApproxCollection.from_json(psi.to_json())
                assert round_tripped.real == psi.real

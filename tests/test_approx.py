"""Approximation-function collections: validation, evaluation, divergence."""

import collections
import functools
import hashlib
import math
import random
import sys
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
from sapprox.cli import psi_from_json
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


def contract_kinds() -> list:
    bases = [
        ConstantOne(),
        PowerLaw(Fraction(2), Fraction(1, 2)),
        UserStep(((Fraction(2), Fraction(1, 2)), (Fraction(5), Fraction(1, 8)))),
        LogLaw(Fraction(3), Fraction(0)),
        LogLaw(Fraction(2), Fraction(2)),
    ]
    return bases + [Scaled(fn, Fraction(3, 2), Fraction(2, 3)) for fn in bases]


class TestRealContract:
    """Every real kind answers ``root_bracket`` and ``leq_ratio`` at every
    t >= 0: the bracket holds ``max_root_leq``, which is the exact root
    threshold, and ``leq_ratio`` agrees with ``leq_value``."""

    @pytest.mark.parametrize("fn", contract_kinds(), ids=repr)
    def test_bracket_and_comparison(self, fn):
        rng = random.Random(2025)
        ts = [Fraction(0), Fraction(1, 2), Fraction(1)]
        ts += [1 + Fraction(rng.randint(1, 10**6), rng.randint(1, 100)) for _ in range(30)]
        for t in ts:
            for _ in range(4):
                mult = Fraction(rng.randint(1, 10**4), rng.randint(1, 50))
                e = rng.randint(1, 3)
                K = fn.max_root_leq(t, mult, e)
                lo, hi = fn.root_bracket(t, mult, e)
                assert lo <= K <= hi, (t, mult, e)
                assert fn.leq_value(K**e / mult, t), (t, mult, e)
                assert not fn.leq_value((K + 1) ** e / mult, t), (t, mult, e)
                xn, xd = rng.randint(0, 60), rng.randint(1, 40)
                got = fn.leq_ratio(xn, xd, e, t.numerator, t.denominator)
                assert got == fn.leq_value(Fraction(xn, xd) ** e, t), (t, xn, xd, e)


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

    SHA256 = "1f39b324ece781956313b5409903fdd347c190fe6b3a17e48ae81bb5656a7c56"

    def test_table(self):
        lines = integral_table()
        assert len(lines) == 396
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.SHA256


def loglaw_closed_form(c: Fraction, b: Fraction, T=math.inf):
    """The integral of min(1, c / (t (ln t)**b)) over (0, T], b > 1, at 80
    digits: t0 + c ((ln t0)**(1-b) - (ln T)**(1-b)) / (b-1), with the plateau
    end t0 = e**u found from u + b ln u = ln c."""
    with mpmath.workdps(80):
        cc, bb = mpmath.mpf(c.numerator) / c.denominator, mpmath.mpf(b.numerator) / b.denominator
        ln_c = mpmath.log(cc)
        u = mpmath.findroot(
            lambda u: u + bb * mpmath.log(u) - ln_c,
            (mpmath.exp(-(abs(ln_c) + 2) / bb), abs(ln_c) + 1),
            solver="anderson",
        )
        tail = u ** (1 - bb) - (0 if T == math.inf else mpmath.log(T) ** (1 - bb))
        return mpmath.exp(u) + cc * tail / (bb - 1)


def power_law_closed_form(c: Fraction, a: Fraction, T=math.inf):
    """The integral of min(1, c t**(-a)) over (0, T], T past the plateau end
    r0 = c**(1/a), at 80 digits: r0 + c ln(T / r0) for a = 1, and
    r0 + (c T**(1-a) - r0) / (1-a) otherwise, where T**(1-a) = 0 at T = inf."""
    with mpmath.workdps(80):
        cc, aa = mpmath.mpf(c.numerator) / c.denominator, mpmath.mpf(a.numerator) / a.denominator
        r0 = cc ** (1 / aa)
        if T == math.inf:
            return r0 - r0 / (1 - aa)
        tt = mpmath.mpf(T.numerator) / T.denominator
        if a == 1:
            return r0 + cc * mpmath.log(tt / r0)
        return r0 + (cc * tt ** (1 - aa) - r0) / (1 - aa)


class TestLogLawTail:
    """The log law's integral to infinity is a closed form within its
    stated error; only finite T uses quadrature."""

    @staticmethod
    def off(got, want):
        with mpmath.workdps(80):
            return abs(mpmath.mpf(got) - want)

    @pytest.mark.parametrize("b", [Fraction(11, 10), Fraction(3, 2), Fraction(2), Fraction(3)])
    @pytest.mark.parametrize("c", [Fraction(1, 2), Fraction(1), Fraction(3), Fraction(20), Fraction(10**6)])
    def test_against_the_closed_form(self, c, b):
        want = loglaw_closed_form(c, b)
        value, error = LogLaw(c, b).integral_to(math.inf)
        assert self.off(value, want) <= error
        for s, lam in ((Fraction(3, 2), Fraction(2, 3)), (Fraction(2, 3), Fraction(3, 2))):
            value, error = Scaled(LogLaw(c, b), s, lam).integral_to(math.inf)
            assert self.off(value, want * s / lam) <= error

    def test_plateau_end_beyond_two_to_the_eighty(self):
        fn = LogLaw(Fraction(10**30), Fraction(2))
        value, error = fn.integral_to(math.inf)
        assert self.off(value, loglaw_closed_form(fn.c, fn.b)) <= error
        # finite T by quadrature, within its stated error
        T = Fraction(10**40)
        value, error = fn.integral_to(T)
        assert value == 5.843666095984539e27
        assert self.off(value, loglaw_closed_form(fn.c, fn.b, 10**40)) <= error


def reference_power_integral(fn: PowerLaw, T) -> tuple:
    """``PowerLaw.integral_to`` as first written: the non-rational closed
    forms (the a = 1 logarithm, the root c**(1/a) and the power T**(1-a))
    evaluated in 40-digit mpmath, with half an ulp of the float added to the
    error for its rounding.  The decimal evaluation must give the same
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
        return float(v), float(err) + math.ulp(float(v)) / 2


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


class TestFloatIntegralErrors:
    """Every float ``integral_to`` lies within its stated error of an
    80-digit reference, with no ulp allowance: the power law's non-rational
    closed forms and the log law's quadrature and tail, at finite T and at
    infinity, bare and scaled both ways."""

    def test_within_the_stated_error(self):
        rng = random.Random("float-integral-errors")
        seen = collections.Counter()
        for i in range(64):
            if i % 2:
                fn = LogLaw(Fraction(rng.randint(1, 60), rng.randint(1, 4)), Fraction(rng.randint(11, 40), 10))
                reference = functools.partial(loglaw_closed_form, fn.c, fn.b)
            else:
                a = rng.choice((Fraction(1), Fraction(rng.randint(1, 40), rng.randint(1, 12))))
                fn = PowerLaw(1 + Fraction(rng.randint(0, 999), rng.randint(1, 1000)), a)
                reference = functools.partial(power_law_closed_form, fn.c, fn.a)
            # finite T below 1e16: from about 1e19 on, quad's value leaves
            # its stated error (ROADMAP item 8)
            T = math.inf if i % 4 < 2 else Fraction(rng.randint(10**3, 10**15), rng.randint(1, 100))
            for s, lam in ((1, 1), (Fraction(3, 2), Fraction(2, 3)), (Fraction(2, 3), Fraction(3, 2))):
                value, error = Scaled(fn, s, lam).integral_to(T) if s != 1 else fn.integral_to(T)
                if type(value) is not float or value == math.inf:
                    continue  # exact, or divergent
                with mpmath.workdps(80):
                    off = abs(mpmath.mpf(value) - reference(T * lam) * s / lam)
                assert off <= error, (fn, T, s, lam, value, error)
                seen[type(fn).__name__, T == math.inf, s == 1] += 1
        assert len(seen) == 8 and min(seen.values()) >= 4, seen


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


def float_leq_exact(fn, ax: float, m: int, ay: float, n: int) -> bool:
    """ax**m <= psi(ay**n), decided exactly on the integer ratios."""
    yn, yd = ay.as_integer_ratio()
    return fn.leq_ratio(*ax.as_integer_ratio(), m, yn**n, yd**n)


def psi_high_precision(fn: PowerLaw, ay: float, n: int) -> mpmath.mpf:
    """min(1, c * (ay**n)**(-a)) to 60 digits."""
    with mpmath.workdps(60):
        c = mpmath.mpf(fn.c.numerator) / fn.c.denominator
        a = mpmath.mpf(fn.a.numerator) / fn.a.denominator
        return min(mpmath.mpf(1), c * mpmath.mpf(ay) ** (-a * n))


FILTER_LAWS = [
    PowerLaw(Fraction(c), Fraction(a))
    for c in (1, 2, 3, Fraction(7, 2))
    for a in (Fraction(1, 2), 1, 2, Fraction(5, 3))
]
DIMS = [(1, 1), (1, 2), (2, 1), (2, 2)]


class TestPowerLawFloatFilter:
    """``PowerLaw.float_leq``: a decided draw agrees with ``leq_ratio``, and
    a draw within the slack of psi, or outside the filter's float range, is
    undecided."""

    @pytest.mark.parametrize("fn", FILTER_LAWS, ids=repr)
    def test_agrees_with_the_exact_comparison(self, fn):
        rng = random.Random(f"float-leq/{fn!r}")
        for m, n in DIMS:
            decide = fn.float_leq(m, n)
            decided = 0
            for i in range(150):
                ay = rng.uniform(0.0, 6.0) if i % 2 else math.exp(rng.uniform(-4.0, 6.0))
                if i % 3:  # x**m near psi, on both sides of it
                    psi = float(psi_high_precision(fn, ay, n))
                    ax = psi ** (1 / m) * (1 + rng.uniform(-0.01, 0.01))
                else:  # x**m up to 4: above the clamp where psi = 1
                    ax = rng.uniform(0.0, 2.0)
                got = decide(ax, ay)
                if got is not None:
                    decided += 1
                    assert got == float_leq_exact(fn, ax, m, ay, n), (m, n, ax, ay)
            assert decided >= 140, (m, n, decided)

    @pytest.mark.parametrize("fn", FILTER_LAWS, ids=repr)
    def test_near_ties_are_undecided(self, fn):
        rng = random.Random(f"float-leq-ties/{fn!r}")
        for m, n in DIMS:
            decide = fn.float_leq(m, n)
            for i in range(60):
                ay = rng.uniform(0.01, 3.0) if i % 2 else math.exp(rng.uniform(-3.0, 6.0))
                psi = psi_high_precision(fn, ay, n)
                with mpmath.workdps(60):
                    ax = float(psi ** (mpmath.mpf(1) / m) * (1 + rng.uniform(-1e-13, 1e-13)))
                    gap = abs(mpmath.mpf(ax) ** m / psi - 1)
                assert gap < 1e-12, (m, n, ax, ay)
                assert decide(ax, ay) is None, (m, n, ax, ay, gap)

    @pytest.mark.parametrize("fn", FILTER_LAWS, ids=repr)
    def test_edge_draws_are_undecided_or_exact(self, fn):
        big = sys.float_info.max
        for m, n in DIMS:
            decide = fn.float_leq(m, n)
            # the plateau end, where c * t**(-a) = 1, and floats around it
            with mpmath.workdps(60):
                e = fn.a * n
                end = float(mpmath.root(mpmath.mpf(fn.c.numerator) / fn.c.denominator, e.numerator) ** e.denominator)
            ends = [end, math.nextafter(end, 0), math.nextafter(end, math.inf), end * (1 + 1e-12)]
            xs = [0.0, 5e-324, 1e-200, 2.0**-600, 1.0, math.nextafter(1.0, 0), math.nextafter(1.0, 2), 0.5, 2.0]
            ys = [5e-324, 1e-300, 1e-10, 1.0, 1e10, 1e200, 2.0**600, big, *ends]
            for ax in xs:
                for ay in ys:
                    got = decide(ax, ay)
                    assert got is None or got == float_leq_exact(fn, ax, m, ay, n), (m, n, ax, ay)
            for ay in ends:  # psi within the slack of 1
                assert decide(1.0, ay) is None, (m, n, ay)
            for ax, ay in ((math.nan, 2.0), (2.0, math.nan), (math.inf, 2.0), (0.5, math.inf), (-0.5, 2.0)):
                assert decide(ax, ay) is None

    def test_far_from_the_ties_is_decided(self):
        fn = PowerLaw(Fraction(2), Fraction(1))
        decide = fn.float_leq(1, 1)
        assert decide(0.5, 1.0) is True  # psi = 1 on the plateau
        assert decide(1.5, 1.0) is False  # clamped: 1.5 <= 2 * 1**-1 but not <= 1
        assert decide(0.2, 4.0) is True and decide(0.8, 4.0) is False  # psi(4) = 1/2

    @pytest.mark.parametrize(
        "fn",
        [
            ConstantOne(),
            LogLaw(Fraction(3), Fraction(0)),
            LogLaw(Fraction(2), Fraction(2)),
            UserStep(((Fraction(2), Fraction(1, 2)), (Fraction(5), Fraction(1, 8)))),
            Scaled(PowerLaw(Fraction(2), Fraction(1, 2)), Fraction(3, 2), Fraction(2, 3)),
            Scaled(LogLaw(Fraction(2), Fraction(2)), Fraction(3, 2), Fraction(2, 3)),
            PowerLaw(Fraction(2**64 + 1), Fraction(1)),
            PowerLaw(Fraction(1), Fraction(2**10 + 1)),
            PowerLaw(Fraction(1), Fraction(1, 2**12)),
        ],
        ids=repr,
    )
    def test_kinds_without_a_float_form_have_no_filter(self, fn):
        for m, n in DIMS:
            assert fn.float_leq(m, n) is None


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

    @pytest.mark.parametrize(
        "fn",
        [
            PowerLaw(Fraction(10**400), Fraction(11, 10)),
            PowerLaw(Fraction(2 * 10**700), Fraction(2)),
            LogLaw(Fraction(10**400), Fraction(2)),
        ],
        ids=["power-irrational-root", "power-a2", "log-law"],
    )
    def test_convergent_above_the_float_range(self, fn):
        # the tail overflows the float range but converges: an unbounded
        # error, never the divergence answer (inf, 0)
        assert fn.integral_to(math.inf) == (math.inf, math.inf)
        psi = ApproxCollection.of(fn, {}, 1, 1)
        res = integral_diverges(psi, PlaceSet(()))
        assert not res.divergent and not res.real_divergent
        assert not diverges(psi, PlaceSet(()))

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
                assert psi_from_json(psi.to_json()) == psi
            else:
                round_tripped = psi_from_json(psi.to_json())
                assert round_tripped.real == psi.real

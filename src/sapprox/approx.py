"""Collections of approximation functions, one per place.

The real-place function is non-increasing, positive, and identically 1 on
(0, 1]; a finite-place function is a step function on powers of p, constant
on blocks {p^(kn), ..., p^(kn+n-1)} with values p^(-m*z_k) for nonnegative
nondecreasing integers z_k.  Functions are data (a kind tag plus parameters),
not opaque callables, so that volumes, divergence decisions and the exact
comparisons inside the solution counter all have closed forms.

Real-place values may be irrational (a power law evaluates to a w-th root
of a rational).  Each real kind therefore evaluates exactly in one place,
``value_triple(tn, td)``, which returns psi(tn/td) as an integer triple
(vn, vd, w) meaning (vn/vd)**(1/w).  The base class derives everything else
from it: the exact value (a Fraction or :class:`RootVal`), the comparison
lhs <= psi(t) and the integer root threshold all cross-multiply integers.
Only the logarithmic family with b > 0 has no exact value (its triple is
None).  Its decisions are float-first: one float evaluation of the law in
the log domain, with a proven error budget, gives ``root_bracket``, an
integer bracket around the exact root threshold that the counter uses to
decide every fibre that is not a near-tie, and decides the comparison
lhs <= psi(t) whenever ln lhs and ln psi(t) differ by more than the slack
(the filtered-predicate pattern of Shewchuk 1997 and Bronnimann, Burnikel
and Pion 2001).  Only a near-tie runs in rigorous interval arithmetic with
escalating precision, which raises :class:`UndecidedComparison` on a
persistent tie instead of ever miscounting.  The power law has one more
float filter, ``float_leq``: a decider of ax**m <= psi(ay**n) on two
floats, which the Monte Carlo oracle asks before its exact test and which
answers only outside the same slack.

Each function has one local integral, ``integral_to``: up to T_inf at the
real place and up to block t_p at a finite place.  The volume of E_psi(T)
is the product of these integrals, and the divergence of the defining
integral asks the same methods for ``math.inf``, where a divergent integral
returns ``math.inf``.  A real kind returns (value, absolute error bound),
exact Fractions where a closed form exists, and (math.inf, 0) only for a
divergent integral; a finite place's shell sum is always an exact Fraction.

Each real kind states its divergence rule once, in ``tail_diverges`` (a
power law diverges for a <= 1, a log law for b <= 1), and only the base
``integral_to`` asks it; a kind integrates the rest in ``_integral``.
``diverges`` is the verdict of ``integral_diverges``, which adds the value
of a convergent integral.

Every float integral states its rounding by one rule, ``_as_float``: half
an ulp of the float.  The non-rational closed forms (the power law's a = 1
logarithm, root c**(1/a) and power T**(1-a), the log law's tail to
infinity) and the float of a :class:`RootVal` run in 40-digit ``decimal``
arithmetic, which ``fractions`` loads anyway.  Only the log law loads
mpmath, for its interval fallbacks and its quadrature at finite T.
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import _kernel
from .sring import PlaceSet, _is_prime, lookup


class UndecidedComparison(ArithmeticError):
    """An exact decision was required but the value straddles the boundary."""


class IntegralUndecidable(ValueError):
    """The divergence of an integral cannot be decided from the given data."""


# --------------------------------------------------------------------------
# exact values of the form (num/den)**(1/root)


@dataclass(frozen=True)
class RootVal:
    """The exact positive value (num/den) ** (1/root)."""

    num: int
    den: int
    root: int

    def __float__(self) -> float:
        with decimal.localcontext(_DEC40):
            return float(_dec_root(Fraction(self.num, self.den), self.root))


def make_root(num: int, den: int, root: int) -> Fraction | RootVal:
    """Build (num/den)**(1/root), collapsing to a Fraction when possible."""
    if num <= 0 or den <= 0 or root < 1:
        raise ValueError("make_root expects positive num/den and root >= 1")
    g = math.gcd(num, den)
    num, den = num // g, den // g
    if root == 1:
        return Fraction(num, den)
    rn = _kernel.introot(num, root)
    rd = _kernel.introot(den, root)
    if rn**root == num and rd**root == den:
        return Fraction(rn, rd)
    return RootVal(num, den, root)


def _exact_pow(x: Fraction, q: Fraction) -> Fraction | None:
    """x**q as an exact positive rational, or None when it is irrational."""
    x, q = Fraction(x), Fraction(q)
    if x <= 0:
        raise ValueError("exact powers only for positive bases")
    y = x**q.numerator
    v = make_root(y.numerator, y.denominator, q.denominator)
    return v if isinstance(v, Fraction) else None


def _to_mpf(x) -> mpmath.mpf:
    import mpmath

    x = Fraction(x)
    return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


#: 40 significant digits, the precision of every non-rational closed form
_DEC40 = decimal.Context(prec=40)


def _dec(x) -> decimal.Decimal:
    """A rational as a Decimal, rounded to the current context."""
    x = Fraction(x)
    return decimal.Decimal(x.numerator) / x.denominator


def _dec_root(x: Fraction, a) -> decimal.Decimal:
    """x ** (1/a) for positive rationals x and a, at the current precision."""
    return (_dec(x).ln() / _dec(a)).exp()


def _as_float(v, err) -> tuple[float, float]:
    """A high-precision value v with error bound err as (float, error bound):
    float(v) rounds to nearest, so the bound takes half an ulp more.  A value
    above the float range is (inf, inf), never the divergence (inf, 0)."""
    value = float(v)
    return value, float(err) + math.ulp(value) / 2


def _dec_with_error(expr, err=0) -> tuple[float, float]:
    """``_as_float`` of a closed-form positive expression in 40-digit decimal
    arithmetic: the formula's error bound err, a generous bound on the
    arithmetic, and the float's rounding."""
    with decimal.localcontext(_DEC40):
        v = expr()
        eps = decimal.Decimal("1e-30")
        return _as_float(v, abs(v) * eps + eps + _dec(err))


# unit roundoff of an IEEE-754 double
_U = 2.0**-53
_LN2 = math.log(2.0)
#: relative slack of every float decision on the log law
FILTER_SLACK = 1e-9
# the largest error bound a float log of the law may carry into a decision,
# a thousandth of the slack (see LogLaw._log_g)
_FILTER_BUDGET = FILTER_SLACK / 1000
# the largest |ln mult| the filter takes
_LN_CAP = 1024


def _ln(x: Fraction) -> float:
    """ln x in floats for a positive rational x, big ints included, with
    absolute error at most 5u(|ln x| + 2), u = 2**-53."""
    n, d = x.numerator, x.denominator
    k = n.bit_length() - d.bit_length()
    if -2 < k < 2:  # 1/4 < x < 4: log1p keeps the relative accuracy near 1
        return math.log1p((n - d) / d)
    if -1000 < k < 1000:
        return math.log(n / d)
    # scale into (1/2, 2) by an exact power of two before any rounding
    y = n / (d << k) if k > 0 else (n << -k) / d
    return math.log(y) + k * _LN2


# --------------------------------------------------------------------------
# real-place approximation functions


class RealApproxFunction:
    """Base of the real-place catalog.  Subclasses are immutable value types.

    A kind defines ``value_triple``, its one exact evaluation, which no other
    module reads; the base class derives ``value_exact``, ``leq_ratio`` (and
    ``leq_value``), ``root_bracket`` (and ``max_root_leq``) from it.  A kind
    whose triple can be None (the log law with b > 0) overrides ``leq_value``
    and ``max_root_leq``, the base's fallbacks there: ``leq_value`` decides
    in floats first, and only a near-tie falls back to interval arithmetic,
    as does every ``max_root_leq``; its ``root_bracket`` is a float bracket.
    """

    def value_triple(self, tn: int, td: int) -> tuple[int, int, int] | None:
        """psi(tn/td) as an unreduced root triple (vn, vd, w), meaning
        (vn/vd)**(1/w); None for numeric-only kinds.  The integer-only entry
        point the counting loop runs on: callers may pass unreduced tn/td
        and must not rely on reduced output."""
        raise NotImplementedError

    def value_exact(self, t: Fraction) -> Fraction | RootVal | None:
        """The exact value at rational t >= 0, or None for numeric-only kinds."""
        t = Fraction(t)
        trip = self.value_triple(t.numerator, t.denominator)
        return None if trip is None else make_root(*trip)

    def value_float(self, t) -> float:
        v = self.value_exact(Fraction(t))
        if v is None:
            raise NotImplementedError
        return float(v)

    def sup_value(self) -> Fraction:
        """sup over (0, inf); rational for every catalog kind."""
        return Fraction(1)

    def leq_ratio(self, xn: int, xd: int, e: int, tn: int, td: int) -> bool:
        """Decide (xn/xd)**e <= psi(tn/td) for integers xn >= 0, xd > 0, e >= 1,
        tn >= 0 and td > 0, cross-multiplied on the triple (vn, vd, w) with
        integer powers; a kind with no triple at t decides through its own
        ``leq_value``."""
        trip = self.value_triple(tn, td)
        if trip is None:
            return self.leq_value(Fraction(xn, xd) ** e, Fraction(tn, td))
        vn, vd, w = trip
        return xn ** (e * w) * vd <= vn * xd ** (e * w)

    def leq_value(self, lhs: Fraction, t: Fraction) -> bool:
        """Decide lhs <= psi(t) exactly (lhs and t rational, an int or a
        Fraction, and lhs >= 0)."""
        if lhs <= 0:
            return True
        return self.leq_ratio(lhs.numerator, lhs.denominator, 1, t.numerator, t.denominator)

    def root_bracket(self, t: Fraction, mult: Fraction, e: int) -> tuple[int, int]:
        """(k_lo, k_hi) with k_lo <= max_root_leq(t, mult, e) <= k_hi, for
        rational t >= 0 and mult > 0, each an int or a Fraction.  The base
        gives the exact (K, K): read off the triple, or from ``max_root_leq``
        for a kind with no triple at t."""
        trip = self.value_triple(t.numerator, t.denominator)
        if trip is None:
            K = self.max_root_leq(t, mult, e)
        else:
            vn, vd, w = trip
            K = _kernel.introot(vn * mult.numerator**w // (vd * mult.denominator**w), e * w)
        return K, K

    def max_root_leq(self, t: Fraction, mult: Fraction, e: int) -> int:
        """max{y integer >= 0 : y**e <= psi(t) * mult}: the base's exact
        bracket."""
        return RealApproxFunction.root_bracket(self, t, mult, e)[0]

    def float_leq(self, m: int, n: int):
        """A float filter for ax**m <= psi(ay**n), or None for a kind with no
        cheap float form (the base's answer).  The filter is a function
        ``decide(ax, ay)`` of two floats that returns True or False when the
        two sides differ by more than FILTER_SLACK (relative), and None
        otherwise; the caller decides a None exactly."""
        return None

    def tail_diverges(self) -> bool:
        """Whether the integral over [0, inf) diverges: the one divergence
        rule of the kind, which only ``integral_to`` asks.  Raises
        IntegralUndecidable when the data cannot decide."""
        raise NotImplementedError

    def integral_to(self, T: Fraction | float) -> tuple[Fraction | float, Fraction | float]:
        """(value, absolute error bound) for the integral over [0, T], T
        rational or ``math.inf``; only a divergent one returns (math.inf, 0).
        The value is a Fraction when exact and a float otherwise, whose error
        bound includes its own rounding."""
        if T == math.inf and self.tail_diverges():
            return math.inf, 0
        return self._integral(T)

    def _integral(self, T):
        """``integral_to`` at rational T, or at math.inf with a convergent tail."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantOne(RealApproxFunction):
    """psi(t) = 1."""

    def value_triple(self, tn, td):
        return 1, 1, 1

    def tail_diverges(self):
        return True

    def _integral(self, T):
        return Fraction(T), Fraction(0)

    def to_json(self):
        return {"kind": "constant-one"}


@dataclass(frozen=True)
class PowerLaw(RealApproxFunction):
    """psi(t) = min(1, c * t**(-a)) with rational c >= 1 and a > 0.

    c >= 1 keeps the plateau: for t <= 1, c*t**(-a) >= 1.
    """

    c: Fraction
    a: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "a", Fraction(self.a))
        if self.c < 1:
            raise ValueError("power-law coefficient must be >= 1 to keep psi = 1 on (0,1]")
        if self.a <= 0:
            raise ValueError("power-law exponent must be positive")

    def value_triple(self, tn, td):
        u, w = self.a.numerator, self.a.denominator
        cn, cd = self.c.numerator, self.c.denominator
        if tn <= td or tn**u * cd**w <= cn**w * td**u:  # t <= 1 or c t^-a >= 1
            return 1, 1, 1
        # c * t**(-u/w) = (c**w / t**u) ** (1/w)
        return cn**w * td**u, cd**w * tn**u, w

    def float_leq(self, m, n):
        """``decide(ax, ay)`` for ax**m <= psi(ay**n) by direct float powers:
        psi = min(1, c / ay**(a n)), clamped at 1, against ax**m.

        It answers only for ax in [2**(-900/m), 2**(900/m)] and ay in
        [1/y_hi, y_hi], y_hi = 2**min(900/(a n), 900), where both powers
        lie within about 2**(+-900), normal and finite.  Every other draw (0,
        a subnormal, inf, nan, or a power that would leave that range) is
        None, and so is the whole filter for a n outside [2**-10, 2**10] or
        c > 2**64, whose floats could overflow or vanish.

        Error budget, with u = 2**-53 and the float rules of
        ``LogLaw._log_g`` (+, -, *, / and ``float(Fraction)`` within u
        relative; ``**`` taken to be faithful, like ``math.log``: within 2u):

        - float(a n) is a n (1 + d) with |d| <= u.  In range,
          |a n ln ay| <= 900 ln 2 (1 + 3u) < 624, so ay**float(a n) is
          ay**(a n) times exp(d a n ln ay), within 625u; the power adds 2u,
          and float(c) and the division u each: the computed g is within
          630u of c / ay**(a n), relative.
        - The clamp keeps that relative error: min(1, g (1 + r)) lies
          between (1 - |r|) min(1, g) and (1 + |r|) min(1, g).
        - ax**m is within 2u (exact for m = 1).
        - psi * (1 -/+ FILTER_SLACK) rounds the constant and the product:
          2u more.

        So a computed side is off by less than 640u < 7.2e-14 relative,
        within the float budget of the log law (1e-12), and a decision
        outside the slack 1e-9 holds with a margin of more than 10,000.
        """
        e = self.a * n
        if not (Fraction(1, 2**10) <= e <= 2**10 and self.c <= 2**64):
            return None
        c, e = float(self.c), float(e)
        x_hi = 2.0 ** (900 / m)
        x_lo = 1 / x_hi
        y_hi = 2.0 ** min(900 / e, 900.0)
        y_lo = 1 / y_hi
        below, above = 1 - FILTER_SLACK, 1 + FILTER_SLACK

        def decide(ax: float, ay: float) -> bool | None:
            if x_lo <= ax <= x_hi and y_lo <= ay <= y_hi:
                lhs = ax**m
                psi = c / ay**e
                if psi > 1.0:
                    psi = 1.0
                if lhs < psi * below:
                    return True
                if lhs > psi * above:
                    return False
            return None

        return decide

    def tail_diverges(self):
        return self.a <= 1

    def _integral(self, T):
        to_inf = T == math.inf
        if not to_inf:
            T = Fraction(T)
            if self.value_triple(T.numerator, T.denominator) == (1, 1, 1):  # plateau
                return T, Fraction(0)
        if self.a == 1:  # the plateau ends at t = c

            def log_expr():
                c = _dec(self.c)
                return c + c * (_dec(T) / c).ln()

            return _dec_with_error(log_expr)
        r0 = _exact_pow(self.c, 1 / self.a)
        if r0 is not None:
            # T**(1-a) vanishes at T = inf, where a > 1
            t_pow = Fraction(0) if to_inf else _exact_pow(T, 1 - self.a)
            if t_pow is not None:
                # integral of c r^-a over [r0, T] is (c*T^(1-a) - r0)/(1-a),
                # using c * r0^(1-a) = r0
                return r0 + (self.c * t_pow - r0) / (1 - self.a), Fraction(0)

        def pow_expr():
            r = _dec(r0) if r0 is not None else _dec_root(self.c, self.a)
            t_pow = 0 if to_inf else _dec(T) ** _dec(1 - self.a)
            return r + (_dec(self.c) * t_pow - r) / _dec(1 - self.a)

        return _dec_with_error(pow_expr)

    def to_json(self):
        return {"kind": "power-law", "c": str(self.c), "a": str(self.a)}


@dataclass(frozen=True)
class LogLaw(RealApproxFunction):
    """psi(t) = min(1, c / (t * (ln t)**b)) for t > 1, and 1 on (0, 1].

    c > 0, b >= 0.  The classical borderline family: the tail integral
    converges exactly when b > 1.  Values are transcendental, so comparisons
    and root thresholds are decided in floats with a proven error budget
    (``_log_g``), and near-ties run in interval arithmetic.
    """

    c: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.c <= 0:
            raise ValueError("log-law coefficient must be positive")
        if self.b < 0:
            raise ValueError("log-law exponent must be nonnegative")

    def value_triple(self, tn, td):
        if tn <= td:
            return 1, 1, 1
        if self.b == 0:
            cn, cd = self.c.numerator, self.c.denominator
            if cn * td >= cd * tn:  # c/t >= 1
                return 1, 1, 1
            return cn * td, cd * tn, 1
        return None

    def value_float(self, t):
        t = Fraction(t)
        if t <= 1 or self.b == 0:
            return super().value_float(t)
        return math.exp(min(self._log_g(t)[0], 0.0))

    def _log_g(self, t: Fraction) -> tuple[float, bool]:
        """(ln g(t), decided) in floats, for g(t) = c / (t (ln t)**b), t > 1
        and b > 0.

        It works in the log domain, ln g = ln c - L1 - b*L2 with L1 = ln t
        and L2 = ln L1, so a huge t cannot overflow.  ``decided`` is False,
        and the value may not decide anything, for t <= 2 (where ln ln t
        loses its relative accuracy), for a non-finite value, for an error
        bound over the budget, and for |ln g| <= FILTER_SLACK, a g within
        the slack of the plateau value 1.

        Error budget, with u = 2**-53:

        - IEEE-754 +, -, * and / and CPython's int/int true division (so
          also ``float(Fraction)``) are correctly rounded: relative error
          at most u.  ``math.log``, ``math.log1p`` and ``math.exp`` are
          taken to be faithful, within 1 ulp: relative error at most 2u.
          No float ``**`` is used.
        - ``_ln(x)`` never converts a big int to a float: an x outside
          (2**-1000, 2**1000) is first scaled into (1/2, 2) by an exact
          shift, and k*ln 2 is added back.  Its absolute error is at most
          5u(|ln x| + 2) for every positive rational x.
        - t > 2 gives L1 >= ln 2 > 0.69, so L1 has relative error below
          5u(1 + 2/0.69) < 20u, and L2 = log(L1) is off by at most
          20.1u + 2u|L2|.  float(b) adds u/2 relative and the product b*L2
          adds u, so b*L2 is off by at most b(20.1u + 3.5u|L2|).  The two
          subtractions add at most 2u(|ln c| + L1 + b|L2|).  In all:

              |error of ln g| <= err_g = 8u (|ln c| + L1 + b(3 + |L2|) + 3).

        - A decision is claimed only when err_g <= budget = slack / 1000 =
          1e-12.  For c = 1 that holds for b up to about 130 at
          t <= e**100 and for b up to about 12 at t = e**1000; a very large
          b, or a larger t, goes to the interval path.  The budget also
          bounds |ln g| <= err_g / 8u < 1126.
        - ``root_bracket`` takes (g*mult)**(1/e) = exp((ln g + ln mult)/e)
          with |ln mult| <= 1024, a little past the float range (709.8).
          ln mult adds at most 5u(1026) = 5.7e-13, or 4.0e-13 within the
          float range.  The sum, the division and exp add at most
          u(1126 + 1024)(1 + 1) + 2u = 4.8e-13.  So the relative error of
          the root is below 1e-12 + 5.7e-13 + 4.8e-13 < 2.1e-12.
        - ``leq_value`` compares ln lhs with ln g for 0 < lhs <= 1 and
          |ln lhs| <= 1024.  ln lhs adds at most 5.7e-13 and the
          subtraction u(1024 + 1126) = 2.4e-13, so ln lhs - ln g is within
          1e-12 + 5.7e-13 + 2.4e-13 < 1.9e-12 of the true difference, and
          its sign is the answer once it exceeds the slack.  A decided
          ln g > 0 is the plateau, g > 1, where psi = 1 >= lhs.

        The slack 1e-9 covers this by a factor of more than 450.  So a
        float decision stays sound even if libm were off by a few
        hundred ulp.
        """
        ln_c, L1 = _ln(self.c), _ln(t)
        L2 = math.log(L1) if L1 > 0 else -math.inf  # t - 1 below the float range
        b = float(self.b)
        ln_g = ln_c - L1 - b * L2
        err_g = 8 * _U * (abs(ln_c) + L1 + b * (3 + abs(L2)) + 3)
        decided = (
            t > 2
            and math.isfinite(ln_g)
            and err_g <= _FILTER_BUDGET
            and abs(ln_g) > FILTER_SLACK
        )
        return ln_g, decided

    def _g_interval(self, t: Fraction, prec: int):
        """Rigorous enclosure of c / (t * ln(t)**b) for t > 1."""
        import mpmath

        iv = mpmath.iv
        old = iv.prec
        try:
            iv.prec = prec
            tt = iv.mpf(t.numerator) / iv.mpf(t.denominator)
            cc = iv.mpf(self.c.numerator) / iv.mpf(self.c.denominator)
            bb = iv.mpf(self.b.numerator) / iv.mpf(self.b.denominator)
            return cc / (tt * iv.exp(bb * iv.log(iv.log(tt))))
        finally:
            iv.prec = old

    def _escalate(self, t: Fraction, decide, tie: str):
        """The first answer ``decide(g)`` gives, None meaning undecided, on
        the enclosures g = ``_g_interval(t, prec)`` at escalating precision;
        ``decide`` runs at the precision of its g.  Raises
        UndecidedComparison(tie) when no precision decides."""
        import mpmath

        iv = mpmath.iv
        for prec in (64, 128, 512, 2048):
            old = iv.prec
            try:
                iv.prec = prec
                answer = decide(self._g_interval(t, prec))
            finally:
                iv.prec = old
            if answer is not None:
                return answer
        raise UndecidedComparison(tie)

    def leq_value(self, lhs, t):
        t, lhs = Fraction(t), Fraction(lhs)
        if lhs > 1:
            return False
        if t <= 1 or self.b == 0 or lhs <= 0:
            return super().leq_value(lhs, t)
        ln_g, decided = self._log_g(t)
        if decided:
            if ln_g > 0:  # plateau: psi = 1 exactly, and lhs <= 1
                return True
            ln_lhs = _ln(lhs)
            # ln lhs - ln g is within 1.9e-12 of the true difference (_log_g)
            if abs(ln_lhs) <= _LN_CAP and abs(ln_lhs - ln_g) > FILTER_SLACK:
                return ln_lhs < ln_g
        import mpmath

        def decide(g):
            d = g - mpmath.iv.mpf(lhs.numerator) / mpmath.iv.mpf(lhs.denominator)
            return True if d.a >= 0 else False if d.b < 0 else None

        return self._escalate(t, decide, f"psi(t) tie at t={t}")

    def max_root_leq(self, t, mult, e):
        t, mult = Fraction(t), Fraction(mult)
        if t <= 1 or self.b == 0:
            return super().max_root_leq(t, mult, e)
        import mpmath

        def decide(g):
            if g.a >= 1:
                # plateau: the value is exactly 1 and the threshold is the
                # exact integer root of mult (an interval floor can never
                # settle that boundary)
                return _kernel.introot(mult.numerator // mult.denominator, e)
            if g.b < 1:
                prod = g * (mpmath.iv.mpf(mult.numerator) / mpmath.iv.mpf(mult.denominator))
                if prod.a > 0:
                    root = mpmath.iv.exp(mpmath.iv.log(prod) / e)
                    klo, khi = int(mpmath.floor(root.a)), int(mpmath.floor(root.b))
                    if klo == khi:
                        return max(klo, 0)
            return None

        return self._escalate(t, decide, f"root threshold tie at t={t}")

    def root_bracket(self, t, mult, e):
        """(k_lo, k_hi) with k_lo <= max_root_leq(t, mult, e) <= k_hi, from
        floats for t > 1 and b > 0; the base's exact (K, K) otherwise, and
        for an undecided float."""
        t, mult = Fraction(t), Fraction(mult)
        if t <= 1 or self.b == 0:
            return super().root_bracket(t, mult, e)
        ln_g, decided = self._log_g(t)
        if decided:
            if ln_g > 0:  # plateau: psi = 1 exactly
                K = _kernel.introot(mult.numerator // mult.denominator, e)
                return K, K
            ln_mult = _ln(mult)
            ln_root = (ln_g + ln_mult) / e
            if abs(ln_mult) <= _LN_CAP and ln_root < 700:
                root = math.exp(ln_root)
                # the true root is within 2.1e-12 relative of root (_log_g)
                return (
                    math.floor(root * (1 - FILTER_SLACK)),
                    math.floor(root * (1 + FILTER_SLACK)),
                )
        return super().root_bracket(t, mult, e)

    @functools.cached_property
    def _crossover(self) -> tuple[Fraction, Fraction]:
        """Rational bracket [lo, hi] of the plateau end t0 (t0*(ln t0)**b = c).
        It depends only on (c, b), so it is computed once per function."""
        lo, hi = Fraction(1), Fraction(2)
        # t (ln t)**b grows without bound for b >= 0, so the doubling ends
        while self.leq_value(Fraction(1), hi):  # still on the plateau at hi
            lo, hi = hi, hi * 2
        for _ in range(80):
            mid = (lo + hi) / 2
            if self.leq_value(Fraction(1), mid):
                lo = mid
            else:
                hi = mid
        return lo, hi

    def tail_diverges(self):
        return self.b <= 1

    def _integral(self, T):
        if T != math.inf:
            T = Fraction(T)
            if T <= 1 or self.leq_value(Fraction(1), T):
                return T, Fraction(0)  # entirely on the plateau
        # psi = 1 up to the plateau end t0 in [lo, hi] and psi <= 1 after it,
        # so starting the tail at hi with the plateau term lo is off by at
        # most hi - lo
        lo, hi = self._crossover
        if T == math.inf:

            def tail():  # b > 1: c / (t (ln t)**b) from hi is c (ln hi)**(1-b) / (b-1)
                b1 = _dec(self.b) - 1
                return _dec(lo) + _dec(self.c) * _dec(hi).ln() ** -b1 / b1

            return _dec_with_error(tail, hi - lo)
        import mpmath

        with mpmath.workdps(30):
            c, b = _to_mpf(self.c), _to_mpf(self.b)
            f = lambda r: c / (r * mpmath.log(r) ** b)
            val, quad_err = mpmath.quad(f, [_to_mpf(hi), _to_mpf(T)], error=True)
            return _as_float(_to_mpf(lo) + val, float(quad_err) + float(hi - lo))

    def to_json(self):
        return {"kind": "log-law", "c": str(self.c), "b": str(self.b)}


@dataclass(frozen=True)
class UserStep(RealApproxFunction):
    """Right-continuous-from-the-left step data: value 1 on (0, t_1], then
    v_i on (t_i, t_{i+1}], extended by the last value (the 'constant' tail).

    ``tail=None`` marks the extension as unacknowledged: evaluation and
    truncated integrals still work, but the integral to infinity refuses to
    decide.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    tail: str | None = "constant"

    def __post_init__(self):
        bps = tuple((Fraction(t), Fraction(v)) for t, v in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if not bps:
            raise ValueError("user-step needs at least one breakpoint")
        if bps[0][0] < 1:
            raise ValueError("first breakpoint below 1 would break psi = 1 on (0,1]")
        last_t, last_v = None, Fraction(1)
        for t, v in bps:
            if last_t is not None and t <= last_t:
                raise ValueError("breakpoint abscissae must be strictly increasing")
            if not (0 < v <= last_v):
                raise ValueError("step values must be positive and non-increasing")
            last_t, last_v = t, v
        if self.tail not in ("constant", None):
            raise ValueError("tail rule must be 'constant' or None")

    def value_triple(self, tn, td):
        val = Fraction(1)
        for ti, vi in self.breakpoints:
            if tn * ti.denominator <= ti.numerator * td:
                break
            val = vi
        return val.numerator, val.denominator, 1

    def tail_diverges(self):
        if self.tail != "constant":
            raise IntegralUndecidable(
                'user-step function has no acknowledged tail rule; '
                'set "tail": "constant" to extend it by its last value'
            )
        return True  # the constant tail value is positive

    def _integral(self, T):
        T = Fraction(T)
        total = Fraction(0)
        prev_t, val = Fraction(0), Fraction(1)
        for ti, vi in self.breakpoints:
            if T <= ti:
                return total + val * (T - prev_t), Fraction(0)
            total += val * (ti - prev_t)
            prev_t, val = ti, vi
        return total + val * (T - prev_t), Fraction(0)

    def to_json(self):
        return {
            "kind": "user-step",
            "breakpoints": [[str(t), str(v)] for t, v in self.breakpoints],
            "tail": self.tail,
        }


@dataclass(frozen=True)
class Scaled(RealApproxFunction):
    """sigma * base(lambda * t): the wrapper produced by inflation and by the
    congruence rescaling.  Generally breaks the plateau normalization, which
    is intended; it never validates as a top-level user function.
    """

    base: RealApproxFunction
    value_scale: Fraction
    arg_scale: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value_scale", Fraction(self.value_scale))
        object.__setattr__(self, "arg_scale", Fraction(self.arg_scale))
        if self.value_scale <= 0 or self.arg_scale <= 0:
            raise ValueError("scales must be positive")

    def value_triple(self, tn, td):
        lam = self.arg_scale
        base = self.base.value_triple(tn * lam.numerator, td * lam.denominator)
        if base is None:
            return None
        vn, vd, w = base
        s = self.value_scale
        return vn * s.numerator**w, vd * s.denominator**w, w

    def value_float(self, t):
        return float(self.value_scale) * self.base.value_float(Fraction(t) * self.arg_scale)

    def sup_value(self):
        return self.value_scale * self.base.sup_value()

    def leq_value(self, lhs, t):
        return self.base.leq_value(lhs / self.value_scale, Fraction(t) * self.arg_scale)

    def max_root_leq(self, t, mult, e):
        return self.base.max_root_leq(
            Fraction(t) * self.arg_scale, mult * self.value_scale, e
        )

    def root_bracket(self, t, mult, e):
        return self.base.root_bracket(
            Fraction(t) * self.arg_scale, mult * self.value_scale, e
        )

    def tail_diverges(self):
        return self.base.tail_diverges()

    def _integral(self, T):
        # a float val times the Fraction f is float(val) * float(f): float(f)
        # and the product round, together by under two ulps of the value
        val, err = self.base.integral_to(T * self.arg_scale)
        f = self.value_scale / self.arg_scale
        value, err = val * f, err * f
        if type(value) is float:
            err += 2 * math.ulp(value)
        return value, err

    def to_json(self):
        return {
            "kind": "scaled",
            "base": self.base.to_json(),
            "value_scale": str(self.value_scale),
            "arg_scale": str(self.arg_scale),
        }


def real_from_json(obj: Mapping) -> RealApproxFunction:
    kind = obj["kind"]
    if kind == "constant-one":
        return ConstantOne()
    if kind == "power-law":
        return PowerLaw(Fraction(obj["c"]), Fraction(obj["a"]))
    if kind == "log-law":
        return LogLaw(Fraction(obj["c"]), Fraction(obj["b"]))
    if kind == "user-step":
        return UserStep(
            tuple((Fraction(t), Fraction(v)) for t, v in obj["breakpoints"]),
            obj.get("tail", "constant"),
        )
    if kind == "scaled":
        return Scaled(
            real_from_json(obj["base"]),
            Fraction(obj["value_scale"]),
            Fraction(obj["arg_scale"]),
        )
    raise ValueError(f"unknown real function kind {kind!r}")


# --------------------------------------------------------------------------
# finite-place approximation functions


@dataclass(frozen=True)
class FiniteApproxFunction:
    """Step data z_k for one finite place: psi_p(p**j) = p**(-m*z_k) on the
    block j in [kn, kn+n-1], with z_k = 0 for k <= 0.

    ``head`` lists z_1..z_H explicitly; beyond that the tail rule applies:
    ("constant",) repeats the last head value (or 0 for an empty head) and
    ("linear", alpha, beta) sets z_k = alpha*k + beta.
    """

    p: int
    m: int
    n: int
    head: tuple[int, ...] = ()
    tail: tuple = ("constant",)

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.m < 1 or self.n < 1:
            raise ValueError("dimensions must be positive")
        if any(not isinstance(z, int) for z in self.head):
            raise ValueError("exponents z_k must be integers (values must lie in p^mZ)")
        if any(z < 0 for z in self.head):
            raise ValueError("exponents z_k must be nonnegative (psi_p <= 1)")
        if any(a > b for a, b in zip(self.head, self.head[1:])):
            raise ValueError("exponents z_k must be nondecreasing (psi_p non-increasing)")
        if self.tail[0] == "constant":
            if len(self.tail) != 1:
                raise ValueError("constant tail takes no parameters")
        elif self.tail[0] == "linear":
            _, alpha, beta = self.tail
            if not (isinstance(alpha, int) and isinstance(beta, int)) or alpha < 0:
                raise ValueError("linear tail needs integer alpha >= 0 and beta")
            H = len(self.head)
            first_tail = alpha * (H + 1) + beta
            prev = self.head[-1] if self.head else 0
            if first_tail < prev:
                raise ValueError("tail must continue nondecreasingly")
            if first_tail < 0:
                raise ValueError("tail exponents must be nonnegative")
        else:
            raise ValueError(f"unknown tail rule {self.tail!r}")

    def z_at_block(self, k: int) -> int:
        """The exponent z_k (psi_p = p**(-m*z_k) on block k); 0 for k <= 0."""
        if k <= 0:
            return 0
        if k <= len(self.head):
            return self.head[k - 1]
        if self.tail[0] == "constant":
            return self.head[-1] if self.head else 0
        _, alpha, beta = self.tail
        return alpha * k + beta

    def evaluate(self, t: Fraction) -> Fraction:
        """psi_p(t) as an exact power of p (steps between powers of p follow
        the smallest power >= t); psi_p(0) = 1 by the plateau extension."""
        t = Fraction(t)
        if t < 0:
            raise ValueError("psi_p is defined for t >= 0")
        if t <= 1:
            return Fraction(1)
        j, x = 0, Fraction(1)
        while x < t:
            x *= self.p
            j += 1
        return Fraction(1, self.p ** (self.m * self.z_at_block(j // self.n)))

    def integral_to(self, t: int | float) -> Fraction | float:
        """The exact local integral up to T_p = p**(t*n), the shell sum
        sum_{k <= t} p**(kn) (1 - p**(-n)) psi_p(p**(kn)).  For t <= 0 that
        is the ball volume p**(t*n); for t > 0 the k <= 0 shells sum to 1.
        At t = math.inf it is the head plus the geometric sum of a linear
        tail with m*alpha > n, and math.inf when the tail diverges."""
        p, m, n = self.p, self.m, self.n
        if t <= 0:
            return Fraction(p) ** (t * n)
        to_inf = t == math.inf
        if to_inf:
            if self.tail[0] == "constant" or m * self.tail[1] <= n:
                return math.inf
            t = len(self.head)  # sum the head, then the tail in closed form
        total = Fraction(1)
        shell = 1 - Fraction(p) ** (-n)
        for k in range(1, t + 1):
            total += Fraction(p) ** (k * n) * shell * Fraction(p) ** (-m * self.z_at_block(k))
        if to_inf:
            _, alpha, beta = self.tail
            ratio = Fraction(p) ** (n - m * alpha)
            first = Fraction(p) ** (-m * beta) * ratio ** (t + 1)
            total += shell * first / (1 - ratio)
        return total

    def to_json(self):
        return {"p": self.p, "head": list(self.head), "tail": list(self.tail)}

    @classmethod
    def from_json(cls, obj: Mapping, m: int, n: int) -> "FiniteApproxFunction":
        return cls(obj["p"], m, n, tuple(obj.get("head", ())), tuple(obj.get("tail", ("constant",))))


# --------------------------------------------------------------------------
# collections


@dataclass(frozen=True)
class ApproxCollection:
    """psi = (psi_p): the real function plus one finite function per place."""

    m: int
    n: int
    real: RealApproxFunction
    finite: tuple[tuple[int, FiniteApproxFunction], ...] = ()

    def __post_init__(self):
        ps = [p for p, _ in self.finite]
        if ps != sorted(set(ps)):
            raise ValueError("finite places must be sorted and distinct")
        for p, fn in self.finite:
            if fn.p != p:
                raise ValueError("finite function keyed under the wrong prime")
            if (fn.m, fn.n) != (self.m, self.n):
                raise ValueError("inconsistent dimensions across places")

    @classmethod
    def of(cls, real, finite: Mapping[int, FiniteApproxFunction], m: int, n: int):
        return cls(m, n, real, tuple(sorted(finite.items())))

    def finite_fn(self, p: int) -> FiniteApproxFunction:
        return lookup(self.finite, p)

    def check_places(self, places: PlaceSet) -> None:
        if tuple(p for p, _ in self.finite) != places.primes:
            raise ValueError("collection places do not match the place set")

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "real": self.real.to_json(),
            "finite": {str(p): fn.to_json() for p, fn in self.finite},
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "ApproxCollection":
        m, n = obj["m"], obj["n"]
        fin = {
            int(p): FiniteApproxFunction.from_json(spec, m, n)
            for p, spec in obj.get("finite", {}).items()
        }
        return cls.of(real_from_json(obj["real"]), fin, m, n)


def psi_one(places: PlaceSet, m: int, n: int) -> ApproxCollection:
    """The collection psi_p = 1 at every place."""
    fin = {p: FiniteApproxFunction(p, m, n) for p in places.primes}
    return ApproxCollection.of(ConstantOne(), fin, m, n)


def inflate(psi: ApproxCollection, eps: Fraction, sign: int) -> ApproxCollection:
    """The inflated collection psi^(+/-): the real component becomes
    (1+eps)**(+/-1) * psi_inf((1+eps)**(-/+1) * t); finite components are
    unchanged.  inflate(., eps, +1) >= psi >= inflate(., eps, -1) pointwise.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("inflation parameter must be positive")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    f = 1 + eps
    if sign == 1:
        real = Scaled(psi.real, value_scale=f, arg_scale=1 / f)
    else:
        real = Scaled(psi.real, value_scale=1 / f, arg_scale=f)
    return ApproxCollection(psi.m, psi.n, real, psi.finite)


# --------------------------------------------------------------------------
# divergence of the defining integral


@dataclass(frozen=True)
class DivergenceResult:
    divergent: bool
    real_divergent: bool
    finite_divergent: tuple[tuple[int, bool], ...]
    value: Fraction | float | None  # the full integral when convergent
    error: Fraction | float | None


def diverges(psi: ApproxCollection, places: PlaceSet) -> bool:
    """The verdict of ``integral_diverges``, without the value."""
    return integral_diverges(psi, places).divergent


def integral_diverges(psi: ApproxCollection, places: PlaceSet) -> DivergenceResult:
    """Decide whether the integral of prod_p psi_p(||y||_p^n) over the full
    n-dimensional S-arithmetic space diverges, via the place factorization:
    the real factor is 2**n * integral of psi_inf over [0, inf), the factor
    at p is sum_k p**(kn) (1 - p**(-n)) psi_p(p**(kn)).  When every factor
    converges the exact (or tightly enclosed) product is returned.
    """
    psi.check_places(places)
    real_val, real_err = psi.real.integral_to(math.inf)
    # (inf, inf) is a convergent integral above the float range
    real_div = real_val == math.inf and real_err == 0
    fin_values = [(p, fn.integral_to(math.inf)) for p, fn in psi.finite]
    fin_flags = tuple((p, f == math.inf) for p, f in fin_values)
    if real_div or any(flag for _, flag in fin_flags):
        return DivergenceResult(True, real_div, fin_flags, None, None)

    fin_prod = Fraction(1)
    for _, f in fin_values:
        fin_prod *= f
    scale = Fraction(2) ** psi.n * fin_prod
    return DivergenceResult(False, False, fin_flags, scale * real_val, scale * real_err)


def evaluate(fn, t) -> Fraction | float:
    """Evaluate either kind of approximation function at t, exactly when the
    kind admits it (finite places always do)."""
    t = Fraction(t)
    if isinstance(fn, FiniteApproxFunction):
        return fn.evaluate(t)
    v = fn.value_exact(t)
    if v is None:
        return fn.value_float(t)
    return v if isinstance(v, Fraction) else float(v)

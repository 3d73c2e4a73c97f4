"""Exact volumes of the adelic approximation regions, with a Monte Carlo oracle.

The region attached to a collection psi and a profile T is the set of pairs
(x, y) with ||x||_p^m <= psi_p(||y||_p^n) and ||y||_p^n <= T_p at every
place.  Its volume factors over the places: the real factor is
2**n * integral of psi_inf over [0, T_inf] (times 2**m for the x-ball),
and each finite factor is the shell sum
sum_{k <= t_p} p**(kn) (1 - p**(-n)) psi_p(p**(kn)) with T_p = p**(t_p n),
whose k <= 0 part telescopes exactly to 1.  Both local integrals come from
the place's own ``integral_to``, the same method that
``approx.integral_diverges`` takes to infinity.

The Monte Carlo estimator is an independent oracle: it samples the bounding
adelic box (uniform float reals at the real place, uniform residues at the
finite places) and tests membership exactly.  It draws through the
generator's own primitives, ``random()`` in ``uniform``'s formula and
``getrandbits`` in ``randrange``'s loop, in a fixed order that a finite-place
miss cuts short (the stream contract of ``volume_monte_carlo``).  A float is
an exact dyadic rational, so the real-place test runs on the integer ratios
of the draws, through ``RealApproxFunction.leq_ratio``;
``contains`` runs the same test on rational points.  Two cuts taken from
that test once per call decide most draws by float comparisons: y_cut, the
largest float y with y**n <= T_inf, and the flat corner (x_flat, y_flat),
inside which psi is still its sup.  A draw between the two asks psi's float
filter ``float_leq`` first, where the kind has one, and only its None goes
to the exact test.  Each finite place is a running gcd of its residues.
The bounding box volume is exact, so the only error is binomial.
"""

from __future__ import annotations

import math
import random
import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .approx import ApproxCollection
from .sring import REAL_PLACE, NormProfile, PlaceSet, derive_seed, lookup, padic_valuation, sup_norm


@dataclass(frozen=True)
class Region:
    """E_psi(T) for a collection psi and a profile T bounding ||y||_p^n."""

    psi: ApproxCollection
    profile: NormProfile
    places: PlaceSet

    def __post_init__(self):
        self.psi.check_places(self.places)
        if tuple(p for p, _ in self.profile.fin_exp) != self.places.primes:
            raise ValueError("profile places do not match the place set")
        for p, e in self.profile.fin_exp:
            if e % self.psi.n != 0:
                raise ValueError(
                    f"finite bound exponent at p={p} must be a multiple of n={self.psi.n}"
                )

    @property
    def m(self) -> int:
        return self.psi.m

    @property
    def n(self) -> int:
        return self.psi.n

    def t_block(self, p: int) -> int:
        """t_p with T_p = p**(t_p * n)."""
        return self.profile.exponent(p) // self.psi.n


@dataclass(frozen=True, slots=True)
class VolumeResult:
    """Exact factored volume: total = 2**m * real_factor * prod(finite factors)."""

    m: int
    n: int
    real_factor: Fraction | float
    real_error: Fraction | float
    finite_factors: tuple[tuple[int, Fraction], ...]
    total: Fraction | float
    total_error: Fraction | float

    @property
    def is_exact(self) -> bool:
        return isinstance(self.total, Fraction)

    def place_factor(self, place) -> Fraction | float:
        """vol(E_{psi_p}(T_p)); the real place carries the 2**m x-ball factor."""
        if place == REAL_PLACE:
            return Fraction(2) ** self.m * self.real_factor
        return lookup(self.finite_factors, place)

    def identity_holds(self) -> bool:
        """total == 2**m * real_factor * prod(finite factors), re-multiplied."""
        prod = Fraction(2) ** self.m * self.real_factor
        for _, f in self.finite_factors:
            prod = prod * f
        if self.is_exact:
            return prod == self.total
        return math.isclose(float(prod), float(self.total), rel_tol=1e-12)


def volume_exact(region: Region) -> VolumeResult:
    """The factored volume of E_psi(T), exact whenever the real-place kind
    admits a closed rational form (plateau, rational power data, step data);
    otherwise the real factor carries an explicit absolute error bound."""
    m, n = region.m, region.n
    val, err = region.psi.real.integral_to(region.profile.t_inf)
    # a Fraction times a float val is float(Fraction) * val
    two_n = Fraction(2) ** n
    real_factor = two_n * val
    real_error = two_n * err
    fin = tuple(
        (p, region.psi.finite_fn(p).integral_to(region.t_block(p)))
        for p in region.places.primes
    )
    fin_prod = Fraction(1)
    for _, f in fin:
        fin_prod *= f
    scale = Fraction(2) ** m * fin_prod
    return VolumeResult(m, n, real_factor, real_error, fin, scale * real_factor, scale * real_error)


# --------------------------------------------------------------------------
# membership


def _real_member(region: Region):
    """The real-place test as a function of the two sup norms, each passed as
    a numerator and a denominator: ||y||**n <= T_inf, cross-multiplied, then
    ||x||**m <= psi_inf(||y||**n), psi's ``leq_ratio``."""
    real, m, n = region.psi.real, region.m, region.n
    bn, bd = region.profile.t_inf.numerator, region.profile.t_inf.denominator

    def member(xn: int, xd: int, yn: int, yd: int) -> bool:
        tn, td = yn**n, yd**n
        return tn * bd <= bn * td and real.leq_ratio(xn, xd, m, tn, td)

    return member


def contains(
    region: Region,
    x_at: Mapping[object, Sequence[Fraction]],
    y_at: Mapping[object, Sequence[Fraction]],
) -> bool:
    """Exact membership of an adelic point, given per-place rational
    coordinates.  This is the one definition of E_psi(T) that the brute-force
    counts use.  The finite places go first, being the cheaper rejection; a
    zero y lies in every finite ball and takes the x test z = 0."""
    m, n = region.m, region.n
    for place in region.places.all_places():
        if len(x_at[place]) != m or len(y_at[place]) != n:
            raise ValueError("point dimensions do not match the region")
    for p in region.places.primes:
        # y lies in the ball iff -v_p(y_j) n <= the exponent at p for every j
        # (a zero coordinate has v_p = inf and passes both tests)
        lowest = -region.profile.exponent(p)
        mv_y = math.inf
        for c in y_at[p]:
            v = padic_valuation(c, p)
            if v * n < lowest:
                return False
            mv_y = min(mv_y, v)
        z = 0 if mv_y == math.inf else region.psi.finite_fn(p).z_at_block(-mv_y)
        for c in x_at[p]:
            if padic_valuation(c, p) < z:
                return False
    ax, ay = sup_norm(x_at[REAL_PLACE]), sup_norm(y_at[REAL_PLACE])
    return _real_member(region)(ax.numerator, ax.denominator, ay.numerator, ay.denominator)


def contains_pair(region: Region, x_vec: Sequence[Fraction], y_vec: Sequence[Fraction]) -> bool:
    """Membership of a diagonally embedded S-integer pair."""
    x_at = {place: x_vec for place in region.places.all_places()}
    y_at = {place: y_vec for place in region.places.all_places()}
    return contains(region, x_at, y_at)


# --------------------------------------------------------------------------
# Monte Carlo oracle


@dataclass(frozen=True, slots=True)
class MonteCarloResult:
    """What the oracle measured; the estimate and its plug-in standard error
    are derived from it."""

    hits: int
    samples: int
    box_volume: Fraction

    @property
    def estimate(self) -> float:
        return float(self.box_volume) * (self.hits / self.samples)

    @property
    def std_error(self) -> float:
        phat = self.hits / self.samples
        return float(self.box_volume) * math.sqrt(phat * (1 - phat) / self.samples)


def _cover_radius(bound: Fraction, root: int) -> float:
    """Smallest convenient float r with r**root >= bound (exactly)."""
    r = float(bound) ** (1.0 / root) if bound > 0 else 0.0
    while Fraction(r) ** root < bound:
        r = math.nextafter(r, math.inf)
    return r


def _log2(x: Fraction) -> int:
    """log2 of a positive rational, to within one."""
    return x.numerator.bit_length() - x.denominator.bit_length()


def _check_float_radius(name: str, bound: Fraction, dim: str, root: int) -> None:
    """Reject a bound whose cover radius r would leave the float range of the
    draws, which span [-r, r] with width 2r."""
    if bound > (2**1022 if root == 1 else sys.float_info.max):
        raise ValueError(
            f"Monte Carlo oracle requires {name} <= 2**1022 for {dim} = 1 and below 2**1024 "
            f"for {dim} > 1, the float range of its draws; got {name} of about 2**{_log2(bound)}"
        )


def check_sample_count(samples) -> None:
    """Reject a Monte Carlo sample count that is not an int >= 1 (a bool
    included), before any draw."""
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1:
        raise ValueError(f"samples must be an int >= 1, got {samples!r}")


def _largest_passing(passes, hi: float) -> float:
    """The largest float x in (0, hi] with passes(x), for a test that holds
    up to some point and fails beyond it; -1.0, below every draw, when no
    positive float passes.  Bisects over the bit patterns, which order the
    positive floats, and never asks about 0."""
    if passes(hi):
        return hi

    def as_float(bits: int) -> float:
        return struct.unpack("<d", struct.pack("<q", bits))[0]

    lo, top = 0, struct.unpack("<q", struct.pack("<d", hi))[0]  # lo passes or is 0; top fails
    while top - lo > 1:
        mid = (lo + top) // 2
        if passes(as_float(mid)):
            lo = mid
        else:
            top = mid
    return as_float(lo) if lo else -1.0


def _real_cuts(region: Region, member, rx: float, ry: float) -> tuple[float, float, float]:
    """(y_cut, x_flat, y_flat), the three floats that decide most real-place
    draws without ``member``, each the largest float passing its exact test:

    - y_cut, in (0, ry]: y**n <= T_inf;
    - x_flat, in (0, rx]: x**m <= sup psi_inf;
    - y_flat, in (0, y_cut]: ``member(x_flat, y)``.

    psi never rises and equals its sup near 0, so a draw with ay > y_cut
    misses, and one with ay <= y_flat is in exactly when ax <= x_flat."""
    m, n = region.m, region.n
    t_inf, sup_x = region.profile.t_inf, region.psi.real.sup_value()
    y_cut = _largest_passing(lambda y: Fraction(y) ** n <= t_inf, ry)
    x_flat = _largest_passing(lambda x: Fraction(x) ** m <= sup_x, rx)
    xn, xd = x_flat.as_integer_ratio()
    y_flat = _largest_passing(lambda y: member(xn, xd, *y.as_integer_ratio()), y_cut)
    return y_cut, x_flat, y_flat


def volume_monte_carlo(region: Region, samples: int, seed: int) -> MonteCarloResult:
    """Uniform sampling of the bounding adelic box with exact membership tests.

    The stream: the budget runs in blocks of 8,192 samples, block i on
    ``random.Random(derive_seed(seed, "mc-block", i))``.  Per sample it gives
    the m x draws, the n y draws, then place by place the n y residues and
    the m x residues.  A real coordinate in [-r, r] is ``-r + 2r * random()``,
    ``uniform``'s own formula; a residue below p**d is ``getrandbits(k)``,
    k = (p**d).bit_length(), drawn again while it is >= p**d, ``randrange``'s
    own loop.  A real-place miss still draws every place's residues; a miss
    at a finite place stops the sample there.  So the result is
    deterministic given (seed, samples), and independent of how blocks would
    be distributed across workers.

    Each real coordinate is an exact dyadic rational, and each sup norm a
    running max over the draws.  Three floats, each the largest passing its
    exact test (``_real_cuts``), decide most draws: a y sup norm above y_cut
    misses; at or below y_flat the draw is in exactly when the x sup norm is
    at most x_flat; every other draw asks psi's float filter ``float_leq``
    first, and only a draw it leaves undecided (every draw, for a kind with
    no filter) runs ``_real_member`` on the integer ratios.
    At a finite place the running gcd of p**depth and the y residues
    is p**(min valuation), which a per-call dict maps to the x test p**z (0
    for none); the x residues pass when p**z divides their running gcd.  A
    place that cannot reject only draws its residues, with the same
    rejection loops, and takes no gcd: a place whose x test is 0 at every y
    valuation (decided once per call), and every place after a real-place
    miss.  The loop inlines the residue draws and builds no per-sample
    object besides its draws: its ranges are built once per call.
    """
    check_sample_count(samples)
    m, n = region.m, region.n
    t_inf = region.profile.t_inf
    if t_inf < 1:
        raise ValueError("Monte Carlo oracle requires T_inf >= 1")
    psi = region.psi
    sup_x = psi.real.sup_value()
    if sup_x <= 0:
        raise ValueError("degenerate bounding box")
    if sup_x < Fraction(1, 2**1022):  # its root must start from a normal float
        raise ValueError(
            "Monte Carlo oracle requires the real part's sup value >= 2**-1022, the least "
            f"normal float; got about 2**{_log2(sup_x)}"
        )
    _check_float_radius("T_inf", t_inf, "n", n)
    _check_float_radius("the real part's sup value", sup_x, "m", m)
    rx = _cover_radius(sup_x, m)
    ry = _cover_radius(t_inf, n)

    # per place: (p**depth_y, its bit length, p**depth_x, its bit length,
    # {p**j: x test at y valuation j}, or None when every x test is 0)
    fin_data = []
    box_vol = (2 * Fraction(rx)) ** m * (2 * Fraction(ry)) ** n
    for p in region.places.primes:
        fn = psi.finite_fn(p)
        t = region.t_block(p)
        z_max = fn.z_at_block(t) if t >= 1 else 0
        depth_y = max(t, 0) + 1
        # residues are known mod p**depth: 0 stands for valuation depth
        x_test = {}
        for j in range(depth_y + 1):
            z = fn.z_at_block(t - j) if t - j >= 1 else 0
            x_test[p**j] = p**z if z > 0 else 0
        if not any(x_test.values()):
            x_test = None
        my, mx = p**depth_y, p ** (z_max + 1)
        fin_data.append((my, my.bit_length(), mx, mx.bit_length(), x_test))
        box_vol *= Fraction(p) ** (t * n)  # exact volume of the ||y||_p ball
    if box_vol > sys.float_info.max:
        raise ValueError(
            "Monte Carlo oracle requires a bounding box volume within the float range "
            f"(below 2**1024); got about 2**{_log2(box_vol)}"
        )
    member = _real_member(region)
    y_cut, x_flat, y_flat = _real_cuts(region, member, rx, ry)
    decide = psi.real.float_leq(m, n)  # a band draw has ay**n <= T_inf
    x0, y0 = -rx, -ry
    wx, wy = rx - x0, ry - y0
    xs, ys = range(m), range(n)
    gcd = math.gcd

    hits = 0
    block = 8192
    for block_index, start in enumerate(range(0, samples, block)):
        count = min(block, samples - start)
        rng = random.Random(derive_seed(seed, "mc-block", block_index))
        rand, bits = rng.random, rng.getrandbits
        for _ in range(count):
            ax = ay = 0.0
            for _ in xs:
                v = abs(x0 + wx * rand())
                if v > ax:
                    ax = v
            for _ in ys:
                v = abs(y0 + wy * rand())
                if v > ay:
                    ay = v
            if ay > y_cut:
                ok = False
            elif ay <= y_flat:
                ok = ax <= x_flat
            else:
                ok = decide(ax, ay) if decide else None
                if ok is None:
                    ok = member(*ax.as_integer_ratio(), *ay.as_integer_ratio())
            for my, ky, mx, kx, x_test in fin_data:
                if not (ok and x_test):  # this place cannot reject: draw only
                    for _ in ys:
                        while bits(ky) >= my:
                            pass
                    for _ in xs:
                        while bits(kx) >= mx:
                            pass
                    continue
                gy, gx = my, 0
                for _ in ys:
                    r = bits(ky)
                    while r >= my:
                        r = bits(ky)
                    gy = gcd(gy, r)
                for _ in xs:
                    r = bits(kx)
                    while r >= mx:
                        r = bits(kx)
                    gx = gcd(gx, r)
                pz = x_test[gy]
                if pz and gx % pz:
                    ok = False
                    break
            hits += ok

    return MonteCarloResult(hits, samples, box_vol)


def mc_agrees(exact: VolumeResult, mc: MonteCarloResult) -> bool:
    """Whether the exact volume lies within 4 standard errors of the Monte
    Carlo estimate.

    The standard error is the estimator's at the exact volume, not the
    plug-in ``mc.std_error``: that one is 0 whenever every sample hits, so
    a region filling all but 1e-4 of its box would fail about one time in
    eight at 20k samples with a correct volume.
    """
    box = float(mc.box_volume)
    total = float(exact.total)
    ratio = min(max(total / box, 0.0), 1.0)
    se = box * math.sqrt(ratio * (1 - ratio) / mc.samples)
    return abs(total - mc.estimate) <= 4 * se + float(exact.total_error) + 1e-9

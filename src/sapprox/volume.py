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
finite places) and tests membership exactly.  A float is an exact dyadic
rational, so the real-place test runs on the integer ratios of the draws,
cross-multiplied as in ``RealApproxFunction.leq_value``; ``contains`` runs
the same test on rational points.  The bounding box volume is exact, so the
only error is binomial.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import _kernel
from .approx import ApproxCollection
from .sring import REAL_PLACE, NormProfile, PlaceSet, derive_seed, min_valuation, sup_norm


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


@dataclass(frozen=True)
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
        for p, f in self.finite_factors:
            if p == place:
                return f
        raise KeyError(place)

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
    a numerator and a denominator: ||y||**n <= T_inf, then
    ||x||**m <= psi_inf(||y||**n).  Both are integer cross-multiplications,
    the second on the triple (vn, vd, w) as in ``leq_value``; a kind with no
    triple (the log law with b > 0, bare or scaled) decides through its own
    ``leq_value``."""
    real, m, n = region.psi.real, region.m, region.n
    bn, bd = region.profile.t_inf.numerator, region.profile.t_inf.denominator

    def member(xn: int, xd: int, yn: int, yd: int) -> bool:
        tn, td = yn**n, yd**n
        if tn * bd > bn * td:
            return False
        trip = real.value_triple(tn, td)
        if trip is None:
            return real.leq_value(Fraction(xn, xd) ** m, Fraction(tn, td))
        vn, vd, w = trip
        return xn ** (m * w) * vd <= vn * xd ** (m * w)

    return member


def contains(
    region: Region,
    x_at: Mapping[object, Sequence[Fraction]],
    y_at: Mapping[object, Sequence[Fraction]],
) -> bool:
    """Exact membership of an adelic point, given per-place rational coordinates."""
    m, n = region.m, region.n
    for place in region.places.all_places():
        x = tuple(Fraction(c) for c in x_at[place])
        y = tuple(Fraction(c) for c in y_at[place])
        if len(x) != m or len(y) != n:
            raise ValueError("point dimensions do not match the region")
        if place == REAL_PLACE:
            ax, ay = sup_norm(x), sup_norm(y)
            if not _real_member(region)(ax.numerator, ax.denominator, ay.numerator, ay.denominator):
                return False
        else:
            p = place
            fn = region.psi.finite_fn(p)
            mv_y = min_valuation(y, p)
            kappa = None if mv_y is None else -mv_y
            if kappa is not None and kappa * n > region.profile.exponent(p):
                return False
            z = 0 if kappa is None else fn.z_at_block(kappa)
            mv_x = min_valuation(x, p)
            if mv_x is not None and mv_x < z:
                return False
    return True


def contains_pair(region: Region, x_vec: Sequence[Fraction], y_vec: Sequence[Fraction]) -> bool:
    """Membership of a diagonally embedded S-integer pair."""
    x_at = {place: x_vec for place in region.places.all_places()}
    y_at = {place: y_vec for place in region.places.all_places()}
    return contains(region, x_at, y_at)


# --------------------------------------------------------------------------
# Monte Carlo oracle


@dataclass(frozen=True)
class MonteCarloResult:
    estimate: float
    std_error: float
    hits: int
    samples: int
    box_volume: Fraction


def _cover_radius(bound: Fraction, root: int) -> float:
    """Smallest convenient float r with r**root >= bound (exactly)."""
    r = float(bound) ** (1.0 / root) if bound > 0 else 0.0
    while Fraction(r) ** root < bound:
        r = math.nextafter(r, math.inf)
    return r


def volume_monte_carlo(region: Region, samples: int, seed: int) -> MonteCarloResult:
    """Uniform sampling of the bounding adelic box with exact membership tests.

    Each real coordinate is a float draw, an exact dyadic rational, so the
    real-place test runs on the integer ratios of the sup norms.  Per sample
    the stream gives the m x draws, the n y draws, then the residues place by
    place; a real-place miss still draws every residue, keeping the stream
    aligned.  Deterministic given (seed, samples); the budget is consumed in
    fixed-size blocks with independently derived streams, so the result is
    independent of how blocks would be distributed across workers.
    """
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1:
        raise ValueError(f"samples must be an int >= 1, got {samples!r}")
    if region.profile.t_inf < 1:
        raise ValueError("Monte Carlo oracle requires T_inf >= 1")
    m, n = region.m, region.n
    psi = region.psi

    sup_x = psi.real.sup_value()
    if sup_x <= 0:
        raise ValueError("degenerate bounding box")
    rx = _cover_radius(sup_x, m)
    ry = _cover_radius(region.profile.t_inf, n)
    member = _real_member(region)

    fin_data = []  # (p, t, depth_y, depth_x, p**depth_y, p**depth_x, fn)
    box_vol = (2 * Fraction(rx)) ** m * (2 * Fraction(ry)) ** n
    for p in region.places.primes:
        fn = psi.finite_fn(p)
        t = region.t_block(p)
        z_max = fn.z_at_block(t) if t >= 1 else 0
        depth_y = max(t, 0) + 1
        depth_x = z_max + 1
        fin_data.append((p, t, depth_y, depth_x, p**depth_y, p**depth_x, fn))
        box_vol *= Fraction(p) ** (t * n)  # exact volume of the ||y||_p ball

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
                    continue  # a real-place miss still draws every residue
                # residues are known mod p**depth: a nonzero one has
                # valuation below depth, and 0 stands for depth
                mv_y = min((_kernel.valuation(r, p) if r else dy for r in ry_res), default=dy)
                kappa = t - mv_y
                z = fn.z_at_block(kappa) if kappa >= 1 else 0
                if z > 0 and min(_kernel.valuation(r, p) if r else dx for r in rx_res) < z:
                    ok = False
                    break
            hits += ok

    phat = hits / samples
    est = float(box_vol) * phat
    se = float(box_vol) * math.sqrt(phat * (1 - phat) / samples)
    return MonteCarloResult(est, se, hits, samples, box_vol)


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

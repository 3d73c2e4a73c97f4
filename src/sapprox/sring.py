"""Exact arithmetic over rings of S-integers.

A place is either the real place (the module constant ``REAL_PLACE``) or a
prime number p.  S-integers are rationals whose denominators factor over the
finite places of S; they are represented by ``fractions.Fraction`` (which
structurally guarantees the reduced numerator/denominator invariant) and
vectors over them by tuples of Fractions.

The module provides p-adic valuations and per-place norms, the congruence
relation modulo N coprime to S, deterministic enumeration of the S-integer
points of adelic boxes, and the closed-form arithmetic-progression counter.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Mapping, Sequence

from . import _kernel

REAL_PLACE = "inf"

SRational = Fraction
SVector = tuple[Fraction, ...]


def derive_seed(seed: int, *tags) -> int:
    """The 64-bit seed of the stream named by (seed, *tags): the first 8
    bytes, big-endian, of sha256 over the '/'-joined parts."""
    text = "/".join(str(t) for t in (seed,) + tags)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PlaceSet:
    """The finite set of places S = {inf, p_1, ..., p_s}, p_1 < ... < p_s.

    The real place is always implicitly present; ``primes`` holds the finite
    places.  s = 0 (purely real approximation) is allowed.
    """

    primes: tuple[int, ...] = ()

    def __post_init__(self):
        for p in self.primes:
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        if any(a >= b for a, b in zip(self.primes, self.primes[1:])):
            raise ValueError("primes must be strictly increasing")

    @classmethod
    def of(cls, *primes: int) -> "PlaceSet":
        return cls(tuple(sorted(set(primes))))

    @property
    def radical(self) -> int:
        r = 1
        for p in self.primes:
            r *= p
        return r

    def all_places(self) -> tuple:
        return (REAL_PLACE,) + self.primes

    def supports_denominator(self, den: int) -> bool:
        """True iff every prime factor of den lies in S."""
        den = abs(den)
        for p in self.primes:
            while den % p == 0:
                den //= p
        return den == 1

    def contains(self, x: Fraction | int) -> bool:
        """Membership of a rational in Z_S."""
        return self.supports_denominator(Fraction(x).denominator)

    def contains_vector(self, v: Sequence[Fraction]) -> bool:
        return all(self.contains(c) for c in v)

    def admissible_modulus(self, N: int) -> bool:
        """N is a valid congruence modulus iff N >= 1 and gcd(N, p_1...p_s) = 1."""
        return N >= 1 and math.gcd(N, self.radical) == 1


def lookup(pairs: Sequence[tuple], key):
    """The value paired with ``key`` in a sequence of (key, value) pairs."""
    for k, v in pairs:
        if k == key:
            return v
    raise KeyError(key)


def padic_valuation(x: Fraction | int, p: int) -> int | float:
    """v_p(x): the exponent v with x = p**v * (u/w), p dividing neither u nor w.

    Returns math.inf for x = 0.
    """
    num, den = x.numerator, x.denominator
    if not num:
        return math.inf
    # x is reduced, so p divides at most one of num and den
    return _kernel.valuation(num, p) if den % p else -_kernel.valuation(den, p)


def sup_norm(v: Sequence[Fraction]) -> Fraction:
    """The real-place norm: max of coordinate absolute values."""
    return max(abs(c if type(c) is Fraction else Fraction(c)) for c in v)


def norm_at(v: Sequence[Fraction], place) -> Fraction:
    """Per-place vector norm: sup norm at the real place, max |.|_p at p.

    The zero vector has norm 0 at every place.
    """
    if place == REAL_PLACE:
        return sup_norm(v)
    mv = min_valuation(v, place)
    if mv is None:
        return Fraction(0)
    return Fraction(place) ** (-mv)


def min_valuation(v: Sequence[Fraction], p: int) -> int | None:
    """min_j v_p(v_j), or None for the zero vector."""
    best = min((padic_valuation(c, p) for c in v), default=math.inf)
    return None if best == math.inf else best


def congruent_mod(
    x: Sequence[Fraction], y: Sequence[Fraction], modulus: int, places: PlaceSet
) -> bool:
    """x = y (mod N) on Z_S^d: every coordinate of (x - y)/N lies in Z_S.

    Requires N in N_S (coprime to the finite places) and x, y in Z_S^d.
    After clearing the S-supported denominator of a coordinate difference
    a/b, the condition is simply N | a.
    """
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    if not places.admissible_modulus(modulus):
        raise ValueError(f"modulus {modulus} is not coprime to the places {places.primes}")
    for xi, yi in zip(x, y):
        xi, yi = Fraction(xi), Fraction(yi)
        if not (places.contains(xi) and places.contains(yi)):
            raise ValueError("congruence is defined on S-integers only")
        d = xi - yi
        if d.numerator % modulus != 0:
            return False
    return True


@dataclass(frozen=True)
class NormProfile:
    """Per-place bound tuple T = (T_p): a positive rational at the real place
    and integer powers T_p = p**e_p at the finite places.

    Whether the bounds apply to ||.||_p or to ||.||_p^n is decided by the
    operation consuming the profile; constructions that bound n-th powers
    validate divisibility of the exponents by n at that point.
    """

    t_inf: Fraction
    fin_exp: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "t_inf", Fraction(self.t_inf))
        if self.t_inf <= 0:
            raise ValueError("real bound must be positive")
        ps = [p for p, _ in self.fin_exp]
        if ps != sorted(set(ps)):
            raise ValueError("finite places must be sorted and distinct")

    @classmethod
    def of(cls, t_inf, exponents: Mapping[int, int] | None = None) -> "NormProfile":
        exponents = exponents or {}
        return cls(Fraction(t_inf), tuple(sorted(exponents.items())))

    def exponent(self, p: int) -> int:
        return lookup(self.fin_exp, p)

    def finite_value(self, p: int) -> Fraction:
        return Fraction(p) ** self.exponent(p)

    def product(self) -> Fraction:
        out = self.t_inf
        for p, e in self.fin_exp:
            out *= Fraction(p) ** e
        return out

    def dominates(self, other: "NormProfile") -> bool:
        """The coordinatewise partial order on profiles."""
        if self.t_inf < other.t_inf:
            return False
        return all(e >= other.exponent(p) for p, e in self.fin_exp)

    def with_real(self, t_inf) -> "NormProfile":
        return NormProfile(Fraction(t_inf), self.fin_exp)


def box_denominator(places: PlaceSet, u_fin: Mapping[int, int]) -> int:
    """Common denominator D = prod p**max(e_p, 0) for the box representatives."""
    D = 1
    for p in places.primes:
        D *= p ** max(u_fin[p], 0)
    return D


def _box_progressions(
    dim: int,
    places: PlaceSet,
    u_inf: Fraction,
    u_fin: Mapping[int, int],
    congruence: tuple[int, Sequence[Fraction]] | None,
    u_inf_root: int,
) -> tuple[int, int, int, list[int]]:
    """(D, B, modulus, residues): the representatives a of the box are the
    integer vectors with |a_j| <= B and a_j = residues[j] (mod modulus)."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    u_inf = Fraction(u_inf)
    if u_inf < 0:
        raise ValueError("real bound must be nonnegative")
    D = box_denominator(places, u_fin)
    # |a_j| <= D * u_inf**(1/root)  <=>  |a_j|**root <= D**root * u_inf
    bound = (D**u_inf_root * u_inf.numerator) // u_inf.denominator
    B = _kernel.introot(bound, u_inf_root)

    step = 1
    for p in places.primes:
        e = u_fin[p]
        if e < 0:
            step *= p ** (-e)

    residues = [0] * dim
    modulus = step
    if congruence is not None:
        N, v = congruence
        if not places.admissible_modulus(N):
            raise ValueError(f"modulus {N} is not coprime to the places")
        if len(v) != dim:
            raise ValueError("congruence shift has wrong dimension")
        modulus = step * N
        new = []
        for vj in v:
            vj = Fraction(vj)
            if not places.contains(vj):
                raise ValueError("congruence shift must have S-integer coordinates")
            # a_j/D = v_j (mod N)  <=>  a_j = D * v_j.num * v_j.den^{-1} (mod N)
            rj = D * vj.numerator * pow(vj.denominator, -1, N) % N if N > 1 else 0
            # merge with a_j = 0 (mod step); the moduli are coprime
            new.append(step * (rj * pow(step, -1, N) % N))
        residues = new
    return D, B, modulus, residues


def enumerate_box_raw(
    dim: int,
    places: PlaceSet,
    u_inf: Fraction,
    u_fin: Mapping[int, int],
    congruence: tuple[int, Sequence[Fraction]] | None = None,
    u_inf_root: int = 1,
) -> tuple[int, Iterator[tuple[int, ...]]]:
    """Integer representatives of the box points: returns (D, iterator of a).

    The box point for a representative a is q = a/D with D the common
    denominator; a runs lexicographically, so the stream is deterministic.
    The real bound on each |q_j| is u_inf ** (1/u_inf_root) (the root keeps
    the enumeration exact when the bound is the n-th root of a rational).
    """
    D, B, modulus, residues = _box_progressions(dim, places, u_inf, u_fin, congruence, u_inf_root)

    def gen() -> Iterator[tuple[int, ...]]:
        axes = []
        for rho in residues:
            start = rho + modulus * (-((B + rho) // modulus))
            axes.append(range(start, B + 1, modulus))
        yield from product(*axes)

    return D, gen()


def box_size(
    dim: int,
    places: PlaceSet,
    u_inf: Fraction,
    u_fin: Mapping[int, int],
    congruence: tuple[int, Sequence[Fraction]] | None = None,
    u_inf_root: int = 1,
) -> int:
    """The number of representatives ``enumerate_box_raw`` yields for the
    same arguments, in closed form: a product of one progression count per
    axis."""
    _, B, modulus, residues = _box_progressions(dim, places, u_inf, u_fin, congruence, u_inf_root)
    return math.prod((B - rho) // modulus - (-B - 1 - rho) // modulus for rho in residues)


def enumerate_box(
    dim: int,
    places: PlaceSet,
    u_inf: Fraction,
    u_fin: Mapping[int, int],
    congruence: tuple[int, Sequence[Fraction]] | None = None,
    u_inf_root: int = 1,
) -> Iterator[SVector]:
    """Yield exactly the q in Z_S^dim with ||q||_inf <= u_inf**(1/u_inf_root)
    and ||q||_p <= p**u_fin[p] for every finite place, optionally restricted
    to q = v (mod N); no duplicates, deterministic lexicographic order.
    """
    D, reps = enumerate_box_raw(dim, places, u_inf, u_fin, congruence, u_inf_root)
    for a in reps:
        yield tuple(Fraction(aj, D) for aj in a)

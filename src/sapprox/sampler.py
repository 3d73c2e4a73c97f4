"""Seeded sampling of matrices from the fundamental domain, plus the random
test-input generators the property suites draw from.

A entry lives in [0,1) x prod Z_p: the real part is a uniform dyadic-style
rational j/real_resolution (everything downstream stays exact), each
finite-place part is a uniform residue mod p**K_p built digit by digit.
Digit streams are derived per (seed, place, row, col), so deepening the
precision at one place extends those digits in place without reshuffling
anything else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .approx import ApproxCollection, ConstantOne, FiniteApproxFunction, PowerLaw
from .counting import CountRequest, TruncatedMatrix
from .sring import NormProfile, PlaceSet, derive_seed, lookup


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    dims: tuple[int, int]
    places: PlaceSet
    precision: tuple[tuple[int, int], ...]
    real_resolution: int = 2**64

    def __post_init__(self):
        if self.real_resolution < 2:
            raise ValueError("real_resolution must be >= 2")
        if sorted(p for p, _ in self.precision) != list(self.places.primes):
            raise ValueError("precision map must cover exactly the finite places")
        if any(k < 1 for _, k in self.precision):
            raise ValueError("precision must be >= 1 everywhere")

    @classmethod
    def of(cls, seed: int, dims, places: PlaceSet, precision: Mapping[int, int], real_resolution: int = 2**64):
        return cls(seed, tuple(dims), places, tuple(sorted(precision.items())), real_resolution)

    def K(self, p: int) -> int:
        return lookup(self.precision, p)


def _finite_entry(config: SamplerConfig, p: int, i: int, j: int, depth: int) -> int:
    """The residue mod p**depth, as the first `depth` digits of the entry's stream."""
    rng = random.Random(derive_seed(config.seed, "fin", p, i, j))
    value = 0
    power = 1
    for _ in range(depth):
        value += rng.randrange(p) * power
        power *= p
    return value


def sample_matrix(config: SamplerConfig) -> TruncatedMatrix:
    """A uniform matrix from the fundamental domain at the configured precision.

    Deterministic given the config; identical seeds give identical matrices.
    """
    m, n = config.dims
    res = config.real_resolution
    real = [
        [
            Fraction(random.Random(derive_seed(config.seed, "real", i, j)).randrange(res), res)
            for j in range(n)
        ]
        for i in range(m)
    ]
    finite = {
        p: [[_finite_entry(config, p, i, j, config.K(p)) for j in range(n)] for i in range(m)]
        for p in config.places.primes
    }
    return TruncatedMatrix.of(real, finite, dict(config.precision), origin=config)


def deepen(matrix: TruncatedMatrix, p: int, new_K: int) -> TruncatedMatrix:
    """Extend the p-adic digits of a sampled matrix to precision new_K.

    The fresh digits come from the same per-entry streams, so deepening and
    then truncating returns the original matrix exactly.
    """
    config = matrix.origin
    if not isinstance(config, SamplerConfig):
        raise ValueError("deepen requires a matrix produced by sample_matrix")
    old_K = matrix.K(p)
    if new_K <= old_K:
        raise ValueError(f"new precision {new_K} must exceed the current {old_K}")
    m, n = config.dims
    rows = matrix.finite_rows(p)
    new_rows = []
    for i in range(m):
        row = []
        for j in range(n):
            e = _finite_entry(config, p, i, j, new_K)
            if e % p**old_K != rows[i][j]:
                raise ValueError("existing digits disagree with the seed stream")
            row.append(e)
        new_rows.append(row)
    finite = {q: matrix.finite_rows(q) for q in config.places.primes}
    finite[p] = new_rows
    precision = {q: matrix.K(q) for q in config.places.primes}
    precision[p] = new_K
    return TruncatedMatrix.of(matrix.real, finite, precision, origin=config)


# --------------------------------------------------------------------------
# random inputs for the property suites


def random_places(rng: random.Random) -> PlaceSet:
    return rng.choice([PlaceSet(), PlaceSet((2,)), PlaceSet((2, 3))])


def random_psi(rng: random.Random, places: PlaceSet, m: int, n: int) -> ApproxCollection:
    """A small random collection: constant or power-law real part, short
    random finite step data."""
    if rng.random() < 0.5:
        real = ConstantOne()
    else:
        real = PowerLaw(Fraction(rng.randint(1, 3)), Fraction(rng.randint(1, 2)))
    fin = {}
    for p in places.primes:
        head = []
        z = 0
        for _ in range(rng.randint(0, 2)):
            z += rng.randint(0, 1)
            head.append(z)
        fin[p] = FiniteApproxFunction(p, m, n, tuple(head))
    return ApproxCollection.of(real, fin, m, n)


def random_profile(rng: random.Random, places: PlaceSet, n: int, size: int = 4) -> NormProfile:
    """A small profile bounding ||q||^n: exponents are multiples of n."""
    t_inf = Fraction(rng.randint(1, size)) + Fraction(rng.randint(0, 3), 4)
    exps = {p: n * rng.randint(0, 1) for p in places.primes}
    return NormProfile.of(t_inf**n, exps)


def random_request(rng: random.Random, max_dim: int = 3) -> CountRequest:
    """A random small CountRequest with compatible (S, N) and random shift."""
    places = random_places(rng)
    m = rng.randint(1, max_dim - 1)
    n = rng.randint(1, max_dim - m)
    psi = random_psi(rng, places, m, n)
    profile = random_profile(rng, places, n)
    choices = [N for N in (1, 2, 3, 5) if places.admissible_modulus(N)]
    N = rng.choice(choices)
    shift = tuple(Fraction(rng.randrange(N)) for _ in range(m + n))
    config = SamplerConfig.of(
        rng.randrange(2**32),
        (m, n),
        places,
        {p: 8 for p in places.primes},
        real_resolution=2**16,
    )
    return CountRequest(places, sample_matrix(config), psi, profile, N, shift)

"""Congruence-constrained counting of S-integer approximation pairs.

The counter answers: how many pairs (p, q) in Z_S^m x Z_S^n satisfy, at
every place, ||A_p q + p||_p^m <= psi_p(||q||_p^n) and ||q||_p^n <= T_p,
with (p, q) congruent to a fixed vector modulo N.

Three routines solve the same fibre problem, the p over a fixed q whose
p-adic balls and real window all hold: the counter, the Dirichlet solver
and the fibre oracle X_q.  Each fixes one clearing denominator D per call,
a product of S-primes with v_p(D) >= max(kappa_p, -j_p) at every p, where
kappa_p = -v_p(q) over the q it visits and j_p is the threshold exponent of
psi_p at q.  Every admissible p then has v_p(p_i) >= -v_p(D), so b = D * p
is integral, and the ball at p around -A_p q becomes the congruence
b = -D A_p q (mod p**(j_p + v_p(D))).  Any deeper D gives the same answer:
raising D multiplies every b by a power of S-primes, a bijection that keeps
the p-adic balls, the real window, the order of the b (so a pick nearest to
zero picks the same p) and b = D * v_m (mod N), since N is coprime to S.
The places fold, by the Chinese remainder theorem, into one congruence per
coordinate, b_i = -(D / Dq) (Atil a)_i (mod M) for q = a / Dq, with Atil
the CRT of the representative rows (``_crt_rows``) and M = prod
p**(j_p + v_p(D)).

- The counter visits q = a / Dq over the adelic box, Dq = prod p**dq_p
  the box denominator, takes D = Dq, and folds b_i = Dq * v_i (mod N) in.
  M depends on q only through its valuation shell, min(v_p(a), cap_p) at
  each p, which gcd(P, *a) names; each shell's modulus, CRT idempotents and
  entry step are built once.  With real rows A_i / R, G = R*M*N and z =
  A_i a + R*b_i reduced mod G, row i holds (Ky - z) // G + (Ky + z) // G + 1
  of the b_i, Ky the real threshold.  z is linear in a, and where Ky is
  constant, Ky = k G + rho, the count is 2k + 1 - (z > rho) + (z >= G - rho).
  The counter enumerates the outer n - 1 axes and walks the last one shell
  by shell: a shell is phi(U) arithmetic progressions of step g*U*N (g the
  shell's gcd, U the primes below their cap), each cut where a ladder
  step's real bound ends, and along a progression every row's z moves by
  one addition mod G.  The count at q does not depend on the profile, so
  one pass over the largest box of a nested ladder counts every step of
  it, and the q -> -q symmetry halves the pass when the congruence allows.
- The Dirichlet solver scans q = a / Dq by height and takes D = prod
  p**max(u_p, -j_p): its constants fix one j_p per place, which may be
  negative, so D and M are fixed per call.
- The fibre oracle takes D = prod p**max(kappa_p, 0) for its one q (its
  j_p >= 0); each draw X_p gives the residues, folded over fixed moduli.

A direct brute-force twin decides every candidate pair with
``volume.contains``, the one membership test of the region, and serves as
the oracle for the fast path.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from . import _kernel
from .approx import ApproxCollection, Scaled
from .sring import (
    REAL_PLACE,
    NormProfile,
    PlaceSet,
    box_size,
    derive_seed,
    enumerate_box,
    enumerate_box_raw,
    lookup,
    min_valuation,
    padic_valuation,
    sup_norm,
)
from .volume import Region, check_sample_count, contains, contains_pair, volume_exact


class InsufficientPrecision(Exception):
    """A finite-place decision needs more matrix digits than are available.

    The sampler can recover by deepening the offending place to ``needed``.
    """

    def __init__(self, place: int, needed: int, available: int):
        super().__init__(
            f"place {place}: decision needs precision {needed}, matrix has {available}"
        )
        self.place = place
        self.needed = needed
        self.available = available


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed the configured work budget."""


class SearchExhausted(RuntimeError):
    """The Dirichlet search scanned the whole box without success: a bug
    when every constant is at least its default, else a legitimate outcome
    of constants below the Dirichlet guarantee, which ``legitimate`` marks."""

    def __init__(self, message: str, legitimate: bool = False):
        super().__init__(message)
        self.legitimate = legitimate


# --------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class TruncatedMatrix:
    """A = (A_p): exact rationals at the real place, finite-place entries
    known modulo p**K_p.  Real entries are intended to lie in [0, 1) (the
    fundamental domain) but this is not enforced."""

    real: tuple[tuple[Fraction, ...], ...]
    finite: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]
    precision: tuple[tuple[int, int], ...]
    origin: object = None

    def __post_init__(self):
        rows = len(self.real)
        if rows == 0 or any(len(r) != len(self.real[0]) for r in self.real):
            raise ValueError("real part must be a nonempty rectangular matrix")
        cols = len(self.real[0])
        prec = dict(self.precision)
        if sorted(prec) != [p for p, _ in self.finite]:
            raise ValueError("precision map must cover exactly the finite places")
        for p, mat in self.finite:
            K = prec[p]
            if K < 1:
                raise ValueError(f"precision at {p} must be >= 1")
            if len(mat) != rows or any(len(r) != cols for r in mat):
                raise ValueError(f"finite part at {p} has the wrong shape")
            if any(not (0 <= e < p**K) for r in mat for e in r):
                raise ValueError(f"finite entries at {p} must be reduced mod {p}^{K}")

    @classmethod
    def of(
        cls,
        real: Sequence[Sequence],
        finite: Mapping[int, Sequence[Sequence[int]]] | None = None,
        precision: Mapping[int, int] | None = None,
        origin=None,
    ) -> "TruncatedMatrix":
        finite = finite or {}
        precision = precision or {}
        return cls(
            tuple(tuple(Fraction(e) for e in row) for row in real),
            tuple(sorted((p, tuple(tuple(int(e) for e in row) for row in mat)) for p, mat in finite.items())),
            tuple(sorted(precision.items())),
            origin,
        )

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.real), len(self.real[0])

    def K(self, p: int) -> int:
        return lookup(self.precision, p)

    def finite_rows(self, p: int) -> tuple[tuple[int, ...], ...]:
        return lookup(self.finite, p)

    def finite_fraction(self, p: int, i: int, j: int) -> Fraction:
        """The representative of the p-adic entry, as an exact rational."""
        return Fraction(self.finite_rows(p)[i][j])


def congruence_shift(places: PlaceSet, modulus: int, shift: Sequence, d: int) -> tuple[Fraction, ...]:
    """The congruence shift as d Fractions, zero when ``shift`` is empty;
    raises ValueError unless the modulus is coprime to S and the shift is
    an S-integer vector of dimension d."""
    if not places.admissible_modulus(modulus):
        raise ValueError(f"modulus {modulus} is not coprime to the finite places")
    shift = tuple(Fraction(c) for c in shift) or (Fraction(0),) * d
    if len(shift) != d:
        raise ValueError("congruence shift must have dimension m + n")
    if not places.contains_vector(shift):
        raise ValueError("congruence shift must be an S-integer vector")
    return shift


@dataclass(frozen=True)
class CountRequest:
    """Everything the counter needs: A, psi, T, the congruence (N, v_d)."""

    places: PlaceSet
    matrix: TruncatedMatrix
    psi: ApproxCollection
    profile: NormProfile
    modulus: int = 1
    shift: tuple[Fraction, ...] = ()

    def __post_init__(self):
        m, n = self.matrix.shape
        if (self.psi.m, self.psi.n) != (m, n):
            raise ValueError("psi dimensions do not match the matrix")
        self.region()  # checks the psi and profile places and the exponents
        if tuple(p for p, _ in self.matrix.finite) != self.places.primes:
            raise ValueError("matrix places do not match the place set")
        object.__setattr__(self, "shift", congruence_shift(self.places, self.modulus, self.shift, m + n))

    @property
    def dims(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def v_m(self) -> tuple[Fraction, ...]:
        return self.shift[: self.dims[0]]

    @property
    def v_n(self) -> tuple[Fraction, ...]:
        return self.shift[self.dims[0] :]

    def region(self) -> Region:
        return Region(self.psi, self.profile, self.places)


# --------------------------------------------------------------------------
# CRT plumbing


class _CrtCache:
    """The CRT basis of fixed, pairwise coprime moduli m_k: their product M
    and the idempotents e_k (1 mod m_k, 0 mod the others), built once.  The
    counter and the Dirichlet solver fold the rows over the p**K_p; the
    fibre oracle folds its draws with the idempotents inline.  The class
    keeps its name because perfbench's tracer patches ``crt_fold`` by name."""

    def __init__(self, moduli: Sequence[int]):
        self.M = M = math.prod(moduli)
        self.idempotents = [M // m * pow(M // m, -1, m) for m in moduli]

    def crt_fold(self, residues: Sequence[int]) -> tuple[int, int]:
        """(r, M) with r = residues[k] (mod m_k) for every k, 0 <= r < M."""
        return sum(r * e for r, e in zip(residues, self.idempotents)) % self.M, self.M


def _crt_rows(matrix: TruncatedMatrix) -> list[list[int]]:
    """Atil, the CRT of the representative rows: one integer matrix with
    Atil = A_p (mod p**K_p) at every finite place p."""
    crt = _CrtCache([p**K for p, K in matrix.precision])
    m, n = matrix.shape
    return [
        [crt.crt_fold([rows[i][j] for _, rows in matrix.finite])[0] for j in range(n)]
        for i in range(m)
    ]


# --------------------------------------------------------------------------
# the fast counter


def _real_row_data(matrix: TruncatedMatrix) -> tuple[int, list[list[int]]]:
    """Common denominator R and integer numerators of the real part."""
    R = 1
    for row in matrix.real:
        for e in row:
            R = R * e.denominator // math.gcd(R, e.denominator)
    nums = [[int(e * R) for e in row] for row in matrix.real]
    return R, nums


def is_symmetric(req: CountRequest) -> bool:
    """True when (p, q) -> (-p, -q) maps the counted set onto itself: every
    coordinate v of the shift has 2v = 0 (mod N), so -v is congruent to v.
    The map keeps every norm, so then c(-q) = c(q).  N = 1 always qualifies."""
    N = req.modulus
    return all((2 * v).numerator % N == 0 for v in req.shift)


def precision_needed(req: CountRequest) -> dict[int, int]:
    """The matrix precision K_p at each finite place with which
    count_solutions(req) never raises InsufficientPrecision.

    A q of the box needs z_p(kappa) + kappa digits at p, where kappa =
    -min_j v_p(q_j) never exceeds d_p = max(e_p / n, 0), so the maximum over
    1 <= k <= d_p suffices.  With N = 1 it is also necessary: the box then
    holds q = p**(-k) e_1 for every k <= d_p."""
    n = req.dims[1]
    out = {}
    for p in req.places.primes:
        fn = req.psi.finite_fn(p)
        dq = max(req.profile.exponent(p) // n, 0)
        out[p] = max((fn.z_at_block(k) + k for k in range(1, dq + 1)), default=0)
    return out


def count_solutions(
    req: CountRequest, ladder: Sequence[NormProfile] | None = None
) -> int | list[int]:
    """Exact N_{psi,A}(T) under the congruence (p, q) = (v_m, v_n) mod N.

    With a ``ladder`` of nested profiles ending at ``req.profile``, returns
    the list of counts at every step, from one pass over the last (largest)
    box: the per-q count c(q) does not depend on the profile, so each q adds
    c(q) to the bucket of the first step whose box holds it, and the counts
    are the prefix sums of the buckets.  When ``is_symmetric(req)``, the pass
    walks only the q whose first nonzero coordinate is positive, counted
    twice, and q = 0 once.
    """
    m, n = req.dims
    S = req.places
    N = req.modulus
    real_fn = req.psi.real
    profiles = _check_ladder(req, ladder)
    symmetric = is_symmetric(req)

    # The outer n - 1 axes run lexicographically; the walk covers the last
    # one.  With n = 1 the box call only fixes Dq, and the one outer point
    # is ().
    u_fin = {p: req.profile.exponent(p) // n for p in S.primes}
    outer_dim = max(n - 1, 1)
    cong = (N, req.v_n[:outer_dim]) if N > 1 else None
    Dq, outer = enumerate_box_raw(outer_dim, S, req.profile.t_inf, u_fin, cong, n)
    if n == 1:
        outer = [()]

    # With real rows A_i / R, p_i = b_i / Dq lies in the real window iff
    # |A_i a + R b_i| <= Ky, with Ky = floor(psi**(1/m) * gd)
    R, Areal = _real_row_data(req.matrix)
    gd = R * Dq
    Dqn, gdm = Dq**n, gd**m
    # q lies in step i's real box iff max_j |a_j| <= B_i
    real_bounds = [
        _kernel.introot((Dqn * prof.t_inf.numerator) // prof.t_inf.denominator, n)
        for prof in profiles
    ]
    B = real_bounds[-1]

    # At p the ball around -A_p q is b = -A_p a (mod p**(j + dq)).  p**v
    # dividing a makes Atil a = A_p a mod p**(K + v), which covers
    # p**(j + dq) whenever the precision check j + kappa <= K passes.  j,
    # kappa and the entry step depend on a only through min(v_p(a), cap_p):
    # beyond cap_p, kappa <= min(u_0, 0), so j = 0 and the entry step is 0.
    # gcd(P, *a) names every capped valuation at once.  Every a of the box
    # has v_p(a) >= low_p, the exponent of the box step at p.
    Atil = _crt_rows(req.matrix)
    fin, P = [], 1
    for p in S.primes:
        dq = max(u_fin[p], 0)
        K = req.matrix.K(p)
        # q lies in step i's box at p iff kappa <= u_i, and kappa <= dq
        u_steps = [prof.exponent(p) // n for prof in profiles]
        z_table = tuple(req.psi.finite_fn(p).z_at_block(k) for k in range(dq + 1))
        fin.append((p, K, dq, z_table, u_steps, max(-u_fin[p], 0)))
        P *= p ** (dq - min(u_steps[0], 0))
    # b_i = Dq * v_i and a_n = Dq * v_n (mod N), with the S-supported
    # denominators inverted
    v_res = [Dq * v.numerator * pow(v.denominator, -1, N) % N for v in req.shift]

    def shell(g):
        """(G, rows, finite entry step) for the a with gcd(P, *a) = g, or the
        InsufficientPrecision those a raise.  G = R*M*N, M = prod
        p**(j + dq).  The fibre count of row i is the number of b_i = c_i +
        W_i a (mod M*N) in the real window, and with z = A_i a + R*b_i
        reduced mod G it is (Ky - z) // G + (Ky + z) // G + 1.  z is linear
        in a: row i is (L_i, z0_i) with z = z0_i + L_i a (mod G)."""
        M, step = 1, 0
        for p, K, dq, z_table, u_steps, _ in fin:
            kappa = dq - _kernel.valuation(g, p)
            j = z_table[kappa] if kappa > 0 else 0
            if j + max(kappa, 0) > K:
                return InsufficientPrecision(p, j + max(kappa, 0), K)
            M *= p ** (j + dq)
            step = max(step, bisect_left(u_steps, kappa))
        MN = M * N
        G = R * MN
        eM = N * pow(N, -1, M) % MN  # 1 mod M, 0 mod N
        rows = [
            ([(x - R * y * eM) % G for x, y in zip(Ai, Ti)], R * (c * (1 - eM) % MN))
            for Ai, Ti, c in zip(Areal, Atil, v_res)
        ]
        return G, rows, step

    def progressions(Gp):
        """The a_n of the box under an outer gcd Gp = gcd(P, *outer), by
        shell, as two lists of (shell, D, residues): the shells that count
        and the shells that raise.  The shell g = gcd(Gp, a_n) holds the
        a_n = g*t with t prime to every p whose exponent in g is below its
        exponent in Gp (U is their product) and g*t = a_n (mod N): phi(U)
        residues modulo D = g*U*N."""
        choices = []
        for p, *_, low in fin:
            top = _kernel.valuation(Gp, p)
            choices.append([(p**k, p if k < top else 1) for k in range(low, top + 1)])
        live, failing = [], []
        for choice in itertools.product(*choices):
            g = math.prod(x for x, _ in choice)
            U = math.prod(u for _, u in choice)
            sh = shells.get(g)
            if sh is None:
                sh = shells[g] = shell(g)
            tN, inv = v_res[-1] * pow(g, -1, N) % N, pow(U, -1, N)
            residues = [g * (u + U * ((tN - u) * inv % N)) for u in range(U) if math.gcd(u, U) == 1]
            failed = isinstance(sh, InsufficientPrecision)
            (failing if failed else live).append((sh, g * U * N, residues))
        return live, failing

    def segments(mo, half):
        """[(lo, hi, real step, weight)] covering the a_n of [-B, B], or of
        [0, B] when ``half``.  The sup norm of a is max(mo, |a_n|), mo =
        max|outer|, so each piece has one real step: the central piece
        |a_n| <= mo, and each run of |a_n| between two real bounds."""
        weight = 2 if symmetric else 1
        out = [(0 if half else -mo, mo, bisect_left(real_bounds, mo), 1 if half else weight)]
        lo = mo + 1
        for i, Bi in enumerate(real_bounds):
            if Bi >= lo:
                out.append((lo, Bi, i, weight))
                if not half:
                    out.append((-Bi, -lo, i, weight))
                lo = Bi + 1
        return out

    def threshold(amax):
        """(k_lo, k_hi) around Ky at sup norm amax, psi's ``root_bracket``."""
        return real_fn.root_bracket(Fraction(amax**n, Dqn), gdm, m)

    def walk(zs, ds, G, a, D, count, mo):
        """The summed fibre counts of a, a + D, ..., a + (count - 1) D.  zs
        holds each row's z at a - D, and every step carries it forward by
        one addition mod G.

        psi never rises, so over the segment Ky lies in the bracket
        [K_min, K_max]: K_min is k_lo at the end of larger sup norm, K_max
        is k_hi at the other end.  Each a counts at K_max: with K_max =
        k G + rho, row i counts 2k + 1 - (z > rho) + (z >= G - rho).  The
        fibre count never falls as Ky grows, so a count of 0, or one equal
        to the count at K_min, is the count at Ky, and only the other a of an
        open bracket take the per-a decision.  Two rows under a closed
        bracket, which is every walk of a constant psi with m = 2, take a
        loop of their own that keeps both residues in locals."""
        last = a + (count - 1) * D
        near, far = sorted((a, last), key=abs)
        K_min = threshold(max(mo, abs(far)))[0]
        K_max = threshold(max(mo, abs(near)))[1]
        open_bracket = K_min != K_max
        k, rho = divmod(K_max, G)
        base, top = 2 * k + 1, G - rho

        if m == 2 and not open_bracket:
            (z1, z2), (d1, d2) = zs, ds
            total = 0
            for _ in range(count):
                z1 += d1
                if z1 >= G:
                    z1 -= G
                z2 += d2
                if z2 >= G:
                    z2 -= G
                total += (base - (z1 > rho) + (z1 >= top)) * (base - (z2 > rho) + (z2 >= top))
            return total

        def fibre(Ky):
            c = 1
            for z in zs:
                c *= (Ky - z) // G + (Ky + z) // G + 1
                if not c:
                    break
            return c

        total = 0
        rows = tuple(enumerate(ds))
        for t in range(count):
            c = 1
            for i, d in rows:
                z = zs[i] + d
                zs[i] = z = z - G if z >= G else z
                c *= base - (z > rho) + (z >= top)
            if open_bracket and c and fibre(K_min) != c:
                # the bracket at a, then the exact threshold
                amax = max(mo, abs(a + t * D))
                k_lo, k_hi = threshold(amax)
                c = fibre(k_hi)
                if c and k_lo != k_hi and fibre(k_lo) != c:
                    c = fibre(real_fn.max_root_leq(Fraction(amax**n, Dqn), gdm, m))
            total += c
        return total

    shells, inner = {}, {}
    zero = (0,) * (n - 1)
    buckets = [0] * len(profiles)
    for ap in outer:
        if symmetric and ap < zero:  # the first nonzero coordinate is < 0
            continue
        half = symmetric and ap == zero
        Gp = math.gcd(P, *ap)
        prog = inner.get(Gp)
        if prog is None:
            prog = inner[Gp] = progressions(Gp)
        live, failing = prog
        if failing:
            # Raise as a lexicographic pass would: for the failing shell
            # whose first a_n in the box comes first.  A failing shell with
            # no a_n in the box counts nothing.
            lo_n = 0 if half else -B
            first, exc = min(
                (min(lo_n + (r - lo_n) % D for r in residues), exc) for exc, D, residues in failing
            )
            if first <= B:
                raise exc
        mo = max(map(abs, ap), default=0)
        segs = segments(mo, half)
        for (G, rows, step), D, residues in live:
            zb = [(z0 + sum(x * y for x, y in zip(Li, ap))) % G for Li, z0 in rows]
            ln = [Li[-1] for Li, _ in rows]
            ds = [x * D % G for x in ln]
            for r in residues:
                for lo, hi, real_step, weight in segs:
                    a = lo + (r - lo) % D
                    if a > hi:
                        continue
                    zs = [(z + x * (a - D)) % G for z, x in zip(zb, ln)]
                    total = walk(zs, ds, G, a, D, (hi - a) // D + 1, mo)
                    buckets[max(step, real_step)] += weight * total
    counts = list(itertools.accumulate(buckets))
    return counts if ladder is not None else counts[0]


def _check_ladder(req: CountRequest, ladder) -> list[NormProfile]:
    """The ladder's profiles, after checking that it is nested and ends at
    ``req.profile``; a missing ladder is the one-step ladder of that profile."""
    if ladder is None:
        return [req.profile]
    steps = list(ladder)
    if not steps or steps[-1] != req.profile:
        raise ValueError("the ladder must end at the request's profile")
    for small, big in zip(steps, steps[1:]):
        dataclasses.replace(req, profile=small)  # checks its places and exponents
        if not big.dominates(small):
            raise ValueError(f"ladder step {big} does not dominate {small}")
    return steps


# --------------------------------------------------------------------------
# brute-force oracle


def brute_fibres(req: CountRequest) -> Iterator[tuple]:
    """Per q of the box, (q, targets, p_box): ``targets`` maps each place to
    the row values A_p q (the real rows, then the representative rows at
    each prime), and ``p_box`` holds the arguments of the box of candidate
    p, which holds every p with (A q + p, q) in the region."""
    m, n = req.dims
    S = req.places
    N = req.modulus
    sup = req.psi.real.sup_value()
    u_fin = {p: req.profile.exponent(p) // n for p in S.primes}
    cong_q = (N, req.v_n) if N > 1 else None
    cong_p = (N, req.v_m) if N > 1 else None
    for q in enumerate_box(n, S, req.profile.t_inf, u_fin, cong_q, u_inf_root=n):
        g = [sum(req.matrix.real[i][j] * q[j] for j in range(n)) for i in range(m)]
        targets = {REAL_PLACE: g}
        p_box_exp = {}
        for p in S.primes:
            c = [sum(req.matrix.finite_fraction(p, i, j) * q[j] for j in range(n)) for i in range(m)]
            targets[p] = c
            mv = min_valuation(q, p)
            j = 0 if mv is None else req.psi.finite_fn(p).z_at_block(-mv)
            worst = max((-padic_valuation(x, p) for x in c if x != 0), default=0)
            p_box_exp[p] = max(0, int(worst), -j)
        u_inf_p = sup_norm(g) + max(Fraction(1), sup) if any(g) else max(Fraction(1), sup)
        yield q, targets, (m, S, u_inf_p, p_box_exp, cong_p)


def bruteforce_cost(req: CountRequest, budget: float = math.inf) -> int:
    """The number of candidate pairs ``count_solutions_bruteforce(req)``
    checks: the closed-form size of each q's p box, summed over the q box,
    raising BudgetExceeded at the first q that takes it past ``budget``."""
    spent = 0
    for *_, p_box in brute_fibres(req):
        spent += box_size(*p_box)
        if spent > budget:
            raise BudgetExceeded(
                f"brute force needs more than {budget} candidate pairs; "
                "shrink the profile or pass a larger budget"
            )
    return spent


def count_solutions_bruteforce(req: CountRequest, budget: int = 2_000_000) -> int:
    """Direct enumeration of candidate pairs, each decided by ``contains``.
    Small profiles only; this is the oracle the fast counter is validated
    against.  A request over ``budget`` fails in ``bruteforce_cost``,
    before any pair is checked."""
    bruteforce_cost(req, budget)
    region = req.region()
    total = 0
    for q, targets, p_box in brute_fibres(req):
        y_at = dict.fromkeys(targets, q)
        D, reps = enumerate_box_raw(*p_box)
        # the candidate p is a / D, so x = c + p = (c_num * D + a * c_den) / (c_den * D)
        rows = {
            place: [(c.numerator * D, c.denominator, c.denominator * D) for c in row]
            for place, row in targets.items()
        }
        for a in reps:
            x_at = {
                place: [Fraction(cn + aj * cd, den) for (cn, cd, den), aj in zip(row, a)]
                for place, row in rows.items()
            }
            total += contains(region, x_at, y_at)
    return total


# --------------------------------------------------------------------------
# Dirichlet solver


def default_dirichlet_constants(places: PlaceSet, m: int, overrides: Mapping | None = None) -> dict:
    """C_inf = 1 and C_p = p**m, the constants that always admit a solution,
    with ``overrides`` merged in: C_inf >= 0 under the key ``REAL_PLACE``
    and C_p > 0 under each prime of S."""
    out = {REAL_PLACE: Fraction(1)}
    for p in places.primes:
        out[p] = Fraction(p) ** m
    for key, c in (overrides or {}).items():
        if key not in out:
            raise ValueError(
                f"Dirichlet constant key {key!r} is neither {REAL_PLACE!r} nor a prime of S"
            )
        out[key] = Fraction(c)
    if out[REAL_PLACE] < 0:
        raise ValueError(f"Dirichlet constant C_inf must be >= 0, got {out[REAL_PLACE]}")
    for p in places.primes:
        if out[p] <= 0:
            raise ValueError(f"Dirichlet constant C_{p} must be > 0, got {out[p]}")
    return out


def dirichlet_solve(
    matrix: TruncatedMatrix,
    profile: NormProfile,
    places: PlaceSet,
    constants: Mapping | None = None,
    budget: int = 500_000,
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """A nontrivial (p, q) with ||q||_p <= T_p and ||A_p q + p||_p^m <= C_p T_p^(-n)
    at every place.  The profile bounds the norms themselves here (not their
    n-th powers) and must have T_p >= 1.  ``constants`` overrides some of
    the defaults (``default_dirichlet_constants``).

    The search scans q = a / Dq by increasing height, Dq = prod p**u_p with
    T_p = p**u_p, and picks each p_i = b_i / D in closed form, as the counter
    does: with j_p the threshold exponent that C_p fixes at p, D = prod
    p**e_p, e_p = max(u_p, -j_p), clears every admissible p, and the balls
    become one congruence per coordinate, b_i = -(D / Dq) (Atil a)_i
    (mod M) with M = prod p**(j_p + e_p).  Of the b_i that also lie in the
    real window it takes the largest <= 0, else the smallest.  Exhausting the
    box raises SearchExhausted.  The pigeonhole guarantee forbids that when
    every constant is at least its default; below it, no solution is a
    legitimate outcome, and the message names the low constants.
    """
    m, n = matrix.shape
    consts = default_dirichlet_constants(places, m, constants)

    Dq, D, M, fin = 1, 1, 1, []
    for p, u, j, need in _dirichlet_exponents(profile, places, consts, m, n):
        e = max(u, -j)
        Dq, D, M = Dq * p**u, D * p**e, M * p ** (j + e)
        fin.append((p, need, matrix.K(p)))
    lam = D // Dq
    W = [[-lam * x % M for x in row] for row in _crt_rows(matrix)]
    # With real rows A_i / R, p_i = b_i / D lies in the real window iff
    # |lam A_i a + R b_i| <= C_inf**(1/m) T_inf**(-n/m) * R * D
    R, Areal = _real_row_data(matrix)
    v_real = consts[REAL_PLACE] / profile.t_inf**n
    Ky = _kernel.introot((v_real.numerator * (R * D) ** m) // v_real.denominator, m)
    B = (Dq * profile.t_inf.numerator) // profile.t_inf.denominator

    tested = 0
    for a in _by_height(n, B):
        tested += 1
        if tested > budget:
            raise BudgetExceeded("Dirichlet search budget exceeded")
        g = math.gcd(Dq, *a)
        for p, need, K in fin:
            needed = need - _kernel.valuation(g, p)
            if needed > K:
                raise InsufficientPrecision(p, needed, K)
        bvec = []
        for Ai, Wi in zip(Areal, W):
            gn = lam * sum(x * aj for x, aj in zip(Ai, a))
            r = sum(y * aj for y, aj in zip(Wi, a)) % M
            b = _pick_in_ap(-((Ky + gn) // R), (Ky - gn) // R, r, M)
            if b is None:
                break
            bvec.append(b)
        else:
            if not any(a):
                # the zero pair is trivial.  At a = 0 every window is
                # [-(Ky // R), Ky // R] and holds b = 0: bump b_1 to M
                if M > Ky // R:
                    continue
                bvec[0] = M
            pvec = tuple(Fraction(b, D) for b in bvec)
            q = tuple(Fraction(aj, Dq) for aj in a)
            verify_dirichlet(matrix, profile, places, consts, pvec, q)
            return pvec, q
    defaults = default_dirichlet_constants(places, m)
    low = [f"C_{key} = {c}" for key, c in consts.items() if c < defaults[key]]
    if low:
        raise SearchExhausted(
            "no solution in the box; a legitimate outcome, since these constants lie"
            f" below the Dirichlet guarantee (C_inf >= 1, C_p >= p**m): {', '.join(low)}",
            legitimate=True,
        )
    raise SearchExhausted("no solution in the guaranteed box; this is a bug")


def check_dirichlet_profile(profile: NormProfile) -> None:
    """Reject a profile with T_p < 1 at some place of S, where the Dirichlet
    system is not the theorem's; the message names each such T_p."""
    low = [f"T_inf = {profile.t_inf}"] if profile.t_inf < 1 else []
    low += [f"T_{p} = {p}**{e}" for p, e in profile.fin_exp if e < 0]
    if low:
        raise ValueError(f"Dirichlet systems need T_p >= 1 at every place; got {', '.join(low)}")


def _dirichlet_exponents(profile: NormProfile, places: PlaceSet, consts, m: int, n: int):
    """(p, u_p, j_p, need_p) per prime of S: T_p = p**u_p, j_p the smallest
    j with p**(-j m) <= C_p p**(-u_p n), and need_p = max(j_p, 0) + u_p the
    precision K_p that a q with v_p(q) = -u_p needs (a q with v_p(q) =
    -kappa needs max(j_p, 0) + kappa)."""
    check_dirichlet_profile(profile)
    for p in places.primes:
        u, C = profile.exponent(p), consts[p]
        # log of the integer parts: math.log(C) overflows or underflows when
        # C itself is outside the float range
        log_C = math.log(C.numerator) - math.log(C.denominator)
        j = math.ceil((u * n - log_C / math.log(p)) / m) - 2
        while Fraction(p) ** (u * n - j * m) > C:
            j += 1
        yield p, u, j, max(j, 0) + u


def dirichlet_precision_needed(
    matrix: TruncatedMatrix, profile: NormProfile, places: PlaceSet, constants: Mapping | None = None
) -> dict[int, int]:
    """The matrix precision K_p at each finite place with which
    ``dirichlet_solve`` never raises InsufficientPrecision: the need of the
    whole guaranteed box, max(j_p, 0) + u_p."""
    m, n = matrix.shape
    consts = default_dirichlet_constants(places, m, constants)
    return {p: need for p, _, _, need in _dirichlet_exponents(profile, places, consts, m, n)}


def _by_height(dim: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Integer vectors ordered by sup norm (shells), lexicographic within a
    shell; the Dirichlet guarantee makes small heights overwhelmingly likely,
    so the search never materializes the box."""
    yield (0,) * dim
    for H in range(1, bound + 1):
        # each shell directly: a prefix below H takes only the last
        # coordinates -H and H
        full = range(-H, H + 1)
        for prefix in itertools.product(full, repeat=dim - 1):
            for x in full if H in map(abs, prefix) else (-H, H):
                yield (*prefix, x)


def _pick_in_ap(lo: int, hi: int, r: int, M: int) -> int | None:
    """The b = r (mod M) in [lo, hi] nearest zero: the largest <= min(hi, 0),
    else the smallest >= lo; None if there is none."""
    b = r + M * ((min(hi, 0) - r) // M)
    if b >= lo:
        return b
    b = r - M * ((r - lo) // M)
    return b if b <= hi else None


def verify_dirichlet(matrix, profile, places, constants, pvec, qvec) -> None:
    """Re-check a claimed Dirichlet solution against the defining inequalities;
    ``constants`` overrides some of the defaults (``default_dirichlet_constants``)."""
    m, n = matrix.shape
    constants = default_dirichlet_constants(places, m, constants)
    if not any(pvec) and not any(qvec):
        raise AssertionError("trivial pair")
    if any(qvec):
        if sup_norm(qvec) > profile.t_inf:
            raise AssertionError("real height bound violated")
        for p in places.primes:
            mv = min_valuation(qvec, p)
            if mv is not None and -mv > profile.exponent(p):
                raise AssertionError(f"{p}-adic height bound violated")
    v_real = constants[REAL_PLACE] / profile.t_inf**n
    g = [sum(matrix.real[i][j] * qvec[j] for j in range(n)) + pvec[i] for i in range(m)]
    lhs = sup_norm(g) ** m if any(g) else Fraction(0)
    if lhs > v_real:
        raise AssertionError("real approximation inequality violated")
    for p in places.primes:
        bound = constants[p] * Fraction(p) ** (-profile.exponent(p) * n)
        c = [
            sum(matrix.finite_fraction(p, i, j) * qvec[j] for j in range(n)) + pvec[i]
            for i in range(m)
        ]
        mv = min_valuation(c, p)
        norm_pow = Fraction(p) ** (-mv * m) if mv is not None else Fraction(0)
        if norm_pow > bound:
            raise AssertionError(f"{p}-adic approximation inequality violated")


# --------------------------------------------------------------------------
# congruence rescaling


@dataclass(frozen=True)
class RescaledSystem:
    psi: ApproxCollection
    profile: NormProfile
    shift: tuple[Fraction, ...]


def rescale_congruence(
    psi: ApproxCollection, profile: NormProfile, N: int, v_d: Sequence[Fraction]
) -> RescaledSystem:
    """The substitution that absorbs the congruence into the lattice:
    T'_inf = T_inf / N**n with finite components unchanged, and
    psi'_inf(t) = psi_inf(N**n t) / N**m with finite components unchanged.
    Counting (p, q) = v_d (mod N) in E_psi(T) equals counting the shifted
    lattice Z_S^d + v_d/N in E_psi'(T')."""
    if N < 1:
        raise ValueError("modulus must be positive")
    v_d = tuple(Fraction(c) for c in v_d)
    if N == 1:
        return RescaledSystem(psi, profile, v_d)
    real2 = Scaled(psi.real, value_scale=Fraction(1, N**psi.m), arg_scale=Fraction(N**psi.n))
    psi2 = ApproxCollection(psi.m, psi.n, real2, psi.finite)
    profile2 = profile.with_real(profile.t_inf / Fraction(N) ** psi.n)
    return RescaledSystem(psi2, profile2, tuple(c / N for c in v_d))


# --------------------------------------------------------------------------
# discrepancy and explicit point lists


def discrepancy(points: Sequence, region: Region) -> Fraction | float:
    """|#(points in E) - vol(E)| for a list of diagonally embedded pairs
    (x, y), each decided by ``contains_pair``."""
    hits = sum(1 for x, y in points if contains_pair(region, x, y))
    vol = volume_exact(region).total
    if isinstance(vol, Fraction):
        return abs(hits - vol)
    return abs(hits - float(vol))


# --------------------------------------------------------------------------
# the fiber region over a fixed q: X_q = {X in fundamental-domain^n :
# some b in Z_S lands X.q + b inside every per-place window}


def x_region_bound(qvec: Sequence[Fraction], psi: ApproxCollection, places: PlaceSet) -> float:
    """The closed-form upper bound 2n prod_p psi_p(||q||_p^n)**(1/m)."""
    if not any(qvec):
        raise ValueError("the fiber bound is for nonzero q")
    m, n = psi.m, psi.n
    out = 2.0 * n * psi.real.value_float(sup_norm(qvec) ** n) ** (1.0 / m)
    for p in places.primes:
        mv = min_valuation(qvec, p)
        z = 0 if mv is None else psi.finite_fn(p).z_at_block(-mv)
        out *= float(p) ** (-z)
    return out


def x_region_volume_mc(
    qvec: Sequence[Fraction],
    psi: ApproxCollection,
    places: PlaceSet,
    samples: int,
    seed: int,
):
    """Monte Carlo volume of X_q: sample X uniformly from the fundamental
    domain per coordinate and decide, exactly, whether some b in Z_S brings
    X.q + b inside every window.  Returns (estimate, std_error, hits).

    The fibre is cleared as in the counter: with kappa_p = max(-v_p(q), 0),
    D = prod p**kappa_p makes D b integral for every admissible b, and with
    a = D q the ball at p is D b = -X_p . a (mod p**(j_p + kappa_p)).  A real
    draw is k / 2**53, so the real window is |k . a + 2**53 D b| <=
    psi**(1/m) * 2**53 * D, whose threshold is computed once per call.

    Each draw below d is ``getrandbits(k)``, k = d.bit_length(), drawn again
    while it is >= d: ``randrange``'s own loop, inlined, with the bit lengths
    and the CRT idempotents taken once per call."""
    check_sample_count(samples)
    if not any(qvec):
        raise ValueError("the fiber region is for nonzero q")
    m, n = psi.m, psi.n
    qvec = tuple(Fraction(c) for c in qvec)
    if not places.contains_vector(qvec):
        raise ValueError("the fiber region is for q in Z_S^n")

    D, fin_data = 1, []  # (p**(j + kappa), p**depth) per place
    for p in places.primes:
        kappa = max(-min_valuation(qvec, p), 0)
        j = psi.finite_fn(p).z_at_block(kappa)
        D *= p**kappa
        fin_data.append((p ** (j + kappa), p ** (j + 2 * kappa + 1)))
    a = [int(D * c) for c in qvec]
    res = 2**53
    Ky = psi.real.max_root_leq(sup_norm(qvec) ** n, Fraction((res * D) ** m), m)
    crt = _CrtCache([mod for mod, _ in fin_data])
    M = crt.M
    # per place: (p**depth, its bit length, its CRT idempotent)
    draws = [(depth, depth.bit_length(), e) for (_, depth), e in zip(fin_data, crt.idempotents)]
    k_res = res.bit_length()

    rng = random.Random(derive_seed(seed, "xq"))
    bits = rng.getrandbits
    hits = 0
    for _ in range(samples):
        s = 0
        for aj in a:
            x = bits(k_res)
            while x >= res:
                x = bits(k_res)
            s += x * aj
        r = 0  # the CRT fold of the places' residues -X_p . a
        for depth, k, e in draws:
            t = 0
            for aj in a:
                x = bits(k)
                while x >= depth:
                    x = bits(k)
                t += x * aj
            r -= t * e
        if _kernel.count_in_ap_int(-((Ky + s) // res), (Ky - s) // res, r % M, M) >= 1:
            hits += 1
    phat = hits / samples
    se = math.sqrt(phat * (1 - phat) / samples)
    return phat, se, hits


# --------------------------------------------------------------------------
# combinatorial bounds


@dataclass(frozen=True)
class ProfileCountResult:
    exact: int
    bound: Fraction
    feasible: bool


def profile_equality_feasible(profile: NormProfile, places: PlaceSet) -> bool:
    """The compatibility condition for ||q||_p = T_p to be achievable: T_inf
    factors over Z_S with a positive integer unit part, and the valuation of
    T_inf at each finite place is at least -k_p."""
    t = profile.t_inf
    rest = t
    for p in places.primes:
        lp = padic_valuation(t, p)
        if -lp > profile.exponent(p):
            return False
        rest /= Fraction(p) ** lp
    return rest.denominator == 1 and rest >= 1


def profile_count_bound(
    n: int, profile: NormProfile, places: PlaceSet, budget: int = 500_000
) -> ProfileCountResult:
    """Exact #{q in Z_S^n : ||q||_p = T_p at every place} with the closed-form
    upper bound 2n(2 prod T_p + 1)**(n-1).  Profiles violating the
    compatibility condition have exact count 0."""
    u_fin = {p: e for p, e in profile.fin_exp}
    exact = 0
    spent = 0
    for q in enumerate_box(n, places, profile.t_inf, u_fin):
        spent += 1
        if spent > budget:
            raise BudgetExceeded("profile enumeration budget exceeded")
        nrm = sup_norm(q) if any(q) else Fraction(0)
        if nrm != profile.t_inf:
            continue
        ok = True
        for p in places.primes:
            mv = min_valuation(q, p)
            if mv is None or -mv != profile.exponent(p):
                ok = False
                break
        if ok:
            exact += 1
    bound = 2 * n * (2 * profile.product() + 1) ** (n - 1)
    return ProfileCountResult(exact, bound, profile_equality_feasible(profile, places))

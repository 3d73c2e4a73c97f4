"""Property suites behind the `verify` subcommand.

Each check runs a randomized (but seeded) batch of a module invariant and
returns (passed, detail).  The CLI prints one line per suite and exits
nonzero if any fails.  pytest runs all of them through `sapprox verify`, and
the unit and acceptance tests call them with their own seeds and budgets.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .approx import (
    FiniteApproxFunction,
    LogLaw,
    PowerLaw,
    Scaled,
    UserStep,
    evaluate,
    inflate,
    psi_one,
)
from .counting import (
    CountRequest,
    brute_fibres,
    bruteforce_cost,
    count_solutions,
    count_solutions_bruteforce,
    dirichlet_solve,
    discrepancy,
    is_symmetric,
    profile_count_bound,
    rescale_congruence,
    verify_dirichlet,
    x_region_bound,
    x_region_volume_mc,
)
from .sampler import (
    SamplerConfig,
    deepen,
    random_places,
    random_psi,
    random_request,
    sample_matrix,
)
from .sring import (
    NormProfile,
    PlaceSet,
    congruent_mod,
    count_in_ap,
    enumerate_box,
    min_valuation,
    padic_valuation,
)
from .volume import Region, contains, mc_agrees, volume_exact, volume_monte_carlo


def _rand_fraction(rng, lo=-8, hi=8, den=6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def check_kernel_ap(rng: random.Random, rounds: int = 1000):
    """count_in_ap (ceil and floor, then the kernel's integer count) equals
    loop counting on random rational endpoints, integer ones included."""
    for _ in range(rounds):
        lo = Fraction(rng.randint(-300, 300), rng.randint(1, 8))
        hi = Fraction(rng.randint(-300, 300), rng.randint(1, 8))
        r, M = rng.randint(-40, 40), rng.randint(1, 25)
        expected = sum(
            1 for b in range(math.floor(lo), math.ceil(hi) + 1) if lo <= b <= hi and (b - r) % M == 0
        )
        got = count_in_ap(lo, hi, r, M)
        if got != expected:
            return False, f"count_in_ap({lo},{hi},{r},{M}) = {got} != {expected}"
    return True, f"{rounds} instances"


def check_valuation_props(rng: random.Random, rounds: int = 300):
    """v(xy) = v(x)+v(y); v(x+y) >= min, equality when valuations differ."""
    for _ in range(rounds):
        p = rng.choice([2, 3, 5])
        x, y = _rand_fraction(rng), _rand_fraction(rng)
        if x == 0 or y == 0:
            continue
        vx, vy = padic_valuation(x, p), padic_valuation(y, p)
        if padic_valuation(x * y, p) != vx + vy:
            return False, f"multiplicativity fails at x={x}, y={y}, p={p}"
        if x + y != 0:
            vs = padic_valuation(x + y, p)
            if vs < min(vx, vy):
                return False, f"ultrametric fails at x={x}, y={y}, p={p}"
            if vx != vy and vs != min(vx, vy):
                return False, f"strict ultrametric fails at x={x}, y={y}, p={p}"
    return True, f"{rounds} instances"


def check_box_enumeration(rng: random.Random, rounds: int = 25):
    """enumerate_box matches the direct-definition filter on an ambient grid.
    About half the rounds restrict the box to a congruence q = v (mod N)."""
    congruences = 0
    for _ in range(rounds):
        places = random_places(rng)
        dim = rng.randint(1, 2)
        u_inf = Fraction(rng.randint(0, 3)) + Fraction(rng.randint(0, 1), 2)
        u_fin = {p: rng.randint(-1, 1) for p in places.primes}
        congruence = None
        if rng.random() < 0.5:
            N = rng.choice([N for N in (2, 3, 5, 7) if places.admissible_modulus(N)])
            v = tuple(Fraction(rng.randint(-9, 9), rng.choice([1, places.radical or 1])) for _ in range(dim))
            congruence = (N, v)
            congruences += 1
        got = set(enumerate_box(dim, places, u_inf, u_fin, congruence))
        D = 1
        for p in places.primes:
            D *= p ** max(u_fin[p] + 1, 1)  # oversampled ambient denominator
        B = int(D * u_inf) + D
        expected = set()
        import itertools

        for a in itertools.product(range(-B, B + 1), repeat=dim):
            q = tuple(Fraction(x, D) for x in a)
            if any(abs(c) > u_inf for c in q):
                continue
            ok = True
            for p in places.primes:
                mv = min_valuation(q, p)
                if mv is not None and -mv > u_fin[p]:
                    ok = False
                    break
            if ok and (congruence is None or congruent_mod(q, v, N, places)):
                expected.add(q)
        if got != expected:
            return False, (
                f"box mismatch places={places.primes} u_inf={u_inf} u_fin={u_fin} "
                f"congruence={congruence}"
            )
    return True, f"{rounds} boxes, {congruences} with a congruence"


def check_congruence_relation(rng: random.Random, rounds: int = 60):
    """Equivalence relation, compatible with addition on Z_S^d.

    Independent vectors are rarely congruent mod N > 1, so half the rounds
    build y = x + N*u, z = y + N*u' and w = z + N*u'' instead; the detail
    reports how often transitivity and additivity ran with N > 1.
    """
    n_gt_1 = transitive = additive = 0
    for _ in range(rounds):
        places = random_places(rng)
        N = rng.choice([N for N in (1, 2, 3, 5, 7) if places.admissible_modulus(N)])
        dim = rng.randint(1, 2)
        D = places.radical**2 or 1

        def rand_vec():
            return tuple(Fraction(rng.randint(-20, 20), rng.choice([1, places.radical or 1, D])) for _ in range(dim))

        def shifted(v):
            return tuple(a + N * b for a, b in zip(v, rand_vec()))

        x = rand_vec()
        if rng.random() < 0.5:
            y = shifted(x)
            z = shifted(y)
            w = shifted(z)
        else:
            y, z, w = rand_vec(), rand_vec(), rand_vec()
        n_gt_1 += N > 1
        if not congruent_mod(x, x, N, places):
            return False, "reflexivity fails"
        if congruent_mod(x, y, N, places) != congruent_mod(y, x, N, places):
            return False, "symmetry fails"
        if congruent_mod(x, y, N, places) and congruent_mod(y, z, N, places):
            transitive += N > 1
            if not congruent_mod(x, z, N, places):
                return False, "transitivity fails"
        if congruent_mod(x, y, N, places) and congruent_mod(z, w, N, places):
            additive += N > 1
            if not congruent_mod(
                tuple(a + b for a, b in zip(x, z)), tuple(a + b for a, b in zip(y, w)), N, places
            ):
                return False, "additivity fails"
    return True, (
        f"{rounds} instances; N > 1 in {n_gt_1}, "
        f"transitivity in {transitive}, additivity in {additive}"
    )


def check_approx_validation():
    """The validators reject malformed function data."""
    bad = []
    try:
        UserStep(((Fraction(2), Fraction(1, 2)), (Fraction(3), Fraction(3, 4))))
        bad.append("increasing step data accepted")
    except ValueError:
        pass
    try:
        UserStep(((Fraction(1, 2), Fraction(1, 2)),))
        bad.append("plateau-breaking breakpoint accepted")
    except ValueError:
        pass
    try:
        FiniteApproxFunction(2, 1, 1, (2, 1))
        bad.append("decreasing finite exponents accepted")
    except ValueError:
        pass
    try:
        FiniteApproxFunction(2, 1, 1, (Fraction(1, 2),))  # type: ignore[arg-type]
        bad.append("non-integer finite exponent accepted")
    except ValueError:
        pass
    try:
        PowerLaw(Fraction(1, 2), Fraction(1))
        bad.append("power law with c < 1 accepted")
    except ValueError:
        pass
    return not bad, "; ".join(bad) if bad else "5 rejections"


def check_monotone_evaluation(rng: random.Random, rounds: int = 40):
    """psi is non-increasing along increasing sample grids."""
    for _ in range(rounds):
        places = random_places(rng)
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        psi = random_psi(rng, places, m, n)
        grid = sorted(Fraction(rng.randint(1, 400), rng.randint(1, 8)) for _ in range(10))
        fns = [psi.real] + [psi.finite_fn(p) for p in places.primes]
        for fn in fns:
            vals = [evaluate(fn, t) for t in grid]
            for a, b in zip(vals, vals[1:]):
                if float(b) > float(a) + 1e-15:
                    return False, f"increase on grid for {fn}"
    return True, f"{rounds} grids"


def check_inflate_sandwich(rng: random.Random, rounds: int = 30):
    """inflate(+) >= psi >= inflate(-) pointwise; the pair inverts."""
    for _ in range(rounds):
        places = random_places(rng)
        psi = random_psi(rng, places, rng.randint(1, 2), rng.randint(1, 2))
        eps = Fraction(rng.randint(1, 4), 4)
        up, down = inflate(psi, eps, +1), inflate(psi, eps, -1)
        back = inflate(inflate(psi, eps, +1), eps, -1)
        for _ in range(8):
            t = Fraction(rng.randint(1, 50), rng.randint(1, 4))
            v0 = float(evaluate(psi.real, t))
            lo, hi = float(evaluate(down.real, t)), float(evaluate(up.real, t))
            if not (lo <= v0 + 1e-12 and v0 <= hi + 1e-12):
                return False, f"sandwich fails at t={t}"
            if abs(float(evaluate(back.real, t)) - v0) > 1e-12:
                return False, f"inverse pair fails at t={t}"
    return True, f"{rounds} collections"


class _IntervalOnly(LogLaw):
    """The log law with its float filter off: every decision runs in
    interval arithmetic."""

    def _log_g(self, t):
        return super()._log_g(t)[0], False


def check_loglaw_filter(rng: random.Random, rounds: int = 200, ties: int = 30):
    """The float filter of the log law against interval arithmetic, on
    LogLaw and Scaled(LogLaw) with b in {1/2, 1, 2, 3}.  On random (t, mult,
    e), root_bracket contains the interval max_root_leq.  Built near-ties,
    g*mult within 1e-12 relative of some k**e, must take the fallback and
    still give the exact answer.  Then as many random (lhs, t) and built
    near-ties, lhs within 1e-12 relative of g(t), for leq_value.  The detail
    reports how many decisions the filter made and how many fell back."""
    import mpmath

    tally = {True: 0, False: 0}  # root decisions by the filter or not
    leq_tally = {True: 0, False: 0}
    intervals = [0]

    class _Watched(LogLaw):
        """The log law, counting its interval evaluations."""

        def _g_interval(self, t, prec):
            intervals[0] += 1
            return super()._g_interval(t, prec)

    def draw():
        c = Fraction(rng.randint(1, 16), rng.randint(1, 4))
        b = rng.choice((Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)))
        if rng.random() < 0.5:
            vs = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            fn, ref = (Scaled(cls(c, b), vs, lam) for cls in (_Watched, _IntervalOnly))
        else:
            vs = lam = Fraction(1)
            fn, ref = _Watched(c, b), _IntervalOnly(c, b)
        return fn, ref, c, b, vs, lam

    def root_case(fn, ref, t, mult, e, tie):
        before = intervals[0]
        lo, hi = fn.root_bracket(t, mult, e)
        filtered = lo == hi and intervals[0] == before
        want = ref.max_root_leq(t, mult, e)
        got = lo if filtered else fn.max_root_leq(t, mult, e)
        tally[filtered] += 1
        if not lo <= want <= hi or got != want:
            return f"root: bracket ({lo}, {hi}) gives {got}, interval {want}"
        if tie and filtered:
            return f"root near-tie decided by the filter as {got}"
        return None

    def leq_case(fn, ref, lhs, t, tie):
        before = intervals[0]
        got = fn.leq_value(lhs, t)
        filtered = intervals[0] == before
        want = ref.leq_value(lhs, t)
        leq_tally[filtered] += 1
        if got != want:
            return f"leq: lhs={lhs} at t={t} gives {got}, interval {want}"
        if tie and filtered:
            return f"leq near-tie lhs={lhs} at t={t} decided by the filter as {got}"
        return None

    def draw_t(tie):
        """A base-level t > 1, near 1 one time in ten; for a near-tie, off
        the plateau, where g(t) <= 16 / (20 sqrt(ln 20)) < 1."""
        if tie:
            return Fraction(rng.randint(20, 10**6), rng.randint(1, 3)) + 20
        if rng.random() < 0.1:
            return 1 + Fraction(rng.randint(1, 1000), 1000)
        return Fraction(rng.randint(2, 10 ** rng.randint(1, 9)), rng.randint(1, 5)) + 1

    def g_at(c, b, tb):
        """g(tb) = c / (tb (ln tb)**b), at the caller's mpmath precision."""
        tt = mpmath.mpf(tb.numerator) / tb.denominator
        return mpmath.mpf(c.numerator) / c.denominator / (
            tt * mpmath.log(tt) ** (mpmath.mpf(b.numerator) / b.denominator)
        )

    def jitter():
        """A factor within 1e-12 of 1."""
        return 1 + mpmath.mpf(rng.uniform(-1, 1)) * mpmath.mpf("1e-12")

    # base-level t and mult, or lhs, mapped through the scales
    for i in range(rounds + ties):
        fn, ref, c, b, vs, lam = draw()
        e = rng.randint(1, 3)
        tie = i >= rounds
        tb = draw_t(tie)
        if not tie:
            mult = Fraction(rng.randint(1, 10 ** rng.randint(1, 12)), rng.randint(1, 20))
        else:  # g*mult near k**e
            with mpmath.workdps(50):
                k = rng.randint(1, 10**4)
                mult = Fraction(int(k**e / g_at(c, b, tb) * jitter() * 2**64), 2**64)
        err = root_case(fn, ref, tb / lam, mult / vs, e, tie)
        if err is not None:
            return False, f"instance {i} ({fn!r}, e={e}): {err}"
    for i in range(rounds + ties):
        fn, ref, c, b, vs, lam = draw()
        tie = i >= rounds
        tb = draw_t(tie)
        if not tie:
            lhs = Fraction(rng.randint(1, 10**6), 10**6) ** rng.randint(1, 4)
        else:  # lhs near g
            with mpmath.workdps(50):
                lhs = Fraction(int(g_at(c, b, tb) * jitter() * 2**100), 2**100)
        err = leq_case(fn, ref, lhs * vs, tb / lam, tie)
        if err is not None:
            return False, f"leq instance {i} ({fn!r}): {err}"
    if not tally[True] or not leq_tally[True]:
        return False, "the filter decided nothing"
    return True, (
        f"{rounds} random and {ties} near-tie instances each: root_bracket "
        f"{tally[True]} decided by the filter, {tally[False]} fell back; leq_value "
        f"{leq_tally[True]} decided by the filter, {leq_tally[False]} fell back"
    )


def random_region(rng: random.Random, max_t: int = 4) -> Region:
    places = random_places(rng)
    m, n = rng.randint(1, 2), rng.randint(1, 2)
    psi = random_psi(rng, places, m, n)
    t_inf = Fraction(rng.randint(1, max_t)) + Fraction(rng.randint(0, 3), 4)
    exps = {p: n * rng.randint(0, 2) for p in places.primes}
    return Region(psi, NormProfile.of(t_inf, exps), places)


def check_volume_identity(rng: random.Random, rounds: int = 40):
    """The factored volume re-multiplies to the total, per place."""
    for _ in range(rounds):
        reg = random_region(rng)
        res = volume_exact(reg)
        if not res.identity_holds():
            return False, f"identity fails for {reg}"
        prod = Fraction(1) if res.is_exact else 1.0
        for place in reg.places.all_places():
            prod = prod * res.place_factor(place)
        if res.is_exact:
            if prod != res.total:
                return False, "place factorization mismatch"
        elif not math.isclose(float(prod), float(res.total), rel_tol=1e-9):
            return False, "place factorization mismatch (float)"
    return True, f"{rounds} regions"


def check_volume_oracle(rng: random.Random, regions: int = 6, samples: int = 20_000):
    """volume_exact within 4 Monte Carlo standard errors of the estimator."""
    for i in range(regions):
        reg = random_region(rng)
        res = volume_exact(reg)
        mc = volume_monte_carlo(reg, samples, seed=rng.randrange(2**32))
        if not mc_agrees(res, mc):
            return False, f"region {i}: exact {float(res.total)} vs mc {mc.estimate}, beyond 4 SE"
    return True, f"{regions} regions x {samples} samples"


def check_volume_monotone(rng: random.Random, rounds: int = 20):
    """T >= T' gives vol >= vol'; pointwise larger psi gives larger volume."""
    for _ in range(rounds):
        places = random_places(rng)
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        psi = random_psi(rng, places, m, n)
        exps = {p: n * rng.randint(0, 1) for p in places.primes}
        small = NormProfile.of(Fraction(rng.randint(1, 3)), exps)
        big = NormProfile.of(
            small.t_inf + rng.randint(1, 3),
            {p: e + n * rng.randint(0, 1) for p, e in exps.items()},
        )
        v_small = volume_exact(Region(psi, small, places)).total
        v_big = volume_exact(Region(psi, big, places)).total
        if float(v_big) < float(v_small) - 1e-9:
            return False, "volume not monotone in T"
        bigger_psi = psi_one(places, m, n)  # psi <= 1 pointwise always
        v_psi = volume_exact(Region(bigger_psi, small, places)).total
        if float(v_psi) < float(v_small) - 1e-9:
            return False, "volume not monotone in psi"
    return True, f"{rounds} comparisons"


def check_scaling_exponent(rng: random.Random, rounds: int = 12):
    """vol(E_{psi+-}(T+-)) = (1+eps)**(+-2) vol(E_psi(T)), any (m, n)."""
    for _ in range(rounds):
        places = random_places(rng)
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        psi = psi_one(places, m, n)
        exps = {p: n * rng.randint(0, 1) for p in places.primes}
        prof = NormProfile.of(Fraction(rng.randint(1, 5)), exps)
        eps = Fraction(rng.randint(1, 3), 4)
        base = volume_exact(Region(psi, prof, places)).total
        for sign in (+1, -1):
            psi2 = inflate(psi, eps, sign)
            prof2 = prof.with_real(prof.t_inf * (1 + eps) ** sign)
            v2 = volume_exact(Region(psi2, prof2, places)).total
            expect = base * (1 + eps) ** (2 * sign)
            if v2 != expect:
                return False, f"scaling fails: m={m} n={n} eps={eps} sign={sign}: {v2} != {expect}"
    return True, f"exponent +-2 exact on {rounds} systems (all tested m, n)"


def check_oracle_equivalence(rng: random.Random, rounds: int = 40):
    """count_solutions equals the brute-force count on random small requests."""
    for i in range(rounds):
        req = random_request(rng)
        fast = count_solutions(req)
        brute = count_solutions_bruteforce(req)
        if fast != brute:
            return False, f"instance {i}: fast {fast} != brute {brute} ({req})"
    return True, f"{rounds} requests"


def check_ladder_counts(rng: random.Random, rounds: int = 40, brute_steps: int = 2):
    """count_solutions over a nested ladder of 2-4 steps equals the
    one-profile count at every step, and the brute force on the first
    ``brute_steps`` steps.  Half the requests get a zero shift, so both the
    symmetric pass (2v = 0 mod N) and the full pass run; the detail reports
    how many of each.  A ladder is redrawn until its last box holds at most
    4,000 q and the brute force checks at most 20,000 candidate pairs."""
    import dataclasses

    kinds = {True: 0, False: 0}
    for i in range(rounds):
        req = random_request(rng)
        m, n = req.dims
        if rng.random() < 0.5:
            req = dataclasses.replace(req, shift=())
        while True:
            exps = {p: n * rng.randint(-1, 1) for p in req.places.primes}
            ladder = [NormProfile.of(req.profile.t_inf, exps)]
            for _ in range(rng.randint(1, 3)):
                exps = {p: e + n * rng.randint(0, 1) for p, e in exps.items()}
                t_inf = ladder[-1].t_inf * rng.choice([1, Fraction(5, 4), Fraction(3, 2)]) ** n
                ladder.append(NormProfile.of(t_inf, exps))
            D = 1
            for p, e in exps.items():
                D *= p ** max(e // n, 0)
            if (2 * D * ladder[-1].t_inf ** Fraction(1, n) + 1) ** n > 4000:
                continue
            steps = [dataclasses.replace(req, profile=prof) for prof in ladder]
            if sum(bruteforce_cost(one) for one in steps[:brute_steps]) <= 20_000:
                break
        req = steps[-1]
        kinds[is_symmetric(req)] += 1
        counts = count_solutions(req, ladder)
        for step, one in enumerate(steps):
            single = count_solutions(one)
            if counts[step] != single:
                return False, f"instance {i} step {step}: ladder {counts[step]} != {single}"
            if step < brute_steps and counts[step] != count_solutions_bruteforce(one):
                return False, f"instance {i} step {step}: ladder {counts[step]} != brute force"
    return True, f"{rounds} ladders; {kinds[True]} symmetric, {kinds[False]} asymmetric"


def check_residue_partition(rng: random.Random, rounds: int = 8):
    """Summing the count over all N^d residue classes recovers the N=1 count."""
    import dataclasses
    import itertools as it

    for i in range(rounds):
        req = random_request(rng)
        N = rng.choice([N for N in (2, 3, 5) if req.places.admissible_modulus(N)])
        m, n = req.dims
        base = count_solutions(dataclasses.replace(req, modulus=1, shift=()))
        total = 0
        for shift in it.product(range(N), repeat=m + n):
            total += count_solutions(
                dataclasses.replace(req, modulus=N, shift=tuple(Fraction(c) for c in shift))
            )
        if total != base:
            return False, f"instance {i}: partition {total} != {base}"
    return True, f"{rounds} instances"


def check_rescale_identity(rng: random.Random, rounds: int = 10):
    """Counting the congruence class equals counting the shifted lattice in
    the rescaled region, both by brute force, on `rounds` requests with
    N > 1 (drawn requests with N = 1 are skipped)."""
    done = 0
    while done < rounds:
        req = random_request(rng)
        if req.modulus == 1:
            continue
        lhs = count_solutions_bruteforce(req)
        rhs = _count_rescaled(req)
        if lhs != rhs:
            return False, f"instance {done}: {lhs} != {rhs}"
        done += 1
    return True, f"{rounds} instances"


def _count_rescaled(req: CountRequest) -> int:
    """#u_A(Z_S^d + v/N) in E_{psi'}(T'), over the brute force's candidates
    scaled by 1/N: every pair of the rescaled region is (A q + p, q) / N for
    a candidate (p, q) of the congruence class."""
    rs = rescale_congruence(req.psi, req.profile, req.modulus, req.shift)
    region = Region(rs.psi, rs.profile, req.places)
    N = req.modulus
    count = 0
    for q, targets, p_box in brute_fibres(req):
        y_at = dict.fromkeys(targets, [c / N for c in q])
        for pvec in enumerate_box(*p_box):
            x_at = {pl: [(c + b) / N for c, b in zip(row, pvec)] for pl, row in targets.items()}
            count += contains(region, x_at, y_at)
    return count


def check_discrepancy_sandwich(rng: random.Random, rounds: int = 40):
    """D(L, E) <= max(D(L, E1), D(L, E2)) + vol(E2 - E1) on nested triples."""
    for i in range(rounds):
        places = random_places(rng)
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        psi = psi_one(places, m, n)
        exps = {p: n * rng.randint(0, 1) for p in places.primes}
        t1 = Fraction(rng.randint(1, 3))
        t2 = t1 + Fraction(rng.randint(0, 4), 2)
        t3 = t2 + Fraction(rng.randint(0, 4), 2)
        regs = [Region(psi, NormProfile.of(t, exps), places) for t in (t1, t2, t3)]
        pts = []
        for _ in range(rng.randint(0, 25)):
            x = tuple(_rand_fraction(rng, -4, 4, 4) for _ in range(m))
            y = tuple(_rand_fraction(rng, -4, 4, 4) for _ in range(n))
            pts.append((x, y))
        d1, d, d2 = (discrepancy(pts, r) for r in regs)
        vol_gap = volume_exact(regs[2]).total - volume_exact(regs[0]).total
        if d > max(d1, d2) + vol_gap:
            return False, f"instance {i}: {d} > max({d1},{d2}) + {vol_gap}"
    return True, f"{rounds} nested triples"


def check_dirichlet(rng: random.Random, rounds: int = 20, unit_constants: bool = False):
    """dirichlet_solve succeeds and re-verifies on random (A, T)."""
    for i in range(rounds):
        places = random_places(rng)
        if unit_constants:
            # C_p = 1 makes admissible q scarce, so keep the guaranteed box
            # scannable: d = m + n <= 3 and T_p = p**m
            m = rng.randint(1, 2)
            n = rng.randint(1, 3 - m)
        else:
            m, n = rng.randint(1, 2), rng.randint(1, 2)
        cfg = SamplerConfig.of(
            rng.randrange(2**32), (m, n), places, {p: 14 for p in places.primes}, 2**12
        )
        A = sample_matrix(cfg)
        if unit_constants:
            exps = {p: m for p in places.primes}
            profile = NormProfile.of(Fraction(rng.randint(1, 6)), exps)
            constants = {"inf": Fraction(1)}
            constants.update({p: Fraction(1) for p in places.primes})
        else:
            profile = NormProfile.of(
                Fraction(rng.randint(1, 8)), {p: rng.randint(0, 2) for p in places.primes}
            )
            constants = None
        pvec, qvec = dirichlet_solve(A, profile, places, constants)
        verify_dirichlet(A, profile, places, constants, pvec, qvec)  # raises on failure
    return True, f"{rounds} systems"


def check_profile_bounds(rng: random.Random, rounds: int = 30):
    """Exact boundary counts stay within the closed-form bound; incompatible
    profiles count zero."""
    for i in range(rounds):
        places = random_places(rng)
        n = rng.randint(1, 2)
        while True:
            exps = {p: rng.randint(-1, 2) for p in places.primes}
            if rng.random() < 0.5:
                # compatible: T_inf = unit * prod p^l with l >= -k
                unit = rng.choice(
                    [u for u in (1, 2, 3, 5, 7) if places.admissible_modulus(u)]
                )
                t_inf = Fraction(unit)
                for p in places.primes:
                    t_inf *= Fraction(p) ** rng.randint(-exps[p], 1)
            else:
                t_inf = Fraction(rng.randint(1, 9)) + Fraction(rng.randint(0, 3), 4)
            D = 1
            for p in places.primes:
                D *= p ** max(exps[p], 0)
            if (2 * D * t_inf + 1) ** n <= 120_000:  # keep the box enumerable
                break
        profile = NormProfile.of(t_inf, exps)
        res = profile_count_bound(n, profile, places)
        if res.exact > res.bound:
            return False, f"instance {i}: exact {res.exact} > bound {res.bound}"
        if not res.feasible and res.exact != 0:
            return False, f"instance {i}: incompatible profile has count {res.exact}"
    return True, f"{rounds} profiles"


def check_xq_bound(rng: random.Random, rounds: int = 10, samples: int = 2000):
    """MC volume of the fiber X_q stays below the closed-form bound + 4 SE."""
    for i in range(rounds):
        places = random_places(rng)
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        psi = random_psi(rng, places, m, n)
        D = places.radical or 1
        q = tuple(Fraction(rng.randint(-12, 12), rng.choice([1, D])) for _ in range(n))
        if not any(q):
            q = (Fraction(1),) + q[1:]
        est, se, _ = x_region_volume_mc(q, psi, places, samples, rng.randrange(2**32))
        bound = x_region_bound(q, psi, places)
        if est > min(bound, 1.0) + 4 * se + 1e-9:
            return False, f"instance {i}: mc {est} > bound {bound} + 4se {4*se}"
    return True, f"{rounds} fibers x {samples} samples"


def check_sampler(rng: random.Random):
    """Determinism, digit-stream consistency of deepen, count stability."""
    places = PlaceSet((2, 3))
    cfg = SamplerConfig.of(rng.randrange(2**32), (2, 1), places, {2: 6, 3: 6}, 2**16)
    A1, A2 = sample_matrix(cfg), sample_matrix(cfg)
    if A1 != A2:
        return False, "identical seeds gave different matrices"
    deeper = deepen(A1, 2, 10)
    if any(
        deeper.finite_rows(2)[i][j] % 2**6 != A1.finite_rows(2)[i][j]
        for i in range(2)
        for j in range(1)
    ):
        return False, "deepen is inconsistent with the original digits"
    deeper2 = deepen(deepen(A1, 2, 8), 2, 10)
    if deeper2 != deeper:
        return False, "deepen is not associative in K"
    # count stability under precision growth
    psi = psi_one(places, 2, 1)
    profile = NormProfile.of(Fraction(3), {2: 1, 3: 1})
    req1 = CountRequest(places, A1, psi, profile)
    req2 = CountRequest(places, deeper, psi, profile)
    if count_solutions(req1) != count_solutions(req2):
        return False, "count changed under deepening"
    return True, "determinism, deepen, truncation consistency"


ALL_CHECKS = [
    ("kernel-ap-count", lambda rng: check_kernel_ap(rng)),
    ("valuation-properties", lambda rng: check_valuation_props(rng)),
    ("box-enumeration", lambda rng: check_box_enumeration(rng)),
    ("congruence-relation", lambda rng: check_congruence_relation(rng)),
    ("approx-validation", lambda rng: check_approx_validation()),
    ("monotone-evaluation", lambda rng: check_monotone_evaluation(rng)),
    ("inflate-sandwich", lambda rng: check_inflate_sandwich(rng)),
    ("loglaw-filter", lambda rng: check_loglaw_filter(rng)),
    ("volume-identity", lambda rng: check_volume_identity(rng)),
    ("volume-oracle", lambda rng: check_volume_oracle(rng)),
    ("volume-monotone", lambda rng: check_volume_monotone(rng)),
    ("scaling-exponent", lambda rng: check_scaling_exponent(rng)),
    ("oracle-equivalence", lambda rng: check_oracle_equivalence(rng)),
    ("residue-partition", lambda rng: check_residue_partition(rng)),
    ("ladder-counts", lambda rng: check_ladder_counts(rng)),
    ("rescale-identity", lambda rng: check_rescale_identity(rng)),
    ("discrepancy-sandwich", lambda rng: check_discrepancy_sandwich(rng)),
    ("dirichlet-existence", lambda rng: check_dirichlet(rng)),
    ("dirichlet-unit-constants", lambda rng: check_dirichlet(rng, rounds=8, unit_constants=True)),
    ("profile-count-bound", lambda rng: check_profile_bounds(rng)),
    ("fiber-volume-bound", lambda rng: check_xq_bound(rng)),
    ("sampler", lambda rng: check_sampler(rng)),
]


def run_all(seed: int = 20260810):
    """Run every suite with independently derived streams; yields
    (name, passed, detail)."""
    for name, fn in ALL_CHECKS:
        rng = random.Random(f"verify/{seed}/{name}")
        try:
            passed, detail = fn(rng)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"exception: {exc!r}"
        yield name, passed, detail

"""The solution counter against its brute-force oracle, the Dirichlet solver,
rescaling, discrepancy, and the combinatorial bounds."""

import dataclasses
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sapprox.approx import (
    ApproxCollection,
    ConstantOne,
    FiniteApproxFunction,
    LogLaw,
    PowerLaw,
    Scaled,
    UserStep,
    psi_one,
)
from sapprox.checks import (
    _count_rescaled,
    check_discrepancy_sandwich,
    check_ladder_counts,
    check_oracle_equivalence,
    check_profile_bounds,
    check_rescale_identity,
    check_xq_bound,
)
from sapprox.counting import (
    BudgetExceeded,
    _by_height,
    CountRequest,
    InsufficientPrecision,
    SearchExhausted,
    TruncatedMatrix,
    bruteforce_cost,
    count_solutions,
    count_solutions_bruteforce,
    default_dirichlet_constants,
    dirichlet_precision_needed,
    dirichlet_solve,
    discrepancy,
    is_symmetric,
    precision_needed,
    profile_count_bound,
    rescale_congruence,
    verify_dirichlet,
    x_region_bound,
    x_region_volume_mc,
)
from sapprox.sampler import (
    SamplerConfig,
    random_places,
    random_psi,
    random_request,
    sample_matrix,
)
from sapprox.sring import REAL_PLACE, NormProfile, PlaceSet, box_size, enumerate_box_raw
from sapprox.volume import Region, volume_exact

S2 = PlaceSet((2,))


class WideBracket(LogLaw):
    """A log law whose root bracket is as wide as it may be and still hold
    the exact root."""

    def root_bracket(self, t, mult, e):
        K = self.max_root_leq(t, mult, e)
        return 0, 2 * K + 1


def zero_matrix(m, n, places, K=8):
    return TruncatedMatrix.of(
        [[Fraction(0)] * n for _ in range(m)],
        {p: [[0] * n for _ in range(m)] for p in places.primes},
        {p: K for p in places.primes},
    )


class TestTruncatedMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            TruncatedMatrix.of([[0]], {2: [[4]]}, {2: 1})  # not reduced mod 2
        with pytest.raises(ValueError):
            TruncatedMatrix.of([[0]], {2: [[0]]}, {2: 0})  # precision too small
        with pytest.raises(ValueError):
            TruncatedMatrix.of([[0]], {2: [[0], [0]]}, {2: 2})  # shape mismatch
        with pytest.raises(ValueError):
            TruncatedMatrix.of([[0]], {2: [[0]]}, {3: 2})  # precision keys

    def test_request_validation(self):
        psi = psi_one(S2, 1, 1)
        prof = NormProfile.of(Fraction(2), {2: 1})
        A = zero_matrix(1, 1, S2)
        with pytest.raises(ValueError):
            CountRequest(S2, A, psi, prof, modulus=2)  # 2 not coprime to S
        with pytest.raises(ValueError):
            CountRequest(S2, A, psi, prof, shift=(Fraction(1, 3),))  # wrong length
        with pytest.raises(ValueError):
            CountRequest(S2, A, psi, prof, shift=(Fraction(1, 3), Fraction(0)))  # not in Z_S
        with pytest.raises(ValueError):
            CountRequest(S2, A, psi_one(S2, 1, 2), prof)  # dims disagree


class TestCountSolutions:
    def test_zero_matrix_27(self):
        # p in {-1,0,1} and q in {a/2 : |a| <= 4}: 3 * 9 pairs
        req = CountRequest(S2, zero_matrix(1, 1, S2), psi_one(S2, 1, 1), NormProfile.of(Fraction(2), {2: 1}))
        assert count_solutions(req) == 27
        assert count_solutions_bruteforce(req) == 27

    def test_zero_pair_always_counts(self):
        cfg = SamplerConfig.of(5, (2, 1), S2, {2: 10}, 2**10)
        req = CountRequest(
            S2, sample_matrix(cfg), psi_one(S2, 2, 1), NormProfile.of(Fraction(1), {2: 0})
        )
        assert count_solutions(req) >= 1

    def test_modulus_2_rejected_when_2_in_s(self):
        # the congruence is defined for N coprime to S: N = 2 with 2 in S is
        # degenerate (2 is a unit in Z_S) and the request refuses it
        req_kwargs = dict(
            places=S2,
            matrix=zero_matrix(1, 1, S2),
            psi=psi_one(S2, 1, 1),
            profile=NormProfile.of(Fraction(2), {2: 1}),
        )
        with pytest.raises(ValueError):
            CountRequest(modulus=2, shift=(Fraction(0), Fraction(0)), **req_kwargs)

    def test_classical_congruence_variant(self):
        # the same parity-style filter over S = {inf}: q even, p even
        S0 = PlaceSet(())
        req = CountRequest(
            S0,
            zero_matrix(1, 1, S0),
            psi_one(S0, 1, 1),
            NormProfile.of(Fraction(4), {}),
            modulus=2,
            shift=(Fraction(0), Fraction(0)),
        )
        fast, brute = count_solutions(req), count_solutions_bruteforce(req)
        assert fast == brute
        # p in {0}, q in {-4, -2, 0, 2, 4}
        assert fast == 5

    def test_oracle_equivalence_randomized(self):
        ok, detail = check_oracle_equivalence(random.Random(20260810), rounds=60)
        assert ok, detail

    def test_residue_partition_small(self):
        cfg = SamplerConfig.of(17, (1, 1), S2, {2: 12}, 2**12)
        A = sample_matrix(cfg)
        psi = psi_one(S2, 1, 1)
        prof = NormProfile.of(Fraction(3), {2: 1})
        base = count_solutions(CountRequest(S2, A, psi, prof))
        total = 0
        for vm in range(3):
            for vn in range(3):
                total += count_solutions(
                    CountRequest(S2, A, psi, prof, 3, (Fraction(vm), Fraction(vn)))
                )
        assert total == base

    def test_insufficient_precision_raised_and_recovered(self):
        from sapprox.sampler import deepen

        cfg = SamplerConfig.of(23, (1, 1), S2, {2: 2}, 2**12)
        A = sample_matrix(cfg)
        # z_k = 3k needs congruences mod 2^(3k + e) fast: K = 2 is not enough
        psi = ApproxCollection.of(
            PowerLaw(Fraction(1), Fraction(1)),
            {2: FiniteApproxFunction(2, 1, 1, (), ("linear", 3, 0))},
            1,
            1,
        )
        req = CountRequest(S2, A, psi, NormProfile.of(Fraction(8), {2: 2}))
        with pytest.raises(InsufficientPrecision) as exc_info:
            count_solutions(req)
        exc = exc_info.value
        deeper = deepen(A, exc.place, exc.needed + 2)
        req2 = dataclasses.replace(req, matrix=deeper)
        assert count_solutions(req2) == count_solutions_bruteforce(req2)

    def test_truncation_consistency(self):
        from sapprox.sampler import deepen

        cfg = SamplerConfig.of(29, (2, 1), S2, {2: 12}, 2**16)
        A = sample_matrix(cfg)
        psi = psi_one(S2, 2, 1)
        prof = NormProfile.of(Fraction(4), {2: 2})
        req = CountRequest(S2, A, psi, prof)
        base = count_solutions(req)
        deeper = dataclasses.replace(req, matrix=deepen(A, 2, 20))
        assert count_solutions(deeper) == base

    def test_log_law_real_part_vs_oracle(self):
        # exercises the interval-arithmetic window (no closed-form values):
        # the two paths decide the window independently
        from sapprox.approx import LogLaw

        psi = ApproxCollection.of(
            LogLaw(Fraction(3), Fraction(1)), {2: FiniteApproxFunction(2, 1, 1, (1,))}, 1, 1
        )
        for seed in (3, 4, 5):
            cfg = SamplerConfig.of(seed, (1, 1), S2, {2: 10}, 2**10)
            req = CountRequest(S2, sample_matrix(cfg), psi, NormProfile.of(Fraction(6), {2: 1}))
            assert count_solutions(req) == count_solutions_bruteforce(req)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]),
        st.booleans(),
    )
    def test_log_law_matches_brute_force(self, seed, b, rescaled):
        # the log-law fibres take the float bracket; with ``rescaled`` the
        # real part is psi(3**n t) / 3**m, the Scaled law of the N = 3
        # congruence rescaling
        rng = random.Random(seed)
        req = random_request(rng)
        m, n = req.dims
        real = LogLaw(Fraction(rng.randint(1, 12), 2), b)
        if rescaled:
            real = Scaled(real, Fraction(1, 3**m), Fraction(3**n))
        psi = ApproxCollection(m, n, real, req.psi.finite)
        req = dataclasses.replace(req, psi=psi)
        assert count_solutions(req) == count_solutions_bruteforce(req)

    def test_a_wide_bracket_still_gives_the_exact_count(self):
        # any bracket is sound: the counter recounts at the exact threshold
        # when the counts at its two ends differ
        rng = random.Random(11)
        for _ in range(6):
            req = random_request(rng)
            m, n = req.dims
            psi = ApproxCollection(m, n, WideBracket(Fraction(3), Fraction(1)), req.psi.finite)
            req = dataclasses.replace(req, psi=psi)
            assert count_solutions(req) == count_solutions_bruteforce(req)


class TestLadder:
    """count_solutions(req, ladder): every step's count from one pass."""

    @staticmethod
    def request(profile, modulus=1, shift=()):
        cfg = SamplerConfig.of(43, (2, 1), S2, {2: 10}, 2**12)
        return CountRequest(S2, sample_matrix(cfg), psi_one(S2, 2, 1), profile, modulus, shift)

    LADDER = [NormProfile.of(Fraction(2), {2: 0}), NormProfile.of(Fraction(3), {2: 1})]

    def test_one_step_ladder_is_the_single_count(self):
        req = self.request(self.LADDER[-1])
        assert count_solutions(req, [req.profile]) == [count_solutions(req)]

    def test_ladder_counts_every_step(self):
        for modulus, shift in ((1, ()), (3, (Fraction(1), Fraction(2), Fraction(0)))):
            req = self.request(self.LADDER[-1], modulus, shift)
            assert count_solutions(req, self.LADDER) == [
                count_solutions_bruteforce(dataclasses.replace(req, profile=prof))
                for prof in self.LADDER
            ]

    def test_ladder_must_end_at_the_profile(self):
        req = self.request(self.LADDER[-1])
        with pytest.raises(ValueError, match="end at"):
            count_solutions(req, self.LADDER[:1])
        with pytest.raises(ValueError, match="end at"):
            count_solutions(req, [])

    def test_ladder_must_be_nested(self):
        # the real bound grows but the 2-adic one shrinks
        small = NormProfile.of(Fraction(1), {2: 2})
        req = self.request(self.LADDER[-1])
        with pytest.raises(ValueError, match="dominate"):
            count_solutions(req, [small, self.LADDER[-1]])

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(33277)  # its first draw costs the brute force 5.5 million pairs
    def test_ladder_matches_single_counts_and_brute_force(self, seed):
        ok, detail = check_ladder_counts(random.Random(seed), rounds=3)
        assert ok, detail


    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_symmetric_box_starts_with_its_negative_half(self, seed):
        # the symmetric pass skips the a whose first nonzero coordinate is
        # < 0: they are the first half of the box, and a -> -a maps the box
        # onto itself
        rng = random.Random(seed)
        req = random_request(rng)
        m, n = req.dims
        N = req.modulus
        shift = tuple(Fraction(rng.randrange(2) if N == 2 else 0) for _ in range(m + n))
        req = dataclasses.replace(req, shift=shift)
        assert is_symmetric(req)
        u_fin = {p: req.profile.exponent(p) // n for p in req.places.primes}
        box = (n, req.places, req.profile.t_inf, u_fin, (N, req.v_n) if N > 1 else None, n)
        reps = list(enumerate_box_raw(*box)[1])
        assert len(reps) == box_size(*box)
        assert reps[: len(reps) // 2] == [a for a in reps if a < (0,) * n]
        assert reps == [tuple(-x for x in a) for a in reversed(reps)]


@st.composite
def walk_ladders(draw):
    """A nested ladder of 1-3 small boxes and a request at its last step, on
    a matrix deep enough never to raise.  It covers n = 1, 2 and 3, negative
    finite exponents, N > 1 with symmetric and asymmetric shifts, and
    constant, power-law, log-law (b = 0 and b > 0, bare and Scaled) and
    step real parts.  The steps jump at ||q||**n = (k/2)**n, k = 2..8,
    inside the boxes, so Ky jumps within a walk segment."""
    places = PlaceSet(draw(st.sampled_from([(), (2,), (3,), (2, 3)])))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3 if n == 1 else 2))
    steps = st.lists(st.integers(2, 8), min_size=1, max_size=3, unique=True).map(
        lambda ks: UserStep(
            tuple((Fraction(k, 2) ** n, Fraction(1, i + 2)) for i, k in enumerate(sorted(ks)))
        )
    )
    real = draw(
        st.one_of(
            st.sampled_from(
                [
                    ConstantOne(),
                    PowerLaw(Fraction(2), Fraction(1)),
                    PowerLaw(Fraction(1), Fraction(1, 2)),
                    LogLaw(Fraction(3), Fraction(0)),
                    LogLaw(Fraction(5, 2), Fraction(1)),
                    LogLaw(Fraction(4), Fraction(2)),
                    Scaled(LogLaw(Fraction(4), Fraction(2)), Fraction(1, 3), Fraction(3)),
                    Scaled(LogLaw(Fraction(5, 2), Fraction(1)), Fraction(3, 2), Fraction(2, 3)),
                ]
            ),
            steps,
        )
    )
    fin = {}
    for p in places.primes:
        head = tuple(sorted(draw(st.lists(st.integers(0, 2), max_size=2))))
        tail = draw(st.sampled_from([("constant",), ("linear", 1, max(head, default=0))]))
        fin[p] = FiniteApproxFunction(p, m, n, head, tail)
    psi = ApproxCollection.of(real, fin, m, n)
    N = draw(st.sampled_from([N for N in (1, 2, 3, 5) if places.admissible_modulus(N)]))
    dens = [1, *places.primes]
    shift = draw(
        st.one_of(
            st.just(()),  # the zero shift: symmetric
            st.lists(st.sampled_from([0, N // 2 if N == 2 else 0]), min_size=m + n, max_size=m + n),
            st.lists(
                st.builds(Fraction, st.integers(0, N - 1), st.sampled_from(dens)),
                min_size=m + n,
                max_size=m + n,
            ),
        )
    )
    exps = {p: n * draw(st.integers(-1, 1)) for p in places.primes}
    ladder = [NormProfile.of(Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 2))) ** n, exps)]
    for _ in range(draw(st.integers(0, 2))):
        exps = {p: e + n * draw(st.integers(0, 1)) for p, e in exps.items()}
        grow = draw(st.sampled_from([1, Fraction(3, 2), 2]))
        ladder.append(NormProfile.of(ladder[-1].t_inf * grow**n, exps))
    D = math.prod(p ** max(e // n, 0) for p, e in exps.items())
    assume((2 * D * ladder[-1].t_inf ** Fraction(1, n) + 1) ** n <= 3000)
    seed = draw(st.integers(0, 2**32 - 1))
    shallow = SamplerConfig.of(seed, (m, n), places, {p: 1 for p in places.primes}, 2**12)
    req = CountRequest(places, sample_matrix(shallow), psi, ladder[-1], N, tuple(shift))
    need = precision_needed(req)
    deep = SamplerConfig.of(seed, (m, n), places, {p: max(k, 1) for p, k in need.items()}, 2**12)
    return dataclasses.replace(req, matrix=sample_matrix(deep)), ladder


@st.composite
def two_row_requests(draw):
    """A request with m = 2 and a constant real psi, so that every walk is
    the two-row loop of a closed bracket.  N is 1, 2, 3 or 5; psi = 1 with
    N = 2 puts the threshold's residue rho at G/2, where top = G - rho is
    rho itself.  The real entries are multiples of 1/res, res in {4, 8}, so
    G = R M N stays small: with S = {inf}, G = R N and a row with a nonzero
    entry steps its residue by a nonzero multiple of N, so a progression of
    R a carries it past G; T_inf runs from res N / 2 to 2 res N."""
    places = PlaceSet(draw(st.sampled_from([(), (2,), (3,)])))
    N = draw(st.sampled_from([N for N in (1, 2, 3, 5) if places.admissible_modulus(N)]))
    c = draw(st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(1, 4)]))
    real = ConstantOne() if c == 1 else Scaled(ConstantOne(), c, 1)
    psi = ApproxCollection.of(real, {p: FiniteApproxFunction(p, 2, 1) for p in places.primes}, 2, 1)
    shift = draw(
        st.one_of(
            st.just(()),
            st.lists(st.integers(0, N - 1).map(Fraction), min_size=3, max_size=3),
        )
    )
    res = draw(st.sampled_from([4, 8]))
    prof = NormProfile.of(
        Fraction(draw(st.integers(res * N // 2, 2 * res * N))),
        {p: draw(st.integers(-1, 1)) for p in places.primes},
    )
    seed = draw(st.integers(0, 2**32 - 1))
    shallow = SamplerConfig.of(seed, (2, 1), places, {p: 1 for p in places.primes}, res)
    req = CountRequest(places, sample_matrix(shallow), psi, prof, N, tuple(shift))
    need = {p: max(k, 1) for p, k in precision_needed(req).items()}
    return dataclasses.replace(req, matrix=sample_matrix(SamplerConfig.of(seed, (2, 1), places, need, res)))


class TestWalk:
    @settings(max_examples=100, deadline=None)
    @given(walk_ladders())
    def test_walk_matches_brute_force_at_every_step(self, drawn):
        req, ladder = drawn
        steps = [dataclasses.replace(req, profile=prof) for prof in ladder]
        assume(sum(bruteforce_cost(one) for one in steps) <= 30_000)
        assert count_solutions(req, ladder) == [count_solutions_bruteforce(one) for one in steps]

    @settings(max_examples=60, deadline=None)
    @given(two_row_requests())
    def test_two_row_walk_matches_brute_force(self, req):
        assume(bruteforce_cost(req) <= 30_000)
        assert count_solutions(req) == count_solutions_bruteforce(req)


class TestPsiOneIdentity:
    """With S = {inf, 2}, N = 1, n = 1 and psi = 1 at every place, each
    fibre's real window [-1, 1] is a whole number of lattice steps, so every
    q != 0 holds exactly its volume share, and N(T) - V(T) is the q = 0
    fibre, 3**m, for every A.  At T_inf = 2**14 and T_2 = 2**3 a count walks
    262,145 q, in progressions far longer than any box of TestWalk reaches."""

    def test_count_minus_volume_is_the_zero_fibre(self):
        prof = NormProfile.of(Fraction(2**14), {2: 3})
        assert box_size(1, S2, prof.t_inf, {2: 3}) == 262_145
        for m in (1, 2, 3):
            psi = psi_one(S2, m, 1)
            volume = volume_exact(Region(psi, prof, S2)).total
            for seed in (7, 8):
                shallow = SamplerConfig.of(seed, (m, 1), S2, {2: 1})
                req = CountRequest(S2, sample_matrix(shallow), psi, prof)
                deep = SamplerConfig.of(seed, (m, 1), S2, precision_needed(req))
                req = dataclasses.replace(req, matrix=sample_matrix(deep))
                assert count_solutions(req) - volume == 3**m, (m, seed)


class TestLogLawLadder:
    """The shipped 12-step dichotomy-convergent ladder with the benchmark's
    log law c = 1, b = 2, two samples.  The counts were recorded before the
    walk bracketed Ky once per segment; that walk called root_bracket 65,600
    times on this run, once per a."""

    COUNTS = [
        [11, 13, 13, 17, 17, 17, 19, 19, 19, 19, 19, 19],
        [11, 13, 13, 19, 21, 21, 21, 21, 21, 23, 23, 23],
    ]

    def test_counts_and_root_bracket_calls(self, monkeypatch):
        from sapprox.cli import ExperimentConfig, run

        calls = []
        root_bracket = LogLaw.root_bracket

        def counted(self, *args):
            calls.append(args)
            return root_bracket(self, *args)

        monkeypatch.setattr(LogLaw, "root_bracket", counted)
        path = Path(__file__).resolve().parent.parent / "configs" / "dichotomy-convergent.json"
        config = ExperimentConfig.from_json(json.loads(path.read_text()))
        psi = dataclasses.replace(config.psi, real=LogLaw(Fraction(1), Fraction(2)))
        config = dataclasses.replace(config, psi=psi, sample_count=2)
        assert config.schedule.steps == 12
        records = run(config).records
        assert [[r.count for r in records if r.sample == s] for s in (0, 1)] == self.COUNTS
        assert len(calls) <= 1000


class TestPowerLawLadder:
    """The headline ladder, 4 steps and one sample, with the falling real
    part psi(t) = min(1, t**(-1/2)).  Most walk segments then have an open
    threshold bracket, and most of their a count the same at both ends."""

    COUNTS = [59, 161, 465, 1333]

    def test_counts_and_threshold_calls(self, monkeypatch):
        from sapprox.cli import default_config, run

        calls = []
        value_triple = PowerLaw.value_triple

        def counted(self, *args):
            calls.append(args)
            return value_triple(self, *args)

        monkeypatch.setattr(PowerLaw, "value_triple", counted)
        config = default_config("asymptotic")
        psi = dataclasses.replace(config.psi, real=PowerLaw(Fraction(1), Fraction(1, 2)))
        schedule = dataclasses.replace(config.schedule, steps=4)
        config = dataclasses.replace(config, psi=psi, schedule=schedule, sample_count=1)
        assert [r.count for r in run(config).records] == self.COUNTS
        # the walk evaluates psi 237 times on this run; deciding each a that
        # counts nonzero at the top of an open bracket would take 557
        assert len(calls) <= 400


class TestBruteForceBudget:
    def test_budget_is_checked_before_any_pair(self):
        # a real part that refuses every comparison: only a walk calls it
        class NoWalk(ConstantOne):
            def value_triple(self, tn, td):
                raise AssertionError("the brute force walked before its budget check")

            def leq_value(self, lhs, t):
                raise AssertionError("the brute force walked before its budget check")

        cfg = SamplerConfig.of(53, (1, 1), S2, {2: 10}, 2**10)
        req = CountRequest(
            S2, sample_matrix(cfg), psi_one(S2, 1, 1), NormProfile.of(Fraction(5), {2: 2})
        )
        cost = bruteforce_cost(req)
        assert cost > 1
        nowalk = dataclasses.replace(req, psi=ApproxCollection(1, 1, NoWalk(), req.psi.finite))
        with pytest.raises(BudgetExceeded, match="larger budget"):
            count_solutions_bruteforce(nowalk, budget=cost - 1)
        assert count_solutions_bruteforce(req, budget=cost) == count_solutions(req)


BAD_CONSTANTS = [
    ({2: Fraction(0)}, "C_2 must be > 0"),
    ({2: Fraction(-1, 2)}, "C_2 must be > 0"),
    ({REAL_PLACE: Fraction(-1)}, "C_inf must be >= 0"),
    ({7: Fraction(1)}, "key 7 is neither 'inf' nor a prime of S"),
    ({"2": Fraction(1)}, "key '2' is neither 'inf' nor a prime of S"),
]


class TestDirichlet:
    def test_zero_matrix_has_unit_solution(self):
        A = zero_matrix(1, 2, S2)
        prof = NormProfile.of(Fraction(2), {2: 1})
        pvec, qvec = dirichlet_solve(A, prof, S2)
        assert any(pvec) or any(qvec)
        consts = default_dirichlet_constants(S2, 1)
        verify_dirichlet(A, prof, S2, consts, pvec, qvec)
        # the pair (p, q) = (0, e_1) qualifies for A = 0 and any T >= 1
        verify_dirichlet(A, prof, S2, consts, (Fraction(0),), (Fraction(1), Fraction(0)))

    def test_spec_instance(self):
        A = TruncatedMatrix.of([[Fraction(1, 3)]], {2: [[1]]}, {2: 10})
        prof = NormProfile.of(Fraction(3), {2: 1})
        pvec, qvec = dirichlet_solve(A, prof, S2)
        verify_dirichlet(A, prof, S2, default_dirichlet_constants(S2, 1), pvec, qvec)

    def test_unit_constants_with_restricted_profile(self):
        rng = random.Random(7)
        for _ in range(10):
            m, n = rng.randint(1, 2), rng.randint(1, 2)
            cfg = SamplerConfig.of(rng.randrange(2**31), (m, n), S2, {2: 14}, 2**10)
            A = sample_matrix(cfg)
            prof = NormProfile.of(Fraction(rng.randint(1, 5)), {2: m * rng.randint(1, 2)})
            constants = {REAL_PLACE: Fraction(1), 2: Fraction(1)}
            pvec, qvec = dirichlet_solve(A, prof, S2, constants)
            verify_dirichlet(A, prof, S2, constants, pvec, qvec)

    def test_rejects_sub_unit_profile(self):
        with pytest.raises(ValueError):
            dirichlet_solve(zero_matrix(1, 1, S2), NormProfile.of(Fraction(1, 2), {2: 1}), S2)

    @pytest.mark.parametrize("constants, message", BAD_CONSTANTS)
    def test_rejects_bad_constants(self, constants, message):
        A = TruncatedMatrix.of([[Fraction(1, 3)]], {2: [[1]]}, {2: 10})
        with pytest.raises(ValueError, match=message):
            dirichlet_solve(A, NormProfile.of(Fraction(3), {2: 1}), S2, constants)

    @pytest.mark.parametrize("constants, message", BAD_CONSTANTS)
    def test_verify_rejects_bad_constants(self, constants, message):
        # verify_dirichlet merges its constants through the solver's checks;
        # (p, q) = (0, 1) solves this system under the default constants
        A = zero_matrix(1, 1, S2)
        prof = NormProfile.of(Fraction(3), {2: 1})
        verify_dirichlet(A, prof, S2, None, (Fraction(0),), (Fraction(1),))
        with pytest.raises(ValueError, match=message):
            verify_dirichlet(A, prof, S2, constants, (Fraction(0),), (Fraction(1),))

    @pytest.mark.parametrize("C", [Fraction(10**400), Fraction(1, 10**400), Fraction(1, 2**3000)])
    def test_constants_outside_the_float_range(self, C):
        # the need is max(j, 0) + u, j the smallest integer with
        # 2**(u n - j m) <= C_2
        A = TruncatedMatrix.of([[Fraction(1, 3)]], {2: [[1]]}, {2: 10})
        prof = NormProfile.of(Fraction(3), {2: 1})
        u, n, m = 1, 1, 1
        j = next(j for j in itertools.count(-(10**4)) if Fraction(2) ** (u * n - j * m) <= C)
        need = max(j, 0) + u
        assert dirichlet_precision_needed(A, prof, S2, {2: C}) == {2: need}
        if need <= 10:
            pvec, qvec = dirichlet_solve(A, prof, S2, {2: C})
            verify_dirichlet(A, prof, S2, {2: C}, pvec, qvec)
        else:
            with pytest.raises(InsufficientPrecision):
                dirichlet_solve(A, prof, S2, {2: C})

    def test_exhausted_search_below_the_guarantee_is_no_bug(self):
        # C_inf = 10**-40 asks for |A q + p| <= 10**-40 / T_inf, which no q
        # in the box meets; the message names the low constant
        A = TruncatedMatrix.of([[Fraction(12345678912345678911, 2**64)]], {2: [[1]]}, {2: 10})
        prof = NormProfile.of(Fraction(6000), {2: 1})
        with pytest.raises(SearchExhausted) as exc:
            dirichlet_solve(A, prof, S2, {REAL_PLACE: Fraction(1, 10**40)})
        text = str(exc.value)
        assert "bug" not in text
        assert "below the Dirichlet guarantee" in text
        assert f"C_inf = {Fraction(1, 10**40)}" in text and "C_2" not in text
        assert exc.value.legitimate

    def test_height_shells_match_the_cube_scan(self):
        # the reference filters the whole cube [-H, H]**dim for every H
        def cube_scan(dim, bound):
            yield (0,) * dim
            for H in range(1, bound + 1):
                for a in itertools.product(range(-H, H + 1), repeat=dim):
                    if max(map(abs, a)) == H:
                        yield a

        for dim in (1, 2, 3):
            for bound in range(10):
                assert list(_by_height(dim, bound)) == list(cube_scan(dim, bound)), (dim, bound)

    def test_zero_real_constant_asks_for_an_exact_pair(self):
        # C_inf = 0 asks for A q + p = 0 at the real place
        A = TruncatedMatrix.of([[Fraction(1, 3)]], {2: [[1]]}, {2: 10})
        prof = NormProfile.of(Fraction(3), {2: 1})
        constants = {REAL_PLACE: Fraction(0)}
        pvec, qvec = dirichlet_solve(A, prof, S2, constants)
        assert Fraction(1, 3) * qvec[0] + pvec[0] == 0
        verify_dirichlet(A, prof, S2, constants, pvec, qvec)


class TestRescale:
    def test_identity_transform(self):
        psi = psi_one(S2, 1, 1)
        prof = NormProfile.of(Fraction(4), {2: 1})
        rs = rescale_congruence(psi, prof, 1, (Fraction(0), Fraction(0)))
        assert rs.psi == psi and rs.profile == prof

    def test_formulas(self):
        psi = psi_one(S2, 1, 1)
        prof = NormProfile.of(Fraction(10), {2: 1})
        rs = rescale_congruence(psi, prof, 5, (Fraction(1), Fraction(2)))
        assert rs.profile.t_inf == 2  # T_inf / N^n
        assert rs.profile.exponent(2) == 1
        assert rs.psi.real.value_exact(Fraction(1)) == Fraction(1, 5)  # psi/N^m
        assert rs.shift == (Fraction(1, 5), Fraction(2, 5))

    def test_count_identity_bruteforce(self):
        ok, detail = check_rescale_identity(random.Random(101), rounds=12)
        assert ok, detail


class TestDiscrepancy:
    def test_disjoint_points(self):
        reg = Region(psi_one(S2, 1, 1), NormProfile.of(Fraction(2), {2: 1}), S2)
        pts = [((Fraction(10),), (Fraction(10),))]
        assert discrepancy(pts, reg) == 16

    def test_standard_lattice_unit_box(self):
        # Z_S^d meets the unit adelic box in the classical integer points
        S0 = PlaceSet(())
        for m, n in ((1, 1), (2, 1)):
            reg = Region(psi_one(S0, m, n), NormProfile.of(Fraction(1), {}), S0)
            unit = [Fraction(c) for c in (-1, 0, 1)]
            pts = [
                (x, y)
                for x in itertools.product(unit, repeat=m)
                for y in itertools.product(unit, repeat=n)
            ]
            # integer points with sup norm <= 1 per block: 3^(m+n); volume 2^(m+n)
            assert discrepancy(pts, reg) == 3 ** (m + n) - 2 ** (m + n)

    def test_sandwich_randomized(self):
        rng = random.Random(88)
        ok, detail = check_discrepancy_sandwich(rng, rounds=40)
        assert ok, detail


class TestProfileBounds:
    def test_incompatible_profile_counts_zero(self):
        # v_2(T_inf) = 1 < 2 = -k_2 violates the compatibility condition
        prof = NormProfile.of(Fraction(2), {2: -2})
        res = profile_count_bound(1, prof, S2)
        assert not res.feasible
        assert res.exact == 0
        # T_inf not of the S-unit shape: denominator outside S
        res2 = profile_count_bound(1, NormProfile.of(Fraction(1, 5), {2: 0}), S2)
        assert not res2.feasible and res2.exact == 0

    def test_compatibility_is_necessary_not_sufficient(self):
        # T = (2, 2) passes the condition, yet no q has |q| = 2 and |q|_2 = 2
        prof = NormProfile.of(Fraction(2), {2: 1})
        res = profile_count_bound(1, prof, S2)
        assert res.feasible
        assert res.exact == 0
        assert res.bound == 2  # 2n (2 prod T + 1)^(n-1) = 2 for n = 1

    def test_compatible_example(self):
        # T_inf = 1/2, T_2 = 2: q = +-1/2 realize both norms
        prof = NormProfile.of(Fraction(1, 2), {2: 1})
        res = profile_count_bound(1, prof, S2)
        assert res.feasible
        assert res.exact == 2
        assert res.exact <= res.bound

    def test_classical_square(self):
        # n = 2, S = {inf}: boundary of the square of side 2T
        prof = NormProfile.of(Fraction(3), {})
        res = profile_count_bound(2, prof, PlaceSet(()))
        assert res.exact == 7**2 - 5**2
        assert res.exact <= res.bound == 2 * 2 * 7

    def test_randomized_bound(self):
        ok, detail = check_profile_bounds(random.Random(3), rounds=40)
        assert ok, detail


class TestFiberRegion:
    def test_bound_holds(self):
        ok, detail = check_xq_bound(random.Random(41), rounds=6, samples=1500)
        assert ok, detail

    def test_rejects_zero_q(self):
        with pytest.raises(ValueError):
            x_region_bound((Fraction(0),), psi_one(S2, 1, 1), S2)

    @pytest.mark.parametrize("samples", [0, 2.5, True, "3"])
    def test_rejects_a_non_int_sample_count(self, samples):
        with pytest.raises(ValueError, match="samples must be an int >= 1"):
            x_region_volume_mc((Fraction(1),), psi_one(S2, 1, 1), S2, samples, seed=1)

    def test_rejects_q_outside_z_s(self):
        with pytest.raises(ValueError, match="Z_S"):
            x_region_volume_mc((Fraction(1, 3),), psi_one(S2, 1, 1), S2, 10, seed=1)


def pinned_dirichlet_systems():
    """20 seeded Dirichlet systems, every fourth with unit constants."""
    rng = random.Random(20261018)
    for i in range(20):
        places = random_places(rng)
        unit = i % 4 == 3
        m = rng.randint(1, 2)
        n = rng.randint(1, 3 - m) if unit else rng.randint(1, 2)
        cfg = SamplerConfig.of(
            rng.randrange(2**32), (m, n), places, {p: 14 for p in places.primes}, 2**12
        )
        if unit:
            profile = NormProfile.of(Fraction(rng.randint(1, 6)), {p: m for p in places.primes})
            constants = {REAL_PLACE: Fraction(1), **{p: Fraction(1) for p in places.primes}}
        else:
            profile = NormProfile.of(
                Fraction(rng.randint(1, 8)), {p: rng.randint(0, 2) for p in places.primes}
            )
            constants = None
        yield sample_matrix(cfg), profile, places, constants


def pinned_fibres():
    """10 seeded fibres X_q, every fifth with a log-law real part."""
    rng = random.Random(20261019)
    for i in range(10):
        places = random_places(rng)
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        psi = random_psi(rng, places, m, n)
        if i % 5 == 4:  # no closed-form real values: the max_root_leq path
            fin = {p: psi.finite_fn(p) for p in places.primes}
            psi = ApproxCollection.of(LogLaw(Fraction(1), Fraction(2)), fin, m, n)
        D = places.radical or 1
        q = tuple(Fraction(rng.randint(-12, 12), rng.choice([1, D])) for _ in range(n))
        if not any(q):
            q = (Fraction(1),) + q[1:]
        yield q, psi, places, rng.randrange(2**32)


class TestPinnedOutputs:
    """Exact outputs of the Dirichlet solver and the fiber Monte Carlo on
    seeded inputs: a change to their shared congruence step that moves any
    solution or any hit shows here."""

    DIRICHLET = [
        (("0", "0"), ("-1",)),
        (("1",), ("0", "0")),
        (("6",), ("-7",)),
        (("1",), ("0",)),
        (("-11/18",), ("-1/9",)),
        (("1/2",), ("0", "-1")),
        (("1/3", "0"), ("0",)),
        (("1/4", "1/2"), ("-1/4",)),
        (("1/3", "0"), ("0",)),
        (("2",), ("-3",)),
        (("1/2", "0"), ("-1",)),
        (("1/6", "-4/9"), ("-5/36",)),
        (("0",), ("-1",)),
        (("1", "0"), ("-1",)),
        (("4/3",), ("-1", "-1")),
        (("1/2",), ("-3/2",)),
        (("0", "0"), ("-1",)),
        (("1", "0"), ("0",)),
        (("1/6", "0"), ("0",)),
        (("0", "1"), ("-1",)),
    ]
    FIBRE_HITS = [400, 400, 232, 400, 185, 346, 400, 3, 400, 22]

    def test_dirichlet_solutions(self):
        got = []
        for A, profile, places, constants in pinned_dirichlet_systems():
            pvec, qvec = dirichlet_solve(A, profile, places, constants)
            got.append((tuple(map(str, pvec)), tuple(map(str, qvec))))
        assert got == self.DIRICHLET

    def test_fibre_hits(self):
        got = [
            x_region_volume_mc(q, psi, places, 400, seed)[2]
            for q, psi, places, seed in pinned_fibres()
        ]
        assert got == self.FIBRE_HITS


PINNED_PLACES = [(), (2,), (3,), (2, 3), (2, 5), (3, 5), (2, 3, 5)]


def _outcome(call):
    """The call's result, or its exception as its name and text."""
    try:
        return call()
    except (InsufficientPrecision, BudgetExceeded, SearchExhausted) as exc:
        return f"{type(exc).__name__}: {exc}"


def wide_dirichlet_lines():
    """One line per seeded Dirichlet system: the solution, or the exception
    it raises.  Two in three systems pass constants: C_p from p**-1 to p**4
    at most places, C_inf in {0, 1/2, 1, 3/2, 4} at most; the rest take the
    defaults, whose exponent 0 gives a negative threshold j.  T_inf need not
    be an integer, and a shallow K at some places makes systems raise
    InsufficientPrecision."""
    rng = random.Random(20261201)
    for i in range(300):
        places = PlaceSet(rng.choice(PINNED_PLACES))
        m = rng.randint(1, 2)
        n = rng.randint(1, 3 - m)
        cfg = SamplerConfig.of(
            rng.randrange(2**32), (m, n), places, {p: rng.randint(1, 12) for p in places.primes}, 2**12
        )
        t_inf = rng.choice([Fraction(rng.randint(1, 6)), Fraction(rng.randint(4, 24), rng.randint(2, 4))])
        profile = NormProfile.of(t_inf, {p: rng.randint(0, 2) for p in places.primes})
        constants = None
        if i % 3:
            constants = {p: Fraction(p) ** rng.randint(-1, 4) for p in places.primes if rng.random() < 0.8}
            if rng.random() < 0.7:
                constants[REAL_PLACE] = rng.choice(
                    [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(4)]
                )
        A = sample_matrix(cfg)
        out = _outcome(lambda: dirichlet_solve(A, profile, places, constants, budget=1500))
        if isinstance(out, tuple):
            out = tuple(tuple(map(str, v)) for v in out)
        yield f"{i} {out}"


def wide_fibre_lines():
    """One line per seeded fibre X_q: (estimate, std_error, hits) at 120
    samples.  Real parts cycle through the constant, power and log laws
    (b = 0 and b > 0); q has denominators 1, p, p**2 or the radical of S."""
    rng = random.Random(20261202)
    for i in range(150):
        places = PlaceSet(rng.choice(PINNED_PLACES))
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        if i % 5 == 0:
            real = ConstantOne()
        elif i % 5 < 3:
            real = PowerLaw(Fraction(rng.randint(1, 3)), Fraction(rng.randint(1, 3)))
        else:
            real = LogLaw(Fraction(rng.randint(2, 12), 2), rng.choice([Fraction(0), Fraction(1, 2), Fraction(2)]))
        fin = {}
        for p in places.primes:
            head = tuple(sorted(rng.randint(0, 3) for _ in range(rng.randint(0, 3))))
            tail = ("linear", rng.randint(1, 2), max(head, default=0)) if rng.random() < 0.3 else ("constant",)
            fin[p] = FiniteApproxFunction(p, m, n, head, tail)
        psi = ApproxCollection.of(real, fin, m, n)
        dens = [1] + [p**k for p in places.primes for k in (1, 2)] + [places.radical or 1]
        q = tuple(Fraction(rng.randint(-12, 12), rng.choice(dens)) for _ in range(n))
        if not any(q):
            q = (Fraction(1),) + q[1:]
        seed = rng.randrange(2**32)
        yield f"{i} {_outcome(lambda: x_region_volume_mc(q, psi, places, 120, seed))}"


class TestPinnedFibreTables:
    """SHA-256 tables over 300 Dirichlet systems and 150 fibres, recorded
    before the solver and the fibre oracle took the box denominator: any
    solution, exception or hit count that moves shows here."""

    DIRICHLET_SHA256 = "040562e8fb8ea679b5124d903d7b4466d41ebe1ec2fede0d17b86af342c9b67c"
    FIBRE_SHA256 = "b3d0668edd4969a86db5ad946063681a1c5fe27b1c5ae087127973f57d2c36b2"

    def test_dirichlet_table(self):
        text = "\n".join(wide_dirichlet_lines())
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIRICHLET_SHA256

    def test_fibre_table(self):
        text = "\n".join(wide_fibre_lines())
        assert hashlib.sha256(text.encode()).hexdigest() == self.FIBRE_SHA256


def pinned_ladder_lines():
    """One line per seeded request: the counts of a nested ladder, or the
    arguments of the InsufficientPrecision it raises.  The requests cover
    S with up to two primes, N in {1, 2, 3, 5}, negative finite exponents,
    constant, power and log laws (b > 0), bare and Scaled, and finite
    step data with linear tails that outrun a shallow matrix."""
    rng = random.Random(20261101)
    for i in range(200):
        places = PlaceSet(rng.choice([(), (2,), (3,), (2, 3), (3, 5)]))
        m = rng.randint(1, 2)
        n = rng.randint(1, 3 - m)
        real = rng.choice(
            [
                ConstantOne(),
                PowerLaw(Fraction(rng.randint(1, 3)), Fraction(rng.randint(1, 2))),
                LogLaw(Fraction(rng.randint(2, 12), 2), rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)])),
            ]
        )
        if rng.random() < 0.3:
            real = Scaled(real, Fraction(1, rng.randint(1, 3)), Fraction(rng.randint(1, 3)))
        fin = {}
        for p in places.primes:
            head = tuple(sorted(rng.randint(0, 2) for _ in range(rng.randint(0, 2))))
            tail = ("linear", rng.randint(1, 3), max(head, default=0)) if rng.random() < 0.25 else ("constant",)
            fin[p] = FiniteApproxFunction(p, m, n, head, tail)
        psi = ApproxCollection.of(real, fin, m, n)
        N = rng.choice([N for N in (1, 2, 3, 5) if places.admissible_modulus(N)])
        shift = tuple(Fraction(rng.randrange(N)) for _ in range(m + n))
        if rng.random() < 0.4:
            shift = tuple(Fraction(0) for _ in range(m + n))
        cfg = SamplerConfig.of(
            rng.randrange(2**32), (m, n), places, {p: rng.randint(2, 8) for p in places.primes}, 2**16
        )
        while True:
            exps = {p: n * rng.randint(-1, 1) for p in places.primes}
            ladder = [NormProfile.of(Fraction(rng.randint(1, 5)) ** n, exps)]
            for _ in range(rng.randint(0, 2)):
                exps = {p: e + n * rng.randint(0, 1) for p, e in exps.items()}
                ladder.append(NormProfile.of(ladder[-1].t_inf * rng.choice([1, Fraction(3, 2), 2]) ** n, exps))
            D = 1
            for p, e in exps.items():
                D *= p ** max(e // n, 0)
            if (2 * D * ladder[-1].t_inf ** Fraction(1, n) + 1) ** n <= 4000:
                break
        req = CountRequest(places, sample_matrix(cfg), psi, ladder[-1], N, shift)
        try:
            out = count_solutions(req, ladder)
        except InsufficientPrecision as exc:
            out = ("InsufficientPrecision", exc.place, exc.needed, exc.available)
        yield f"{i} {out}"


class TestPinnedCounts:
    """A SHA-256 over the seeded ladder counts of ``pinned_ladder_lines``,
    recorded before the counter fixed its clearing denominator at Dq: any
    count, or any precision failure, that moves shows here."""

    SHA256 = "7660296b01732952731796f895b81d7210aa6d8a649b96cb8788b8e69cfd06b3"

    def test_table(self):
        text = "\n".join(pinned_ladder_lines())
        assert hashlib.sha256(text.encode()).hexdigest() == self.SHA256


def shallow_matrix_raises():
    """(index, the arguments of the InsufficientPrecision it raises, or
    None) per seeded n = 2 or n = 3 ladder on a matrix of 1 or 2 digits.
    Two primes of S, finite step data with linear tails and negative
    exponents make several shells fail at once, so the raise depends on the
    order in which the counter meets them."""
    rng = random.Random(20261219)
    for i in range(120):
        places = PlaceSet(rng.choice([(2, 3), (3, 5), (2, 5)]))
        n = rng.randint(2, 3)
        m = rng.randint(1, 2)
        real = rng.choice([ConstantOne(), PowerLaw(Fraction(2), Fraction(1)), LogLaw(Fraction(3), Fraction(1))])
        fin = {}
        for p in places.primes:
            head = tuple(sorted(rng.randint(0, 2) for _ in range(rng.randint(0, 2))))
            tail = ("linear", rng.randint(1, 2), max(head, default=0)) if rng.random() < 0.6 else ("constant",)
            fin[p] = FiniteApproxFunction(p, m, n, head, tail)
        psi = ApproxCollection.of(real, fin, m, n)
        N = rng.choice([N for N in (1, 2, 7) if places.admissible_modulus(N)])
        shift = tuple(Fraction(rng.randrange(N)) for _ in range(m + n)) if rng.random() < 0.5 else ()
        precision = {p: rng.randint(1, 2) for p in places.primes}
        A = sample_matrix(SamplerConfig.of(rng.randrange(2**32), (m, n), places, precision, 2**16))
        while True:
            exps = {p: n * rng.randint(-1, 1) for p in places.primes}
            ladder = [NormProfile.of(Fraction(1, rng.randint(1, 4)) ** n, exps)]
            exps = {p: e + n * rng.randint(0, 2) for p, e in exps.items()}
            ladder.append(NormProfile.of(ladder[-1].t_inf * 2**n, exps))
            D = math.prod(p ** max(e // n, 0) for p, e in exps.items())
            if (2 * D * ladder[-1].t_inf ** Fraction(1, n) + 1) ** n <= 4000:
                break
        req = CountRequest(places, A, psi, ladder[-1], N, shift)
        try:
            count_solutions(req, ladder)
            yield i, None
        except InsufficientPrecision as exc:
            yield i, (exc.place, exc.needed, exc.available)


class TestPinnedRaises:
    """The (place, needed, available) of every raise of
    ``shallow_matrix_raises``, recorded with the per-q counter that visited
    the box in lexicographic order; no other ladder there raises."""

    RAISES = {
        2: (3, 4, 2), 5: (2, 2, 1), 6: (5, 3, 2), 7: (3, 2, 1), 8: (3, 6, 2), 9: (2, 8, 2),
        11: (3, 6, 1), 12: (3, 3, 1), 13: (2, 2, 1), 17: (2, 9, 1), 19: (2, 6, 2), 20: (2, 2, 1),
        22: (3, 6, 2), 24: (2, 4, 1), 25: (3, 3, 2), 27: (2, 3, 1), 29: (2, 3, 1), 30: (2, 4, 1),
        34: (5, 2, 1), 35: (3, 6, 1), 42: (2, 6, 1), 43: (5, 3, 1), 45: (3, 2, 1), 47: (3, 8, 1),
        55: (2, 9, 2), 67: (2, 3, 2), 70: (5, 3, 2), 78: (3, 2, 1), 79: (3, 4, 2), 84: (3, 4, 1),
        85: (2, 4, 1), 90: (2, 4, 1), 93: (2, 5, 2), 95: (5, 3, 2), 97: (5, 3, 1), 99: (5, 3, 1),
        101: (5, 2, 1), 103: (5, 4, 2), 104: (2, 4, 2), 108: (3, 3, 2), 111: (5, 6, 2),
        115: (2, 3, 2), 118: (3, 6, 2),
    }

    def test_table(self):
        got = {i: args for i, args in shallow_matrix_raises() if args is not None}
        assert got == self.RAISES


def brute_force_lines():
    """One line per seeded request: the brute-force count or the text of its
    BudgetExceeded, and for N > 1 the count of ``_count_rescaled`` beside
    it.  The requests cover S in {}, {2}, {2, 3}, {3, 5}, m + n <= 3,
    finite exponents -n, 0 and n, N in {1, 2, 3, 5} with zero and random
    shifts, and ConstantOne, power laws, log laws with b = 0, 1/2 and 2,
    Scaled log laws and user steps, over finite step data with linear
    tails."""
    rng = random.Random(20261301)
    for i in range(200):
        places = PlaceSet(rng.choice([(), (2,), (2, 3), (3, 5)]))
        m = rng.randint(1, 2)
        n = rng.randint(1, 3 - m)
        c, b = Fraction(rng.randint(2, 12), 2), rng.choice([Fraction(0), Fraction(1, 2), Fraction(2)])
        real = rng.choice(
            [
                ConstantOne(),
                PowerLaw(Fraction(rng.randint(1, 3)), Fraction(rng.randint(1, 4), 2)),
                LogLaw(c, b),
                Scaled(LogLaw(c, b), Fraction(1, rng.randint(1, 3)), Fraction(rng.randint(1, 3))),
                UserStep(
                    tuple(
                        (Fraction(k, 2) ** n, Fraction(1, j + 2))
                        for j, k in enumerate(sorted(rng.sample(range(2, 8), rng.randint(1, 3))))
                    )
                ),
            ]
        )
        fin = {}
        for p in places.primes:
            head = tuple(sorted(rng.randint(0, 2) for _ in range(rng.randint(0, 2))))
            tail = ("linear", rng.randint(1, 2), max(head, default=0)) if rng.random() < 0.3 else ("constant",)
            fin[p] = FiniteApproxFunction(p, m, n, head, tail)
        psi = ApproxCollection.of(real, fin, m, n)
        N = rng.choice([N for N in (1, 2, 3, 5) if places.admissible_modulus(N)])
        shift = tuple(Fraction(rng.randrange(N)) for _ in range(m + n))
        if rng.random() < 0.3:
            shift = ()
        profile = NormProfile.of(
            Fraction(rng.randint(1, 6), rng.randint(1, 2)) ** n,
            {p: n * rng.choice([-1, 0, 1]) for p in places.primes},
        )
        cfg = SamplerConfig.of(rng.randrange(2**32), (m, n), places, {p: 8 for p in places.primes}, 2**16)
        req = CountRequest(places, sample_matrix(cfg), psi, profile, N, shift)
        out = _outcome(lambda: count_solutions_bruteforce(req, budget=5000))
        if N > 1 and isinstance(out, int):
            out = (out, _count_rescaled(req))
        yield f"{i} {out}"


class TestPinnedBruteForce:
    """A SHA-256 over ``brute_force_lines``, recorded while the brute force
    tested each place inline and the rescaling check sized its own p box:
    any count, or any budget refusal, that moves shows here."""

    SHA256 = "f7fd7dba34d0256c55c55d6c40ddc3661303b6bda063155565894fea0a21f4a4"

    def test_table(self):
        text = "\n".join(brute_force_lines())
        assert hashlib.sha256(text.encode()).hexdigest() == self.SHA256

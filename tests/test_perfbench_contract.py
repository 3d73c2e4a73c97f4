"""The names the campaign benchmark takes from sapprox.

``perfbench/`` is the measuring stick and changes only with the benchmark,
so a rename inside sapprox must keep every name it patches or imports.  The
harness is loaded here by path, read-only: a missing name then fails this
test rather than a traced benchmark run.  One traced unit of each workload
also runs here, so that a changed output digest or a failing gate shows in
the test suite before it shows in a benchmark run."""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sapprox import counting, sring
from sapprox.approx import psi_one
from sapprox.counting import CountRequest
from sapprox.sampler import SamplerConfig, sample_matrix
from sapprox.sring import NormProfile, PlaceSet

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """perfbench/<name>.py as the module ``name``, registered in sys.modules
    before it runs: its dataclasses look their module up there."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def run():
    return _load("run")


def test_tracer_builds_enters_and_exits(tracer):
    crt_fold = counting._CrtCache.crt_fold
    count = counting.count_solutions
    tr = tracer.sapprox_tracer()
    S = PlaceSet((2,))
    A = sample_matrix(SamplerConfig.of(5, (2, 1), S, {2: 10}, 2**10))
    req = CountRequest(S, A, psi_one(S, 2, 1), NormProfile.of(Fraction(3), {2: 1}))
    with tr:
        assert counting._CrtCache.crt_fold is not crt_fold
        traced = counting.count_solutions(req)
    assert counting._CrtCache.crt_fold is crt_fold
    assert counting.count_solutions is count
    assert traced == count(req)
    for layer in ("counting.count_solutions", "sring.enumerate_box_raw"):
        assert tr.layers[layer].calls == 1
    # _crt_rows folds each of the m * n entries of the matrix once
    m, n = A.shape
    assert tr.layers["counting.crt_fold"].calls == m * n


def test_run_box_size_matches_sring(run):
    rng = random.Random(20261203)
    mismatches = []
    for _ in range(3000):
        places = PlaceSet(rng.choice([(), (2,), (3,), (2, 3), (3, 5), (2, 3, 5)]))
        dim = rng.randint(1, 3)
        root = rng.randint(1, 3)
        u_inf = Fraction(rng.randint(0, 10**4), rng.randint(1, 12))
        u_fin = {p: rng.randint(-3, 3) for p in places.primes}
        congruence = None
        if rng.random() < 0.6:
            N = rng.choice([N for N in (2, 3, 5, 7, 11) if places.admissible_modulus(N)])
            den = rng.choice([1] + list(places.primes))
            congruence = (N, tuple(Fraction(rng.randint(-20, 20), den) for _ in range(dim)))
        args = (dim, places, u_inf, u_fin, congruence, root)
        if run.box_size(*args) != sring.box_size(*args):
            mismatches.append(args)
    assert mismatches == []


# output_sha256 of one unit of each workload at seed 1, as perfbench prints it
UNIT_SHA256 = {
    "headline": "f70b58c02669ab59eb4a19b9c9b26dbec0835f885f9787bf33eeb0220b8edbfe",
    "congruence": "25e2f4f2c423abbd67decbdc54bd4f6986858f988918fd32935608fe252347f8",
    "loglaw": "035914518c813c3ac09a3879c5970c5393afaceeaa55483676c10b80fb64b866",
    "volume-mc": "d683e027c52f09979823dfa94664487332c3dc193e3b9f3ffec435a3f1fef9c3",
}


@pytest.mark.parametrize("workload", sorted(UNIT_SHA256))
def test_traced_unit_passes_the_gate_with_the_pinned_digest(run, tracer, workload):
    # what a benchmark run checks, on one traced unit: the expected layers
    # record calls, the gate passes, and the output is the pinned one
    wl = run.WORKLOADS[workload]()
    inputs = wl.build(1)
    tr = tracer.sapprox_tracer()
    with tr:
        _, out = run.run_unit(wl, inputs)
    assert [name for name in wl.expect if tr.stats(name).calls == 0] == []
    assert run.check_outputs(wl, inputs, [out]) == (0, [], UNIT_SHA256[workload])

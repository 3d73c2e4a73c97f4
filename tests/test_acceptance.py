"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line (run pytest with -s or -rP to see them).
The headline asymptotic campaign is shared between criterion 3 (tolerances)
and criterion 10 (byte determinism of its CSV).
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from sapprox.approx import ApproxCollection, FiniteApproxFunction, PowerLaw
from sapprox.checks import (
    check_dirichlet,
    check_discrepancy_sandwich,
    check_oracle_equivalence,
    check_profile_bounds,
    check_rescale_identity,
    check_residue_partition,
    check_xq_bound,
)
from sapprox.cli import default_config, records_to_csv, run
from sapprox.volume import volume_exact, volume_monte_carlo

SEED = 20260810


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: PASS  {text}")


@pytest.fixture(scope="module")
def headline_run():
    """Criterion 3's campaign: S = {inf, 2}, (m, n) = (2, 1), psi = 1, N = 1,
    20 samples, geometric ladder with prod T_p up to ~1.3e5."""
    config = default_config("asymptotic", seed=SEED)
    return config, run(config)


def test_criterion_01_oracle_equivalence():
    rng = random.Random(f"acceptance-1/{SEED}")
    ok, detail = check_oracle_equivalence(rng, rounds=200)
    assert ok, detail
    report(1, "count_solutions == brute force on 200 randomized requests (exact)")


def test_criterion_02_volume_identity():
    rng = random.Random(f"acceptance-2/{SEED}")
    from sapprox.checks import random_region

    for i in range(20):
        reg = random_region(rng)
        res = volume_exact(reg)
        mc = volume_monte_carlo(reg, 100_000, seed=rng.randrange(2**32))
        tol = 4 * mc.std_error + float(res.total_error) + 1e-9
        assert abs(float(res.total) - mc.estimate) <= tol, (
            f"region {i}: exact {float(res.total)} vs MC {mc.estimate} +- {mc.std_error}"
        )
    report(2, "volume_exact within 4 SE of the Monte Carlo oracle on 20 regions")


def test_criterion_03_headline_asymptotic(headline_run):
    config, result = headline_run
    summary = result.summary
    final = summary["final_median_ratio"]
    assert 0.95 <= final <= 1.05, f"final median ratio {final}"
    errs = summary["per_step_median_abs_err"][-3:]
    assert all(a >= b for a, b in zip(errs, errs[1:])), f"drift not shrinking: {errs}"

    # congruence variant: N = 3, a fixed random residue vector
    rng = random.Random(f"acceptance-3/{SEED}")
    shift = tuple(Fraction(rng.randrange(3)) for _ in range(3))
    cfg3 = dataclasses.replace(config, modulus=3, shift=shift)
    res3 = run(cfg3)
    final3 = res3.summary["final_median_ratio"]
    assert 0.90 <= final3 <= 1.10, f"N=3 final median ratio {final3}"
    report(
        3,
        f"median ratio {final:.6f} in [0.95, 1.05], shrinking tail {errs}; "
        f"N=3 ratio {final3:.6f} in [0.90, 1.10] "
        f"(empirical modulus exponent {res3.summary['empirical_modulus_exponent']:.4f})",
    )


def test_criterion_04_residue_partition():
    rng = random.Random(f"acceptance-4/{SEED}")
    ok, detail = check_residue_partition(rng, rounds=20)
    assert ok, detail
    report(4, "sum over N^d residue classes equals the N=1 count on 20 instances")


def test_criterion_05_rescaling_identity():
    rng = random.Random(f"acceptance-5/{SEED}")
    ok, detail = check_rescale_identity(rng, rounds=50)
    assert ok, detail
    report(5, "congruence count equals the rescaled shifted-lattice count, 50 instances")


def test_criterion_06_dirichlet_existence():
    rng = random.Random(f"acceptance-6/{SEED}")
    ok, detail = check_dirichlet(rng, rounds=100)
    assert ok, detail
    ok2, detail2 = check_dirichlet(rng, rounds=50, unit_constants=True)
    assert ok2, detail2
    report(6, "dirichlet_solve succeeded and re-verified on 100 default + 50 unit-constant systems")


def test_criterion_07_section3_bounds():
    rng = random.Random(f"acceptance-7/{SEED}")
    ok, detail = check_profile_bounds(rng, rounds=50)
    assert ok, detail
    ok2, detail2 = check_xq_bound(rng, rounds=50, samples=2000)
    assert ok2, detail2
    report(7, "boundary counts within the closed-form bound (50 profiles); "
              "fiber volumes below the product bound + 4 SE (50 fibers)")


def test_criterion_08_dichotomy():
    config = default_config("dichotomy", seed=SEED)
    divergent = run(config)
    assert divergent.summary["growth_fraction"] >= 0.90, divergent.summary

    convergent_psi = ApproxCollection.of(
        PowerLaw(Fraction(1), Fraction(2)),
        {2: FiniteApproxFunction(2, 1, 1, (), ("linear", 2, 0))},
        1,
        1,
    )
    convergent = run(dataclasses.replace(config, psi=convergent_psi))
    assert convergent.summary["plateau_fraction"] >= 0.90, convergent.summary
    report(
        8,
        f"divergent psi: {divergent.summary['growth_fraction']:.0%} of samples grew 10x; "
        f"convergent psi: {convergent.summary['plateau_fraction']:.0%} plateaued",
    )


def test_criterion_09_discrepancy_sandwich():
    rng = random.Random(f"acceptance-9/{SEED}")
    ok, detail = check_discrepancy_sandwich(rng, rounds=100)
    assert ok, detail
    report(9, "corrected sandwich inequality exact on 100 nested region triples")


def test_criterion_10_determinism(headline_run):
    config, result = headline_run
    rerun = run(config)
    first = records_to_csv(config, result.records).encode()
    second = records_to_csv(config, rerun.records).encode()
    assert first == second, "rerun CSV differs"
    report(10, f"rerun of the headline campaign reproduced all {len(first)} CSV bytes")

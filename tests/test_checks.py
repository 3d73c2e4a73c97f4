"""The property checks themselves: Monte Carlo agreement measured at the
exact volume, and the instance counts the checks report."""

import random
import re
from fractions import Fraction

from sapprox import checks
from sapprox.approx import psi_one
from sapprox.checks import check_volume_oracle
from sapprox.sring import NormProfile, PlaceSet
from sapprox.volume import MonteCarloResult, Region, mc_agrees, volume_exact

S2 = PlaceSet((2,))


def all_hits(box: Fraction, samples: int = 20_000) -> MonteCarloResult:
    """An estimate from a run in which every sample hit: plug-in SE 0."""
    return MonteCarloResult(float(box), 0.0, samples, samples, box)


class TestMcAgrees:
    # the volume-16 region: S={inf,2}, m=n=1, psi=1, T=(2,2)
    exact = volume_exact(Region(psi_one(S2, 1, 1), NormProfile.of(Fraction(2), {2: 1}), S2))

    def test_all_hits_on_a_region_just_below_the_box(self):
        box = self.exact.total / Fraction(9999, 10000)
        assert mc_agrees(self.exact, all_hits(box))

    def test_all_hits_on_a_clearly_smaller_region(self):
        box = self.exact.total / Fraction(999, 1000)
        assert not mc_agrees(self.exact, all_hits(box))

    def test_estimate_far_from_the_volume(self):
        box = 2 * self.exact.total
        mc = MonteCarloResult(float(box) * 0.45, 0.0, 9_000, 20_000, box)
        assert not mc_agrees(self.exact, mc)


def test_volume_oracle_check_on_a_region_every_sample_hits():
    # Random(177) draws a region filling all but 1.05e-4 of its box, and
    # 20k samples of it all hit
    ok, detail = check_volume_oracle(random.Random(177), regions=1)
    assert ok, detail


def test_rescale_identity_reports_the_requests_it_checked(monkeypatch):
    # Random(1) draws N = 5, 1, 1 first: requests with N = 1 are skipped and
    # must not count towards the rounds
    checked = []
    bruteforce = checks.count_solutions_bruteforce

    def counted(req):
        checked.append(req)
        return bruteforce(req)

    monkeypatch.setattr(checks, "count_solutions_bruteforce", counted)
    ok, detail = checks.check_rescale_identity(random.Random(1), rounds=3)
    assert ok, detail
    assert len(checked) == 3
    assert detail == "3 instances"


def test_congruence_relation_exercises_transitivity_and_additivity():
    # independent draws are rarely congruent mod N > 1; the check must build
    # congruent chains often enough that both implications really run
    ok, detail = checks.check_congruence_relation(random.Random(4), rounds=100)
    assert ok, detail
    found = re.fullmatch(
        r"100 instances; N > 1 in (\d+), transitivity in (\d+), additivity in (\d+)", detail
    )
    assert found, detail
    n_gt_1, transitive, additive = map(int, found.groups())
    assert 3 * transitive >= n_gt_1 and 3 * additive >= n_gt_1, detail

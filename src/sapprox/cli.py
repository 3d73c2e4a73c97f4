"""Command-line front end: experiment campaigns, reports, verification.

Subcommands: volume, count, dirichlet, asymptotic, dichotomy, verify,
report.  Campaigns are pure functions of (config, seed): reruns are
bit-identical, and the CSV output contains no timing or environment data
so its bytes reproduce exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .approx import ApproxCollection, IntegralUndecidable, diverges, psi_one
from .counting import (
    CountRequest,
    SearchExhausted,
    TruncatedMatrix,
    check_dirichlet_profile,
    congruence_shift,
    count_solutions,
    default_dirichlet_constants,
    dirichlet_precision_needed,
    dirichlet_solve,
    precision_needed,
)
from .sampler import SamplerConfig, deepen, sample_matrix
from .sring import REAL_PLACE, NormProfile, PlaceSet, derive_seed
from .volume import (
    Region,
    check_sample_count,
    mc_agrees,
    volume_exact,
    volume_monte_carlo,
)

MODES = ("volume", "count", "dirichlet", "asymptotic", "dichotomy", "verify", "report")
LADDER_MODES = ("volume", "count", "asymptotic", "dichotomy")  # the modes --max-T truncates
FORMATS = ("csv", "json", "svg")  # the report formats, all of which --format all writes


class ConfigError(ValueError):
    pass


def _check_formats(formats: Sequence[str]) -> None:
    for fmt in formats:
        if fmt not in FORMATS:
            raise ValueError(f"unknown report format {fmt!r}; the formats are {', '.join(FORMATS)}")


@contextlib.contextmanager
def _field(name: str):
    """Re-raise a missing or bad config value as a ConfigError that names
    the field it belongs to."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{name}: missing field {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class Schedule:
    """Geometric ladder at the real place, exponent-linear at finite places
    (T_p = p**(n * t_p) keeps the profile inside p**(nZ) by construction).

    Finite-place increments are discrete factors of p**n, so a place may
    pause for ``finite_every[p] - 1`` steps between increments; every place
    still grows without bound across the schedule, which is what the
    T -> infinity ordering needs.
    """

    real_start: Fraction
    real_factor: Fraction
    steps: int
    finite_start: tuple[tuple[int, int], ...]
    finite_step: tuple[tuple[int, int], ...]
    finite_every: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("schedule needs at least one step")
        if self.real_start < 1:
            raise ConfigError("real ladder must start at T_inf >= 1")
        if self.steps > 1 and self.real_factor <= 1:
            raise ConfigError("real ladder factor must exceed 1")
        if self.steps > 1 and any(s < 1 for _, s in self.finite_step):
            raise ConfigError("finite ladders must grow (step >= 1)")
        if any(e < 1 for _, e in self.finite_every):
            raise ConfigError("finite_every must be >= 1")
        missing = sorted(set(dict(self.finite_start)) - set(dict(self.finite_step)))
        if missing:
            raise ConfigError(f"finite_step has no entry for the places {missing}")

    def profile(self, n: int, index: int) -> NormProfile:
        t_inf = self.real_start * self.real_factor**index
        step = dict(self.finite_step)
        every = dict(self.finite_every)
        exps = {
            p: n * (t0 + step[p] * (index // every.get(p, 1)))
            for p, t0 in self.finite_start
        }
        return NormProfile.of(t_inf, exps)

    def profiles(self, n: int, max_product: Fraction | None = None) -> list[NormProfile]:
        out = []
        for i in range(self.steps):
            prof = self.profile(n, i)
            if max_product is not None and prof.product() > max_product and out:
                break
            out.append(prof)
        return out


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    places: PlaceSet
    dims: tuple[int, int]
    psi: ApproxCollection
    schedule: Schedule
    modulus: int = 1
    shift: tuple[Fraction, ...] = ()
    seed: int = 20260810
    precision: tuple[tuple[int, int], ...] = ()
    real_resolution: int = 2**64
    sample_count: int = 20
    mc_samples: int = 100_000
    dirichlet_constants: tuple[tuple[object, Fraction], ...] | None = None
    out: str = "out"
    formats: tuple[str, ...] = ("csv", "json")

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if (self.psi.m, self.psi.n) != tuple(self.dims):
            raise ConfigError("psi dimensions disagree with dims")
        if self.sample_count < 1:
            raise ConfigError(f"sample_count must be >= 1, got {self.sample_count}")
        with _field("formats"):
            _check_formats(self.formats)
        with _field("psi"):
            self.psi.check_places(self.places)
        with _field("schedule"):
            Region(self.psi, self.schedule.profile(self.dims[1], 0), self.places)
        with _field("congruence"):
            congruence_shift(self.places, self.modulus, self.shift, sum(self.dims))
        with _field("sampler"):
            _sampler_config(self, 0)
        if self.mode == "volume":
            with _field("mc_samples"):
                check_sample_count(self.mc_samples)
        if self.mode == "dirichlet":
            with _field("schedule"):
                check_dirichlet_profile(_dirichlet_profile(self.schedule))
        if self.dirichlet_constants is not None:
            with _field("dirichlet_constants"):
                default_dirichlet_constants(self.places, self.dims[0], dict(self.dirichlet_constants))

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "places": list(self.places.primes),
            "dims": list(self.dims),
            "psi": self.psi.to_json(),
            "schedule": {
                "real_start": str(self.schedule.real_start),
                "real_factor": str(self.schedule.real_factor),
                "steps": self.schedule.steps,
                "finite_start": {str(p): t for p, t in self.schedule.finite_start},
                "finite_step": {str(p): s for p, s in self.schedule.finite_step},
                "finite_every": {str(p): e for p, e in self.schedule.finite_every},
            },
            "congruence": {
                "modulus": self.modulus,
                "shift": [str(c) for c in self.shift],
            },
            "sampler": {
                "seed": self.seed,
                "precision": {str(p): k for p, k in self.precision},
                "real_resolution": self.real_resolution,
            },
            "sample_count": self.sample_count,
            "mc_samples": self.mc_samples,
            "dirichlet_constants": (
                None
                if self.dirichlet_constants is None
                else {str(k): str(v) for k, v in self.dirichlet_constants}
            ),
            "out": self.out,
            "formats": list(self.formats),
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "ExperimentConfig":
        with _field("mode"):
            mode = obj["mode"]
        with _field("places"):
            places = PlaceSet(tuple(sorted(obj.get("places", []))))
        with _field("dims"):
            dims = tuple(obj["dims"])
        with _field("psi"):
            psi = ApproxCollection.from_json(obj["psi"])
        with _field("schedule"):
            sch = obj["schedule"]
            schedule = Schedule(
                Fraction(sch["real_start"]),
                Fraction(sch["real_factor"]),
                int(sch["steps"]),
                tuple(sorted((int(p), int(t)) for p, t in sch.get("finite_start", {}).items())),
                tuple(sorted((int(p), int(s)) for p, s in sch.get("finite_step", {}).items())),
                tuple(sorted((int(p), int(e)) for p, e in sch.get("finite_every", {}).items())),
            )
        with _field("congruence"):
            cong = obj.get("congruence", {})
            modulus = int(cong.get("modulus", 1))
            shift = tuple(Fraction(c) for c in cong.get("shift", []))
        with _field("sampler"):
            sampler = obj.get("sampler", {})
            seed = int(sampler.get("seed", 20260810))
            precision = tuple(sorted((int(p), int(k)) for p, k in sampler.get("precision", {}).items()))
            real_resolution = int(sampler.get("real_resolution", 2**64))
        with _field("sample_count"):
            sample_count = int(obj.get("sample_count", 20))
        with _field("mc_samples"):
            mc_samples = int(obj.get("mc_samples", 100_000))
        with _field("dirichlet_constants"):
            consts = obj.get("dirichlet_constants")
            if consts is not None:
                consts = tuple(
                    sorted(
                        ((k if k == REAL_PLACE else int(k), Fraction(v)) for k, v in consts.items()),
                        key=lambda kv: str(kv[0]),
                    )
                )
        return cls(
            mode=mode,
            places=places,
            dims=dims,
            psi=psi,
            schedule=schedule,
            modulus=modulus,
            shift=shift,
            seed=seed,
            precision=precision,
            real_resolution=real_resolution,
            sample_count=sample_count,
            mc_samples=mc_samples,
            dirichlet_constants=consts,
            out=obj.get("out", "out"),
            formats=tuple(obj.get("formats", ("csv", "json"))),
        )


@dataclass(frozen=True)
class RunRecord:
    """One ladder step of one A-sample.  A sample's steps are counted in
    one pass, so ``elapsed`` holds the whole pass (with any deepening) on
    step 0 and 0.0 on later steps, and ``events`` sits on step 0; summing
    ``elapsed`` over a sample's steps gives its counting time."""

    sample: int
    seed: int
    step: int
    t_inf: str
    t_fin: tuple[tuple[int, str], ...]
    volume: str
    count: int
    ratio: float
    elapsed: float
    events: tuple[str, ...] = ()


@dataclass
class RunResult:
    config: ExperimentConfig
    records: list[RunRecord]
    summary: dict

    @property
    def exit_code(self) -> int:
        return 0 if self.summary.get("passed", True) else 1


def _record(config, prof, sample, seed, step, volume, count, ratio, elapsed, events=()) -> RunRecord:
    """The record of one ladder step, with the profile's bounds and the
    volume as the strings that records.csv and records.json hold."""
    t_fin = tuple((p, str(prof.finite_value(p))) for p in config.places.primes)
    return RunRecord(
        sample, seed, step, str(prof.t_inf), t_fin, str(volume), count, ratio, elapsed, tuple(events)
    )


def _sampler_config(config: ExperimentConfig, sample_index: int) -> SamplerConfig:
    precision = dict(config.precision) or {p: 16 for p in config.places.primes}
    return SamplerConfig.of(
        derive_seed(config.seed, "sample", sample_index),
        config.dims,
        config.places,
        precision,
        config.real_resolution,
    )


def _deepened(A: TruncatedMatrix, needs: dict[int, int]) -> tuple[TruncatedMatrix, list[str]]:
    """Deepen the matrix, once and before any search, to the precision
    ``needs`` names at each place; returns the deepened matrix and one
    ``deepen p=.. K=..->..`` event per place it deepened."""
    events: list[str] = []
    for p, need in needs.items():
        if need > A.K(p):
            events.append(f"deepen p={p} K={A.K(p)}->{need}")
            A = deepen(A, p, need)
    return A, events


def _sample_records(args) -> list[RunRecord]:
    """Counts for one A-sample along the ladder (worker for the sample pool),
    from one counting pass over the ladder's largest box."""
    config, sample_index, profiles, volumes = args
    scfg = _sampler_config(config, sample_index)
    A = sample_matrix(scfg)
    scale = config.modulus ** sum(config.dims)
    start = time.perf_counter()
    req = CountRequest(config.places, A, config.psi, profiles[-1], config.modulus, config.shift)
    A, events = _deepened(A, precision_needed(req))
    counts = count_solutions(dataclasses.replace(req, matrix=A), profiles)
    elapsed = time.perf_counter() - start
    return [
        _record(
            config, prof, sample_index, scfg.seed, step, vol, cnt,
            cnt * scale / float(vol) if float(vol) else math.inf,
            elapsed if step == 0 else 0.0,
            events if step == 0 else (),
        )
        for step, (prof, vol, cnt) in enumerate(zip(profiles, volumes, counts))
    ]


def _ladder_volumes(config: ExperimentConfig, profiles) -> list:
    vols = []
    for prof in profiles:
        res = volume_exact(Region(config.psi, prof, config.places))
        vols.append(res.total)
    return vols


def _run_samples(config: ExperimentConfig, profiles, volumes, jobs: int) -> list[RunRecord]:
    tasks = [(config, i, profiles, volumes) for i in range(config.sample_count)]
    jobs = min(jobs, len(tasks))
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            chunks = pool.map(_sample_records, tasks)
    else:
        chunks = [_sample_records(t) for t in tasks]
    records = [r for chunk in chunks for r in chunk]
    records.sort(key=lambda r: (r.sample, r.step))
    return records


def run(config: ExperimentConfig, jobs: int = 1, max_product=None) -> RunResult:
    mode = config.mode
    if mode == "verify":
        return _run_verify(config)
    if mode == "asymptotic":
        return _run_asymptotic(config, jobs, max_product)
    if mode == "dichotomy":
        return _run_dichotomy(config, jobs, max_product)
    if mode == "volume":
        return _run_volume(config, max_product)
    if mode == "count":
        return _run_count(config, jobs, max_product)
    if mode == "dirichlet":
        return _run_dirichlet(config)
    raise ConfigError(f"mode {mode!r} is not runnable; use report for re-emission")


def _diverges(config) -> bool:
    """Whether the defining integral diverges, decided before any count; an
    undecidable tail is a usage error that names the fix."""
    try:
        return diverges(config.psi, config.places)
    except IntegralUndecidable as exc:
        raise ConfigError(f"cannot decide whether the defining integral diverges: {exc}") from None


def _run_asymptotic(config, jobs, max_product) -> RunResult:
    if not _diverges(config):
        raise ConfigError(
            "the defining integral converges, so the count/volume ratio has no "
            "limit to verify; use dichotomy mode for the convergent case"
        )
    warnings = []
    d = sum(config.dims)
    if d < 3:
        warnings.append(
            f"d = m + n = {d} < 3: the equidistribution input behind the "
            "asymptotic needs d >= 3; results are exploratory"
        )
    profiles = config.schedule.profiles(config.dims[1], max_product)
    volumes = _ladder_volumes(config, profiles)
    records = _run_samples(config, profiles, volumes, jobs)

    steps = len(profiles)
    per_step_median = [
        statistics.median(r.ratio for r in records if r.step == s) for s in range(steps)
    ]
    per_step_err = [
        statistics.median(abs(r.ratio - 1) for r in records if r.step == s)
        for s in range(steps)
    ]
    drift = per_step_err[-3:]
    summary = {
        "mode": "asymptotic",
        "d": d,
        "modulus": config.modulus,
        "steps": steps,
        "final_product": str(profiles[-1].product()),
        "per_step_median_ratio": per_step_median,
        "per_step_median_abs_err": per_step_err,
        "final_median_ratio": per_step_median[-1],
        "drift_non_increasing": all(a >= b for a, b in zip(drift, drift[1:])),
        "warnings": warnings,
    }
    if config.modulus > 1:
        # the empirically observed normalization exponent: V / count = N^x
        finals = [r for r in records if r.step == steps - 1 and r.count > 0]
        if finals:
            exps = [
                math.log(float(Fraction(r.volume)) / r.count) / math.log(config.modulus)
                for r in finals
            ]
            summary["empirical_modulus_exponent"] = statistics.median(exps)
    return RunResult(config, records, summary)


def _run_dichotomy(config, jobs, max_product) -> RunResult:
    """Track counts along the ladder: a convergent defining integral makes
    them plateau over the ladder tail, a divergent one makes them track the
    growing volume (measured against the mid-ladder count)."""
    profiles = config.schedule.profiles(config.dims[1], max_product)
    if len(profiles) < 4:
        raise ConfigError("dichotomy mode needs at least four ladder steps")
    divergent = _diverges(config)
    volumes = _ladder_volumes(config, profiles)
    records = _run_samples(config, profiles, volumes, jobs)
    last = len(profiles) - 1
    tail_start = max(last - 2, 1)
    mid = len(profiles) // 2
    plateau = growth = 0
    for i in range(config.sample_count):
        mine = {r.step: r.count for r in records if r.sample == i}
        if mine[last] == mine[tail_start]:
            plateau += 1
        if mine[last] >= 10 * max(mine[mid], 1):
            growth += 1
    summary = {
        "mode": "dichotomy",
        "integral": "divergent" if divergent else "convergent",
        "tail_start_step": tail_start,
        "mid_step": mid,
        "plateau_fraction": plateau / config.sample_count,
        "growth_fraction": growth / config.sample_count,
        "classification": (
            "convergent-like (counts plateau)"
            if plateau > growth
            else "divergent-like (counts track the volume)"
        ),
    }
    return RunResult(config, records, summary)


def _run_volume(config, max_product) -> RunResult:
    prof = config.schedule.profiles(config.dims[1], max_product)[-1]
    region = Region(config.psi, prof, config.places)
    # the oracle first: a box beyond its float range is a usage error before
    # any exact volume is computed
    try:
        mc = volume_monte_carlo(region, config.mc_samples, derive_seed(config.seed, "mc"))
    except ValueError as exc:
        raise ConfigError(
            f"schedule: {exc}; lower the schedule's last step, or cap it with --max-T"
        ) from None
    res = volume_exact(region)
    agrees = mc_agrees(res, mc)
    summary = {
        "mode": "volume",
        "exact": str(res.total),
        "exact_float": float(res.total),
        "is_exact": res.is_exact,
        "real_factor": str(res.real_factor),
        "finite_factors": {str(p): str(f) for p, f in res.finite_factors},
        "mc_estimate": mc.estimate,
        "mc_std_error": mc.std_error,
        "mc_samples": mc.samples,
        "agrees_within_4se": agrees,
        "passed": agrees,
    }
    record = _record(config, prof, 0, config.seed, 0, res.total, 0, float("nan"), 0.0)
    return RunResult(config, [record], summary)


def _run_count(config, jobs, max_product) -> RunResult:
    profiles = [config.schedule.profiles(config.dims[1], max_product)[-1]]
    volumes = _ladder_volumes(config, profiles)
    records = _run_samples(config, profiles, volumes, jobs)
    summary = {
        "mode": "count",
        "counts": [r.count for r in records],
        "volume": str(volumes[0]),
        "modulus": config.modulus,
    }
    return RunResult(config, records, summary)


def _dirichlet_profile(schedule: Schedule) -> NormProfile:
    # here the schedule exponents bound the norms themselves
    return NormProfile.of(schedule.real_start, dict(schedule.finite_start))


def _run_dirichlet(config) -> RunResult:
    prof = _dirichlet_profile(config.schedule)
    constants = None
    if config.dirichlet_constants is not None:
        constants = dict(config.dirichlet_constants)
    records = []
    solved = unsolved = 0
    for i in range(config.sample_count):
        scfg = _sampler_config(config, i)
        A = sample_matrix(scfg)
        start = time.perf_counter()
        A, events = _deepened(A, dirichlet_precision_needed(A, prof, config.places, constants))
        try:
            # dirichlet_solve verifies its pair before returning it
            pvec, qvec = dirichlet_solve(A, prof, config.places, constants)
        except SearchExhausted as exc:
            if not exc.legitimate:  # constants at the guarantee: a bug
                raise
            unsolved += 1
            count = 0
            events.append(f"unsolved: {exc}")
        else:
            solved += 1
            count = 1
            events += [f"p={_vec(pvec)}", f"q={_vec(qvec)}"]
        elapsed = time.perf_counter() - start
        records.append(_record(config, prof, i, scfg.seed, 0, 0, count, float(count), elapsed, events))
    summary = {
        "mode": "dirichlet",
        "instances": config.sample_count,
        "solved_and_verified": solved,
        "unsolved": unsolved,
        "passed": solved + unsolved == config.sample_count,
    }
    return RunResult(config, records, summary)


def _run_verify(config) -> RunResult:
    from . import checks

    results = []
    passed = True
    for name, ok, detail in checks.run_all(config.seed):
        results.append({"suite": name, "passed": ok, "detail": detail})
        passed &= ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    summary = {"mode": "verify", "suites": results, "passed": passed}
    return RunResult(config, [], summary)


def _vec(v) -> str:
    return "(" + ", ".join(str(c) for c in v) + ")"


# --------------------------------------------------------------------------
# report emission


def records_to_csv(config: ExperimentConfig, records: Sequence[RunRecord]) -> str:
    """RFC-4180-style CSV with a mandatory header; no timing columns, so the
    bytes are reproducible across reruns."""
    if not records:
        raise ValueError("no records to report")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    t_cols = [f"T_{p}" for p in config.places.primes]
    writer.writerow(["seed", "step", "T_inf", *t_cols, "V", "N", "ratio"])
    for r in records:
        fins = dict(r.t_fin)
        writer.writerow(
            [
                r.seed,
                r.step,
                r.t_inf,
                *[fins[p] for p in config.places.primes],
                r.volume,
                r.count,
                repr(r.ratio),
            ]
        )
    return buf.getvalue()


def csv_to_rows(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    return list(reader)


def records_to_json(result: RunResult) -> str:
    payload = {
        "config": result.config.to_json(),
        "summary": result.summary,
        "records": [dataclasses.asdict(r) for r in result.records],
    }
    return json.dumps(payload, indent=2, default=str, sort_keys=True)


def result_from_json(obj: Mapping) -> RunResult:
    """The run that ``records_to_json`` wrote, from its parsed JSON."""
    with _field("config"):
        config = ExperimentConfig.from_json(obj["config"])
    with _field("records"):
        records = [
            RunRecord(
                sample=r["sample"],
                seed=r["seed"],
                step=r["step"],
                t_inf=r["t_inf"],
                t_fin=tuple((int(p), s) for p, s in r["t_fin"]),
                volume=r["volume"],
                count=r["count"],
                ratio=float(r["ratio"]),
                elapsed=float(r["elapsed"]),
                events=tuple(r.get("events", ())),
            )
            for r in obj["records"]
        ]
    return RunResult(config, records, obj.get("summary", {}))


def records_to_svg(config: ExperimentConfig, records: Sequence[RunRecord]) -> str:
    """Ratio against log10 |T|, one polyline per A-sample, reference at 1."""
    if not records:
        raise ValueError("no records to report")
    width, height, margin = 640, 400, 48
    xs = {}
    for r in records:
        t = float(Fraction(r.t_inf))
        for _, tv in r.t_fin:
            t *= float(Fraction(tv))
        xs[r.step] = math.log10(t) if t > 0 else 0.0
    ratios = [r.ratio for r in records if not math.isnan(r.ratio)]
    lo = min(ratios + [0.8])
    hi = max(ratios + [1.2])
    x_lo, x_hi = min(xs.values()), max(xs.values())
    span_x = (x_hi - x_lo) or 1.0
    span_y = (hi - lo) or 1.0

    def px(v):
        return margin + (v - x_lo) / span_x * (width - 2 * margin)

    def py(v):
        return height - margin - (v - lo) / span_y * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{py(1.0):.2f}" x2="{width - margin}" y2="{py(1.0):.2f}" '
        'stroke="#888" stroke-dasharray="6 3"/>',
        f'<text x="{margin}" y="{margin - 16}" font-size="13">count / (volume / N^d) '
        "against log10 |T|</text>",
    ]
    samples = sorted({r.sample for r in records})
    for s in samples:
        pts = [
            f"{px(xs[r.step]):.2f},{py(r.ratio):.2f}"
            for r in records
            if r.sample == s and not math.isnan(r.ratio)
        ]
        if pts:
            parts.append(
                f'<polyline class="sample" fill="none" stroke="#1f6fb2" '
                f'stroke-opacity="0.55" points="{" ".join(pts)}"/>'
            )
    parts.append(
        f'<text x="{margin}" y="{height - 12}" font-size="11">log10 |T| from '
        f"{x_lo:.2f} to {x_hi:.2f}; ratio from {lo:.3f} to {hi:.3f}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts)


def _read_json(path: str, parse):
    """``parse`` of the JSON in the file at ``path``; an unreadable file,
    bad JSON and a missing or bad field are ConfigErrors naming the file."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _formats(fmt: str | None, default: tuple[str, ...]) -> tuple[str, ...]:
    """The report formats that ``--format`` names, or ``default`` without it."""
    return default if fmt is None else FORMATS if fmt == "all" else (fmt,)


def emit_report(result: RunResult, out_dir: str, formats: Sequence[str]) -> list[str]:
    _check_formats(formats)
    if not result.records and "json" not in formats:
        raise ValueError("no records to report")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for fmt in formats:
        if fmt == "csv":
            path = os.path.join(out_dir, "records.csv")
            with open(path, "w", newline="") as fh:
                fh.write(records_to_csv(result.config, result.records))
        elif fmt == "json":
            path = os.path.join(out_dir, "records.json")
            with open(path, "w") as fh:
                fh.write(records_to_json(result))
        else:
            path = os.path.join(out_dir, "ratio.svg")
            with open(path, "w") as fh:
                fh.write(records_to_svg(result.config, result.records))
        written.append(path)
    return written


def _emit(result: RunResult, out_dir: str, formats: Sequence[str]) -> None:
    for path in emit_report(result, out_dir, formats):
        print(f"wrote {path}")


# --------------------------------------------------------------------------
# built-in configurations


def default_config(mode: str, seed: int = 20260810) -> ExperimentConfig:
    """Sensible campaign defaults; the headline asymptotic system is
    S = {inf, 2}, (m, n) = (2, 1), psi = 1."""
    places = PlaceSet((2,))
    if mode in ("asymptotic", "count", "volume"):
        dims = (2, 1)
        return ExperimentConfig(
            mode=mode,
            places=places,
            dims=dims,
            psi=psi_one(places, *dims),
            schedule=Schedule(Fraction(4), Fraction(2), 8, ((2, 1),), ((2, 1),)),
            seed=seed,
            precision=((2, 24),),
            sample_count=20,
            mc_samples=100_000,
        )
    if mode == "dichotomy":
        dims = (1, 1)
        return ExperimentConfig(
            mode=mode,
            places=places,
            dims=dims,
            psi=psi_one(places, *dims),
            schedule=Schedule(
                Fraction(2), Fraction(2), 12, ((2, 0),), ((2, 1),), ((2, 3),)
            ),
            seed=seed,
            precision=((2, 30),),
            sample_count=20,
        )
    if mode == "dirichlet":
        dims = (1, 1)
        return ExperimentConfig(
            mode=mode,
            places=places,
            dims=dims,
            psi=psi_one(places, *dims),
            schedule=Schedule(Fraction(4), Fraction(2), 1, ((2, 1),), ((2, 1),)),
            seed=seed,
            precision=((2, 16),),
            sample_count=20,
        )
    if mode == "verify":
        places0 = PlaceSet(())
        return ExperimentConfig(
            mode=mode,
            places=places0,
            dims=(1, 1),
            psi=psi_one(places0, 1, 1),
            schedule=Schedule(Fraction(2), Fraction(2), 2, (), ()),
            seed=seed,
        )
    raise ConfigError(f"no default configuration for mode {mode!r}")


# --------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sapprox",
        description="Exact S-arithmetic approximation counting experiments",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode)
        sp.add_argument("--config", help="experiment configuration (JSON)")
        sp.add_argument("--seed", type=int, help="override the campaign seed")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--samples", type=int, help="override the A-sample count")
        sp.add_argument(
            "--max-T",
            type=float,
            help="truncate the ladder once prod T_p exceeds this (" + ", ".join(LADDER_MODES) + ")",
        )
        sp.add_argument(
            "--format",
            choices=[*FORMATS, "all"],
            help="report format(s) to write",
        )
        sp.add_argument("--jobs", type=int, default=1, help="parallel A-sample workers (>= 1)")
        if mode == "report":
            sp.add_argument("--records", help="records.json from a previous run")
    return parser


def load_config(args) -> ExperimentConfig:
    config = (
        _read_json(args.config, ExperimentConfig.from_json) if args.config else default_config(args.mode)
    )
    overrides = {
        "mode": args.mode,
        "seed": args.seed,
        "sample_count": args.samples,
        "out": args.out or None,
        "formats": _formats(args.format, None),
    }
    # one replace, so the config is checked once, and only when an override changes it
    changes = {k: v for k, v in overrides.items() if v is not None and v != getattr(config, k)}
    return dataclasses.replace(config, **changes) if changes else config


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.max_T is not None and not (0 < args.max_T < math.inf):
        parser.error(f"--max-T must be a positive finite number, got {args.max_T}")
    if args.max_T is not None and args.mode not in LADDER_MODES:
        parser.error(f"--max-T applies only to the {', '.join(LADDER_MODES)} modes, not {args.mode}")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    max_product = None if args.max_T is None else Fraction(args.max_T)
    try:
        if args.mode == "report":
            path = args.records or os.path.join(args.out or "out", "records.json")
            result = _read_json(path, result_from_json)
            _emit(result, args.out or result.config.out, _formats(args.format, result.config.formats))
            return 0
        config = load_config(args)
        result = run(config, jobs=args.jobs, max_product=max_product)
    except ConfigError as exc:
        parser.error(str(exc))
    if result.records:
        _emit(result, config.out, config.formats)
    for key, value in result.summary.items():
        if key not in ("suites",):
            print(f"{key}: {value}")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Campaign benchmark for sapprox.

Runs one workload for a fixed time, repeating a unit of work on inputs made
from ``--seed``, and prints one JSON result as the last line of stdout:
end-to-end metrics with ``--trace 0``, per-layer metrics (and the tracing
overhead) with ``--trace 1``.  Every unit's output is checked after the
timed region; see README.md for the workloads and the layer -> metric ->
workload map.

Usage, from the repository root:
    python3 perfbench/run.py --workload headline --seed 1 --seconds 25 --trace 0
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"

MIN_UNITS = 2  # per run, even when one unit outlasts --seconds
SETUP_PROBES = 9  # fresh interpreters per run; setup_s is their median
VOLUME_REGIONS = 16  # regions per volume-mc unit
VOLUME_MC_SAMPLES = 4000  # Monte Carlo samples per region
LOGLAW_STEPS = 9  # of the 12-step ladder; step k costs about 2**k
REF_INTERVAL = 0.02  # seconds between reference slices inside timed code
# reference_slice's median time on the host the benchmark was tuned on
# (2 vCPUs, Python 3.11); nominal seconds are seconds at that speed
REF_SLICE_SECONDS = 0.0015

_clock = time.perf_counter


def import_sapprox():
    """Import sapprox from this checkout's source tree, never from elsewhere."""
    if not (SRC / "sapprox" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sapprox sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sapprox

    if Path(sapprox.__file__).resolve().parent != (SRC / "sapprox").resolve():
        raise SystemExit(f"perfbench: imported sapprox from {sapprox.__file__}, not {SRC}")


# --------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    build: Callable[[int], object]  # seed -> inputs; this is the set-up
    unit: Callable[[object], object]  # inputs -> outputs; this is timed
    work: Callable[[object], int]  # nominal work items in one unit
    digest: Callable[[object, object], str]  # SHA-256 of the program output
    gate: Callable[[object, object], list]  # problems found in an output
    expect: tuple[str, ...]  # layers a traced unit must record calls in


def box_size(dim, places, u_inf, u_fin, congruence, root) -> int:
    """Closed-form number of q that ``sring.enumerate_box_raw`` yields."""
    from sapprox import _kernel
    from sapprox.sring import box_denominator

    D = box_denominator(places, u_fin)
    B = _kernel.introot((D**root * u_inf.numerator) // u_inf.denominator, root)
    step = 1
    for p in places.primes:
        if u_fin[p] < 0:
            step *= p ** (-u_fin[p])
    residues, modulus = [0] * dim, step
    if congruence is not None:
        N, v = congruence
        modulus = step * N
        residues = [
            step * (D * c.numerator * pow(c.denominator, -1, N) * pow(step, -1, N) % N)
            for c in v
        ]
    size = 1
    for rho in residues:
        size *= (B - rho) // modulus - (-B - 1 - rho) // modulus
    return size


def campaign_workload(config_name: str, gate_steps: int, edit=None) -> Workload:
    """A campaign run through ``cli.run`` at jobs=1, one A-sample per unit."""
    from sapprox import cli
    from sapprox.counting import CountRequest, count_solutions_bruteforce
    from sapprox.sampler import SamplerConfig, deepen, sample_matrix

    def build(seed):
        with open(CONFIGS / config_name) as fh:
            obj = json.load(fh)
        if edit is not None:
            edit(obj)
        config = cli.ExperimentConfig.from_json(obj)
        return dataclasses.replace(config, seed=seed, sample_count=1)

    def unit(config):
        return cli.run(config, jobs=1)

    def work(config):
        n = config.dims[1]
        cong = (config.modulus, config.shift[config.dims[0] :]) if config.modulus > 1 else None
        total = 0
        for prof in config.schedule.profiles(n):
            u_fin = {p: prof.exponent(p) // n for p in config.places.primes}
            total += box_size(n, config.places, prof.t_inf, u_fin, cong, n)
        return total * config.sample_count

    def digest(config, result):
        return hashlib.sha256(cli.records_to_csv(config, result.records).encode()).hexdigest()

    def gate(config, result):
        """Recount the smallest ladder steps of every sample by brute force."""
        problems = []
        profiles = config.schedule.profiles(config.dims[1])
        for rec in result.records:
            if rec.step >= gate_steps:
                continue
            if rec.step == 0:
                A = sample_matrix(
                    SamplerConfig.of(
                        rec.seed,
                        config.dims,
                        config.places,
                        dict(config.precision),
                        config.real_resolution,
                    )
                )
            for event in rec.events:
                p, k = re.fullmatch(r"deepen p=(\d+) K=\d+->(\d+)", event).groups()
                A = deepen(A, int(p), int(k))
            req = CountRequest(
                config.places, A, config.psi, profiles[rec.step], config.modulus, config.shift
            )
            brute = count_solutions_bruteforce(req)
            if brute != rec.count:
                problems.append(
                    f"sample {rec.sample} step {rec.step}: count {rec.count} != brute force {brute}"
                )
        return problems

    expect = ("cli.run", "counting.count_solutions", "sring.enumerate_box_raw")
    return Workload(build, unit, work, digest, gate, expect)


def volume_workload() -> Workload:
    """volume_exact plus the Monte Carlo oracle on seeded random regions."""
    from sapprox import checks, volume

    def build(seed):
        rng = random.Random(f"volume-mc/{seed}")
        return [(checks.random_region(rng), rng.randrange(2**32)) for _ in range(VOLUME_REGIONS)]

    def unit(regions):
        return [
            (volume.volume_exact(reg), volume.volume_monte_carlo(reg, VOLUME_MC_SAMPLES, s))
            for reg, s in regions
        ]

    def work(regions):
        return len(regions) * VOLUME_MC_SAMPLES

    def digest(regions, results):
        text = repr([(str(ex.total), mc.hits, mc.samples) for ex, mc in results])
        return hashlib.sha256(text.encode()).hexdigest()

    def gate(regions, results):
        """The exact volume within 4 standard errors of the MC estimate.

        The standard error is the estimator's at the exact volume: the
        plug-in error ``mc.std_error`` is 0 whenever every sample hits, which
        random_region makes likely for hit ratios just below 1."""
        problems = []
        for i, (ex, mc) in enumerate(results):
            box = float(mc.box_volume)
            exact = float(ex.total)
            p = min(max(exact / box, 0.0), 1.0)
            se = box * math.sqrt(p * (1 - p) / mc.samples)
            if abs(exact - mc.estimate) > 4 * se + float(ex.total_error) + 1e-9:
                problems.append(f"region {i}: exact {exact} vs MC {mc.estimate} (4 SE = {4 * se:.4g})")
        return problems

    expect = ("volume.volume_exact", "volume.volume_monte_carlo")
    return Workload(build, unit, work, digest, gate, expect)


def _loglaw_edit(obj):
    obj["psi"]["real"] = {"kind": "log-law", "c": "1", "b": "2"}
    obj["schedule"]["steps"] = LOGLAW_STEPS


WORKLOADS = {
    "headline": lambda: campaign_workload("headline-asymptotic.json", gate_steps=2),
    "congruence": lambda: campaign_workload("congruence-asymptotic.json", gate_steps=3),
    "loglaw": lambda: campaign_workload("dichotomy-convergent.json", 4, _loglaw_edit),
    "volume-mc": volume_workload,
}


# --------------------------------------------------------------------------
# measurement


def reference_slice() -> int:
    """A fixed pure-Python computation of about 1.5 ms that calls no sapprox
    code: small Fractions, modular powers and a dict, as in the program."""
    acc, table = 0, {}
    for i in range(1, 300):
        f = Fraction(i % 97, i) + Fraction(1, i + 1)
        acc += f.numerator % 7
        table[i % 64] = table.get(i % 64, 0) + pow(i, 5, 1000003)
    return acc


class HostClock:
    """Times code in nominal seconds: seconds on a host of fixed speed.

    On a shared host, the speed of this process drifts by 10-30 % within
    seconds, and raw times drift with it.  While a timed call runs, a
    wall-clock interval timer interrupts it every REF_INTERVAL seconds and
    runs ``reference_slice`` in the signal handler, so the reference sees the
    same host as the code around it.  The call's own time (the slices taken
    out) is rescaled by REF_SLICE_SECONDS over the slices' mean time during
    the call, less the slowest and fastest tenth: one slice caught by a
    millisecond-long stall would otherwise count for a whole interval.  No
    program change can move the slices.  The timer runs only inside
    ``measure``."""

    def __init__(self):
        self.slices: list[float] = []

    def _tick(self, signum, frame):
        t0 = _clock()
        reference_slice()
        self.slices.append(_clock() - t0)

    def measure(self, fn, *args):
        """(own seconds, nominal seconds, fn's result or the exception it raised)."""
        self.slices = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)
        t0 = _clock()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed unit is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            out = exc
        finally:
            dt = _clock() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        own = dt - sum(self.slices)
        if not self.slices:  # a call shorter than REF_INTERVAL
            self._tick(None, None)
        ordered = sorted(self.slices)
        cut = len(ordered) // 10
        slice_s = statistics.mean(ordered[cut : len(ordered) - cut])
        return own, own * REF_SLICE_SECONDS / slice_s, out


def run_unit(wl: Workload, inputs):
    """(seconds, output or the exception it raised)."""
    t0 = _clock()
    try:
        out = wl.unit(inputs)
    except Exception as exc:  # a failed unit is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        out = exc
    return _clock() - t0, out


def time_units(wl: Workload, inputs, seconds: float, tracer=None):
    """Repeat the unit until the next one would overrun ``seconds``.

    Returns the plain unit times, raw and nominal, the traced unit times and
    every output.  With a tracer, each step runs the unit plain and then
    traced, so the overhead is a paired difference on identical inputs; the
    traced runs report raw times only, and no reference slice runs inside a
    traced layer."""
    plain, plain_nominal, traced, outputs = [], [], [], []
    host = HostClock()
    start = _clock()
    while True:
        if tracer is None:
            dt, dt_nominal, out = host.measure(wl.unit, inputs)
            plain_nominal.append(dt_nominal)
        else:
            dt, out = run_unit(wl, inputs)
        plain.append(dt)
        outputs.append(out)
        if tracer is not None:
            with tracer:
                dt, out = run_unit(wl, inputs)
            traced.append(dt)
            outputs.append(out)
        elapsed = _clock() - start
        if len(plain) >= MIN_UNITS and elapsed * (1 + 1 / len(plain)) > seconds:
            return plain, plain_nominal, traced, outputs


def check_outputs(wl: Workload, inputs, outputs) -> tuple[int, list, str | None]:
    """(failed units, problems, reference digest).  Every unit must produce
    the same output bytes, and that output must pass the workload's gate."""
    problems = []
    digests = []
    for out in outputs:
        if isinstance(out, Exception):
            digests.append(None)
            problems.append(f"unit raised {type(out).__name__}: {out}")
        else:
            digests.append(wl.digest(inputs, out))
    ref = next((d for d in digests if d is not None), None)
    if ref is None:
        return len(outputs), problems, None
    try:
        gate_problems = wl.gate(inputs, outputs[digests.index(ref)])
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        gate_problems = [f"gate raised {type(exc).__name__}: {exc}"]
    problems += gate_problems
    if gate_problems:
        return len(outputs), problems, ref
    mismatched = sum(d != ref for d in digests)
    if mismatched:
        problems.append(f"{mismatched} of {len(outputs)} units differ from the first output")
    return mismatched, problems, ref


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time (import plus input building) over fresh
    interpreters, raw and nominal."""
    raw, nom = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        dt, dt_nominal = map(float, proc.stdout.split())
        raw.append(dt)
        nom.append(dt_nominal)
    return statistics.median(raw), statistics.median(nom)


def setup_probe(workload: str, seed: int) -> None:
    def setup():
        import_sapprox()
        WORKLOADS[workload]().build(seed)

    dt, dt_nominal, out = HostClock().measure(setup)
    if isinstance(out, Exception):
        raise SystemExit(f"perfbench: set-up failed: {out}")
    print(dt, dt_nominal)


# --------------------------------------------------------------------------
# per-layer metrics

# (metric name, layer, field, unit); kernel.* is the sapprox._kernel package
LAYER_METRICS = [
    ("sring.enumerate_box_raw.calls", "sring.enumerate_box_raw", "calls", "count"),
    ("sring.enumerate_box_raw.q", "sring.enumerate_box_raw", "items", "count"),
    ("sring.enumerate_box_raw.s", "sring.enumerate_box_raw", "total", "s"),
    ("kernel.valuation.calls", "_kernel.valuation", "calls", "count"),
    ("kernel.valuation.s", "_kernel.valuation", "total", "s"),
    ("kernel.count_in_ap_int.calls", "_kernel.count_in_ap_int", "calls", "count"),
    ("kernel.count_in_ap_int.s", "_kernel.count_in_ap_int", "total", "s"),
    ("kernel.count_in_ap_int.nonzero", "_kernel.count_in_ap_int", "items", "count"),
    ("kernel.introot.calls", "_kernel.introot", "calls", "count"),
    ("kernel.introot.s", "_kernel.introot", "total", "s"),
    ("counting.count_solutions.calls", "counting.count_solutions", "calls", "count"),
    ("counting.count_solutions.s", "counting.count_solutions", "total", "s"),
    ("counting.crt_fold.calls", "counting.crt_fold", "calls", "count"),
    ("counting.crt_fold.s", "counting.crt_fold", "total", "s"),
    ("counting.self_s", "counting.count_solutions", "self_time", "s"),
    ("approx.value_triple.calls", "approx.value_triple", "calls", "count"),
    ("approx.value_triple.s", "approx.value_triple", "total", "s"),
    ("approx.max_root_leq.calls", "approx.max_root_leq", "calls", "count"),
    ("approx.max_root_leq.s", "approx.max_root_leq", "total", "s"),
    ("approx.leq_value.calls", "approx.leq_value", "calls", "count"),
    ("approx.leq_value.s", "approx.leq_value", "total", "s"),
    ("approx.integral_to.s", "approx.integral_to", "total", "s"),
    ("volume.volume_exact.calls", "volume.volume_exact", "calls", "count"),
    ("volume.volume_exact.s", "volume.volume_exact", "total", "s"),
    ("volume.volume_monte_carlo.calls", "volume.volume_monte_carlo", "calls", "count"),
    ("volume.volume_monte_carlo.s", "volume.volume_monte_carlo", "total", "s"),
    ("volume.monte_carlo.self_s", "volume.volume_monte_carlo", "self_time", "s"),
    ("sampler.sample_matrix.calls", "sampler.sample_matrix", "calls", "count"),
    ("sampler.sample_matrix.s", "sampler.sample_matrix", "total", "s"),
    ("sampler.deepen.calls", "sampler.deepen", "calls", "count"),
    ("cli.run.s", "cli.run", "total", "s"),
    ("cli.self_s", "cli.run", "self_time", "s"),
]


def layer_metrics(tracer, units: int, plain, traced) -> dict:
    """Per-layer metrics, each per unit of work (averaged over traced units)."""
    out = {}
    for name, layer, field, unit in LAYER_METRICS:
        value = getattr(tracer.stats(layer), field) / units
        out[name] = {"value": value, "unit": unit}
    for name in ("approx.interval_escalations", "approx.undecided"):
        out[name] = {"value": tracer.counters.get(name, 0) / units, "unit": "count"}
    samples = tracer.counters.get("volume.mc_samples", 0)
    hit_ratio = tracer.counters.get("volume.mc_hits", 0) / samples if samples else 0.0
    out["volume.mc_hit_ratio"] = {"value": hit_ratio, "unit": "ratio"}
    out["trace.overhead_s"] = {
        "value": statistics.median(t - p for p, t in zip(plain, traced)),
        "unit": "s",
    }
    out["trace.wall_s"] = {"value": statistics.median(traced), "unit": "s"}
    out["trace.plain_wall_s"] = {"value": statistics.median(plain), "unit": "s"}
    return out


# --------------------------------------------------------------------------
# entry point


def stamp(args, kernel_name: str) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        git_sha = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "sapprox").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src_hash.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "kernel": kernel_name,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import_sapprox()
    raw_setup_s, setup_s = (None, None) if args.trace else measure_setup(args.workload, args.seed)
    from sapprox import _kernel
    from tracer import sapprox_tracer

    wl = WORKLOADS[args.workload]()
    inputs = wl.build(args.seed)
    work = wl.work(inputs)
    tracer = sapprox_tracer() if args.trace else None

    plain, plain_nominal, traced, outputs = time_units(wl, inputs, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, problems, ref = check_outputs(wl, inputs, outputs)
    if tracer is not None:
        missing = [name for name in wl.expect if tracer.stats(name).calls == 0]
        if missing:
            raise SystemExit(f"perfbench: traced units recorded no calls in {missing}")
        metrics = layer_metrics(tracer, len(traced), plain, traced)
    else:
        wall_s = statistics.median(plain_nominal)
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "work_per_s": {"value": work / wall_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    detail = stamp(args, _kernel.implementation_name())
    detail.update(
        units=len(outputs),
        work_per_unit=work,
        raw_wall_s=statistics.median(plain),
        raw_setup_s=raw_setup_s,
        plain_unit_s=plain,
        plain_unit_nominal_s=plain_nominal,
        traced_unit_s=traced,
        output_sha256=ref,
        problems=problems,
    )
    print(json.dumps({"detail": detail}))
    result = {
        "correct": failed == 0,
        "attempted": len(outputs),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

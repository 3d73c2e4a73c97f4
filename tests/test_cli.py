"""Experiment harness: config round-trips, reports, determinism, exit codes."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sapprox
from sapprox.approx import ApproxCollection, FiniteApproxFunction, PowerLaw, psi_one
from sapprox.cli import (
    ConfigError,
    ExperimentConfig,
    RunRecord,
    RunResult,
    Schedule,
    csv_to_rows,
    default_config,
    emit_report,
    main,
    records_to_csv,
    records_to_json,
    records_to_svg,
    result_from_json,
    run,
)
from sapprox.counting import (
    CountRequest,
    SearchExhausted,
    count_solutions,
    count_solutions_bruteforce,
    dirichlet_solve,
)
from sapprox.sampler import SamplerConfig, deepen, sample_matrix
from sapprox.sring import REAL_PLACE, NormProfile, PlaceSet, derive_seed
from sapprox.volume import Region, volume_exact


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_asymptotic(seed=20260810, samples=3, steps=4):
    cfg = default_config("asymptotic", seed)
    return dataclasses.replace(
        cfg,
        sample_count=samples,
        schedule=dataclasses.replace(cfg.schedule, steps=steps),
    )


class TestSchedule:
    def test_profiles_grow(self):
        sch = Schedule(Fraction(4), Fraction(2), 5, ((2, 1),), ((2, 1),))
        profs = sch.profiles(1)
        assert len(profs) == 5
        for a, b in zip(profs, profs[1:]):
            assert b.dominates(a) and b.product() > a.product()

    def test_finite_every(self):
        sch = Schedule(Fraction(2), Fraction(2), 6, ((2, 0),), ((2, 1),), ((2, 3),))
        exps = [p.exponent(2) for p in sch.profiles(1)]
        assert exps == [0, 0, 0, 1, 1, 1]

    def test_max_product_truncation(self):
        sch = Schedule(Fraction(4), Fraction(2), 8, ((2, 1),), ((2, 1),))
        profs = sch.profiles(1, max_product=Fraction(1000))
        assert profs[-1].product() <= 1000
        assert len(profs) < 8

    def test_validation(self):
        with pytest.raises(ConfigError):
            Schedule(Fraction(1, 2), Fraction(2), 3, (), ())
        with pytest.raises(ConfigError):
            Schedule(Fraction(2), Fraction(1), 3, (), ())
        with pytest.raises(ConfigError):
            Schedule(Fraction(2), Fraction(2), 3, ((2, 0),), ((2, 0),))


class TestConfig:
    def test_json_round_trip(self):
        cfg = default_config("asymptotic")
        again = ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert again == cfg

    def test_congruence_round_trip(self):
        cfg = dataclasses.replace(
            default_config("asymptotic"),
            modulus=3,
            shift=(Fraction(1), Fraction(2), Fraction(0)),
        )
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_dirichlet_constants_round_trip_and_run(self, tmp_path):
        cfg = dataclasses.replace(
            default_config("dirichlet"),
            sample_count=3,
            dirichlet_constants=((2, Fraction(1)), (REAL_PLACE, Fraction(1, 2))),
        )
        assert ExperimentConfig.from_json(json.loads(json.dumps(cfg.to_json()))) == cfg
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_json()))
        assert main(["dirichlet", "--config", str(path), "--out", str(tmp_path)]) == 0
        blob = json.loads((tmp_path / "records.json").read_text())
        assert blob["config"]["dirichlet_constants"] == {"2": "1", "inf": "1/2"}
        assert blob["summary"]["solved_and_verified"] == 3

    @pytest.mark.parametrize(
        "constants, message",
        [
            ({"7": "1"}, "Dirichlet constant key 7 is neither 'inf' nor a prime of S"),
            ({"2": "0"}, "Dirichlet constant C_2 must be > 0, got 0"),
            ({"inf": "-1"}, "Dirichlet constant C_inf must be >= 0, got -1"),
        ],
    )
    def test_bad_dirichlet_constants_fail_at_load(self, constants, message, tmp_path, monkeypatch, capsys):
        obj = default_config("dirichlet").to_json()
        obj["dirichlet_constants"] = constants
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig.from_json(obj)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        monkeypatch.setattr("sapprox.cli.run", lambda *a, **k: pytest.fail("bad constants reached run"))
        with pytest.raises(SystemExit) as exc:
            main(["dirichlet", "--config", str(path)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, edit, message",
        [
            ("asymptotic", lambda c: c.update(places=[4]), "places: 4 is not prime"),
            (
                "asymptotic",
                lambda c: c["psi"]["real"].update(kind="bogus"),
                "psi: unknown real function kind 'bogus'",
            ),
            ("asymptotic", lambda c: c.pop("dims"), "dims: missing field 'dims'"),
            (
                "asymptotic",
                lambda c: c["congruence"].update(modulus=2),
                "congruence: modulus 2 is not coprime to the finite places",
            ),
            (
                "asymptotic",
                lambda c: c["sampler"].update(precision={"2": 0}),
                "sampler: precision must be >= 1 everywhere",
            ),
            (
                "asymptotic",
                lambda c: c["psi"]["finite"]["2"].update(head=[2, 1]),
                "psi: exponents z_k must be nondecreasing",
            ),
            (
                "asymptotic",
                lambda c: c["schedule"].update(finite_start={}),
                "schedule: profile places do not match the place set",
            ),
            (
                "asymptotic",
                lambda c: c["schedule"].update(finite_step={}),
                "schedule: finite_step has no entry for the places [2]",
            ),
            ("volume", lambda c: c.update(mc_samples=0), "mc_samples: samples must be an int >= 1, got 0"),
            (
                "dirichlet",
                lambda c: c.update(formats=["pdf"]),
                "formats: unknown report format 'pdf'; the formats are csv, json, svg",
            ),
            (
                "dirichlet",
                lambda c: c["schedule"].update(finite_start={"2": -1}),
                "schedule: Dirichlet systems need T_p >= 1 at every place; got T_2 = 2**-1",
            ),
        ],
    )
    def test_bad_config_is_a_usage_error(self, mode, edit, message, tmp_path, monkeypatch, capsys):
        obj = json.loads((CONFIGS / "headline-asymptotic.json").read_text())
        edit(obj)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "out"
        monkeypatch.setattr("sapprox.cli.run", lambda *a, **k: pytest.fail("a bad config reached run"))
        with pytest.raises(SystemExit) as exc:
            main([mode, "--config", str(path), "--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_volume_beyond_the_oracle_float_range_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("sapprox.cli.volume_exact", lambda *a: pytest.fail("volume_exact ran first"))
        cases = [
            ({"real_start": str(10**400)}, "Monte Carlo oracle requires T_inf <= 2**1022"),
            # box volumes of about 2**1105 and 2**1026
            ({"finite_start": {"2": 1100}}, "Monte Carlo oracle requires a bounding box volume"),
            ({"real_start": str(2**1022)}, "Monte Carlo oracle requires a bounding box volume"),
        ]
        for i, (schedule, message) in enumerate(cases):
            obj = json.loads((CONFIGS / "volume.json").read_text())
            obj["schedule"].update(schedule, steps=1)
            path = tmp_path / f"config{i}.json"
            path.write_text(json.dumps(obj))
            out = tmp_path / f"out{i}"
            with pytest.raises(SystemExit) as exc:
                main(["volume", "--config", str(path), "--out", str(out)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"schedule: {message}" in err
            assert "cap it with --max-T" in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "name, mode",
        [
            ("headline-asymptotic", "asymptotic"),
            ("dichotomy-divergent", "dichotomy"),
            ("dirichlet", "dirichlet"),
            ("volume", "volume"),
        ],
    )
    def test_shipped_config_is_the_default(self, name, mode):
        # the benchmark reads the files, `sapprox <mode>` without --config the defaults
        shipped = json.loads((CONFIGS / f"{name}.json").read_text())
        assert ExperimentConfig.from_json(shipped) == default_config(mode)

    def test_asymptotic_requires_divergent_integral(self):
        S = PlaceSet((2,))
        convergent = ApproxCollection.of(
            PowerLaw(Fraction(1), Fraction(2)),
            {2: FiniteApproxFunction(2, 1, 1, (), ("linear", 2, 0))},
            1,
            1,
        )
        cfg = dataclasses.replace(
            default_config("asymptotic"), dims=(1, 1), psi=convergent
        )
        with pytest.raises(ConfigError, match="dichotomy"):
            run(cfg)

    def test_convergent_integral_above_the_float_range(self):
        # the tail is about 4e364: its float overflows, the verdict holds
        psi = ApproxCollection.of(
            PowerLaw(Fraction(10**400), Fraction(11, 10)),
            {2: FiniteApproxFunction(2, 1, 1, (), ("linear", 2, 0))},
            1,
            1,
        )
        cfg = default_config("dichotomy")
        cfg = dataclasses.replace(
            cfg, psi=psi, sample_count=1, schedule=dataclasses.replace(cfg.schedule, steps=4)
        )
        assert run(cfg).summary["integral"] == "convergent"
        with pytest.raises(ConfigError, match="converges"):
            run(dataclasses.replace(cfg, mode="asymptotic"))

    @pytest.mark.parametrize("mode", ["asymptotic", "dichotomy"])
    def test_undecidable_tail_is_a_usage_error_before_any_count(
        self, mode, tmp_path, monkeypatch, capsys
    ):
        obj = default_config(mode).to_json()
        obj["psi"]["real"] = {"kind": "user-step", "breakpoints": [["2", "1/2"]], "tail": None}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        monkeypatch.setattr(
            "sapprox.cli.count_solutions", lambda *a, **k: pytest.fail("counted before the verdict")
        )
        with pytest.raises(SystemExit) as exc:
            main([mode, "--config", str(path), "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert '"tail": "constant"' in capsys.readouterr().err

    def test_asymptotic_warns_below_three_dimensions(self):
        cfg = default_config("asymptotic")
        cfg = dataclasses.replace(
            cfg,
            dims=(1, 1),
            psi=psi_one(cfg.places, 1, 1),
            sample_count=1,
            schedule=dataclasses.replace(cfg.schedule, steps=3),
        )
        warnings = run(cfg).summary["warnings"]
        assert len(warnings) == 1 and warnings[0].startswith("d = m + n = 2 < 3")

    def test_dichotomy_verdict_reads_integral_diverges(self, monkeypatch):
        # the verdict has one rule: the convergent log law's tail is
        # integrated to infinity, once, by integral_diverges
        from sapprox import approx

        asked = []
        original = approx.integral_diverges

        def counted(psi, places):
            result = original(psi, places)
            asked.append((psi, result))
            return result

        monkeypatch.setattr(approx, "integral_diverges", counted)
        psi = ApproxCollection.of(
            approx.LogLaw(Fraction(1), Fraction(2)),
            {2: FiniteApproxFunction(2, 1, 1, (), ("linear", 2, 0))},
            1,
            1,
        )
        cfg = default_config("dichotomy")
        cfg = dataclasses.replace(
            cfg, psi=psi, sample_count=1, schedule=dataclasses.replace(cfg.schedule, steps=4)
        )
        assert run(cfg).summary["integral"] == "convergent"
        [(seen, result)] = asked
        assert seen == psi and not result.divergent and result.value > 0

    @pytest.mark.parametrize("mode", ["asymptotic", "dichotomy"])
    @pytest.mark.parametrize("count", [0, -1])
    def test_sample_count_must_be_positive(self, mode, count):
        with pytest.raises(ConfigError, match=r"sample_count must be >= 1"):
            dataclasses.replace(default_config(mode), sample_count=count)

    @pytest.mark.parametrize("value", ["0", "-5", "nan", "inf"])
    def test_max_T_must_be_positive_and_finite(self, value, monkeypatch, capsys):
        monkeypatch.setattr(
            "sapprox.cli.run", lambda *a, **k: pytest.fail(f"--max-T {value} reached run")
        )
        with pytest.raises(SystemExit) as exc:
            main(["asymptotic", "--max-T", value])
        assert exc.value.code == 2
        assert "--max-T must be a positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["asymptotic", "--samples", "0"], "sample_count must be >= 1, got 0"),
            (["dichotomy", "--max-T", "5"], "dichotomy mode needs at least four ladder steps"),
            (["count", "--jobs", "0"], "--jobs must be >= 1, got 0"),
            (["count", "--jobs", "-2"], "--jobs must be >= 1, got -2"),
            (["dirichlet", "--max-T", "5"], "--max-T applies only to the volume, count, asymptotic, dichotomy"),
            (["verify", "--max-T", "5"], "--max-T applies only to the volume, count, asymptotic, dichotomy"),
            (["report", "--max-T", "5"], "--max-T applies only to the volume, count, asymptotic, dichotomy"),
        ],
    )
    def test_config_error_is_a_usage_error(self, argv, message, capsys):
        # one from load_config, one from run, five from main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def stored_run(formats=("csv", "json")) -> dict:
    """The parsed records.json of a one-record run, written without running."""
    cfg = dataclasses.replace(default_config("asymptotic"), formats=formats)
    record = RunRecord(0, 1, 0, "4", ((2, "2"),), "2", 3, 1.5, 0.0)
    return json.loads(records_to_json(RunResult(cfg, [record], {})))


class TestBadInputFiles:
    @pytest.mark.parametrize(
        "mode, edit, message",
        [
            ("asymptotic", None, "cannot read {path}: No such file or directory"),
            ("asymptotic", "{not json", "{path} is not valid JSON"),
            ("report", None, "cannot read {path}: No such file or directory"),
            ("report", "{not json", "{path} is not valid JSON"),
            ("report", '{"config": {}, "records": []}', "{path}: config: mode: missing field 'mode'"),
            ("report", lambda o: o.pop("config"), "{path}: config: missing field 'config'"),
            ("report", lambda o: o.pop("records"), "{path}: records: missing field 'records'"),
            ("report", lambda o: o["records"][0].pop("count"), "{path}: records: missing field 'count'"),
            (
                "report",
                lambda o: o["config"].update(formats=["pdf"]),
                "{path}: config: formats: unknown report format 'pdf'",
            ),
        ],
        ids=[
            "config-absent",
            "config-not-json",
            "records-absent",
            "records-not-json",
            "records-empty-config",
            "records-without-config",
            "records-without-records",
            "record-without-count",
            "records-naming-pdf",
        ],
    )
    def test_is_a_usage_error_naming_the_file(self, mode, edit, message, tmp_path, monkeypatch, capsys):
        path = tmp_path / "input.json"
        if isinstance(edit, str):
            path.write_text(edit)
        elif edit is not None:  # an edit of a well-formed records.json
            obj = stored_run()
            edit(obj)
            path.write_text(json.dumps(obj))
        out = tmp_path / "out"
        monkeypatch.setattr("sapprox.cli.run", lambda *a, **k: pytest.fail("a bad file reached run"))
        flag = "--records" if mode == "report" else "--config"
        with pytest.raises(SystemExit) as exc:
            main([mode, flag, str(path), "--out", str(out)])
        assert exc.value.code == 2
        assert message.format(path=path) in capsys.readouterr().err
        assert not out.exists()


class TestRunAndReports:
    def test_volume_mode_contains_exact_16(self):
        cfg = default_config("volume")
        cfg = dataclasses.replace(
            cfg,
            dims=(1, 1),
            psi=psi_one(cfg.places, 1, 1),
            schedule=Schedule(Fraction(2), Fraction(2), 1, ((2, 1),), ((2, 1),)),
            mc_samples=20_000,
        )
        res = run(cfg)
        assert res.summary["exact"] == "16"
        assert res.summary["agrees_within_4se"]

    def test_count_and_volume_modes_truncate_at_max_T(self):
        max_product = Fraction(20)
        cfg = dataclasses.replace(default_config("count"), sample_count=2)
        prof = cfg.schedule.profiles(cfg.dims[1], max_product)[-1]
        assert prof != cfg.schedule.profiles(cfg.dims[1])[-1]
        res = run(cfg, max_product=max_product)
        assert len(res.summary["counts"]) == 2
        for rec, count in zip(res.records, res.summary["counts"]):
            A = sample_matrix(
                SamplerConfig.of(rec.seed, cfg.dims, cfg.places, dict(cfg.precision), cfg.real_resolution)
            )
            assert count == count_solutions(CountRequest(cfg.places, A, cfg.psi, prof))
        cfg = dataclasses.replace(default_config("volume"), mc_samples=2000)
        res = run(cfg, max_product=max_product)
        assert res.summary["exact"] == str(volume_exact(Region(cfg.psi, prof, cfg.places)).total)

    def test_asymptotic_summary_and_reports(self, tmp_path):
        cfg = dataclasses.replace(small_asymptotic(), out=str(tmp_path))
        res = run(cfg)
        assert len(res.records) == 3 * 4
        assert res.summary["final_median_ratio"] == pytest.approx(1.0, abs=0.25)
        files = emit_report(res, str(tmp_path), ("csv", "json", "svg"))
        assert all(os.path.exists(f) for f in files)

    def test_csv_round_trip(self):
        cfg = small_asymptotic()
        res = run(cfg)
        text = records_to_csv(cfg, res.records)
        rows = csv_to_rows(text)
        assert len(rows) == len(res.records)
        for row, rec in zip(rows, res.records):
            assert int(row["seed"]) == rec.seed
            assert int(row["step"]) == rec.step
            assert row["T_inf"] == rec.t_inf
            assert row["V"] == rec.volume
            assert int(row["N"]) == rec.count
            assert float(row["ratio"]) == rec.ratio

    def test_csv_empty_errors(self):
        cfg = small_asymptotic()
        with pytest.raises(ValueError):
            records_to_csv(cfg, [])

    def test_csv_is_rfc4180_style(self):
        cfg = small_asymptotic()
        res = run(cfg)
        text = records_to_csv(cfg, res.records)
        assert text.startswith("seed,step,T_inf,T_2,V,N,ratio\r\n")
        assert text.endswith("\r\n")

    def test_json_round_trip_and_rerun_identical(self):
        cfg = small_asymptotic()
        res = run(cfg)
        blob = records_to_json(res)
        loaded = result_from_json(json.loads(blob))
        assert loaded.config == cfg
        rerun = run(loaded.config)
        assert records_to_csv(cfg, rerun.records) == records_to_csv(cfg, res.records)

    def test_svg_structure(self):
        cfg = small_asymptotic(samples=4)
        res = run(cfg)
        svg = records_to_svg(cfg, res.records)
        assert svg.count('<polyline class="sample"') == 4
        assert "stroke-dasharray" in svg  # the reference line at ratio 1

    def test_jobs_parallel_identical(self):
        cfg = small_asymptotic()
        seq = run(cfg, jobs=1)
        par = run(cfg, jobs=2)
        assert records_to_csv(cfg, seq.records) == records_to_csv(cfg, par.records)

    def test_pool_is_no_larger_than_the_sample_count(self, monkeypatch):
        import multiprocessing

        sizes = []

        class SerialPool:
            """Records its size and maps in this process."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(t) for t in tasks]

        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        cfg = small_asymptotic(samples=3, steps=2)
        par = run(cfg, jobs=8)
        assert sizes == [3]
        assert records_to_csv(cfg, par.records) == records_to_csv(cfg, run(cfg).records)
        run(dataclasses.replace(cfg, sample_count=1), jobs=8)
        assert sizes == [3]  # a single sample runs in this process

    def test_campaign_deepens_once_before_counting(self):
        # z_k = 3k needs K_2 >= z_3 + 3 = 12 at the last step (T_2 = 2**3);
        # the sampler gives 2 digits, so step 0 deepens once, to 12
        places = PlaceSet((2,))
        psi = ApproxCollection.of(
            PowerLaw(Fraction(1), Fraction(1)),
            {2: FiniteApproxFunction(2, 1, 1, (), ("linear", 3, 0))},
            1,
            1,
        )
        cfg = dataclasses.replace(
            default_config("dichotomy"),
            psi=psi,
            schedule=Schedule(Fraction(2), Fraction(2), 4, ((2, 0),), ((2, 1),)),
            precision=((2, 2),),
            real_resolution=2**12,
            sample_count=2,
        )
        res = run(cfg)
        profiles = cfg.schedule.profiles(1)
        for rec in res.records:
            if rec.step == 0:
                assert len(rec.events) == 1
                # the event text the benchmark's correctness gate replays
                p, k = re.fullmatch(r"deepen p=(\d+) K=\d+->(\d+)", rec.events[0]).groups()
                assert (p, k) == ("2", "12")
                A = deepen(
                    sample_matrix(
                        SamplerConfig.of(rec.seed, cfg.dims, places, {2: 2}, 2**12)
                    ),
                    int(p),
                    int(k),
                )
            else:
                assert rec.events == ()
                assert rec.elapsed == 0.0
            req = CountRequest(places, A, psi, profiles[rec.step])
            assert rec.count == count_solutions_bruteforce(req)

    def test_dirichlet_mode(self):
        cfg = dataclasses.replace(default_config("dirichlet"), sample_count=5)
        res = run(cfg)
        assert res.summary["solved_and_verified"] == 5
        assert res.exit_code == 0

    def test_dirichlet_unsolved_samples_below_the_guarantee(self, tmp_path, capsys):
        # C_inf = 0 asks for an exact real pair, which none of these samples
        # has: each is recorded with count 0, and the run exits 0
        obj = json.loads((CONFIGS / "dirichlet.json").read_text())
        obj["dirichlet_constants"] = {"inf": "0"}
        obj["sample_count"] = 3
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        assert main(["dirichlet", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert "unsolved: 3" in capsys.readouterr().out
        blob = json.loads((tmp_path / "records.json").read_text())
        assert blob["summary"]["solved_and_verified"] == 0
        assert blob["summary"]["unsolved"] == 3 and blob["summary"]["passed"]
        for rec in blob["records"]:
            assert rec["count"] == 0
            (event,) = rec["events"]
            assert event.startswith("unsolved: no solution in the box") and "C_inf = 0" in event
        rows = csv_to_rows((tmp_path / "records.csv").read_text())
        assert [row["N"] for row in rows] == ["0"] * 3

    def test_dirichlet_exhaustion_at_the_guarantee_still_raises(self, monkeypatch):
        from sapprox import cli

        def exhausted(*args):
            raise SearchExhausted("no solution in the guaranteed box; this is a bug")

        monkeypatch.setattr(cli, "dirichlet_solve", exhausted)
        cfg = dataclasses.replace(default_config("dirichlet"), sample_count=1)
        with pytest.raises(SearchExhausted, match="this is a bug"):
            run(cfg)

    def test_dirichlet_mode_deepens_a_short_matrix(self):
        # T_2 = 2**3 needs more 2-adic digits than the one the sampler gives
        base = default_config("dirichlet")
        cfg = dataclasses.replace(
            base,
            sample_count=3,
            precision=((2, 1),),
            schedule=dataclasses.replace(base.schedule, finite_start=((2, 3),)),
        )
        res = run(cfg)
        assert res.exit_code == 0
        prof = NormProfile.of(cfg.schedule.real_start, {2: 3})
        for rec in res.records:
            *deepens, p_event, q_event = rec.events
            assert deepens
            K = 1
            for event in deepens:
                k_from, k_to = re.fullmatch(r"deepen p=2 K=(\d+)->(\d+)", event).groups()
                assert int(k_from) == K < int(k_to)
                K = int(k_to)
            # the same pair as a matrix sampled deep enough from the start
            deep = sample_matrix(SamplerConfig.of(rec.seed, cfg.dims, cfg.places, {2: 16}, 2**64))
            pvec, qvec = dirichlet_solve(deep, prof, cfg.places)
            assert p_event == f"p=({pvec[0]})" and q_event == f"q=({qvec[0]})"


class TestMainEntry:
    def test_main_asymptotic_writes_reports(self, tmp_path, capsys):
        code = main(
            [
                "asymptotic",
                "--samples",
                "2",
                "--max-T",
                "600",
                "--out",
                str(tmp_path),
                "--format",
                "all",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "final_median_ratio" in out
        assert (tmp_path / "records.csv").exists()
        assert (tmp_path / "records.json").exists()
        assert (tmp_path / "ratio.svg").exists()

    def test_report_regenerates_identical_csv(self, tmp_path):
        code = main(
            ["asymptotic", "--samples", "2", "--max-T", "600", "--out", str(tmp_path)]
        )
        assert code == 0
        csv_first = (tmp_path / "records.csv").read_bytes()
        (tmp_path / "records.csv").unlink()
        code = main(
            ["report", "--records", str(tmp_path / "records.json"), "--out", str(tmp_path), "--format", "csv"]
        )
        assert code == 0
        assert (tmp_path / "records.csv").read_bytes() == csv_first

    def test_report_writes_the_stored_formats_without_format(self, tmp_path):
        path = tmp_path / "records.json"
        path.write_text(json.dumps(stored_run(formats=("svg", "json"))))
        out = tmp_path / "out"
        assert main(["report", "--records", str(path), "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["ratio.svg", "records.json"]

    def test_seed_override_reaches_the_reports(self, tmp_path):
        seeds = {}
        for seed in (None, 5):
            out = tmp_path / str(seed)
            argv = ["dirichlet", "--samples", "2", "--out", str(out)]
            assert main(argv + ([] if seed is None else ["--seed", str(seed)])) == 0
            blob = json.loads((out / "records.json").read_text())
            assert blob["config"]["sampler"]["seed"] == (seed or default_config("dirichlet").seed)
            seeds[seed] = [row["seed"] for row in csv_to_rows((out / "records.csv").read_text())]
        assert seeds[5] == [str(derive_seed(5, "sample", i)) for i in range(2)]
        assert seeds[5] != seeds[None]

    def test_config_file_round_trip(self, tmp_path):
        cfg = small_asymptotic(samples=2, steps=3)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_json()))
        code = main(["asymptotic", "--config", str(path), "--out", str(tmp_path)])
        assert code == 0
        blob = json.loads((tmp_path / "records.json").read_text())
        assert ExperimentConfig.from_json(blob["config"]) == dataclasses.replace(
            cfg, out=str(tmp_path)
        )

    def test_verify_exit_code_zero(self):
        # every property suite of `sapprox verify`, at the default seed
        from sapprox import checks

        res = run(default_config("verify"))
        suites = res.summary["suites"]
        assert [s["suite"] for s in suites] == [name for name, _ in checks.ALL_CHECKS]
        failed = [f"{s['suite']}: {s['detail']}" for s in suites if not s["passed"]]
        assert res.exit_code == 0, f"failed suites: {failed}"

    def test_verify_exit_code_nonzero_on_failure(self, monkeypatch, capsys):
        from sapprox import checks

        monkeypatch.setattr(
            checks,
            "ALL_CHECKS",
            [("always-fails", lambda rng: (False, "injected failure"))],
        )
        res = run(default_config("verify"))
        assert res.exit_code == 1
        assert "FAIL" in capsys.readouterr().out


def test_an_exact_psi_count_never_imports_mpmath():
    # mpmath is imported only where a numeric-only kind needs it
    script = """
import sys
from fractions import Fraction
import sapprox.cli
from sapprox.approx import psi_one
from sapprox.counting import CountRequest, count_solutions
from sapprox.sampler import SamplerConfig, sample_matrix
from sapprox.sring import NormProfile, PlaceSet
S = PlaceSet((2,))
A = sample_matrix(SamplerConfig.of(5, (2, 1), S, {2: 24}))
req = CountRequest(S, A, psi_one(S, 2, 1), NormProfile.of(Fraction(16), {2: 3}))
assert count_solutions(req) > 0
print("mpmath" in sys.modules)
"""
    src = str(Path(sapprox.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

"""Report assembly, serialization, comparison table and the CLI."""

import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import mixroc
from mixroc.cli import (
    EXIT_INPUT, EXIT_IO, EXIT_OK, RunConfig, _render, analyse, build_parser, config_from_args, main,
    run,
)
from mixroc.datasets import load_dataset, make_uniform_grid
from mixroc.ensemble import MgConfig
from mixroc.gmm import EmConfig
from mixroc.report import ESTIMATORS, Report, compare_table

ROOT = Path(__file__).resolve().parent.parent
DATA = str(ROOT / "data" / "wieand_pancreatic.csv")


def tiny_csv(tmp_path):
    p = tmp_path / "tiny.csv"
    p.write_text("score,label\n1,0\n2,0\n3,1\n4,1\n")
    return p


def fast_config(tmp_path, **kwargs):
    defaults = dict(
        input_path=str(tiny_csv(tmp_path)),
        out_dir=str(tmp_path / "out"),
        em=EmConfig(k_max=1, n_restarts=1),
        mg=MgConfig(m=20, seed=0, grid=make_uniform_grid(64)),
        reproducible=True,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestRun:
    def test_empirical_only_no_model_files(self, tmp_path):
        config = fast_config(tmp_path, estimators=("empirical",))
        report = run(config)
        assert report.estimators["empirical"]["auc_trapezoidal"] == pytest.approx(1.0)
        out = tmp_path / "out"
        assert (out / "report.json").exists()
        assert (out / "curve_empirical.csv").exists()
        assert not (out / "model_non_diseased.json").exists()
        assert not (out / "curve_mg.csv").exists()

    def test_all_estimators_have_entries(self, tmp_path):
        report = run(fast_config(tmp_path))
        assert set(report.estimators) == {"empirical", "binormal", "mg"}
        for entry in report.estimators.values():
            assert 0.0 <= entry["auc_trapezoidal"] <= 1.0

    def test_report_json_round_trip(self, tmp_path):
        report = run(fast_config(tmp_path))
        text = (tmp_path / "out" / "report.json").read_text()
        assert json.loads(text) == asdict(report)

    def test_settings_em_lists_every_em_setting(self, tmp_path):
        report = run(fast_config(tmp_path, estimators=("empirical",)))
        assert report.settings["em"] == {
            "k_min": 1, "k_max": 1, "max_iter": 500, "n_restarts": 1, "seed": 0, "tol": 1e-8,
        }

    def test_same_seed_same_bytes(self, tmp_path):
        run(fast_config(tmp_path, out_dir=str(tmp_path / "a")))
        run(fast_config(tmp_path, out_dir=str(tmp_path / "b")))
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_pauc_intervals_in_report(self, tmp_path):
        config = fast_config(tmp_path, estimators=("empirical",), pauc_intervals=((0.0, 0.5),))
        report = run(config)
        assert report.pauc["0:0.5"]["empirical"] == pytest.approx(0.5, abs=0.02)

    def test_dump_replicates(self, tmp_path):
        config = fast_config(tmp_path, dump_replicates=True)
        run(config)
        lines = (tmp_path / "out" / "replicates.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 20  # header + M rows

    def test_report_csv_matches_json(self, tmp_path):
        run(fast_config(tmp_path, out_dir=str(tmp_path / "csv"), report_format="csv"))
        run(fast_config(tmp_path, out_dir=str(tmp_path / "json")))
        with (tmp_path / "csv" / "report.csv").open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["estimator", "auc_trapezoidal", "auc_mann_whitney"]
        doc = json.loads((tmp_path / "json" / "report.json").read_text())
        assert sorted(row[0] for row in rows) == sorted(doc["estimators"])
        for name, trapezoidal, mann_whitney in rows:
            assert float(trapezoidal) == doc["estimators"][name]["auc_trapezoidal"]
            assert float(mann_whitney) == doc["estimators"][name]["auc_mann_whitney"]

    def test_mg_bands_csv(self, tmp_path):
        run(fast_config(tmp_path, estimators=("mg",)))
        with (tmp_path / "out" / "mg_bands.csv").open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["t", "mean", "se", "ci_lower", "ci_upper", "env_lower", "env_upper"]
        assert len(rows) == 64  # one per grid point
        assert all(len(row) == 7 for row in rows)

    def test_plots_written(self, tmp_path):
        config = fast_config(tmp_path, plots=True)
        run(config)
        out = tmp_path / "out"
        for name in ("histogram_non_diseased.svg", "histogram_diseased.svg", "roc_overlay.svg"):
            content = (out / name).read_text()
            assert content.startswith("<svg") and content.rstrip().endswith("</svg>")

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="at least one estimator"):
            fast_config(tmp_path, estimators=())
        with pytest.raises(ValueError, match="unknown estimators"):
            fast_config(tmp_path, estimators=("labroc",))
        with pytest.raises(ValueError, match="t_lo < t_hi"):
            fast_config(tmp_path, pauc_intervals=((0.5, 0.2),))
        with pytest.raises(ValueError, match="duplicate estimators"):
            fast_config(tmp_path, estimators=("empirical", "empirical", "binormal"))
        with pytest.raises(ValueError, match="share a report key"):
            fast_config(tmp_path, pauc_intervals=((0.1, 0.2), (0.1000001, 0.2)))


class TestAnalyse:
    def test_equals_run_and_writes_nothing(self, tmp_path, monkeypatch):
        config = fast_config(tmp_path, out_dir="out", plots=True, dump_replicates=True,
                             pauc_intervals=((0.0, 0.5),))
        dataset = load_dataset(config.input_path)
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        # a config without input paths is valid: analyse reads none
        report, curves, mg_result = analyse(dataset, replace(config, input_path=None))
        assert sorted(tmp_path.rglob("*")) == before
        assert set(curves) == set(report.estimators)
        assert mg_result.auc_mean == report.estimators["mg"]["auc_trapezoidal"]
        assert report == run(config)

    @pytest.mark.parametrize("report_format", ["json", "csv", "table"])
    def test_render_is_what_run_writes(self, tmp_path, report_format):
        config = fast_config(tmp_path, report_format=report_format, plots=True,
                             dump_replicates=True, pauc_intervals=((0.0, 0.5),))
        dataset = load_dataset(config.input_path)
        files = _render(config, *analyse(dataset, config), dataset)
        assert not (tmp_path / "out").exists()
        run(config)
        written = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        assert written == {name: text.encode() for name, text in files.items()}

    def test_estimator_table_is_report_estimators(self):
        # the one place each estimator runs names every estimator, in the report's order
        assert tuple(mixroc.cli._ESTIMATORS) == ESTIMATORS

    def test_reversed_selection_keeps_estimator_order(self, tmp_path):
        config = fast_config(tmp_path, estimators=("mg", "empirical"), report_format="csv",
                             plots=True)
        dataset = load_dataset(config.input_path)
        report, curves, mg_result = analyse(dataset, config)
        assert list(report.estimators) == list(curves) == ["empirical", "mg"]
        assert report.settings["estimators"] == ["mg", "empirical"]
        files = _render(config, report, curves, mg_result, dataset)
        rows = list(csv.reader(files["report.csv"].splitlines()))
        assert [row[0] for row in rows[1:]] == ["empirical", "mg"]
        polylines = re.findall(r'<polyline [^>]*stroke="(#[0-9a-f]+)"', files["roc_overlay.svg"])
        assert polylines == ["#bbbbbb", "#333333", "#2060c0"]  # diagonal, empirical, mg


class TestCompareTable:
    def make_report(self, name, emp, binormal, mg):
        return Report(
            dataset={"source_name": name, "n_non_diseased": 2, "n_diseased": 2},
            settings={},
            estimators={
                "empirical": {"auc_trapezoidal": emp, "auc_mann_whitney": emp},
                "binormal": {
                    "auc_trapezoidal": binormal,
                    "auc_mann_whitney": binormal,
                    "mann_whitney_is_closed_form": True,
                },
                "mg": {"auc_trapezoidal": mg, "auc_mann_whitney": mg},
            },
        )

    def test_marks_closest(self):
        table = compare_table([self.make_report("d", 0.80, 0.70, 0.79)])
        lines = table.splitlines()
        mg_line = next(l for l in lines if l.startswith("mg"))
        bin_line = next(l for l in lines if l.startswith("binormal"))
        assert "<" in mg_line and "<" not in bin_line

    def test_tie_marks_both_with_footnote(self):
        table = compare_table([self.make_report("d", 0.80, 0.75, 0.85)])
        mg_line = next(l for l in table.splitlines() if l.startswith("mg"))
        bin_line = next(l for l in table.splitlines() if l.startswith("binormal"))
        assert "<" in mg_line and "<" in bin_line
        assert "tie" in table

    def test_tie_with_an_unlisted_estimator_is_no_tie(self):
        # "foo" is as close to the empirical AUC as mg, but the table lists no "foo" row
        report = self.make_report("d", 0.80, 0.70, 0.85)
        report.estimators["foo"] = {"auc_trapezoidal": 0.75, "auc_mann_whitney": 0.75}
        table = compare_table([report])
        mg_line = next(l for l in table.splitlines() if l.startswith("mg"))
        bin_line = next(l for l in table.splitlines() if l.startswith("binormal"))
        assert "<" in mg_line and "<" not in bin_line and "foo" not in table
        assert "tie" not in table

    def test_no_empirical_entry_marks_nothing(self):
        report = self.make_report("d", 0.80, 0.75, 0.85)
        del report.estimators["empirical"]
        table = compare_table([report])
        rows = [l for l in table.splitlines() if l.startswith(("binormal", "mg"))]
        assert len(rows) == 2 and not any("<" in row for row in rows)
        assert "tie" not in table

    def test_exact_text(self):
        # mg is missing from "two"; binormal and mg tie on "one"; binormal is closed-form
        one = self.make_report("one", 0.80, 0.75, 0.85)
        two = self.make_report("two", 0.90, 0.85, None)
        del two.estimators["mg"]
        assert compare_table([one, two]) == "\n".join([
            "Estimator            one trap.  Mann-Whitney         two trap.  Mann-Whitney",
            "-" * 76,
            "empirical             0.8000         0.8000           0.9000         0.9000 ",
            "binormal              0.7500 <       0.7500*          0.8500 <       0.8500*",
            "mg                    0.8500 <       0.8500                  -             -",
            "* closed-form value (no sample-based Mann-Whitney defined)",
            "note: tie: more than one estimator is equally close to the empirical AUC",
            "< marks the non-empirical estimator closest to the empirical trapezoidal AUC",
        ]) + "\n"

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            compare_table([])

    def test_multi_dataset_columns(self):
        r1 = self.make_report("one", 0.8, 0.7, 0.79)
        r2 = self.make_report("two", 0.9, 0.85, 0.88)
        table = compare_table([r1, r2])
        assert "one" in table and "two" in table

    def test_mg_marked_closest_on_study_data(self, tmp_path):
        config = RunConfig(
            input_path=DATA,
            score_col="ca125",
            label_col="status",
            out_dir=str(tmp_path),
            mg=MgConfig(m=100, seed=0),
            reproducible=True,
            source_name="CA 125",
        )
        report = run(config)
        table = compare_table([report])
        mg_line = next(l for l in table.splitlines() if l.startswith("mg"))
        assert "<" in mg_line


class TestCliProcess:
    def python(self, *args, cwd=None):
        # the child imports the same mixroc as this process, installed or not
        package_root = str(Path(mixroc.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        # the child turns the warnings into errors as pyproject.toml's filterwarnings does
        warnings = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
                    "-W", "error::FutureWarning"]
        return subprocess.run(
            [sys.executable, *warnings, *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            cwd=cwd,
        )

    def cli(self, *args):
        return self.python("-m", "mixroc.cli", *args)

    def test_import_leaves_out_scipy_stats(self):
        # scipy.stats is the largest part of a start-up; the package has no use for it
        proc = self.python("-c", "import sys, mixroc.cli; assert 'scipy.stats' not in sys.modules")
        assert proc.returncode == 0, proc.stderr

    def test_missing_input_no_partial_outputs(self, tmp_path):
        out = tmp_path / "out"
        proc = self.cli("--input", str(tmp_path / "absent.csv"), "--out", str(out))
        assert proc.returncode == EXIT_INPUT
        assert not out.exists()

    def test_table_run_on_wieand(self, tmp_path):
        proc = self.cli(
            "--input", DATA, "--score-col", "ca125", "--label-col", "status",
            "--estimators", "empirical,binormal", "--report-format", "table",
            "--out", str(tmp_path), "--name", "CA125",
        )
        assert proc.returncode == EXIT_OK
        assert "empirical" in proc.stdout and "0.7" in proc.stdout
        assert (tmp_path / "report.txt").exists()

    def test_unknown_estimator_exits_2(self, tmp_path):
        proc = self.cli("--input", DATA, "--estimators", "magic", "--out", str(tmp_path))
        assert proc.returncode == EXIT_INPUT

    def test_bad_pauc_spec_exits_2(self, tmp_path):
        proc = self.cli("--input", DATA, "--pauc", "zz", "--out", str(tmp_path))
        assert proc.returncode == EXIT_INPUT

    @pytest.mark.parametrize("scores, estimators", [
        ("0\n1\n2\n3\n1e200\n", "empirical,binormal,mg"),
        ("".join(f"{i}e-300\n" for i in range(1, 11)), "mg"),
    ], ids=["range-1e200", "spacing-1e-300"])
    def test_unrepresentable_score_range_exits_2(self, tmp_path, scores, estimators):
        controls, cases = tmp_path / "controls.txt", tmp_path / "cases.txt"
        controls.write_text(scores)
        cases.write_text("0\n1\n2\n3\n4\n")
        proc = self.cli("--non-diseased", str(controls), "--diseased", str(cases),
                        "--estimators", estimators, "--out", str(tmp_path / "out"))
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr.startswith("error: non_diseased score range ")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")

    def test_constant_population_of_huge_scores_fits(self, tmp_path):
        # EM on centred scores: 30 x 1e307 fit K=1 at exactly 1e307, with no warning
        controls, cases = tmp_path / "controls.txt", tmp_path / "cases.txt"
        controls.write_text("1e307\n" * 30)
        cases.write_text("1\n2\n3\n4\n5\n")
        proc = self.cli("--non-diseased", str(controls), "--diseased", str(cases),
                        "--estimators", "mg", "--out", str(tmp_path / "out"))
        assert proc.returncode == EXIT_OK, proc.stderr
        model = json.loads((tmp_path / "out" / "model_non_diseased.json").read_text())
        assert model["means"] == [1e307]

    def test_pancreatic_demo_runs_from_any_directory(self, tmp_path):
        proc = self.python(str(ROOT / "demos" / "04_pancreatic_study.py"), cwd=tmp_path)
        assert proc.returncode == EXIT_OK, proc.stderr
        for marker in ("ca125", "ca199"):
            assert (tmp_path / f"demo_pancreatic_{marker}" / "report.json").is_file()


class TestMainInProcess:
    def test_no_input_exits_2_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: either --input or both --non-diseased and --diseased are required\n"
        )
        assert not out.exists()

    def test_input_with_two_file_flags_exits_2(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "--input", DATA, "--score-col", "ca125", "--label-col", "status",
            "--non-diseased", str(tmp_path / "absent"), "--diseased", str(tmp_path / "absent"),
            "--estimators", "empirical", "--out", str(out),
        ])
        assert code == EXIT_INPUT
        assert not out.exists()

    def test_seed_beyond_stream_range_exits_2_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "--input", DATA, "--score-col", "ca125", "--label-col", "status",
            "--seed", str(2**128), "--out", str(out),
        ])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: seed must be below 2**128, got {2**128}\n"
        assert not out.exists()

    def test_mc_reps_below_two_exits_2(self, tmp_path):
        code = main([
            "--input", DATA, "--score-col", "ca125", "--label-col", "status",
            "--mc-reps", "1", "--out", str(tmp_path),
        ])
        assert code == EXIT_INPUT

    def test_render_failure_writes_nothing(self, tmp_path, monkeypatch):
        import mixroc.cli as cli_mod

        def fail(*args, **kwargs):
            raise ValueError("cannot draw")

        monkeypatch.setattr(cli_mod, "roc_overlay_svg", fail)
        out = tmp_path / "out"
        code = main([
            "--input", DATA, "--score-col", "ca125", "--label-col", "status",
            "--estimators", "empirical,binormal", "--plots", "--out", str(out),
        ])
        assert code == EXIT_INPUT
        assert not out.exists()

    def test_scores_a_few_ulps_apart_plot(self, tmp_path):
        # numpy cannot cut this control range into 30 histogram bins
        controls, cases = tmp_path / "controls.txt", tmp_path / "cases.txt"
        controls.write_text(f"1\n{1 + 2**-52!r}\n{1 + 2**-51!r}\n")
        cases.write_text("3\n4\n5\n6\n")
        out = tmp_path / "out"
        code = main(["--non-diseased", str(controls), "--diseased", str(cases),
                     "--estimators", "empirical", "--plots", "--out", str(out)])
        assert code == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "curve_empirical.csv", "histogram_diseased.svg", "histogram_non_diseased.svg",
            "report.json", "roc_overlay.svg",
        ]

    def test_controls_wider_than_the_float_range(self, tmp_path):
        # max - min of the controls overflows; the interpolated thresholds must not
        controls, cases = tmp_path / "controls.txt", tmp_path / "cases.txt"
        controls.write_text("-1e308\n1e308\n")
        cases.write_text("3\n4\n5\n6\n")
        out = tmp_path / "out"
        code = main(["--non-diseased", str(controls), "--diseased", str(cases),
                     "--estimators", "empirical", "--out", str(out)])
        assert code == EXIT_OK
        entry = json.loads((out / "report.json").read_text())["estimators"]["empirical"]
        assert entry["auc_trapezoidal"] == pytest.approx(0.7505, abs=1e-4)

    @pytest.mark.parametrize("controls, code", [
        ("-1e308\n1e308\n", EXIT_OK),
        ("0\n5e-324\n1e-323\n", EXIT_INPUT),
    ], ids=["span-beyond-float", "density-beyond-float"])
    def test_histogram_of_extreme_controls(self, tmp_path, capsys, controls, code):
        controls_file, cases = tmp_path / "controls.txt", tmp_path / "cases.txt"
        controls_file.write_text(controls)
        cases.write_text("3\n4\n5\n6\n")
        out = tmp_path / "out"
        assert main(["--non-diseased", str(controls_file), "--diseased", str(cases),
                     "--estimators", "empirical", "--plots", "--out", str(out)]) == code
        if code == EXIT_OK:
            svgs = [p.read_text() for p in out.glob("*.svg")]
            assert len(svgs) == 3 and not any("nan" in svg or "inf" in svg for svg in svgs)
        else:
            assert capsys.readouterr().err.startswith("error: Non-diseased scores: the density")
            assert not out.exists()

    def test_constant_huge_controls_have_zero_variance(self, tmp_path, capsys):
        controls, cases = tmp_path / "controls.txt", tmp_path / "cases.txt"
        controls.write_text("1e307\n" * 30)
        cases.write_text("1\n2\n3\n4\n5\n")
        code = main(["--non-diseased", str(controls), "--diseased", str(cases),
                     "--estimators", "binormal", "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert "zero variance" in capsys.readouterr().err

    def test_unwritable_out_dir(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = main([
            "--input", DATA, "--score-col", "ca125", "--label-col", "status",
            "--estimators", "empirical", "--out", str(blocker / "nested"),
        ])
        assert code == EXIT_IO

    def test_json_default(self, tmp_path):
        code = main([
            "--input", DATA, "--score-col", "ca125", "--label-col", "status",
            "--estimators", "empirical,binormal", "--out", str(tmp_path),
            "--reproducible",
        ])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["estimators"]["binormal"]["auc_closed_form"] == pytest.approx(0.5924, abs=0.005)
        assert "created_at" not in doc["settings"]


def test_parser_defaults_are_config_defaults():
    parsed = config_from_args(build_parser().parse_args(["--input", "x.csv"]))
    default = RunConfig(input_path="x.csv")
    for f in fields(RunConfig):
        if f.name not in ("em", "mg"):
            assert getattr(parsed, f.name) == getattr(default, f.name), f.name
    for part in ("em", "mg"):
        for f in fields(getattr(default, part)):
            got, want = getattr(getattr(parsed, part), f.name), getattr(getattr(default, part), f.name)
            if f.name == "grid":
                np.testing.assert_array_equal(got.points, want.points)
            else:
                assert got == want, f"{part}.{f.name}"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_targets_resolve():
    # the benchmark tracer wraps these attributes; a rename must not orphan one
    tracing = load_tracing()
    for module, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(tracing._resolve(module), attr, None)), f"{module}.{attr}"


def test_tracer_sees_every_cli_call(tmp_path):
    # the CLI targets are wrapped on mixroc.cli, so the run must call them there
    import mixroc.cli as cli_mod

    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:  # through the module attribute: a name imported before install is not wrapped
        cli_mod.run(fast_config(tmp_path, plots=True, pauc_intervals=((0.0, 0.5),)))
    finally:
        tracer.remove()
    recorded = {span[tracing.NAME] for span in tracer.spans}
    expected = {name for module, _, name, _ in tracing.TARGETS if module == "mixroc.cli"}
    assert expected <= recorded, sorted(expected - recorded)

"""Report assembly, serialization, comparison table and the CLI."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixroc
from mixroc.cli import EXIT_INPUT, EXIT_IO, EXIT_OK, RunConfig, main, run
from mixroc.ensemble import MgConfig
from mixroc.gmm import EmConfig
from mixroc.report import Report, compare_table

DATA = str(Path(__file__).resolve().parent.parent / "data" / "wieand_pancreatic.csv")


def tiny_csv(tmp_path):
    p = tmp_path / "tiny.csv"
    p.write_text("score,label\n1,0\n2,0\n3,1\n4,1\n")
    return p


def fast_config(tmp_path, **kwargs):
    defaults = dict(
        input_path=str(tiny_csv(tmp_path)),
        out_dir=str(tmp_path / "out"),
        em=EmConfig(k_max=1, n_restarts=1),
        mg=MgConfig(m=20, seed=0),
        grid_size=64,
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
        assert Report.from_json(text) == report

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

    def test_csv_format(self):
        table = compare_table([self.make_report("d", 0.8, 0.7, 0.79)], fmt="csv")
        head = table.splitlines()[0]
        assert head == "estimator,d:trapezoidal,d:mann_whitney,d:closest"

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
    def python(self, *args):
        # the child imports the same mixroc as this process, installed or not
        package_root = str(Path(mixroc.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
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


class TestMainInProcess:
    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch):
        import mixroc.cli as cli_mod
        from mixroc.gmm import EmCollapseError

        def collapse(*args, **kwargs):
            raise EmCollapseError("all restarts collapsed")

        monkeypatch.setattr(cli_mod, "mg_pipeline", collapse)
        code = main([
            "--input", DATA, "--score-col", "ca125", "--label-col", "status",
            "--out", str(tmp_path),
        ])
        assert code == 3

    def test_mc_reps_below_two_exits_2(self, tmp_path):
        code = main([
            "--input", DATA, "--score-col", "ca125", "--label-col", "status",
            "--mc-reps", "1", "--out", str(tmp_path),
        ])
        assert code == EXIT_INPUT

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

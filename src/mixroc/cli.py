"""Command-line front end.

`analyse` runs the selected estimators on one shared FPR grid for a
study in memory. `_render` turns its results into the text of every
output file: a report (json, csv or text table), per-curve CSVs, fitted
model JSONs, optional SVG plots and an optional replicate-matrix dump.
`run` loads a study, analyses it, renders it and only then writes.

Exit statuses: 0 success, 2 input/validation error, 3 numerical failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import itertools
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .binormal import binormal_auc, binormal_curve, fit_binormal
from .datasets import (
    DEFAULT_GRID_SIZE,
    LabeledDataset,
    load_dataset,
    load_two_files,
    make_uniform_grid,
)
from .ensemble import MgConfig, MgEnsembleResult, mg_pipeline
from .gmm import EM_TOL, EmCollapseError, EmConfig
from .report import ESTIMATORS, Report, compare_table
from .roc import (
    RocCurveGrid,
    _check_pauc_interval,
    auc_mann_whitney,
    auc_trapezoid,
    empirical_roc,
    empirical_roc_points,
    pauc,
)
from .svg import histogram_svg, roc_overlay_svg

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

REPORT_FORMATS = ("json", "csv", "table")
PAUC_KEY = "{:g}:{:g}"  # report key of the pAUC interval (lo, hi)


@dataclass(frozen=True)
class RunConfig:
    """Everything one `run` needs; built from CLI flags or directly in code."""

    input_path: str | None = None
    non_diseased_path: str | None = None
    diseased_path: str | None = None
    score_col: str = "score"
    label_col: str = "label"
    estimators: tuple[str, ...] = ESTIMATORS
    em: EmConfig = field(default_factory=EmConfig)
    mg: MgConfig = field(default_factory=MgConfig)
    pauc_intervals: tuple[tuple[float, float], ...] = ()
    out_dir: str = "."
    plots: bool = False
    report_format: str = "json"
    dump_replicates: bool = False
    reproducible: bool = False
    source_name: str | None = None

    def __post_init__(self):
        if not self.estimators:
            raise ValueError("at least one estimator must be selected")
        unknown = set(self.estimators) - set(ESTIMATORS)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")
        if len(set(self.estimators)) < len(self.estimators):
            raise ValueError(f"duplicate estimators: {list(self.estimators)}")
        if self.report_format not in REPORT_FORMATS:
            raise ValueError(f"unknown report format {self.report_format!r}")
        for lo, hi in self.pauc_intervals:
            _check_pauc_interval(lo, hi)
        keys = [PAUC_KEY.format(lo, hi) for lo, hi in self.pauc_intervals]
        if len(set(keys)) < len(keys):
            raise ValueError(f"pAUC intervals share a report key: {keys}")


def _load(config: RunConfig) -> LabeledDataset:
    """Read the study from the input paths; exactly one input mode must be given."""
    two_files = (config.non_diseased_path, config.diseased_path)
    if config.input_path is not None:
        if two_files != (None, None):
            raise ValueError("--input cannot be combined with --non-diseased or --diseased")
        return load_dataset(
            config.input_path,
            score_col=config.score_col,
            label_col=config.label_col,
            source_name=config.source_name,
        )
    if None in two_files:
        raise ValueError("either --input or both --non-diseased and --diseased are required")
    return load_two_files(*two_files, source_name=config.source_name)


def run(config: RunConfig) -> Report:
    """Load the study, `analyse` it, `_render` every output, then write them.

    `--out` is created only once every file is rendered, so a run that
    fails in loading, analysis or rendering writes nothing.
    """
    dataset = _load(config)
    report, curves, mg_result = analyse(dataset, config)
    files = _render(config, report, curves, mg_result, dataset)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, newline="")
    return report


def analyse(
    dataset: LabeledDataset, config: RunConfig
) -> tuple[Report, dict[str, RocCurveGrid], MgEnsembleResult | None]:
    """Run the selected estimators on `dataset`; write nothing.

    Reads only `estimators`, `em`, `mg`, `pauc_intervals` and
    `reproducible` of the config. Returns the report, each estimator's
    curve on the `mg.grid` and the ensemble result (None without "mg").
    """
    grid = config.mg.grid

    curves: dict[str, RocCurveGrid] = {}
    estimators: dict[str, dict] = {}
    mg_result: MgEnsembleResult | None = None

    if "empirical" in config.estimators:
        curve = empirical_roc(dataset, grid)
        curves["empirical"] = curve
        estimators["empirical"] = {
            "auc_trapezoidal": auc_trapezoid(curve),
            "auc_mann_whitney": auc_mann_whitney(dataset),
        }
    if "binormal" in config.estimators:
        params = fit_binormal(dataset)
        curve = binormal_curve(params, grid)
        curves["binormal"] = curve
        auc = binormal_auc(params)
        estimators["binormal"] = {
            "auc_trapezoidal": auc_trapezoid(curve),
            "auc_closed_form": auc,
            "auc_mann_whitney": auc,
            "mann_whitney_is_closed_form": True,
            "params": asdict(params),
        }
    if "mg" in config.estimators:
        f_model, g_model, mg_result = mg_pipeline(dataset, config.em, config.mg)
        curves["mg"] = mg_result.mean_curve
        estimators["mg"] = {
            "auc_trapezoidal": mg_result.auc_mean,
            "auc_mann_whitney": mg_result.auc_mann_whitney_mean,
            "auc_se": mg_result.auc_se,
            "k_non_diseased": f_model.k,
            "k_diseased": g_model.k,
            "models": {"non_diseased": f_model.to_json_dict(), "diseased": g_model.to_json_dict()},
            "bands": {
                "alpha": config.mg.alpha,
                "mean_ci_avg_width": float(np.mean(mg_result.ci_upper - mg_result.ci_lower)),
                "envelope_avg_width": float(np.mean(mg_result.env_upper - mg_result.env_lower)),
            },
        }

    pauc_block = {}
    for lo, hi in config.pauc_intervals:
        pauc_block[PAUC_KEY.format(lo, hi)] = {
            name: pauc(curve, lo, hi) for name, curve in curves.items()}

    settings = {
        "seed": config.mg.seed,
        "m": config.mg.m,
        "alpha": config.mg.alpha,
        "grid_size": grid.count,
        "em": {**asdict(config.em), "tol": EM_TOL},
        "estimators": list(config.estimators),
        "versions": {
            "mixroc": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if not config.reproducible:
        settings["created_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()

    report = Report(
        dataset={
            "source_name": dataset.source_name or "dataset",
            "n_non_diseased": dataset.n_x,
            "n_diseased": dataset.n_y,
        },
        settings=settings,
        estimators=estimators,
        pauc=pauc_block,
    )
    return report, curves, mg_result


def _csv_text(header, rows) -> str:
    """CSV text of a header and rows; numbers as the exact (repr) text of each value."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerows([v if isinstance(v, str) else repr(float(v)) for v in row]
                     for row in itertools.chain([header], rows))
    return buf.getvalue()


def _render(config, report, curves, mg_result, dataset) -> dict[str, str]:
    """Every file a run writes, as file name -> text; writes nothing."""
    if config.report_format == "json":
        files = {"report.json": report.to_json() + "\n"}
    elif config.report_format == "csv":
        files = {"report.csv": _csv_text(
            ["estimator", "auc_trapezoidal", "auc_mann_whitney"],
            [[name, entry["auc_trapezoidal"], entry["auc_mann_whitney"]]
             for name, entry in report.estimators.items()],
        )}
    else:
        files = {"report.txt": compare_table([report])}

    for name, curve in curves.items():
        files[f"curve_{name}.csv"] = _csv_text(["t", "tpr"], zip(curve.grid.points, curve.tpr))

    if mg_result is not None:
        points = mg_result.mean_curve.grid.points
        files["mg_bands.csv"] = _csv_text(
            ["t", "mean", "se", "ci_lower", "ci_upper", "env_lower", "env_upper"],
            zip(points, mg_result.mean_curve.tpr, mg_result.se, mg_result.ci_lower,
                mg_result.ci_upper, mg_result.env_lower, mg_result.env_upper),
        )
        for population, model in report.estimators["mg"]["models"].items():
            files[f"model_{population}.json"] = json.dumps(model) + "\n"
        if config.dump_replicates:
            files["replicates.csv"] = _csv_text(points, mg_result.replicate_matrix)

    if config.plots:
        files["histogram_non_diseased.svg"] = histogram_svg(
            dataset.non_diseased.scores, "Non-diseased scores")
        files["histogram_diseased.svg"] = histogram_svg(dataset.diseased.scores, "Diseased scores")
        band = None
        if mg_result is not None:
            band = (mg_result.mean_curve.grid.points, mg_result.env_lower, mg_result.env_upper)
        curve_specs = []
        for name, curve in curves.items():
            if name == "empirical":
                # draw the true step polyline, not the grid resampling
                _, fpr, tpr = empirical_roc_points(dataset)
                curve_specs.append((name, fpr, tpr))
            else:
                curve_specs.append((name, curve.grid.points, curve.tpr))
        files["roc_overlay.svg"] = roc_overlay_svg(curve_specs, band=band)
    return files


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixroc",
        description="ROC estimation: empirical, crude binormal, and mixture Monte Carlo.",
    )
    parser.add_argument("--input", help="labeled CSV (header row required)")
    parser.add_argument("--non-diseased", help="plain text scores, one per line (two-file mode)")
    parser.add_argument("--diseased", help="plain text scores, one per line (two-file mode)")
    parser.add_argument("--score-col", default=RunConfig.score_col,
                        help="score column name (default: %(default)s)")
    parser.add_argument("--label-col", default=RunConfig.label_col,
                        help="label column name, values 0 and 1 (default: %(default)s)")
    parser.add_argument("--estimators", default=",".join(ESTIMATORS),
                        help="comma-separated subset of %(default)s")
    parser.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE,
                        help="points of the FPR grid every estimator shares (default: %(default)s)")
    parser.add_argument("--mc-reps", type=int, default=MgConfig.m,
                        help="ensemble size M (default: %(default)s)")
    parser.add_argument("--alpha", type=float, default=MgConfig.alpha,
                        help="band level (default: %(default)s)")
    parser.add_argument("--k-max", type=int, default=EmConfig.k_max,
                        help="max mixture components (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=MgConfig.seed,
                        help="master RNG seed (default: %(default)s)")
    parser.add_argument("--pauc", action="append", default=[], metavar="LO:HI",
                        help="pAUC interval, repeatable (e.g. 0:0.2)")
    parser.add_argument("--out", default=RunConfig.out_dir, help="output directory (default: %(default)s)")
    parser.add_argument("--plots", action="store_true", help="write SVG plots")
    parser.add_argument("--report-format", choices=REPORT_FORMATS, default=RunConfig.report_format,
                        help="report file format (default: %(default)s)")
    parser.add_argument("--dump-replicates", action="store_true",
                        help="write the full M x grid replicate matrix")
    parser.add_argument("--reproducible", action="store_true",
                        help="omit timestamps so identical runs are byte-identical")
    parser.add_argument("--name", default=None, help="dataset label used in reports")
    return parser


def config_from_args(args) -> RunConfig:
    intervals = []
    for spec in args.pauc:
        try:
            lo, hi = (float(v) for v in spec.split(":"))
        except ValueError:
            raise ValueError(f"bad pAUC interval {spec!r}, expected LO:HI") from None
        intervals.append((lo, hi))
    return RunConfig(
        input_path=args.input,
        non_diseased_path=args.non_diseased,
        diseased_path=args.diseased,
        score_col=args.score_col,
        label_col=args.label_col,
        estimators=tuple(e.strip() for e in args.estimators.split(",") if e.strip()),
        em=EmConfig(k_max=args.k_max, seed=args.seed),
        mg=MgConfig(m=args.mc_reps, alpha=args.alpha, grid=make_uniform_grid(args.grid_size),
                    seed=args.seed),
        pauc_intervals=tuple(intervals),
        out_dir=args.out,
        plots=args.plots,
        report_format=args.report_format,
        dump_replicates=args.dump_replicates,
        reproducible=args.reproducible,
        source_name=args.name,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        report = run(config)
    except ValueError as exc:  # DatasetError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EmCollapseError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    if config.report_format == "table":
        print(compare_table([report]), end="")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

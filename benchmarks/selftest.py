"""Smoke test of the benchmark harness at tiny size (about two minutes).

    python3 benchmarks/selftest.py

Checks that every output check rejects a wrong reference, and that each
workload, untraced and traced, prints a result line that names exactly
the metrics BENCHMARK.json declares. It is not part of the test suite.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from common import ROOT, WORKLOADS

sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from mixroc import datasets, ensemble, roc  # noqa: E402
from mixroc.ensemble import MgConfig  # noqa: E402
from mixroc.gmm import EmConfig, GmmModel  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        raise SystemExit(1)


def test_checks_reject_wrong_references() -> None:
    rng = np.random.default_rng(5)
    ds = datasets.from_arrays(rng.normal(0, 1, 60), rng.normal(1, 1.5, 60))
    f, g, res = ensemble.mg_pipeline(ds, EmConfig(k_max=2, n_restarts=2), MgConfig(m=200))
    closed = checks.mixture_auc(f, g)
    expect(checks.ensemble_failures(res, closed) == [], "ensemble check passes its model")
    expect(checks.ensemble_failures(res, closed + 0.05) != [], "ensemble check rejects a wrong AUC")

    single = GmmModel([1.0], [0.0], [1.0])
    shifted = GmmModel([1.0], [1.0], [2.0])
    closed = checks.mixture_auc(single, shifted)
    # two single normals: P(Y > X) = Phi((1 - 0) / sqrt(1 + 2))
    expect(abs(closed - 0.5 * math.erfc(-1.0 / math.sqrt(6.0))) < 1e-12,
           "closed form matches the binormal case")
    curve = roc.functional_roc(single, shifted, datasets.make_refined_grid())
    expect(checks.functional_failures(curve, closed) == [], "functional check passes the model")
    expect(checks.functional_failures(curve, closed + 1e-3) != [],
           "functional check rejects a wrong AUC")

    for marker, pins in checks.WIEAND_PINS.items():
        trap, mw, binormal, mg = pins
        doc = {"estimators": {
            "empirical": {"auc_trapezoidal": trap, "auc_mann_whitney": mw},
            "binormal": {"auc_closed_form": binormal},
            "mg": {"auc_trapezoidal": mg},
        }}
        expect(checks.report_failures(doc, pins) == [], f"{marker} report check passes its pins")
        wrong = (trap, mw, binormal, mg + 0.05)
        expect(checks.report_failures(doc, wrong) != [], f"{marker} report check rejects a wrong pin")


def test_every_metric_is_emitted() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True, timeout=180)
            what = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{what} exits 0 {proc.stderr[-500:]}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(line) == ["attempted", "correct", "failed", "metrics"],
                   f"{what} result line has the four keys")
            expect(sorted(line["metrics"]) == sorted(wanted[trace]),
                   f"{what} emits every declared metric")
            expect(all(m["unit"] == units[name] for name, m in line["metrics"].items()),
                   f"{what} units match BENCHMARK.json")
            expect(line["correct"] and line["failed"] == 0 and line["attempted"] >= 2,
                   f"{what} passes its output checks")


if __name__ == "__main__":
    test_checks_reject_wrong_references()
    test_every_metric_is_emitted()
    print("selftest passed")

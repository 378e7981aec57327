"""The ``wieand-cli`` workload: the command line as a user runs it.

Each study is one ``python -m mixroc`` child process on one biomarker of
the bundled Wieand study with the default estimators, M and grid, plus
``--plots --reproducible`` and a JSON report. Studies alternate ca125 and
ca199, and every (marker, seed) pair runs twice in a row so the second
report can be compared byte for byte with the first. This process does
not import the library: the child pays for the import, as a user does.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
from common import MARKERS, PILOT, Study

SHIM = Path(__file__).resolve().parent / "cli_shim.py"
# the CLI defaults (M=1000, 512-point grid) at full size
CLI_ARGS = {"full": [], "tiny": ["--mc-reps", "100", "--grid-size", "64"]}
CHILD_TIMEOUT_S = 120


class WieandCli:
    in_process = False

    def __init__(self, seed: int, size: str, work_dir: Path):
        rng = random.Random(seed)
        self.seeds = [rng.randrange(2**31) for _ in range(64)]
        self.extra_args = CLI_ARGS[size]
        self.work_dir = work_dir
        self.first_report: dict[tuple[str, int], bytes] = {}

    def study(self, k: int, tracer, parent) -> Study:
        marker = MARKERS[k % 2]
        seed = self.seeds[(k // 4) % len(self.seeds)]
        out = self.work_dir / f"cli-{marker}"
        shutil.rmtree(out, ignore_errors=True)
        args = ["--input", str(PILOT), "--score-col", marker, "--label-col", "status",
                "--name", marker, "--out", str(out), "--plots", "--reproducible",
                "--report-format", "json", "--seed", str(seed), *self.extra_args]
        spans_path = self.work_dir / "cli-spans.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "mixroc", *args]
        else:
            cmd = [sys.executable, str(SHIM), str(spans_path), *args]
        start = perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        elapsed = perf_counter() - start

        if proc.returncode != 0:
            return Study(elapsed, [f"{marker} seed {seed}: exit {proc.returncode}: "
                                   f"{proc.stderr.strip()[-300:]}"])
        report = (out / "report.json").read_bytes()
        failures = checks.report_failures(json.loads(report), checks.WIEAND_PINS[marker])
        first = self.first_report.setdefault((marker, seed), report)
        if report != first:
            failures.append("report.json differs from the earlier run with the same seed")
        failures = [f"{marker} seed {seed}: {msg}" for msg in failures]
        written = 0
        if tracer is not None:
            with spans_path.open() as fh:
                tracer.adopt(json.load(fh)["spans"], parent)
            written = sum(p.stat().st_size for p in out.iterdir())
        f_model = json.loads((out / "model_non_diseased.json").read_text())
        shutil.rmtree(out)
        return Study(elapsed, failures, f_model, written)

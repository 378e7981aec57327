"""mixroc benchmark: complete studies on three workloads, one closed-loop client each.

    python3 benchmarks/run.py --workload {wieand-cli,sim-sweep,planning,all}
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from anywhere; the library is imported from the ``src/`` next to this
directory. Prints every metric by name with its unit, then a run record,
then as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Outputs, spans
and full results go to ``.bench_out/``. ``--size tiny`` shrinks every
workload for the self-test. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import PILOT, ROOT, WORKLOADS

SRC = ROOT / "src" / "mixroc"
OUT = ROOT / ".bench_out"
WORKER = Path(__file__).resolve().parent / "worker.py"
# set-up is timed this many extra times in fresh processes, plus once in
# the measuring process; the median is reported
SETUP_PROBES = 4
# one closed-loop client; the library's BLAS calls are small (EM on n x k
# arrays), so extra BLAS threads would add scheduler noise, not speed
BLAS_THREADS = 1
# a worker left running this long past --seconds is stopped and the run fails
WORKER_GRACE_S = 120
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "study_s_p50": "s",
    "study_s_tail": "s",
    "studies_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.run_self_s": "s",
    "cli.bytes_written": "count",
    "datasets.load_dataset_s": "s",
    "gmm.select_k_s": "s",
    "gmm.fit_em_s": "s",
    "gmm.fit_em_calls": "count",
    "gmm.sample_from_s": "s",
    "gmm.draws": "count",
    "gmm.survival_inverse_calls": "count",
    "roc.empirical_roc_s": "s",
    "roc.empirical_roc_calls": "count",
    "roc.auc_mann_whitney_s": "s",
    "roc.functional_roc_s": "s",
    "roc.functional_tail_relerr_max": "ratio",
    "ensemble.run_mg_s": "s",
    "ensemble.run_mg_self_s": "s",
    "ensemble.replicates_per_s": "1/s",
    "svg.render_s": "s",
    "report.to_json_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn_worker(workload: str, args, setup_only: bool) -> tuple[dict, float]:
    """Run one worker process; return its result and its set-up time."""
    result_path = OUT / f"worker-{workload}-seed{args.seed}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(WORKER), workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
           "--result", str(result_path)] + (["--setup-only"] if setup_only else [])
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.DEVNULL,
                              timeout=args.seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with status {proc.returncode}")
    result = json.loads(result_path.read_text())
    return result, result["ready"] - spawned


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile). Below 2 * TAIL_BEYOND + 1 samples that
    percentile would not lie above the median, so the maximum (percentile
    100) is returned instead.
    """
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    if rank <= len(ordered) / 2:
        rank = len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def source_info() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    public = next(
        len(node.value.elts) for node in ast.parse((SRC / "__init__.py").read_text()).body
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets))
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "source_sha256": digest.hexdigest(),
            "mixroc.src_lines": lines, "mixroc.public_names": public}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_workload(workload: str, args) -> tuple[dict, dict]:
    """Measure one workload; return (result line fields, run record)."""
    setups = [] if args.trace else [spawn_worker(workload, args, True)[1]
                                    for _ in range(SETUP_PROBES)]
    result, setup = spawn_worker(workload, args, False)
    setups.append(setup)
    untraced = result["untraced_s"]
    tail_value, tail_pct = tail(untraced)
    if args.trace:
        metrics = result["layers"]
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "study_s_p50": statistics.median(untraced),
            "study_s_tail": tail_value,
            "studies_per_s": (result["attempted"] - result["failed"]) / result["timed_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "client": "one closed-loop client",
        "studies": result["attempted"],
        "untraced_studies": len(untraced),
        "study_s_tail_percentile": tail_pct,
        "fail_frac": result["failed"] / result["attempted"],
        "setup_samples_s": setups,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        **result["platform"],
        "blas_threads": BLAS_THREADS,
        **source_info(),
        "failures": result["failures"],
    }
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return line, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    if not (SRC / "__init__.py").is_file() or not PILOT.is_file():
        print(f"error: no mixroc sources at {SRC} or no pilot data at {PILOT}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for workload in workloads:
        try:
            line, record = run_workload(workload, args)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        lines[workload] = line
        (OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"record": record, **line}, indent=2))
        for name, m in line["metrics"].items():
            print(f"{workload:<11} {name:<32} {m['value']:>14.6g} {m['unit']}")
        print(f"{workload:<11} {'fail_frac':<32} {record['fail_frac']:>14.6g} "
              f"({line['failed']} of {line['attempted']} studies)")
        print(f"{workload:<11} study_s_tail is p{record['study_s_tail_percentile']:.1f} of "
              f"{record['untraced_studies']} untraced studies")
        for failure in record["failures"][:5]:
            print(f"{workload:<11} FAILED: {failure}")
        print(f"run record: {json.dumps({k: v for k, v in record.items() if k != 'failures'})}")

    if len(lines) == 1:
        final = next(iter(lines.values()))
    else:
        final = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{w}:{name}": m for w, l in lines.items()
                        for name, m in l["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

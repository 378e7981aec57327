"""Workload process: set up one workload, run its studies, check them.

Started by run.py, never by hand:

    python benchmarks/worker.py WORKLOAD --seed N --seconds S --trace 0|1
        --size full|tiny --result PATH [--setup-only]

One closed-loop client: a study starts when the previous one has
finished, and the next is started only while the median study so far
still fits in the remaining time. The first timestamp the process writes
is the end of set-up (imports plus input generation), on the system-wide
monotonic clock, so that run.py can time set-up from process start.

With --trace 1 the studies come in pairs on one input: the first traced,
the second not. Per-layer figures come from the traced studies and the
difference of the two medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

from common import WORKLOADS, Study
from tracing import Tracer, layer_metrics

WORKLOAD_CLASSES = {
    "wieand-cli": ("cli_workload", "WieandCli"),
    "sim-sweep": ("library_workloads", "SimSweep"),
    "planning": ("library_workloads", "Planning"),
}
MIN_STUDIES = 2
TAIL_T_MAX = 1e-6


def run_studies(workload, seconds: float, traced: bool):
    tracer = Tracer() if traced else None
    studies: list[tuple[bool, Study]] = []
    start = perf_counter()
    i = 0
    while True:
        elapsed = perf_counter() - start
        if i >= MIN_STUDIES and elapsed + statistics.median(
                s.seconds for _, s in studies) > seconds:
            break
        k, on = (i // 2, i % 2 == 0) if traced else (i, False)
        span = None
        if on:
            tracer.study = i
            if workload.in_process:
                tracer.install()
            span = tracer.open("study")
        call_start = perf_counter()
        try:
            study = workload.study(k, tracer if on else None, span)
        except Exception:  # a study that raises is a failed study; the loop goes on
            study = Study(perf_counter() - call_start,
                          [f"study {k} raised:\n{traceback.format_exc()}"])
        finally:
            if on:
                tracer.close(span)
                tracer.remove()
                tracer.study = None
        studies.append((on, study))
        i += 1
    return studies, perf_counter() - start, tracer


def tail_relerr(f_models) -> float:
    """max |survival(f, survival_inverse(f, t)) - t| / t over the refined-grid
    points t < TAIL_T_MAX, over the distinct fitted models `f_models`.

    Imported here: the wieand-cli workload process does not load the
    library during its studies.
    """
    from mixroc.datasets import make_refined_grid
    from mixroc.gmm import GmmModel, survival, survival_inverse

    points = [float(t) for t in make_refined_grid().points if 0.0 < t < TAIL_T_MAX]
    unique = {json.dumps(d, sort_keys=True): d for d in f_models if d is not None}
    models = [GmmModel.from_json_dict(d) for d in unique.values()]
    return max(abs(survival(f, survival_inverse(f, t)) - t) / t for f in models for t in points)


def platform_info() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    module, cls = WORKLOAD_CLASSES[args.workload]
    work_dir = args.result.parent
    workload = getattr(importlib.import_module(module), cls)(args.seed, args.size, work_dir)
    ready = time.monotonic()
    if args.setup_only:
        args.result.write_text(json.dumps({"ready": ready}))
        return 0

    studies, timed_s, tracer = run_studies(workload, args.seconds, bool(args.trace))
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {
        "ready": ready,
        "timed_s": timed_s,
        "untraced_s": [s.seconds for on, s in studies if not on],
        "traced_s": [s.seconds for on, s in studies if on],
        "attempted": len(studies),
        "failures": [msg for _, s in studies for msg in s.failures],
        "failed": sum(bool(s.failures) for _, s in studies),
        "peak_rss_mb": usage / 1024.0,  # ru_maxrss is in KiB on Linux
        "platform": platform_info(),
    }
    if tracer is not None:
        traced = [s for on, s in studies if on]
        layers = layer_metrics(tracer.spans)
        layers["cli.bytes_written"] = statistics.median(s.bytes_written for s in traced)
        layers["roc.functional_tail_relerr_max"] = tail_relerr(s.f_model for s in traced)
        layers["trace.overhead_s"] = (statistics.median(out["traced_s"])
                                      - statistics.median(out["untraced_s"]))
        out["layers"] = layers
        tracer.dump(work_dir / f"spans-{args.workload}-seed{args.seed}.json")
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

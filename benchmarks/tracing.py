"""Span tracing of mixroc from outside the library.

A :class:`Tracer` replaces public functions at the module attributes the
library looks them up through (``mixroc.ensemble.sample_from``,
``mixroc.roc.survival_inverse``, ...) with wrappers that record one span
per call: its name, start, end, parent span and study id, plus an
optional work count (draws, replicates). Spans are kept in memory and
written out when the run ends; layer metrics are derived from them
afterwards, so the traced code pays only for appending one list per call.

Span names are ``<home module>.<function>``: ``gmm.survival_inverse`` is
the one span name whether ``functional_roc`` reaches it through
``mixroc.roc`` or anything else does.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from time import perf_counter

# (module the caller looks the name up in, attribute, span name, work count)
# A function is wrapped at every module a traced caller reaches it through;
# each call passes through exactly one wrapper, so nothing is counted twice.
# gmm.survival is deliberately absent: survival_inverse calls it about forty
# times per bisection, and a span per step would distort functional_roc.
TARGETS = (
    ("mixroc.cli", "run", "cli.run", None),
    ("mixroc.cli", "load_dataset", "datasets.load_dataset", None),
    ("mixroc.cli", "empirical_roc", "roc.empirical_roc", None),
    ("mixroc.cli", "empirical_roc_points", "roc.empirical_roc_points", None),
    ("mixroc.cli", "auc_trapezoid", "roc.auc_trapezoid", None),
    ("mixroc.cli", "auc_mann_whitney", "roc.auc_mann_whitney", None),
    ("mixroc.cli", "pauc", "roc.pauc", None),
    ("mixroc.cli", "fit_binormal", "binormal.fit_binormal", None),
    ("mixroc.cli", "binormal_curve", "binormal.binormal_curve", None),
    ("mixroc.cli", "binormal_auc", "binormal.binormal_auc", None),
    ("mixroc.cli", "mg_pipeline", "ensemble.mg_pipeline", None),
    ("mixroc.cli", "histogram_svg", "svg.histogram_svg", None),
    ("mixroc.cli", "roc_overlay_svg", "svg.roc_overlay_svg", None),
    ("mixroc.report:Report", "to_json", "report.to_json", None),
    ("mixroc.datasets", "load_dataset", "datasets.load_dataset", None),
    ("mixroc.binormal", "fit_binormal", "binormal.fit_binormal", None),
    ("mixroc.binormal", "binormal_auc", "binormal.binormal_auc", None),
    ("mixroc.ensemble", "mg_pipeline", "ensemble.mg_pipeline", None),
    ("mixroc.ensemble", "run_mg", "ensemble.run_mg", lambda a, kw: a[2].m),
    ("mixroc.ensemble", "select_k", "gmm.select_k", None),
    ("mixroc.ensemble", "sample_from", "gmm.sample_from", lambda a, kw: a[1]),
    ("mixroc.ensemble", "empirical_roc", "roc.empirical_roc", None),
    ("mixroc.ensemble", "auc_trapezoid", "roc.auc_trapezoid", None),
    ("mixroc.ensemble", "auc_mann_whitney", "roc.auc_mann_whitney", None),
    ("mixroc.gmm", "fit_em", "gmm.fit_em", None),
    ("mixroc.roc", "survival_inverse", "gmm.survival_inverse", None),
    ("mixroc.roc", "functional_roc", "roc.functional_roc", None),
    ("mixroc.roc", "empirical_roc", "roc.empirical_roc", None),
    ("mixroc.roc", "auc_trapezoid", "roc.auc_trapezoid", None),
    ("mixroc.roc", "auc_mann_whitney", "roc.auc_mann_whitney", None),
)

# span fields, in the order they are stored
NAME, START, END, PARENT, STUDY, WORK = range(6)


def _resolve(target: str):
    module, _, attr = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


class Tracer:
    """Records spans while installed; restores the library when removed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.study: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for target, attr, name, work in TARGETS:
            owner = _resolve(target)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, work))
            self._patches.append((owner, attr, original))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, work):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.open(name, work(args, kwargs) if work else None)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def open(self, name: str, work=None) -> int:
        """Start a span (a call, a study, an import); end it with :meth:`close`."""
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                           self.study, work])
        self._stack.append(index)
        self.spans[index][START] = perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded in a child process under span `parent`."""
        base = len(self.spans)
        for span in spans:
            span = list(span)
            span[PARENT] = parent if span[PARENT] is None else base + span[PARENT]
            span[STUDY] = self.spans[parent][STUDY]
            self.spans.append(span)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "study", "work"],
                       "spans": self.spans}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Children of one span run one after another on one thread, so their
    intervals do not overlap and their durations add.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


# span name -> (metric, what to add): the span's duration, its self time,
# one per call, or its work count
LAYERS = {
    "cli.import": (("cli.import_s", "dur"),),
    "cli.run": (("cli.run_self_s", "self"),),
    "datasets.load_dataset": (("datasets.load_dataset_s", "dur"),),
    "gmm.select_k": (("gmm.select_k_s", "dur"),),
    "gmm.fit_em": (("gmm.fit_em_s", "dur"), ("gmm.fit_em_calls", "call")),
    "gmm.sample_from": (("gmm.sample_from_s", "dur"), ("gmm.draws", "work")),
    "gmm.survival_inverse": (("gmm.survival_inverse_calls", "call"),),
    "roc.empirical_roc": (("roc.empirical_roc_s", "dur"), ("roc.empirical_roc_calls", "call")),
    "roc.auc_mann_whitney": (("roc.auc_mann_whitney_s", "dur"),),
    "roc.functional_roc": (("roc.functional_roc_s", "dur"),),
    "ensemble.run_mg": (("ensemble.run_mg_s", "dur"), ("ensemble.run_mg_self_s", "self"),
                        ("ensemble.replicates", "work")),
    "svg.histogram_svg": (("svg.render_s", "dur"),),
    "svg.roc_overlay_svg": (("svg.render_s", "dur"),),
    "report.to_json": (("report.to_json_s", "dur"),),
}
SPAN_METRICS = sorted({metric for pairs in LAYERS.values() for metric, _ in pairs}
                      | {"trace.spans"})


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures: per-study medians of each layer's time and counts.

    Every name is always present; a layer the workload never calls reads 0.
    ``ensemble.replicates_per_s`` is pooled over all studies: replicates
    simulated divided by the time spent in ``run_mg``.
    """
    own = self_times(spans)
    studies: dict[int, dict[str, float]] = {}
    for span, self_time in zip(spans, own):
        if span[STUDY] is None:
            continue
        totals = studies.setdefault(span[STUDY], dict.fromkeys(SPAN_METRICS, 0.0))
        totals["trace.spans"] += 1
        amounts = {"dur": span[END] - span[START], "self": self_time, "call": 1,
                   "work": span[WORK]}
        for metric, what in LAYERS.get(span[NAME], ()):
            totals[metric] += amounts[what]
    out = {key: statistics.median(d[key] for d in studies.values()) if studies else 0.0
           for key in SPAN_METRICS}
    replicates = sum(d["ensemble.replicates"] for d in studies.values())
    run_mg_time = sum(d["ensemble.run_mg_s"] for d in studies.values())
    del out["ensemble.replicates"]
    out["ensemble.replicates_per_s"] = replicates / run_mg_time if run_mg_time else 0.0
    return out

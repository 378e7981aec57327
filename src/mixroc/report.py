"""Report assembly, serialization and comparison tables.

A Report is a JSON-able summary of one analysis run: per-estimator AUC
values under both rules, optional pAUC intervals, fitted model summaries,
band summaries and run metadata; `Report.to_json` writes it with sorted keys.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

SCHEMA_VERSION = 1
# every estimator a run can select, in the order reports and tables list them
ESTIMATORS = ("empirical", "binormal", "mg")


@dataclass(frozen=True)
class Report:
    dataset: dict
    settings: dict
    estimators: dict
    pauc: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        for name, entry in self.estimators.items():
            for key, val in entry.items():
                if key.startswith("auc") and isinstance(val, (int, float)) and not (
                    -1e-9 <= val <= 1.0 + 1e-9
                ):
                    raise ValueError(f"{name}.{key}={val} is outside [0, 1]")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def _fmt(val) -> str:
    if val is None:
        return "-"
    return f"{val:.4f}"


def _closest(report: Report) -> set[str]:
    """The non-empirical estimator(s) whose trapezoidal AUC is closest to the empirical one."""
    est = report.estimators
    emp_trap = est.get("empirical", {}).get("auc_trapezoidal")
    if emp_trap is None:
        return set()
    distances = {name: abs(entry["auc_trapezoidal"] - emp_trap) for name, entry in est.items()
                 if name != "empirical" and entry.get("auc_trapezoidal") is not None}
    best = min(distances.values(), default=0.0)
    return {name for name, d in distances.items() if np.isclose(d, best, rtol=0.0, atol=1e-12)}


def compare_table(reports: list[Report]) -> str:
    """Side-by-side AUC matrix over datasets, closest estimator marked.

    Rows are estimators, column pairs (Trapezoidal, Mann-Whitney) per
    dataset. The non-empirical estimator whose trapezoidal AUC is closest
    to the empirical one gets a marker; exact ties mark every winner and
    add a footnote.
    """
    if not reports:
        raise ValueError("compare_table needs at least one report")
    marks = [_closest(r) for r in reports]
    names = [r.dataset.get("source_name", f"dataset {i}") for i, r in enumerate(reports)]
    estimators = [est for est in ESTIMATORS if any(est in r.estimators for r in reports)]

    width = 12
    head = f"{'Estimator':<12}" + "".join(
        f"{name + ' trap.':>{width+6}}{'Mann-Whitney':>{width+2}}" for name in names)
    lines = [head, "-" * len(head)]
    any_closed = False
    for est in estimators:
        line = f"{est:<12}"
        for report, marked in zip(reports, marks):
            entry = report.estimators.get(est)
            if entry is None:
                line += f"{'-':>{width+6}}{'-':>{width+2}}"
                continue
            closed = bool(entry.get("mann_whitney_is_closed_form", False))
            any_closed = any_closed or closed
            trap_s = _fmt(entry.get("auc_trapezoidal")) + (" <" if est in marked else "  ")
            mw_s = _fmt(entry.get("auc_mann_whitney")) + ("*" if closed else " ")
            line += f"{trap_s:>{width+6}}{mw_s:>{width+2}}"
        lines.append(line)
    if any_closed:
        lines.append("* closed-form value (no sample-based Mann-Whitney defined)")
    # a tie counts only among the rows the table shows
    if any(len(m & set(ESTIMATORS)) > 1 for m in marks):
        lines.append("note: tie: more than one estimator is equally close to the empirical AUC")
    lines.append("< marks the non-empirical estimator closest to the empirical trapezoidal AUC")
    return "\n".join(lines) + "\n"

"""Report assembly, serialization and comparison tables.

A Report is a JSON-able summary of one analysis run: per-estimator AUC
values under both rules, optional pAUC intervals, fitted model summaries,
band summaries and run metadata. Reports round-trip through JSON exactly.
"""

from __future__ import annotations

import io
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

    @classmethod
    def from_json(cls, text: str) -> "Report":
        doc = json.loads(text)
        return cls(
            dataset=doc["dataset"],
            settings=doc["settings"],
            estimators=doc["estimators"],
            pauc=doc.get("pauc", {}),
            schema_version=doc["schema_version"],
        )


def _fmt(val) -> str:
    if val is None:
        return "-"
    return f"{val:.4f}"


def _rows_for(report: Report):
    """(estimator, trapezoidal, mann-whitney, mw_is_closed_form, marked) rows."""
    est = report.estimators
    emp_trap = est.get("empirical", {}).get("auc_trapezoidal")
    # mark the non-empirical estimator(s) closest to the empirical trapezoidal AUC
    distances = {}
    if emp_trap is not None:
        for name, entry in est.items():
            if name == "empirical" or entry.get("auc_trapezoidal") is None:
                continue
            distances[name] = abs(entry["auc_trapezoidal"] - emp_trap)
    marked: set[str] = set()
    if distances:
        best = min(distances.values())
        marked = {name for name, d in distances.items() if np.isclose(d, best, rtol=0.0, atol=1e-12)}
    rows = []
    for name in ESTIMATORS:
        if name not in est:
            continue
        entry = est[name]
        rows.append(
            (
                name,
                entry.get("auc_trapezoidal"),
                entry.get("auc_mann_whitney"),
                bool(entry.get("mann_whitney_is_closed_form", False)),
                name in marked,
            )
        )
    return rows, marked


def compare_table(reports: list[Report]) -> str:
    """Side-by-side AUC matrix over datasets, closest estimator marked.

    Rows are estimators, column pairs (Trapezoidal, Mann-Whitney) per
    dataset. The non-empirical estimator whose trapezoidal AUC is closest
    to the empirical one gets a marker; exact ties mark every winner and
    add a footnote.
    """
    if not reports:
        raise ValueError("compare_table needs at least one report")
    per_report = [_rows_for(r) for r in reports]
    names = [r.dataset.get("source_name", f"dataset {i}") for i, r in enumerate(reports)]
    present = {row[0] for rows, _ in per_report for row in rows}
    estimators = [name for name in ESTIMATORS if name in present]

    buf = io.StringIO()
    width = 12
    head = f"{'Estimator':<12}"
    for name in names:
        head += f"{name + ' trap.':>{width+6}}{'Mann-Whitney':>{width+2}}"
    print(head, file=buf)
    print("-" * len(head), file=buf)
    any_tie = False
    any_closed = False
    for est in estimators:
        line = f"{est:<12}"
        for rows, marked in per_report:
            row = next((r for r in rows if r[0] == est), None)
            if row is None:
                line += f"{'-':>{width+6}}{'-':>{width+2}}"
                continue
            _, trap, mw, closed, mark = row
            any_closed = any_closed or closed
            trap_s = _fmt(trap) + (" <" if mark else "  ")
            mw_s = _fmt(mw) + ("*" if closed else " ")
            line += f"{trap_s:>{width+6}}{mw_s:>{width+2}}"
            if mark and len(marked) > 1:
                any_tie = True
        print(line, file=buf)
    if any_closed:
        print("* closed-form value (no sample-based Mann-Whitney defined)", file=buf)
    if any_tie:
        print("note: tie: more than one estimator is equally close to the empirical AUC", file=buf)
    print("< marks the non-empirical estimator closest to the empirical trapezoidal AUC", file=buf)
    return buf.getvalue()

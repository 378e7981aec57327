"""Names shared by the benchmark's modules."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PILOT = ROOT / "data" / "wieand_pancreatic.csv"
MARKERS = ("ca125", "ca199")
WORKLOADS = ("wieand-cli", "sim-sweep", "planning")


@dataclass
class Study:
    """One finished study: its wall time and what its output checks found.

    `f_model` is the fitted non-diseased mixture as a JSON dict, kept for
    the tail-accuracy figure of traced runs; `bytes_written` counts the
    output files of a traced CLI study.
    """

    seconds: float
    failures: list[str]
    f_model: dict | None = None
    bytes_written: int = 0

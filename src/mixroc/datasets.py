"""Core domain types and dataset ingestion.

A study is a pair of score samples: non-diseased (controls) and diseased
(cases), each a vector of finite scalar diagnostic scores. Scores are
stored sorted ascending; duplicates are kept, ties are resolved by the
downstream estimators.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.typing import NDArray


class PopulationTag(enum.Enum):
    NON_DISEASED = "non_diseased"
    DISEASED = "diseased"


class DatasetError(ValueError):
    """Raised when an input file or sample violates the data contract."""


def _validate_scores(scores) -> NDArray[np.float64]:
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1:
        raise DatasetError(f"scores must be one-dimensional, got shape {arr.shape}")
    if arr.size < 2:
        raise DatasetError(f"a population needs at least 2 scores, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise DatasetError("scores must be finite (no NaN or infinity)")
    out = np.sort(arr)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ScoreSample:
    """Scores of one population, sorted ascending (original order discarded).

    Parameters
    ----------
    scores : array-like
        Finite scalar diagnostic scores, at least two of them.
    population_tag : PopulationTag
        Which population the scores come from.
    source_name : str
        Free-text label for reports.
    """

    scores: NDArray[np.float64]
    population_tag: PopulationTag
    source_name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "scores", _validate_scores(self.scores))

    def __len__(self) -> int:
        return int(self.scores.size)


@dataclass(frozen=True)
class LabeledDataset:
    """A non-diseased and a diseased :class:`ScoreSample`, one of each."""

    non_diseased: ScoreSample
    diseased: ScoreSample

    def __post_init__(self):
        if self.non_diseased.population_tag is not PopulationTag.NON_DISEASED:
            raise DatasetError("non_diseased sample carries the wrong population tag")
        if self.diseased.population_tag is not PopulationTag.DISEASED:
            raise DatasetError("diseased sample carries the wrong population tag")

    @property
    def n_x(self) -> int:
        return len(self.non_diseased)

    @property
    def n_y(self) -> int:
        return len(self.diseased)

    def to_rows(self) -> list[tuple[float, int]]:
        """All (score, label) pairs, label 0 = non-diseased, 1 = diseased."""
        rows = [(float(s), 0) for s in self.non_diseased.scores]
        rows += [(float(s), 1) for s in self.diseased.scores]
        return rows


@dataclass(frozen=True)
class FprGrid:
    """Strictly increasing false-positive-rate values inside [0, 1]."""

    points: NDArray[np.float64]
    count: int = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least 2 points")
        if pts[0] < 0.0 or pts[-1] > 1.0:
            raise ValueError("grid points must lie in [0, 1]")
        if not np.all(np.diff(pts) > 0.0):
            raise ValueError("grid points must be strictly increasing")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "count", int(pts.size))


DEFAULT_GRID_SIZE = 512
# smallest FPR of make_refined_grid's geometric ladder, and 1 - it the largest
_REFINED_EDGE = 1e-10


def make_uniform_grid(count: int = DEFAULT_GRID_SIZE) -> FprGrid:
    """Uniform grid of `count` points over [0, 1], endpoints included."""
    if count < 2:
        raise ValueError(f"grid count must be >= 2, got {count}")
    return FprGrid(np.linspace(0.0, 1.0, count))


def make_refined_grid(count: int = 4096, edge_points: int = 256) -> FprGrid:
    """Uniform grid with geometric refinement toward both endpoints.

    Curves like Phi(a + b Phi^{-1}(t)) are extremely steep next to t=0 and
    t=1 when b is far from 1; clustering points there lets trapezoidal
    quadrature resolve the corners that a uniform grid of the same size
    cannot.
    """
    if count < 2:
        raise ValueError(f"grid count must be >= 2, got {count}")
    core_count = count - 2 * edge_points
    if core_count < 2:
        raise ValueError("count too small for the requested edge refinement")
    core = np.linspace(0.0, 1.0, core_count)
    ladder = np.geomspace(_REFINED_EDGE, core[1], edge_points + 1)[:-1]
    points = np.unique(np.concatenate([core, ladder, 1.0 - ladder]))
    return FprGrid(points)


def from_arrays(non_diseased, diseased, source_name: str = "") -> LabeledDataset:
    """Build a dataset from two raw score arrays."""
    return LabeledDataset(
        non_diseased=ScoreSample(non_diseased, PopulationTag.NON_DISEASED, source_name),
        diseased=ScoreSample(diseased, PopulationTag.DISEASED, source_name),
    )


def _parse_score(text: str, path: Path, line: int) -> float:
    """The finite score written as `text` on `line` of `path`."""
    try:
        score = float(text)
    except ValueError:
        raise DatasetError(f"{path}:{line}: non-numeric score {text!r}") from None
    if not np.isfinite(score):
        raise DatasetError(f"{path}:{line}: non-finite score {text!r}")
    return score


def _open_input(path: Path):
    """Open an input file for reading as text, newlines untranslated for csv."""
    if not path.is_file():
        raise DatasetError(f"input file not found: {path}")
    try:
        return path.open(newline="")
    except OSError as exc:  # unreadable input is an ingestion error
        raise DatasetError(f"cannot read {path}: {exc}") from None


def load_dataset(
    path,
    score_col: str = "score",
    label_col: str = "label",
    non_diseased_label: str = "0",
    diseased_label: str = "1",
    source_name: str | None = None,
) -> LabeledDataset:
    """Load a labeled CSV (header required) into a :class:`LabeledDataset`.

    Every row must parse; a label other than the two declared values or a
    non-numeric score is an error, so row count is conserved by construction.
    """
    path = Path(path)
    xs: list[float] = []
    ys: list[float] = []
    with _open_input(path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DatasetError(f"{path}: empty file, a header row is required")
        for col in (score_col, label_col):
            if col not in reader.fieldnames:
                raise DatasetError(
                    f"{path}: missing column {col!r} (found {reader.fieldnames})"
                )
        for i, row in enumerate(reader, start=2):
            score = _parse_score((row[score_col] or "").strip(), path, i)
            raw_label = (row[label_col] or "").strip()
            if raw_label == non_diseased_label:
                xs.append(score)
            elif raw_label == diseased_label:
                ys.append(score)
            else:
                raise DatasetError(f"{path}:{i}: unknown label {raw_label!r}")
    name = source_name if source_name is not None else path.stem
    try:
        return from_arrays(xs, ys, name)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def load_two_files(non_diseased_path, diseased_path, source_name: str | None = None) -> LabeledDataset:
    """Load the two-file layout: one score per line, one file per population."""

    def read_scores(path) -> list[float]:
        path = Path(path)
        with _open_input(path) as fh:
            lines = enumerate(map(str.strip, fh.read().splitlines()), start=1)
        return [_parse_score(line, path, i) for i, line in lines if line]

    name = source_name if source_name is not None else Path(non_diseased_path).stem
    return from_arrays(read_scores(non_diseased_path), read_scores(diseased_path), name)


def save_dataset(dataset: LabeledDataset, path, score_col: str = "score", label_col: str = "label") -> None:
    """Write the dataset back out as a labeled CSV (used for round-trip checks)."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([score_col, label_col])
        for score, label in dataset.to_rows():
            writer.writerow([repr(score), label])

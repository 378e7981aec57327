"""Core domain types and dataset ingestion.

A study is a pair of score samples: non-diseased (controls) and diseased
(cases), each a vector of finite scalar diagnostic scores. Scores are
stored sorted ascending; duplicates are kept, ties are resolved by the
downstream estimators.
"""

from __future__ import annotations

import csv
import enum
import io
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
        Finite scalar diagnostic scores, at least two of them. EM and the
        binormal fit also need the range max - min to be 0 or in [1e-150, 1e150],
        where its square is a normal float, and raise :class:`DatasetError` if not.
    population_tag : PopulationTag
        Which population the scores come from.
    """

    scores: NDArray[np.float64]
    population_tag: PopulationTag

    def __post_init__(self):
        object.__setattr__(self, "scores", _validate_scores(self.scores))

    def __len__(self) -> int:
        return int(self.scores.size)


def _check_fit_range(sample: ScoreSample) -> None:
    """The range rule of the parametric fits, stated on :class:`ScoreSample`."""
    with np.errstate(over="ignore"):  # a range beyond the largest float is inf, and rejected
        spread = sample.scores[-1] - sample.scores[0]
    if spread != 0.0 and not 1e-150 <= spread <= 1e150:
        raise DatasetError(f"{sample.population_tag.value} score range {spread:.3g} is outside "
                           "[1e-150, 1e150]; rescale the scores")


@dataclass(frozen=True)
class LabeledDataset:
    """One :class:`ScoreSample` per population and the study's name for reports."""

    non_diseased: ScoreSample
    diseased: ScoreSample
    source_name: str = ""

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
_REFINED_EDGE_POINTS = 256  # ladder points at each end


def make_uniform_grid(count: int = DEFAULT_GRID_SIZE) -> FprGrid:
    """Uniform grid of `count` points over [0, 1], endpoints included."""
    if count < 2:
        raise ValueError(f"grid count must be >= 2, got {count}")
    return FprGrid(np.linspace(0.0, 1.0, count))


def make_refined_grid(count: int = 4096) -> FprGrid:
    """Uniform grid with geometric refinement toward both endpoints.

    Curves like Phi(a + b Phi^{-1}(t)) are extremely steep next to t=0 and
    t=1 when b is far from 1; clustering points there lets trapezoidal
    quadrature resolve the corners that a uniform grid of the same size
    cannot.
    """
    core_count = count - 2 * _REFINED_EDGE_POINTS
    if core_count < 2:
        raise ValueError(f"count {count} too small for the edge refinement")
    core = np.linspace(0.0, 1.0, core_count)
    ladder = np.geomspace(_REFINED_EDGE, core[1], _REFINED_EDGE_POINTS + 1)[:-1]
    points = np.unique(np.concatenate([core, ladder, 1.0 - ladder]))
    return FprGrid(points)


def from_arrays(non_diseased, diseased, source_name: str = "") -> LabeledDataset:
    """Build a dataset from two raw score arrays."""
    return LabeledDataset(ScoreSample(non_diseased, PopulationTag.NON_DISEASED),
                          ScoreSample(diseased, PopulationTag.DISEASED), source_name)


def _parse_score(text: str, path: Path, line: int) -> float:
    """The finite score written as `text` on `line` of `path`."""
    try:
        score = float(text)
    except ValueError:
        raise DatasetError(f"{path}:{line}: non-numeric score {text!r}") from None
    if not np.isfinite(score):
        raise DatasetError(f"{path}:{line}: non-finite score {text!r}")
    return score


def _sample(scores, tag: PopulationTag, path: Path) -> ScoreSample:
    """The sample of `scores` read from `path`; a rejection names the file."""
    try:
        return ScoreSample(scores, tag)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def _open_input(path: Path) -> io.StringIO:
    """The text of an input file, newlines untranslated for csv.

    The one place input is decoded: as UTF-8, with or without a byte-order mark."""
    if not path.is_file():
        raise DatasetError(f"input file not found: {path}")
    try:
        return io.StringIO(path.read_bytes().decode("utf-8-sig"), newline="")
    except OSError as exc:  # unreadable input is an ingestion error
        raise DatasetError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text: {exc}") from None


def load_dataset(
    path,
    score_col: str = "score",
    label_col: str = "label",
    source_name: str | None = None,
) -> LabeledDataset:
    """Load a labeled CSV (header required) into a :class:`LabeledDataset`.

    Label 0 marks a non-diseased score and 1 a diseased one. Every row
    must parse; any other label or a non-numeric score is an error, so row
    count is conserved by construction.
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
        for row in reader:
            line = reader.line_num  # the file's line: DictReader skips blank ones
            score = _parse_score((row[score_col] or "").strip(), path, line)
            raw_label = (row[label_col] or "").strip()
            if raw_label == "0":
                xs.append(score)
            elif raw_label == "1":
                ys.append(score)
            else:
                raise DatasetError(f"{path}:{line}: unknown label {raw_label!r}")
    return LabeledDataset(_sample(xs, PopulationTag.NON_DISEASED, path),
                          _sample(ys, PopulationTag.DISEASED, path),
                          source_name if source_name is not None else path.stem)


def load_two_files(non_diseased_path, diseased_path, source_name: str | None = None) -> LabeledDataset:
    """Load the two-file layout: one score per line, one file per population."""

    def read_sample(path, tag: PopulationTag) -> ScoreSample:
        path = Path(path)
        with _open_input(path) as fh:
            lines = enumerate(map(str.strip, fh.read().splitlines()), start=1)
        return _sample([_parse_score(line, path, i) for i, line in lines if line], tag, path)

    return LabeledDataset(
        read_sample(non_diseased_path, PopulationTag.NON_DISEASED),
        read_sample(diseased_path, PopulationTag.DISEASED),
        source_name if source_name is not None else Path(non_diseased_path).stem,
    )

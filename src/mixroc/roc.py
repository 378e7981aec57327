"""ROC curve construction and summary indices.

Curves live on a shared FPR grid so that estimators, replicas and bands
can be compared pointwise. Two empirical constructions are provided:

* a grid-resampled curve whose thresholds come from the empirical
  survival quantile (piecewise-linear by default, pure step optionally);
* the exact operating-point polyline swept over all distinct thresholds,
  for which the trapezoidal area equals the midrank Mann-Whitney statistic.

Row kernels over (rows, n) blocks of sorted scores do the curve and AUC
arithmetic, and count scores with `np.searchsorted`, row by row. The
single-study functions are their one-row case; `_roc_rows` composes them
into one block's curves and AUCs, the one call :mod:`mixroc.ensemble`
makes per block of replicates. The functional and binormal model curves
pin their endpoints by one rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .datasets import FprGrid, LabeledDataset, _sorted_unique
from .gmm import GmmModel, survival, survival_inverse

_EDGE_TOL = 1e-9


def _row_quantiles(
    rows: NDArray[np.float64], virtual: NDArray[np.float64]
) -> NDArray[np.float64]:
    """The values of each sorted row at the 0-based fractional positions `virtual`.

    The package's one quantile rule, at two of Hyndman and Fan's (1996) definitions: the
    positions n q - 1 give `np.quantile(row, q, method="interpolated_inverted_cdf")`
    (definition 4, the empirical curve's threshold), and (n - 1) q give numpy's default
    `"linear"` (definition 7, the ensemble's envelope), for rows of length n.
    Positions lie in [-1, n - 1], so a floor and the index after it are clamped to the row
    by one bound each, and the weight gamma lies in [0, 1). Where an index is clamped both
    name the same end, a = b, and the value is the per-row call's (numpy weighs a = b by a
    gamma outside [0, 1], which can differ only in the sign of a zero). The lerp has numpy's
    form, b - d(1-g) for g >= 0.5; where d = b - a overflows (a < 0 < b more than the largest
    float apart), a(1-g) + b g, whose terms have opposite signs, keeps it finite.
    """
    n = rows.shape[1]
    lo = np.floor(virtual).astype(np.intp)
    gamma = virtual - lo
    a = rows[:, np.maximum(lo, 0)]
    b = rows[:, np.minimum(lo + 1, n - 1)]
    # ignored: the overflow of d and the nan of its lerp (d = inf times gamma = 0), both
    # replaced below
    with np.errstate(over="ignore", invalid="ignore"):
        d = b - a
        lerp = np.where(gamma >= 0.5, b - d * (1.0 - gamma), a + d * gamma)
        return np.where(np.isinf(d), a * (1.0 - gamma) + b * gamma, lerp)


def _count_le(sorted_rows: NDArray[np.float64], values: NDArray[np.float64]) -> NDArray[np.intp]:
    """#{scores <= v} for each value v of every row: `np.searchsorted(side="right")` per row."""
    return np.array([np.searchsorted(row, v, side="right") for row, v in zip(sorted_rows, values)])


def _tpr_rows(
    y: NDArray[np.float64], c: NDArray[np.float64], t: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Per-row empirical TPR: the share of each sorted row of `y` above its thresholds."""
    n_y = y.shape[1]
    r = (n_y - _count_le(y, c)) / n_y
    r[:, t >= 1.0] = 1.0
    return np.maximum.accumulate(r, axis=1)


def _trapezoid_rows(r: NDArray[np.float64], t: NDArray[np.float64]) -> NDArray[np.float64]:
    """Per-row trapezoid AUC, extended flat to t=0 and t=1 when the grid stops short."""
    area = np.trapezoid(r, t, axis=1)
    if t[0] > 0.0:
        area += r[:, 0] * t[0]
    if t[-1] < 1.0:
        area += r[:, -1] * (1.0 - t[-1])
    return area


def _mann_whitney_rows(x: NDArray[np.float64], y: NDArray[np.float64]) -> NDArray[np.float64]:
    """Per-row midrank Mann-Whitney AUC of sorted rows x (non-diseased) and y.

    2U = sum_j #{x <= y_j} + sum_j #{x < y_j}, and the pairs with x < y are
    the n*m pairs less those with y <= x. Both sums are integer counts, so
    ties stay exact midranks.
    """
    n, m = x.shape[1], y.shape[1]
    twice_u = _count_le(x, y).sum(axis=1) + n * m - _count_le(y, x).sum(axis=1)
    return twice_u / 2.0 / (n * m)


def _roc_rows(x: NDArray[np.float64], y: NDArray[np.float64], t: NDArray[np.float64]):
    """Grid TPR, trapezoid AUC and Mann-Whitney AUC of each pair of sorted rows x and y:
    row by row, :func:`empirical_roc`, :func:`auc_trapezoid` and :func:`auc_mann_whitney`."""
    tpr = _tpr_rows(y, _row_quantiles(x, x.shape[1] * (1.0 - t) - 1.0), t)
    return tpr, _trapezoid_rows(tpr, t), _mann_whitney_rows(x, y)


@dataclass(frozen=True)
class RocCurveGrid:
    """A curve sampled on an FPR grid: pairs (t, R(t)).

    tpr values are validated to be inside [0, 1] and non-decreasing
    (tolerance 1e-9 for float runoff, then canonicalized exactly).
    """

    grid: FprGrid
    tpr: NDArray[np.float64]

    def __post_init__(self):
        r = np.asarray(self.tpr, dtype=float)
        if r.shape != (self.grid.count,):
            raise ValueError(
                f"tpr length {r.size} does not match grid count {self.grid.count}"
            )
        if not np.all((r >= -_EDGE_TOL) & (r <= 1.0 + _EDGE_TOL)):
            raise ValueError("tpr values must lie in [0, 1]")
        if np.any(np.diff(r) < -_EDGE_TOL):
            raise ValueError("tpr must be non-decreasing along the grid")
        r = np.maximum.accumulate(np.clip(r, 0.0, 1.0))
        r.flags.writeable = False
        object.__setattr__(self, "tpr", r)


def empirical_roc(
    dataset: LabeledDataset,
    grid: FprGrid,
    interpolate: bool = True,
) -> RocCurveGrid:
    """Empirical ROC curve resampled onto `grid`.

    For each t the threshold is the empirical survival quantile of the
    non-diseased scores, c_t = Fbar^{-1}(t); R(t) is the fraction of
    diseased scores strictly above c_t. With `interpolate` the quantile is
    piecewise linear between order statistics (it agrees with the step
    form at every achievable FPR knot); otherwise it is the
    right-continuous step inf{c : FP(c) <= t}. R anchors to the minimal
    achievable TPR at t=0 and to 1 at t=1.
    """
    x = dataset.non_diseased.scores
    y = dataset.diseased.scores
    t = grid.points
    if interpolate:
        c = _row_quantiles(x[None], x.size * (1.0 - t) - 1.0)[0]
    else:
        # c_t = inf{c : FP(c) <= t} directly by order statistic; the 1e-12
        # guard keeps t values that are exact multiples of 1/n from falling
        # one threshold short through float dust
        allowed = np.floor(t * x.size + 1e-12).astype(int)
        c = x[::-1][np.minimum(allowed, x.size - 1)].astype(float)
        c[allowed >= x.size] = -np.inf
    return RocCurveGrid(grid, _tpr_rows(y[None], c[None], t)[0])


def empirical_roc_points(dataset: LabeledDataset):
    """The exact empirical operating points, swept over all thresholds.

    Returns (thresholds, fpr, tpr), threshold +inf first, then every
    distinct pooled score descending, ending at (1, 1). Consecutive points
    move right (non-diseased values), up (diseased values) or diagonally
    (cross-population ties), so the trapezoidal area of this polyline is
    exactly the midrank Mann-Whitney AUC.
    """
    x = dataset.non_diseased.scores
    y = dataset.diseased.scores
    pooled = _sorted_unique(np.concatenate([x, y]))[::-1]  # descending
    fpr = np.empty(pooled.size + 1)
    tpr = np.empty(pooled.size + 1)
    fpr[0] = 0.0
    tpr[0] = 0.0
    # at threshold v the positive calls are the scores >= v (v just crossed)
    fpr[1:] = (x.size - np.searchsorted(x, pooled, side="left")) / x.size
    tpr[1:] = (y.size - np.searchsorted(y, pooled, side="left")) / y.size
    thresholds = np.concatenate([[np.inf], pooled])
    return thresholds, fpr, tpr


def _pinned_curve(grid: FprGrid, interior) -> RocCurveGrid:
    """The one endpoint rule of the model curves: R = 0 at t <= 0, R = 1 at t >= 1,
    and `interior(t)` at the grid points strictly between."""
    t = grid.points
    r = (t >= 1.0).astype(float)
    inside = (t > 0.0) & (t < 1.0)
    r[inside] = interior(t[inside])
    return RocCurveGrid(grid, r)


def functional_roc(f_model: GmmModel, g_model: GmmModel, grid: FprGrid) -> RocCurveGrid:
    """Model-based curve R(t) = Gbar(Fbar^{-1}(t)) on the grid.

    Endpoints are fixed to (0, 0) and (1, 1). Interior points invert the
    non-diseased survival in one :func:`survival_inverse` call and evaluate
    the diseased survival there, so R(t) carries the inversion's accuracy
    relative to min(t, 1 - t): for single Gaussians it is within 1e-13
    of the closed form, relatively, from t = 1e-10 to 1 - 1e-10.
    """
    return _pinned_curve(
        grid, lambda t: np.maximum.accumulate(survival(g_model, survival_inverse(f_model, t)))
    )


def auc_trapezoid(curve: RocCurveGrid) -> float:
    """Trapezoidal area under the curve over the full [0, 1] FPR range.

    If the grid excludes an endpoint the curve is extended flat
    (R(0) = first value, R(1) = last value) to close the integral.
    """
    return float(_trapezoid_rows(curve.tpr[None], curve.grid.points)[0])


def auc_mann_whitney(dataset: LabeledDataset) -> float:
    """Mann-Whitney AUC: P(Y > X) + 0.5 P(Y = X), via midranks.

    O((n+m) log(n+m)) by binary search in the sorted samples, not the pair sum.
    """
    x = dataset.non_diseased.scores
    y = dataset.diseased.scores
    return float(_mann_whitney_rows(x[None], y[None])[0])


def _check_pauc_interval(t_lo: float, t_hi: float) -> None:
    if not (0.0 <= t_lo < t_hi <= 1.0):
        raise ValueError(f"need 0 <= t_lo < t_hi <= 1, got [{t_lo}, {t_hi}]")


def pauc(curve: RocCurveGrid, t_lo: float, t_hi: float) -> float:
    """Trapezoidal integral of R(t) over [t_lo, t_hi].

    Interval endpoints falling between grid points are filled in by linear
    interpolation; outside the grid range the curve extends flat, matching
    :func:`auc_trapezoid`.
    """
    _check_pauc_interval(t_lo, t_hi)
    t = curve.grid.points
    r = curve.tpr
    inner = t[(t > t_lo) & (t < t_hi)]
    nodes = np.concatenate([[t_lo], inner, [t_hi]])
    values = np.interp(nodes, t, r)  # flat beyond the grid ends by default
    return float(np.trapezoid(values, nodes))

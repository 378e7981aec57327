"""Monte Carlo ensemble of replica ROC curves from fitted mixtures.

Each replicate draws a synthetic study (one sample per population) from
the fitted mixtures, computes its empirical ROC on the shared grid and
its AUC. The ensemble mean is the curve estimate; per-point standard
errors give a mean confidence band, pointwise quantiles give an envelope
band. Replicate RNG streams are spawned per index from the master seed,
and replicates are reduced in blocks of rows whose arithmetic does not
depend on which rows share a block, so the same seed gives bit-identical
results for any block size or execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray
from scipy.special import ndtri

from .datasets import FprGrid, LabeledDataset, PopulationTag, make_uniform_grid
from .gmm import EmConfig, GmmModel, sample_from, select_k

# empirical_roc and auc_mann_whitney are the single-study forms of the block
# kernels below; they stay importable here because benchmarks/tracing.py
# wraps them on this module
from .roc import RocCurveGrid, auc_mann_whitney, auc_trapezoid, empirical_roc  # noqa: F401

# values per block of replicates, where a block row holds at most
# n_x + n_y + grid count of them: keeps the working memory of run_mg small
# whatever M is (6 rows at n_x = n_y = 1000 on the default 512-point grid)
_BLOCK_SCORES = 2**14


@dataclass(frozen=True)
class MgConfig:
    """Ensemble settings.

    `replicate_n_x` / `replicate_n_y` default to the observed sample sizes
    (resolved by the pipeline); `grid` defaults to 512 uniform points.
    """

    m: int = 1000
    alpha: float = 0.05
    replicate_n_x: int | None = None
    replicate_n_y: int | None = None
    grid: FprGrid | None = None
    seed: int = 0

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("need at least M=2 replicates (standard error undefined below)")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must be in (0, 0.5), got {self.alpha}")
        for name in ("replicate_n_x", "replicate_n_y"):
            val = getattr(self, name)
            if val is not None and val < 2:
                raise ValueError(f"{name} must be >= 2, got {val}")


@dataclass(frozen=True)
class MgEnsembleResult:
    """Mean curve, per-point bands and ensemble AUC statistics."""

    mean_curve: RocCurveGrid
    se: NDArray[np.float64]
    ci_lower: NDArray[np.float64]
    ci_upper: NDArray[np.float64]
    env_lower: NDArray[np.float64]
    env_upper: NDArray[np.float64]
    auc_samples: NDArray[np.float64]
    auc_mean: float
    auc_se: float
    auc_mann_whitney_mean: float
    replicate_matrix: NDArray[np.float64] | None = None

    @property
    def m(self) -> int:
        return int(self.auc_samples.size)


def _resolve(config: MgConfig, dataset: LabeledDataset | None) -> MgConfig:
    updates = {}
    if config.grid is None:
        updates["grid"] = make_uniform_grid()
    if config.replicate_n_x is None:
        if dataset is None:
            raise ValueError("replicate_n_x not set and no dataset to take it from")
        updates["replicate_n_x"] = dataset.n_x
    if config.replicate_n_y is None:
        if dataset is None:
            raise ValueError("replicate_n_y not set and no dataset to take it from")
        updates["replicate_n_y"] = dataset.n_y
    return replace(config, **updates) if updates else config


def _quantile_plan(n: int, q: NDArray[np.float64]):
    """Gather indices and weights of `np.quantile(row, q, method="interpolated_inverted_cdf")`.

    They depend only on the row length, so one plan serves every row.
    The arithmetic is numpy's own, index clamping included, so that
    :func:`_row_quantiles` is bit-identical to the per-row call.
    """
    virtual = n * q - 1.0
    lo = np.floor(virtual)
    hi = lo + 1.0
    above = virtual >= n - 1
    lo[above] = hi[above] = -1.0
    below = virtual < 0
    lo[below] = hi[below] = 0.0
    return lo.astype(np.intp), hi.astype(np.intp), virtual - lo


def _row_quantiles(rows: NDArray[np.float64], plan) -> NDArray[np.float64]:
    """Quantiles of each sorted row, with numpy's lerp form (b - d(1-g) for g >= 0.5)."""
    lo, hi, gamma = plan
    a = rows[:, lo]
    b = rows[:, hi]
    d = b - a
    return np.where(gamma >= 0.5, b - d * (1.0 - gamma), a + d * gamma)


def _merge_order(first: NDArray[np.float64], second: NDArray[np.float64]) -> NDArray[np.intp]:
    """Stable row-wise sort order of [first | second]: on ties, `first`'s entries come first."""
    return np.argsort(np.concatenate([first, second], axis=1), axis=1, kind="stable")


def _count_le(sorted_rows: NDArray[np.float64], values: NDArray[np.float64]) -> NDArray[np.intp]:
    """`np.searchsorted(sorted_rows[i], values[i], side="right")` for every row i.

    In the merge a score tied with a value sorts before it, so the scores
    at or before a value's slot are exactly those <= the value.
    """
    n = sorted_rows.shape[1]
    order = _merge_order(sorted_rows, values)
    scores_so_far = np.cumsum(order < n, axis=1)
    slot = np.empty_like(order)
    np.put_along_axis(slot, order, np.arange(order.shape[1]), axis=1)
    return np.take_along_axis(scores_so_far, slot[:, n:], axis=1)


def _tpr_rows(
    y: NDArray[np.float64], c: NDArray[np.float64], t: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Per-row empirical TPR: the share of each sorted row of `y` above its thresholds."""
    n_y = y.shape[1]
    r = (n_y - _count_le(y, c)) / n_y
    r[:, t >= 1.0] = 1.0
    return np.maximum.accumulate(r, axis=1)


def _trapezoid_rows(r: NDArray[np.float64], t: NDArray[np.float64]) -> NDArray[np.float64]:
    """Per-row trapezoid AUC, extended flat to t=0 and t=1 as in `auc_trapezoid`."""
    area = np.trapezoid(r, t, axis=1)
    if t[0] > 0.0:
        area += r[:, 0] * t[0]
    if t[-1] < 1.0:
        area += r[:, -1] * (1.0 - t[-1])
    return area


def _mann_whitney_rows(x: NDArray[np.float64], y: NDArray[np.float64]) -> NDArray[np.float64]:
    """Per-row midrank Mann-Whitney AUC of sorted rows x (non-diseased) and y.

    U = sum_j #{x < y_j} + #{x = y_j}/2 = (sum_j #{x <= y_j} + sum_j #{x < y_j}) / 2.
    In a merge of the sorted rows, y_j lands after the j earlier y's and
    after #{x <= y_j} x's when x sorts first on ties, #{x < y_j} when y
    does; so both sums are slot sums, integers, and ties stay exact midranks.
    """
    n, m = x.shape[1], y.shape[1]
    slots = np.arange(n + m)
    le_slots = (_merge_order(x, y) >= n) @ slots
    lt_slots = (_merge_order(y, x) < m) @ slots
    twice_u = le_slots + lt_slots - m * (m - 1)
    return twice_u / 2.0 / (n * m)


def run_mg(
    f_model: GmmModel,
    g_model: GmmModel,
    config: MgConfig,
    keep_replicates: bool = False,
) -> MgEnsembleResult:
    """Generate and average the ensemble of replica ROC curves.

    Replicate l draws its two samples from an RNG stream spawned as child
    l of the master seed. Replicates are processed in blocks of rows: the
    sorted samples of a block fill two score matrices, and thresholds,
    TPR, trapezoid AUC and Mann-Whitney AUC are computed as array work
    over the whole block, each row's result bit-identical to
    :func:`empirical_roc`, :func:`auc_trapezoid` and
    :func:`auc_mann_whitney` on that replicate. Results are stored by
    index, so they do not depend on the block size.
    """
    config = _resolve(config, None)
    grid = config.grid
    t = grid.points
    m, n_x, n_y = config.m, config.replicate_n_x, config.replicate_n_y
    plan = _quantile_plan(n_x, 1.0 - t)
    block_rows = max(1, _BLOCK_SCORES // (n_x + n_y + grid.count))
    x = np.empty((block_rows, n_x))
    y = np.empty((block_rows, n_y))
    curves = np.empty((m, grid.count))
    aucs = np.empty(m)
    mws = np.empty(m)
    children = np.random.SeedSequence(config.seed).spawn(m)

    for start in range(0, m, block_rows):
        block = slice(start, min(start + block_rows, m))
        for i, child in enumerate(children[block]):
            rng = np.random.default_rng(child)
            x[i] = sample_from(f_model, n_x, rng, PopulationTag.NON_DISEASED).scores
            y[i] = sample_from(g_model, n_y, rng, PopulationTag.DISEASED).scores
        rows = block.stop - start
        xb, yb = x[:rows], y[:rows]
        tpr = _tpr_rows(yb, _row_quantiles(xb, plan), t)
        curves[block] = tpr
        aucs[block] = _trapezoid_rows(tpr, t)
        mws[block] = _mann_whitney_rows(xb, yb)

    mean_tpr = curves.mean(axis=0)
    se = curves.std(axis=0, ddof=1)
    z = ndtri(1.0 - config.alpha / 2.0)
    half = z * se / np.sqrt(m)
    ci_lower = np.clip(mean_tpr - half, 0.0, 1.0)
    ci_upper = np.clip(mean_tpr + half, 0.0, 1.0)
    env_lower, env_upper = np.quantile(
        curves, [config.alpha / 2.0, 1.0 - config.alpha / 2.0], axis=0
    )
    # at grid points where more than 1-alpha/2 of the replicates saturate at
    # 0 or 1, the raw quantile can cross the mean; widen minimally so the
    # envelope always contains the mean curve
    env_lower = np.minimum(env_lower, mean_tpr)
    env_upper = np.maximum(env_upper, mean_tpr)
    mean_curve = RocCurveGrid(grid, mean_tpr, label="mg")
    return MgEnsembleResult(
        mean_curve=mean_curve,
        se=se,
        ci_lower=ci_lower,
        ci_upper=ci_upper,
        env_lower=np.clip(env_lower, 0.0, 1.0),
        env_upper=np.clip(env_upper, 0.0, 1.0),
        auc_samples=aucs,
        auc_mean=auc_trapezoid(mean_curve),
        auc_se=float(np.std(aucs, ddof=1)),
        auc_mann_whitney_mean=float(np.mean(mws)),
        replicate_matrix=curves if keep_replicates else None,
    )


def mg_pipeline(
    dataset: LabeledDataset,
    em_config: EmConfig = EmConfig(),
    mg_config: MgConfig = MgConfig(),
    keep_replicates: bool = False,
) -> tuple[GmmModel, GmmModel, MgEnsembleResult]:
    """Fit both populations (BIC-selected K) and run the ensemble.

    Replicate sample sizes default to the observed study sizes so that the
    band width reflects the study's own sampling uncertainty.
    """
    f_model = select_k(dataset.non_diseased, em_config)
    g_model = select_k(dataset.diseased, replace(em_config, seed=em_config.seed + 500_000))
    config = _resolve(mg_config, dataset)
    result = run_mg(f_model, g_model, config, keep_replicates=keep_replicates)
    return f_model, g_model, result

"""Monte Carlo ensemble of replica ROC curves from fitted mixtures.

Each replicate draws a synthetic study (one sample per population) from
the fitted mixtures and computes its empirical ROC on the shared grid
and its AUCs with the row kernels of :mod:`mixroc.roc`, the same ones
behind the single-study functions. The ensemble mean is the curve
estimate; per-point standard errors give a mean confidence band,
pointwise quantiles give an envelope band. Replicate l draws from the
stream (l,) of the master seed. Replicates are reduced in blocks of rows
whose arithmetic does not depend on which rows share a block, so the same
seed gives bit-identical results for any block size or execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.typing import NDArray
from scipy.special import ndtri

from .datasets import FprGrid, LabeledDataset, PopulationTag, make_uniform_grid
from .gmm import EmConfig, GmmModel, _check_seed, _stream, sample_from, select_k

# auc_mann_whitney and empirical_roc stay importable here because
# benchmarks/tracing.py wraps them on this module
from .roc import (  # noqa: F401
    RocCurveGrid, _mann_whitney_rows, _quantile_plan, _row_quantiles, _tpr_rows,
    _trapezoid_rows, auc_mann_whitney, auc_trapezoid, empirical_roc,
)

# values per block of replicates, where a block row holds at most
# n_x + n_y + grid count of them: keeps the working memory of run_mg small
# whatever M is (6 rows at n_x = n_y = 1000 on the default 512-point grid)
_BLOCK_SCORES = 2**14


@dataclass(frozen=True)
class MgConfig:
    """Ensemble settings: M replicates, band level, replicate sizes, FPR grid, seed.

    `replicate_n_x` / `replicate_n_y` default to the observed sample sizes,
    filled in by :func:`mg_pipeline`; :func:`run_mg` needs them set.
    `grid`, 512 uniform points by default, is the one grid of a CLI run,
    shared by every estimator.
    """

    m: int = 1000
    alpha: float = 0.05
    replicate_n_x: int | None = None
    replicate_n_y: int | None = None
    grid: FprGrid = field(default_factory=make_uniform_grid)
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
        _check_seed(self.seed)


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
    replicate_matrix: NDArray[np.float64]

    @property
    def m(self) -> int:
        return int(self.auc_samples.size)


def run_mg(f_model: GmmModel, g_model: GmmModel, config: MgConfig) -> MgEnsembleResult:
    """Generate and average the ensemble of replica ROC curves.

    Replicate l draws its two samples from the stream (l,) of the master
    seed. Replicates are processed in blocks of rows: the sorted samples
    of a block fill two score matrices, and the row kernels of
    :mod:`mixroc.roc` compute thresholds, TPR, trapezoid AUC and
    Mann-Whitney AUC over the whole block, so each row equals
    :func:`empirical_roc`, :func:`auc_trapezoid` and
    :func:`auc_mann_whitney` on that replicate. Results are stored by
    index, so they do not depend on the block size. The M x grid matrix
    of replicate curves is returned as `replicate_matrix`.
    """
    if config.replicate_n_x is None or config.replicate_n_y is None:
        raise ValueError(
            "replicate_n_x and replicate_n_y must be set; mg_pipeline fills them from the dataset"
        )
    grid = config.grid
    t = grid.points
    m, n_x, n_y = config.m, config.replicate_n_x, config.replicate_n_y
    plan = _quantile_plan(n_x, 1.0 - t)
    block_rows = max(1, _BLOCK_SCORES // (n_x + n_y + grid.count))
    curves = np.empty((m, grid.count))
    aucs = np.empty(m)
    mws = np.empty(m)
    for start in range(0, m, block_rows):
        block = slice(start, min(start + block_rows, m))
        # each replicate's stream draws its x sample before its y sample
        rngs = [_stream(config.seed, l) for l in range(start, block.stop)]
        x = np.array([sample_from(f_model, n_x, rng, PopulationTag.NON_DISEASED).scores
                      for rng in rngs])
        y = np.array([sample_from(g_model, n_y, rng, PopulationTag.DISEASED).scores
                      for rng in rngs])
        tpr = _tpr_rows(y, _row_quantiles(x, plan), t)
        curves[block] = tpr
        aucs[block] = _trapezoid_rows(tpr, t)
        mws[block] = _mann_whitney_rows(x, y)

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
    mean_curve = RocCurveGrid(grid, mean_tpr)
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
        replicate_matrix=curves,
    )


def mg_pipeline(
    dataset: LabeledDataset,
    em_config: EmConfig = EmConfig(),
    mg_config: MgConfig = MgConfig(),
) -> tuple[GmmModel, GmmModel, MgEnsembleResult]:
    """Fit both populations (BIC-selected K) and run the ensemble.

    Replicate sample sizes default to the observed study sizes so that the
    band width reflects the study's own sampling uncertainty.
    """
    f_model = select_k(dataset.non_diseased, em_config)
    g_model = select_k(dataset.diseased, em_config)
    config = replace(mg_config, replicate_n_x=mg_config.replicate_n_x or dataset.n_x,
                     replicate_n_y=mg_config.replicate_n_y or dataset.n_y)
    result = run_mg(f_model, g_model, config)
    return f_model, g_model, result

"""Monte Carlo ensemble of replica ROC curves from fitted mixtures.

Each replicate draws a synthetic study (one array per population) from the
fitted mixtures: its stream fills its row of a block's uniforms and normals,
and one array step per population maps the block to scores, which are
sorted once. One call of :mod:`mixroc.roc`'s block kernel gives each row's
empirical ROC on the shared grid and its AUCs, as the single-study
functions would.
The ensemble mean is the curve estimate; per-point standard errors give a
mean confidence band, pointwise quantiles an envelope band, both reduced a
chunk of grid columns at a time in bounded memory. Replicate l
draws from the stream (l,) of the master seed. The blocks run one after
another on the caller's thread. Each block writes its own rows of the
results, with arithmetic that does not depend on which rows share a block,
so the same seed gives bit-identical results for any block size and any
execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np
from numpy.typing import NDArray

from .datasets import FprGrid, LabeledDataset, make_uniform_grid
from .gmm import EmConfig, GmmModel, _check_seed, _mixture_draws, _select_k_many, _stream

from .roc import RocCurveGrid, _roc_rows, _row_quantiles, auc_trapezoid
# importable here only because benchmarks/tracing.py wraps them on this module
from .gmm import sample_from, select_k  # noqa: F401
from .roc import auc_mann_whitney, empirical_roc  # noqa: F401

# values per block of replicates, where a block row holds n_x + n_y scores
# (each drawn from one uniform and one normal) and a grid count of TPR values:
# keeps the working memory of run_mg small whatever M is (13 rows at
# n_x = n_y = 1000 on the default 512-point grid)
_BLOCK_SCORES = 2**15
# values per chunk of replicate-matrix columns the bands are reduced over (2 MiB):
# 65 grid columns at M = 4000, the whole 512-point grid up to M = 512; measured
# faster than 2**15 at M = 4000 and than 2**19 at M = 1000
_BAND_VALUES = 2**18


@dataclass(frozen=True)
class MgConfig:
    """Ensemble settings: M replicates, band level, replicate sizes, FPR grid, seed.

    `replicate_n_x` / `replicate_n_y` default to the `n_train` of the fitted
    models, so models from :func:`select_k` give replicates of the observed sizes.
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
    seed. Replicates are processed in blocks of rows: each stream fills its
    row of the block's uniforms and normals in :func:`sample_from`'s draw
    order (x's uniforms, x's normals, y's uniforms, y's normals), one
    `gmm._mixture_draws` call per population maps the block to two score
    matrices, each sorted along its rows in place, and one call of
    `mixroc.roc._roc_rows` gives the block's grid TPR,
    trapezoid AUCs and Mann-Whitney AUCs, each row equal to
    :func:`empirical_roc`, :func:`auc_trapezoid` and
    :func:`auc_mann_whitney` on that replicate. The blocks run one after
    another on the caller's thread, through four draw buffers allocated
    once. Results are stored by index, so they do not depend on the block
    size or on the order the blocks run in. The M x grid matrix
    of replicate curves is returned as `replicate_matrix`. Its standard
    errors and envelope are reduced a chunk of grid columns at a time, each
    chunk's columns sorted as rows for `mixroc.roc._row_quantiles` at numpy's
    default linear quantile, so they need one chunk of memory beyond the
    matrix, and equal the whole matrix's `std` and `np.quantile` bit for
    bit. Replicate sizes
    unset in `config` are the models' `n_train`, and must be at least 2.
    """
    n_x = config.replicate_n_x or f_model.n_train
    n_y = config.replicate_n_y or g_model.n_train
    if min(n_x, n_y) < 2:
        raise ValueError(f"replicate sizes must be >= 2, got {n_x} and {n_y}: set replicate_n_x/_y")
    grid = config.grid
    t = grid.points
    m = config.m
    block_rows = max(1, _BLOCK_SCORES // (n_x + n_y + grid.count))
    curves = np.empty((m, grid.count))
    aucs = np.empty(m)
    mws = np.empty(m)

    u_x, z_x = np.empty((2, block_rows, n_x))
    u_y, z_y = np.empty((2, block_rows, n_y))
    for start in range(0, m, block_rows):
        block = slice(start, min(start + block_rows, m))
        rows = block.stop - start
        for i in range(rows):  # in sample_from's order, x before y
            rng = _stream(config.seed, start + i)
            rng.random(out=u_x[i])
            rng.standard_normal(out=z_x[i])
            rng.random(out=u_y[i])
            rng.standard_normal(out=z_y[i])
        x = _mixture_draws(f_model, u_x[:rows], z_x[:rows])
        y = _mixture_draws(g_model, u_y[:rows], z_y[:rows])
        x.sort(axis=1)
        y.sort(axis=1)
        curves[block], aucs[block], mws[block] = _roc_rows(x, y, t)

    # the mean makes no full-size temporary; std's deviations and the envelope's sorted
    # copy are taken a chunk of grid columns at a time, so their extra memory is one
    # chunk, not a copy of the whole matrix. A sum over axis 0 adds row after row for
    # every column of a chunk, as over the whole matrix, but numpy sums a lone column
    # pairwise, so no chunk is narrower than two columns: the last one takes up a
    # one-column remainder
    mean_tpr = curves.mean(axis=0)
    width = max(2, _BAND_VALUES // m)
    edges = [0, *range(width, grid.count - 1, width), grid.count]
    se, env_lower, env_upper = np.empty((3, grid.count))
    positions = (m - 1) * np.array([config.alpha / 2.0, 1.0 - config.alpha / 2.0])
    for cols in map(slice, edges, edges[1:]):
        chunk = curves[:, cols]
        se[cols] = chunk.std(axis=0, ddof=1)
        # each grid point's replicates as one sorted row
        env_lower[cols], env_upper[cols] = _row_quantiles(np.sort(chunk.T, axis=1), positions).T
    z = NormalDist().inv_cdf(1.0 - config.alpha / 2.0)
    half = z * se / np.sqrt(m)
    ci_lower = np.clip(mean_tpr - half, 0.0, 1.0)
    ci_upper = np.clip(mean_tpr + half, 0.0, 1.0)
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

    Each model is the one :func:`select_k` gives its population. When both
    populations have one size, their restarts share one EM call per K, as rows
    of one array; otherwise each population's restarts run on their own.
    Replicate sizes default to the observed sizes, each model's `n_train`, so
    the band width reflects the study's own sampling uncertainty.
    """
    f_model, g_model = _select_k_many([dataset.non_diseased, dataset.diseased], em_config)
    return f_model, g_model, run_mg(f_model, g_model, mg_config)

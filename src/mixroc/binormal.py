"""Crude binormal ROC baseline.

One Gaussian per population, fitted by moments with no transformation:
curve R(t) = Phi(a + b Phi^{-1}(t)), closed-form area Phi(a / sqrt(1+b^2)),
with a = (mu_D - mu_N) / sigma_D and b = sigma_N / sigma_D. Phi and
Phi^{-1} come from the standard library (`math.erfc`, and
`statistics.NormalDist.inv_cdf`, Wichura's AS241), applied elementwise,
so the baseline needs no `scipy.special`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .datasets import FprGrid, LabeledDataset, _check_fit_range
from .roc import RocCurveGrid, _pinned_curve

_SQRT2 = math.sqrt(2.0)
# Phi(x) = erfc(-x / sqrt 2) / 2 and Phi^{-1}, elementwise; each call returns an object array
_ndtr = np.frompyfunc(lambda x: 0.5 * math.erfc(-x / _SQRT2), 1, 1)
_ndtri = np.frompyfunc(NormalDist().inv_cdf, 1, 1)


@dataclass(frozen=True)
class BinormalParams:
    """Standardized separation `a`, scale ratio `b`, and source moments."""

    a: float
    b: float
    mu_n: float
    sigma_n: float
    mu_d: float
    sigma_d: float

    def __post_init__(self):
        if self.sigma_n <= 0.0 or self.sigma_d <= 0.0:
            raise ValueError("both standard deviations must be positive")
        if not np.isclose(self.a, (self.mu_d - self.mu_n) / self.sigma_d, rtol=0, atol=1e-12):
            raise ValueError("a is inconsistent with the stored moments")
        if not np.isclose(self.b, self.sigma_n / self.sigma_d, rtol=0, atol=1e-12):
            raise ValueError("b is inconsistent with the stored moments")


def fit_binormal(dataset: LabeledDataset) -> BinormalParams:
    """Moment fit: sample means and unbiased (n-1) standard deviations."""
    _check_fit_range(dataset.non_diseased)
    _check_fit_range(dataset.diseased)
    x = dataset.non_diseased.scores
    y = dataset.diseased.scores
    # exact on the sorted scores, where a rounded moment of equal values need not be 0
    if x[0] == x[-1] or y[0] == y[-1]:
        raise ValueError("a population has zero variance; binormal fit undefined")
    sigma_n = float(np.std(x, ddof=1))
    sigma_d = float(np.std(y, ddof=1))
    mu_n = float(np.mean(x))
    mu_d = float(np.mean(y))
    return BinormalParams(
        a=(mu_d - mu_n) / sigma_d,
        b=sigma_n / sigma_d,
        mu_n=mu_n,
        sigma_n=sigma_n,
        mu_d=mu_d,
        sigma_d=sigma_d,
    )


def binormal_curve(params: BinormalParams, grid: FprGrid) -> RocCurveGrid:
    """R(t) = Phi(a + b Phi^{-1}(t)) on the grid, endpoints pinned to (0,0), (1,1)."""
    return _pinned_curve(
        grid, lambda t: _ndtr(params.a + params.b * _ndtri(t).astype(float)).astype(float))


def binormal_auc(params: BinormalParams) -> float:
    """Closed-form area Phi(a / sqrt(1 + b^2))."""
    return float(_ndtr(params.a / np.sqrt(1.0 + params.b * params.b)))

"""Univariate Gaussian mixture modelling.

EM estimation with deterministic-given-seed restarts, BIC model-order
selection, density/survival evaluation, survival inversion and random
sampling. The likelihood of a univariate mixture is unbounded, so every
variance is clamped to a floor derived from the data range.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.optimize.elementwise import find_root
from scipy.special import log_ndtr, ndtri

from .datasets import PopulationTag, ScoreSample

WEIGHT_SUM_TOL = 1e-12
EM_TOL = 1e-8  # EM stops when |ll change| <= EM_TOL * (1 + |ll|)


class EmCollapseError(RuntimeError):
    """Every restart ended degenerate despite the variance floor."""


@dataclass(frozen=True)
class GmmModel:
    """A fitted univariate Gaussian mixture.

    Attributes
    ----------
    weights, means, variances : arrays of length k
        Mixing proportions (positive, summing to one), component means and
        component variances.
    log_likelihood : float
        Training log-likelihood of the returned parameters.
    n_train : int
        Training sample size.
    """

    weights: NDArray[np.float64]
    means: NDArray[np.float64]
    variances: NDArray[np.float64]
    log_likelihood: float = float("nan")
    n_train: int = 0

    def __post_init__(self):
        w = np.array(self.weights, dtype=float, ndmin=1)
        mu = np.array(self.means, dtype=float, ndmin=1)
        var = np.array(self.variances, dtype=float, ndmin=1)
        if not (w.shape == mu.shape == var.shape) or w.ndim != 1 or w.size < 1:
            raise ValueError("weights, means and variances must share one length K >= 1")
        if not np.all(np.isfinite([w, mu, var])):
            raise ValueError("weights, means and variances must be finite")
        if np.any(w <= 0.0) or abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("weights must be positive and sum to 1")
        if np.any(var <= 0.0):
            raise ValueError("variances must be positive")
        for arr in (w, mu, var):
            arr.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", var)

    @property
    def k(self) -> int:
        return int(self.weights.size)

    @property
    def sigmas(self) -> NDArray[np.float64]:
        return np.sqrt(self.variances)

    def to_json_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
            "log_likelihood": self.log_likelihood,
            "n_train": self.n_train,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GmmModel":
        return cls(
            weights=np.asarray(doc["weights"], dtype=float),
            means=np.asarray(doc["means"], dtype=float),
            variances=np.asarray(doc["variances"], dtype=float),
            log_likelihood=float(doc["log_likelihood"]),
            n_train=int(doc["n_train"]),
        )


@dataclass(frozen=True)
class EmConfig:
    """EM and model-selection settings: K range, iteration cap, restarts, seed.

    EM stops at :data:`EM_TOL` or after `max_iter` M-steps; a restart's trace holds one E-step
    more than its M-steps. Variances are floored at 1e-6 * (sample range)^2. Each restart has
    its own stream, so adding a K or a restart changes no other. `seed` lies in [0, 2**128).
    """

    k_min: int = 1
    k_max: int = 5
    max_iter: int = 500
    n_restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.k_min <= self.k_max:
            raise ValueError("need 1 <= k_min <= k_max")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be >= 1")
        _check_seed(self.seed)


def _check_seed(seed: int) -> None:
    """The seed range of :func:`_stream`, checked by every config that holds a seed."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if seed >= 2**128:
        raise ValueError(f"seed must be below 2**128, got {seed}")


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The package's one generator factory: SeedSequence(seed, spawn_key=key).

    key (population, K, r)  EM restart r at K components; population 0 non-diseased, 1 diseased
    key (l,)                ensemble replicate l, child l of SeedSequence(seed)'s spawn
    The key lengths differ, and seeds below 2**128 pad to four words: no two streams match.
    A larger seed spills into the key words, so :func:`_check_seed` rejects it.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _effective_floor(x: NDArray[np.float64]) -> float:
    rng = float(x[-1] - x[0])  # x is sorted
    if rng > 0.0:
        return 1e-6 * rng * rng
    return 1e-12 * max(1.0, abs(float(x[0])))


def _farthest_point_centers(x: NDArray[np.float64], k: int) -> NDArray[np.float64]:
    """Greedy farthest-point centers, starting from the most central point."""
    centers = [x[np.argmin(np.abs(x - x.mean()))]]
    while len(centers) < k:
        dist = np.min(np.abs(x[:, None] - np.asarray(centers)[None, :]), axis=1)
        centers.append(x[np.argmax(dist)])
    return np.asarray(centers, dtype=float)


def _initial_params(x, k, floor, rng, restart):
    """Restart 0: deterministic farthest-point centers; later restarts draw
    centers from the data itself, which follows the sample density and
    explores far better on heavily skewed samples."""
    if restart == 0 or k >= x.size:
        centers = np.sort(_farthest_point_centers(x, k))
    else:
        centers = np.sort(rng.choice(x, size=k, replace=False))
    # nearest-center assignment; per-cluster variance (0 if empty) clamped to the floor
    owner = np.argmin(np.abs(x[:, None] - centers[None, :]), axis=1)
    sq_dist = np.bincount(owner, (x - centers[owner]) ** 2, minlength=k)
    within = sq_dist / np.maximum(np.bincount(owner, minlength=k), 1)
    variances = np.maximum(within, floor)
    weights = np.full(k, 1.0 / k)
    return weights, centers, variances


def _log_sum_exp(a):
    """log(sum(exp(a), axis=1)) shifted by each row's max; a row of -inf gives -inf."""
    top = np.maximum(a.max(axis=1), np.finfo(float).min)
    with np.errstate(divide="ignore"):  # log(0) of a row of -inf
        return top + np.log(np.exp(a - top[:, None]).sum(axis=1))


def _log_components(x, weights, means, variances):
    # (n, k) matrix of log(pi_k * phi(x | mu_k, var_k))
    z2 = (x[:, None] - means[None, :]) ** 2 / variances[None, :]
    return np.log(weights)[None, :] - 0.5 * (np.log(2.0 * np.pi * variances)[None, :] + z2)


def _em_single(x, k, config, floor, rng, restart):
    """One EM run; returns (weights, means, variances, ll, ll_trace).

    At most `config.max_iter` M-steps, each between two E-steps, so ll is of the returned
    parameters and the trace holds the log-likelihood at each E-step, one more than the
    M-steps. EM keeps it non-decreasing except across a degeneracy reset (a starved
    component re-seeded on a random data point), which clears it: only the final monotone
    segment is reported.
    """
    n = x.size
    weights, means, variances = _initial_params(x, k, floor, rng, restart)
    ll_prev = -np.inf
    converged = False
    trace = []
    for it in range(config.max_iter + 1):
        log_comp = _log_components(x, weights, means, variances)
        log_norm = _log_sum_exp(log_comp)
        ll = float(np.sum(log_norm))
        trace.append(ll)
        if converged or it == config.max_iter:
            break
        resp = np.exp(log_comp - log_norm[:, None])
        nk = resp.sum(axis=0)
        starved = nk < 1.0  # responsibility mass below 1/n_train of the data
        means = resp.T @ x / np.maximum(nk, 1e-300)
        variances = np.maximum(
            np.einsum("nk,nk->k", resp, (x[:, None] - means[None, :]) ** 2)
            / np.maximum(nk, 1e-300),
            floor,
        )
        weights = nk / n
        if starved.any():
            idx = np.flatnonzero(starved)
            means[idx] = rng.choice(x, size=idx.size)
            variances[idx] = floor
            weights[idx] = 1.0 / n
            trace.clear()
        weights = weights / weights.sum()
        converged = not starved.any() and abs(ll - ll_prev) <= EM_TOL * (1.0 + abs(ll))
        ll_prev = -np.inf if starved.any() else ll
    return weights, means, variances, ll, trace


def fit_em(
    sample: ScoreSample,
    k: int,
    config: EmConfig = EmConfig(),
    return_trace: bool = False,
):
    """Fit a k-component mixture by EM, best of `config.n_restarts` runs.

    The first restart seeds centers by a deterministic farthest-point pass;
    later restarts draw centers from the data. Restart r draws from the
    stream (population, k, r) of `config.seed`.

    Returns the :class:`GmmModel` with the highest final log-likelihood;
    with `return_trace` also the per-iteration log-likelihood trace of
    every restart (each trace is a monotone EM segment).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    x = np.asarray(sample.scores, dtype=float)
    if k > x.size:
        raise ValueError(f"k={k} exceeds the sample size {x.size}")
    floor = _effective_floor(x)
    population = int(sample.population_tag is PopulationTag.DISEASED)
    runs = [_em_single(x, k, config, floor, _stream(config.seed, population, k, r), r)
            for r in range(config.n_restarts)]
    finite = [run for run in runs if np.isfinite(run[3])]
    if not finite:
        raise EmCollapseError(f"all {config.n_restarts} EM restarts collapsed for k={k}")
    w, mu, var, ll, _ = max(finite, key=lambda run: run[3])
    order = np.argsort(mu)  # canonical component order
    model = GmmModel(w[order], mu[order], var[order], log_likelihood=ll, n_train=int(x.size))
    return (model, [run[4] for run in runs]) if return_trace else model


def bic(model: GmmModel) -> float:
    """Bayesian information criterion with 3K - 1 free parameters."""
    n_params = 3 * model.k - 1
    return -2.0 * model.log_likelihood + n_params * np.log(model.n_train)


def select_k(sample: ScoreSample, config: EmConfig = EmConfig()) -> GmmModel:
    """Fit each K in [k_min, min(k_max, n)] and return the BIC minimizer.

    Ties break toward smaller K. Each restart of each K draws from its own
    stream, so adding a K or a restart never changes the other fits.
    """
    n = len(sample)
    if n < config.k_min:
        raise ValueError(f"sample size {n} is below k_min={config.k_min}")
    return min((fit_em(sample, k, config) for k in range(config.k_min, min(config.k_max, n) + 1)),
               key=bic)


def _elementwise(func):
    """The one shape rule of :func:`pdf`, :func:`survival` and :func:`survival_inverse`:
    `func` sees the input flat, and gives an array of its shape, or a float for a scalar."""

    @functools.wraps(func)
    def apply(model: GmmModel, values):
        v = np.asarray(values, dtype=float)
        out = func(model, v.ravel()).reshape(v.shape)
        return float(out) if out.ndim == 0 else out

    return apply


@_elementwise
def pdf(model: GmmModel, x):
    """Mixture density sum_k pi_k * phi(x | mu_k, var_k), elementwise, summed in log space."""
    return np.exp(_log_sum_exp(_log_components(x, model.weights, model.means, model.variances)))


@_elementwise
def survival(model: GmmModel, c):
    """Upper-tail probability P(X > c) = sum_k pi_k * Q((c - mu_k)/sigma_k), elementwise."""
    return np.exp(_log_tail(model, c, -1.0))


def _log_tail(model: GmmModel, c: NDArray[np.float64], sign) -> NDArray[np.float64]:
    """log P(X <= c) where sign is +1 and log P(X > c) where it is -1.

    `sign` is a scalar or a column with one entry per point of c. Phi(-z) = Q(z),
    so both tails come from log Phi with full relative accuracy however small they are.
    """
    z = (c[:, None] - model.means[None, :]) / model.sigmas[None, :]
    return _log_sum_exp(log_ndtr(sign * z) + np.log(model.weights)[None, :])


@_elementwise
def survival_inverse(model: GmmModel, t):
    """Threshold c with survival(model, c) = t, for every t in (0, 1).

    A scalar t gives a float; an array gives an array of its shape. Each
    root lies in the analytic bracket [min_k c_k, max_k c_k] with
    c_k = mu_k - sigma_k * Phi^{-1}(t), where every component survival is
    at least (at the left end) or at most (at the right end) t. All points
    are solved together by scipy.optimize.elementwise.find_root on the
    smaller tail in log space, log P(X > c) against log t for t <= 1/2 and
    log P(X <= c) against log(1 - t) above. Its default tolerances stop
    once the bracket reaches float resolution in c. The round
    trip is therefore accurate relative to min(t, 1 - t), to a few 1e-14
    for t down to 1e-12 on well-conditioned mixtures; near a variance-floor
    spike it is limited by the spacing of floats in c instead.
    """
    inside = (t > 0.0) & (t < 1.0)
    if not np.all(inside):
        raise ValueError(f"t must be inside (0, 1), got {t[~inside][0]}")
    spread = model.sigmas[None, :] * ndtri(t)[:, None]
    c_k = model.means[None, :] - spread
    # a few ulps of the largest term in mu_k - sigma_k * z cover its rounding
    pad = 4.0 * np.finfo(float).eps * np.max(np.abs(model.means) + np.abs(spread), axis=1)
    upper = t > 0.5
    sign = np.where(upper, 1.0, -1.0)
    target = np.where(upper, np.log1p(-t), np.log(t))

    def gap(c, sign, target):
        # increasing in c on both sides: -(log survival - log t) below 1/2,
        # log CDF - log(1 - t) above
        return sign * (_log_tail(model, c, sign[:, None]) - target)

    return find_root(gap, (c_k.min(axis=1) - pad, c_k.max(axis=1) + pad), args=(sign, target)).x


def sample_from(
    model: GmmModel,
    n: int,
    rng: np.random.Generator,
    tag: PopulationTag = PopulationTag.NON_DISEASED,
) -> ScoreSample:
    """Draw n scores: component index from categorical(weights), then normal.

    Deterministic given the generator state; the caller owns the stream.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 draws, got {n}")
    comp = rng.choice(model.k, size=n, p=model.weights)
    draws = model.means[comp] + model.sigmas[comp] * rng.standard_normal(n)
    return ScoreSample(draws, tag, "simulated")

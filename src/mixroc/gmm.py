"""Univariate Gaussian mixture modelling.

EM estimation with deterministic-given-seed restarts, BIC model-order
selection, density/survival evaluation, survival inversion and random
sampling. The likelihood of a univariate mixture is unbounded, so every
variance is clamped to a floor derived from the data range. The tail
functions (`survival`, `survival_inverse`, and so `functional_roc`) take
log Phi and Phi^{-1} from `scipy.special`, imported at their first call,
so fitting and sampling load no `scipy.special`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .datasets import PopulationTag, ScoreSample, _check_fit_range

WEIGHT_SUM_TOL = 1e-12
EM_TOL = 1e-8  # EM stops when |ll - previous E-step's ll| <= EM_TOL * (1 + |ll|)
# values per batch of EM restarts, where a restart holds n * k of them: keeps the working
# memory of fit_em near one restart's whatever n_restarts is (5 restarts at K=5 batch
# together up to n = 2621; at larger n * k a batch holds fewer, down to one)
_BLOCK_VALUES = 2**16
_FLOAT_MIN = np.finfo(float).min


@dataclass(frozen=True)
class GmmModel:
    """A fitted univariate Gaussian mixture.

    Attributes
    ----------
    weights, means, variances : arrays of length k
        Mixing proportions (positive, summing to one), component means and
        component variances.
    log_likelihood : float
        Training log-likelihood of the returned parameters; -inf marks a fit whose every
        restart starved (see :func:`fit_em`).
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
    """EM and model-selection settings: K cap, iteration cap, restarts, seed.

    A restart stops at the first E-step whose log-likelihood ll is within :data:`EM_TOL` *
    (1 + |ll|) of the E-step before it, or after `max_iter` M-steps, so its trace holds one
    E-step more than its M-steps; one that starves a component first stops with
    log-likelihood -inf, the one way a restart fails (see :func:`fit_em`). Variances are
    floored at 1e-6 * (sample range)^2. Restart r at K components draws its centers from its
    own stream (population, K, r), so adding a K or a restart changes no other. The restarts
    of one K run together as the rows of one (R, k, n) array, each stopping on its own, with
    results identical to running them one by one; the restarts of several samples of one
    size share those rows, as a balanced study's two populations do in `mg_pipeline`, and
    samples of different sizes never share a call. Each E-step reuses the squared deviations
    of the M-step before it, and the whole loop runs under one errstate, owned by the EM
    kernel. EM keeps one log-likelihood per restart and E-step run; nothing is sized from
    `max_iter`, which is unbounded. `seed` lies in [0, 2**128).
    """

    k_max: int = 5
    max_iter: int = 500
    n_restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
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


def _initial_params(x, k, floor, rng):
    """Centers drawn from the data without replacement, so they follow the sample density;
    equal weights and each center's within-cluster variance."""
    centers = np.sort(rng.choice(x, size=k, replace=False))
    # nearest-center assignment; per-cluster variance (0 if empty) clamped to the floor
    owner = np.argmin(np.abs(x[:, None] - centers[None, :]), axis=1)
    sq_dist = np.bincount(owner, (x - centers[owner]) ** 2, minlength=k)
    within = sq_dist / np.maximum(np.bincount(owner, minlength=k), 1)
    variances = np.maximum(within, floor)
    weights = np.full(k, 1.0 / k)
    return weights, centers, variances


def _log_sum_exp(a):
    """log(sum(exp(a), axis=-2)) shifted by each column's max; a column of -inf gives -inf
    through log(0), so the caller's errstate ignores "divide"."""
    top = np.maximum(np.maximum.reduce(a, axis=-2, keepdims=True), _FLOAT_MIN)
    return (top + np.log(np.add.reduce(np.exp(a - top), axis=-2, keepdims=True))).squeeze(-2)


def _log_components(x, weights, means, variances, sq=None):
    """(..., k, n) array of log(pi_k * phi(x | mu_k, var_k)) for (..., k) parameters, or for
    (..., k, 1) ones and sq = (x - means) ** 2, as EM passes them. A huge |x - mu| squares to
    inf, whose density is 0, so the caller's errstate ignores "over"."""
    if sq is None:
        weights, means, variances = (p[..., None] for p in (weights, means, variances))
        sq = (x - means) ** 2
    return np.log(weights) - 0.5 * (np.log(2.0 * np.pi * variances) + sq / variances)


def _em_restarts(x, k, config, floor, rngs):
    """EM from one initial state per generator, each on its own row of data, all stepped
    together on (R, k, n) arrays; returns (R, k) weights, means and variances, (R,) ll and one
    trace per generator, in order. `x` broadcasts to (R, n) and `floor` to (R,): restart r
    fits the centred row x[r] with variance floor floor[r], so the restarts of one sample
    pass one row and one floor.

    Each restart runs at most `config.max_iter` M-steps, each between two E-steps, so ll is
    of the returned parameters and the trace holds the log-likelihood at each E-step, one more
    than the M-steps; EM keeps it non-decreasing. The only convergence state is the traces: a
    restart stops at the first E-step whose ll is within EM_TOL * (1 + |ll|) of the one before,
    or at `max_iter`. Else an E-step that leaves a component less than one observation of
    responsibility mass has starved the restart, a step toward a degenerate fit (the likelihood
    is unbounded): it stops there with that E-step's parameters and ll = -inf. Both tests run
    on Python floats, which compare as the arrays' doubles do. Rows leave the batch at one
    point per iteration, and the reductions below round as the one-restart forms do, so every
    result is bit-identical to running the restarts one by one. Parameters are (R, k, 1)
    columns; the M-step's squared deviations (x - mu) ** 2 are the next E-step's, and one
    errstate around the loop serves `_log_components` and `_log_sum_exp`. Each generator is
    read only for its restart's initial centers.
    """
    restarts = len(rngs)
    x = np.broadcast_to(x, (restarts, np.shape(x)[-1]))
    floor = np.broadcast_to(floor, (restarts,))
    n = x.shape[1]
    weights, means, variances = (np.array(p)[..., None] for p in zip(
        *(_initial_params(row, k, f, rng) for row, f, rng in zip(x, floor, rngs))))
    params, ll_out = np.empty((3, restarts, k, 1)), np.empty(restarts)
    traces = [[] for _ in rngs]
    live = np.arange(restarts)  # batch row -> restart
    floor, x_row, x_col = floor[:, None, None], x[:, None, :], x[:, :, None]
    with np.errstate(over="ignore", divide="ignore"):
        sq = (x_row - means) ** 2
        for it in range(config.max_iter + 1):
            log_comp = _log_components(x_row, weights, means, variances, sq)
            log_norm = _log_sum_exp(log_comp)
            ll = np.add.reduce(log_norm, axis=-1).tolist()
            resp = np.exp(log_comp - log_norm[:, None])
            nk = np.add.reduce(resp, axis=-1, keepdims=True)
            done = []
            for row, (r, value, mass) in enumerate(zip(live.tolist(), ll, nk[..., 0].tolist())):
                trace = traces[r]
                trace.append(value)
                if it == config.max_iter or (
                        it and abs(value - trace[-2]) <= EM_TOL * (1.0 + abs(value))):
                    ll_out[r] = value
                elif min(mass) < 1.0:  # mass below 1/n_train of the data
                    ll_out[r] = -np.inf
                else:
                    continue
                done.append(row)
            if done:
                params[:, live[done]] = weights[done], means[done], variances[done]
                if len(done) == live.size:
                    break
                keep = [row for row in range(live.size) if row not in done]
                live, resp, nk, floor, x_row, x_col = (
                    a[keep] for a in (live, resp, nk, floor, x_row, x_col))
            # these reduction forms round as the (k, n) sum(axis=1), resp @ x, einsum("kn,kn->k")
            # do: resp @ x_col is one matrix-vector product per row
            means = resp @ x_col / nk
            sq = (x_row - means) ** 2
            variances = np.maximum(np.einsum("rkn,rkn->rk", resp, sq)[..., None] / nk, floor)
            weights = nk / n
    return *params[..., 0], ll_out, traces


def _fit_em_many(samples: list[ScoreSample], k: int, config: EmConfig):
    """Fit k components by EM to each of several samples of one size n, as :func:`fit_em`
    fits one; returns one (model, traces) pair per sample, in order.

    Restart r of every sample is a row of `_em_restarts`, with that sample's centred scores,
    its floor and its stream (population, k, r); the rows of all samples run together, at
    most `_BLOCK_VALUES // (n * k)` to a call. A row leaves its batch on its own and reduces
    as a one-row call does, so each result is bit-identical to fitting its sample alone.
    Samples of different n do not share a call: padding them to one n would move the
    summation grouping.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = len(samples[0])
    if k > n:
        raise ValueError(f"k={k} exceeds the sample size {n}")
    for sample in samples:
        _check_fit_range(sample)
    xs = [np.asarray(sample.scores, dtype=float) for sample in samples]
    # floors of the raw scores, so a constant population keeps its floor; EM runs on scores
    # centred at x[n // 2], whose sums cannot overflow
    floors = np.array([_effective_floor(x) for x in xs])
    shifts = [x[n // 2] for x in xs]
    centred = np.array([x - shift for x, shift in zip(xs, shifts)])
    restarts = config.n_restarts
    rngs = [_stream(config.seed, int(sample.population_tag is PopulationTag.DISEASED), k, r)
            for sample in samples for r in range(restarts)]
    owner = np.arange(len(rngs)) // restarts  # row -> sample
    batch = max(1, _BLOCK_VALUES // (n * k))
    *arrays, traces = zip(*(
        _em_restarts(centred[owner[rows]], k, config, floors[owner[rows]], rngs[rows])
        for rows in (slice(start, start + batch) for start in range(0, len(rngs), batch))))
    weights, means, variances, ll = (np.concatenate(a) for a in arrays)
    traces = [trace for part in traces for trace in part]
    fits = []
    for first, shift in zip(range(0, len(rngs), restarts), shifts):
        best = first + int(np.argmax(ll[first:first + restarts]))  # the first of the highest
        order = np.argsort(means[best])  # canonical component order
        model = GmmModel(weights[best, order], means[best, order] + shift,
                         variances[best, order], log_likelihood=float(ll[best]), n_train=n)
        fits.append((model, traces[first:first + restarts]))
    return fits


def fit_em(
    sample: ScoreSample,
    k: int,
    config: EmConfig = EmConfig(),
    return_trace: bool = False,
):
    """Fit a k-component mixture by EM, best of `config.n_restarts` runs.

    Restart r draws its initial centers from the stream (population, k, r) of
    `config.seed`, sets the weights to N_k / n at each M-step and stops as
    :class:`EmConfig` says; one that starves a component (responsibility mass
    below one observation) ends with log-likelihood -inf. The restarts run together
    as one array, in batches of at most :data:`_BLOCK_VALUES` values, each stopping
    on its own; the results are identical to running them one by one. This is the
    one-sample case of the fit that steps the restarts of several same-size samples
    in one array, as `mg_pipeline` fits a balanced study's two populations.

    Returns the :class:`GmmModel` of the first restart with the highest
    final log-likelihood, -inf if every restart starved. No restart ends NaN:
    the fit range rule keeps every squared standardised distance at most 1e6, so
    every log-density is finite, and a restart stops before any M-step that
    would divide by a mass N_k below one.
    With `return_trace` also every restart's log-likelihood trace, one entry
    per E-step, monotone from its first.
    """
    model, traces = _fit_em_many([sample], k, config)[0]
    return (model, traces) if return_trace else model


def bic(model: GmmModel) -> float:
    """Bayesian information criterion with 3K - 1 free parameters; +inf for a starved fit."""
    n_params = 3 * model.k - 1
    return -2.0 * model.log_likelihood + n_params * np.log(model.n_train)


def _select_k_many(samples: list[ScoreSample], config: EmConfig) -> list[GmmModel]:
    """:func:`select_k` of each sample, in order: the samples of one size share one
    `_fit_em_many` call per K, so a balanced study's two populations make one EM loop per K,
    and each model is bit-identical to its own `select_k` call."""
    for sample in samples:  # the first sample out of range raises, as one call each would
        _check_fit_range(sample)
    groups: dict[int, list[int]] = {}
    for index, sample in enumerate(samples):
        groups.setdefault(len(sample), []).append(index)
    models = [None] * len(samples)
    for n, members in groups.items():
        k_top = min(config.k_max, max(1, n // 3))
        fits = [_fit_em_many([samples[i] for i in members], k, config)
                for k in range(1, k_top + 1)]
        for j, i in enumerate(members):
            models[i] = min((fit[j][0] for fit in fits), key=bic)
    return models


def select_k(sample: ScoreSample, config: EmConfig = EmConfig()) -> GmmModel:
    """Fit each K in [1, min(k_max, max(1, n // 3))] and return the BIC minimizer.

    The cap keeps the 3K - 1 free parameters below n. Ties break toward smaller K; a starved
    fit's BIC is +inf, so it never wins: the one component at K=1 holds all n >= 2 scores,
    never starves and has a finite BIC. Each restart of each K draws from its own stream, so
    adding a K or a restart never changes the other fits. This is the one-sample case of the
    selector that fits several same-size samples as rows of one EM call per K.
    """
    return _select_k_many([sample], config)[0]


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
    with np.errstate(over="ignore", divide="ignore"):  # a far x has density 0, log density -inf
        return np.exp(_log_sum_exp(_log_components(x, model.weights, model.means,
                                                   model.variances)))


@_elementwise
def survival(model: GmmModel, c):
    """Upper-tail probability P(X > c) = sum_k pi_k * Q((c - mu_k)/sigma_k), elementwise."""
    return np.exp(_log_tail(model, c, -1.0))


def _log_tail(model: GmmModel, c: NDArray[np.float64], sign) -> NDArray[np.float64]:
    """log P(X <= c) where sign is +1 and log P(X > c) where it is -1.

    `sign` is a scalar or a row with one entry per point of c. Phi(-z) = Q(z),
    so both tails come from log Phi with full relative accuracy however small they are.
    """
    from scipy.special import log_ndtr  # the tail functions alone pay scipy.special's import

    z = (c - model.means[:, None]) / model.sigmas[:, None]
    log_comp = log_ndtr(sign * z) + np.log(model.weights)[:, None]
    with np.errstate(divide="ignore"):  # log(0) of a column of -inf: a tail of 0
        return _log_sum_exp(log_comp)


def _chandrupatla(gap, x1, x2):
    """Roots of the increasing elementwise `gap` in the brackets [x1, x2], all points together,
    by Chandrupatla's method (Adv. Eng. Software 28:145, 1997): inverse quadratic interpolation
    where it is safe, else bisection. `gap(c, at)` gets the indices `at` of the points of c.
    A point stops when its gap is 0 (at most the smallest normal float) or its bracket is
    narrower than 4 eps |c| + 4 tiny, at the bracket end of smaller |gap|: the steps and the
    default stopping rule of SciPy's elementwise root finder."""
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    root, at = np.empty_like(x1), np.arange(x1.size)
    f1, f2 = gap(x1, at), gap(x2, at)
    x3, f3 = x2, f2  # x3 == x2 makes the first step a bisection
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 where a step bisects
        while True:
            small = np.abs(f1) < np.abs(f2)
            best = np.where(small, x1, x2)
            tol = 4.0 * eps * np.abs(best) + 4.0 * tiny
            go = (np.abs(np.where(small, f1, f2)) > tiny) & (np.abs(x2 - x1) >= tol)  # NaN stops
            root[at[~go]] = best[~go]
            if not go.any():
                return root
            margin = 0.5 * tol / np.abs(x2 - x1)  # keeps a step at least tol / 2 inside
            at, x1, x2, x3, f1, f2, f3, margin = (
                v[go] for v in (at, x1, x2, x3, f1, f2, f3, margin))
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            quadratic = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            t = np.where(quadratic, f1 / (f1 - f2) * f3 / (f3 - f2)
                         - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3), 0.5)
            x = x1 + np.clip(t, margin, 1.0 - margin) * (x2 - x1)
            f = gap(x, at)
            kept = np.sign(f) == np.sign(f1)  # x has x1's sign: x1 is dropped, else x2 is
            x3, f3 = np.where(kept, x1, x2), np.where(kept, f1, f2)
            x2, f2 = np.where(kept, x2, x1), np.where(kept, f2, f1)
            x1, f1 = x, f


@_elementwise
def survival_inverse(model: GmmModel, t):
    """Threshold c with survival(model, c) = t, for every t in (0, 1).

    A scalar t gives a float; an array gives an array of its shape. Each
    root lies in the analytic bracket [min_k c_k, max_k c_k] with
    c_k = mu_k - sigma_k * Phi^{-1}(t), where every component survival is
    at least (at the left end) or at most (at the right end) t. All points
    are solved together by Chandrupatla's bracketed method on the
    smaller tail in log space, log P(X > c) against log t for t <= 1/2 and
    log P(X <= c) against log(1 - t) above. A point stops once its bracket
    reaches float resolution in c, or its gap is 0. The round trip is
    therefore accurate relative to min(t, 1 - t): to a few 1e-14 for t
    down to 1e-12 and to 1e-12 down to 1e-300 on well-conditioned mixtures;
    near a variance-floor spike it is limited by the spacing of floats in c.
    A model whose bracket has an end or a width beyond the largest float is refused.
    """
    from scipy.special import ndtri  # the bracket's pad covers ndtri's rounding, not AS241's

    inside = (t > 0.0) & (t < 1.0)
    if not np.all(inside):
        raise ValueError(f"t must be inside (0, 1), got {t[~inside][0]}")
    with np.errstate(over="ignore"):  # an end or a width beyond the largest float is refused
        spread = model.sigmas[None, :] * ndtri(t)[:, None]
        c_k = model.means[None, :] - spread
        # a few ulps of the largest term in mu_k - sigma_k * z cover its rounding
        pad = 4.0 * np.finfo(float).eps * np.max(np.abs(model.means) + np.abs(spread), axis=1)
        lo, hi = c_k.min(axis=1) - pad, c_k.max(axis=1) + pad
        if not np.all(np.isfinite(hi - lo)):
            raise ValueError("the model's root bracket leaves the float range; rescale the scores")
    upper = t > 0.5
    sign = np.where(upper, 1.0, -1.0)
    target = np.where(upper, np.log1p(-t), np.log(t))

    def gap(c, at):
        # increasing in c on both sides: -(log survival - log t) below 1/2,
        # log CDF - log(1 - t) above
        return sign[at] * (_log_tail(model, c, sign[at]) - target[at])

    return _chandrupatla(gap, lo, hi)


def _mixture_draws(model: GmmModel, u: NDArray[np.float64], z: NDArray[np.float64]):
    """Mixture scores from uniforms u and standard normals z of one shape: the component
    #{j < k-1 : cdf_j <= u}, on the cdf normalised as `Generator.choice` normalises it."""
    cdf = model.weights.cumsum()
    cdf /= cdf[-1]
    comp = np.zeros(u.shape, dtype=np.intp)
    for c in cdf[:-1]:
        comp += u >= c
    return model.means[comp] + model.sigmas[comp] * z


def sample_from(model: GmmModel, n: int, rng: np.random.Generator) -> NDArray[np.float64]:
    """Draw n scores, unsorted in draw order: n uniforms pick the components, then n normals.

    Deterministic given the generator state; the caller owns the stream. Bit for bit
    `choice(k, n, p=weights)`, then `standard_normal(n)`.
    """
    return _mixture_draws(model, rng.random(n), rng.standard_normal(n))

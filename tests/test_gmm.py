"""Gaussian mixture fitting, evaluation, inversion and sampling."""

import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp, ndtr, ndtri

from mixroc import ensemble, gmm
from mixroc.datasets import (
    DatasetError, PopulationTag, ScoreSample, from_arrays, load_dataset, make_refined_grid,
    make_uniform_grid,
)
from mixroc.ensemble import MgConfig, mg_pipeline
from mixroc.gmm import (
    EmConfig,
    GmmModel,
    bic,
    fit_em,
    pdf,
    sample_from,
    select_k,
    survival,
    survival_inverse,
)
from mixroc.roc import functional_roc

DATA = str(Path(__file__).resolve().parent.parent / "data" / "wieand_pancreatic.csv")
TOP = np.finfo(float).max


def sample_of(values):
    return ScoreSample(values, PopulationTag.NON_DISEASED)


# a K=4 fit to the CA 125 controls (log-likelihood -177.03) whose last component
# sits on the variance floor 1e-6 * range^2 over one observation: a hostile model
CA125_CONTROLS = GmmModel(
    [0.7257448368421282, 0.2154318288889437, 0.0392154911316733, 0.0196078431372549],
    [10.320299163294631, 31.547749903454793, 102.55003137133548, 179.0],
    [10.123143936706988, 160.34901898868912, 40.322499999967775, 0.030102249999999997])
# a spike of variance 1e-6 beside components with means 6e3 apart
SPIKE_WIDE_SPREAD = GmmModel([0.3, 0.2, 0.2, 0.2, 0.1], [-3e3, -1.0, 0.0, 2e2, 3e3],
                             [1e-6, 1.0, 4.0, 1e2, 1e4])


def scalar_em(x, k, config, floor, rng):
    """One EM restart as a plain loop on (k, n) arrays: the reference for the batched kernel.

    Returns (weights, means, variances, ll, ll_trace). At most max_iter M-steps, each between
    two E-steps; the restart stops at the first E-step whose ll is within EM_TOL * (1 + |ll|)
    of the one before, and a starving E-step ends it with that E-step's parameters and -inf.
    """
    n = x.size
    weights, means, variances = gmm._initial_params(x, k, floor, rng)
    trace = []
    for it in range(config.max_iter + 1):
        log_comp = gmm._log_components(x, weights, means, variances)
        log_norm = gmm._log_sum_exp(log_comp)
        ll = float(np.sum(log_norm))
        trace.append(ll)
        if it == config.max_iter or (it and abs(ll - trace[-2]) <= gmm.EM_TOL * (1.0 + abs(ll))):
            break
        resp = np.exp(log_comp - log_norm)
        nk = resp.sum(axis=1)
        if np.any(nk < 1.0):
            return weights, means, variances, -np.inf, trace
        means = resp @ x / nk
        variances = np.maximum(
            np.einsum("kn,kn->k", resp, (x - means[:, None]) ** 2) / nk, floor)
        weights = nk / n
    return weights, means, variances, ll, trace


def scalar_fit(sample, k, config):
    """fit_em's best-of-restarts rule over :func:`scalar_em` runs on the same streams, on the
    scores centred at x[n // 2] with the floor of the raw scores."""
    x = np.asarray(sample.scores, dtype=float)
    floor, shift = gmm._effective_floor(x), x[x.size // 2]
    population = int(sample.population_tag is PopulationTag.DISEASED)
    runs = [scalar_em(x - shift, k, config, floor, gmm._stream(config.seed, population, k, r))
            for r in range(config.n_restarts)]
    w, mu, var, ll, _ = max(runs, key=lambda run: run[3])
    order = np.argsort(mu)
    return GmmModel(w[order], mu[order] + shift, var[order], ll, x.size), runs


def assert_matches_scalar(data, k, config):
    """Assert fit_em's model and traces equal :func:`scalar_fit`'s; return the scalar runs."""
    sample = sample_of(data)
    model, traces = fit_em(sample, k, config, return_trace=True)
    ref, runs = scalar_fit(sample, k, config)
    for field in ("weights", "means", "variances", "log_likelihood"):
        assert np.array_equal(getattr(model, field), getattr(ref, field))
    assert len(traces) == len(runs) == config.n_restarts
    for trace, run in zip(traces, runs):
        assert np.array_equal(trace, run[4])
    return runs


def random_mixture(rng, k_max=4):
    """A random well-formed mixture for property checks."""
    k = int(rng.integers(1, k_max + 1))
    w = rng.dirichlet(np.ones(k) * 2.0)
    mu = rng.uniform(-5, 5, k)
    var = rng.uniform(0.05, 4.0, k)
    return GmmModel(w, mu, var)


class TestFitEm:
    def test_k1_is_closed_form_moment_match(self):
        rng = np.random.default_rng(10)
        data = rng.normal(3.0, 2.0, 200)
        model = fit_em(sample_of(data), 1)
        floor = 1e-6 * (data.max() - data.min()) ** 2
        assert model.k == 1
        assert model.weights[0] == 1.0
        np.testing.assert_allclose(model.means[0], data.mean(), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            model.variances[0], max(data.var(), floor), rtol=1e-13, atol=0
        )

    def test_two_component_recovery(self):
        rng = np.random.default_rng(7)
        data = np.concatenate([rng.normal(-3, 1, 250), rng.normal(3, 1, 250)])
        model = fit_em(sample_of(data), 2, EmConfig(seed=0))
        assert np.all(np.abs(np.sort(model.means) - [-3.0, 3.0]) < 0.3)
        assert np.all(np.abs(model.weights - 0.5) < 0.1)

    def test_k_exceeds_sample_size(self):
        with pytest.raises(ValueError, match="exceeds"):
            fit_em(sample_of([1.0, 2.0, 3.0]), 5)

    def test_k_below_one(self):
        with pytest.raises(ValueError):
            fit_em(sample_of([1.0, 2.0]), 0)

    def test_loglik_trace_monotone(self):
        rng = np.random.default_rng(3)
        data = np.concatenate([rng.normal(0, 1, 120), rng.normal(4, 0.5, 80)])
        _, traces = fit_em(sample_of(data), 3, EmConfig(seed=1), return_trace=True)
        for trace in traces:
            assert np.all(np.diff(trace) >= -1e-9)

    def test_starved_restarts_fail(self):
        # every restart at K=3 starves a component on these 30 scores
        sample = sample_of(np.random.default_rng(34).normal(0, 1, 30))
        config = EmConfig(seed=0, n_restarts=3)
        model, traces = fit_em(sample, 3, config, return_trace=True)
        assert model.log_likelihood == -np.inf and bic(model) == np.inf
        for trace in traces:  # each stops at the starving E-step, monotone up to there
            assert len(trace) < config.max_iter + 1
            assert np.all(np.diff(trace) >= 0.0)
        assert np.isfinite(bic(select_k(sample, config)))

    def test_surviving_restart_wins(self):
        # restarts 0 and 1 starve at K=3 on these 30 scores, restart 2 does not
        sample = sample_of(np.random.default_rng(0).normal(0, 1, 30))
        lls = [fit_em(sample, 3, EmConfig(seed=0, n_restarts=r)).log_likelihood for r in (1, 2, 3)]
        assert lls[:2] == [-np.inf, -np.inf] and np.isfinite(lls[2])
        assert fit_em(sample, 3, EmConfig(seed=0, n_restarts=3)).log_likelihood == lls[2]

    @pytest.mark.parametrize("scores", [[0.0, 1.0, 1e200], [-1e308, 0.0, 1e308],
                                        [1e-300, 2e-300, 3e-300]],
                             ids=["1e200", "overflow", "1e-300"])
    def test_range_beyond_float_squares_rejected(self, scores):
        with pytest.raises(DatasetError, match=r"score range .* is outside \[1e-150, 1e150\]"):
            fit_em(sample_of(scores), 1)

    @pytest.mark.parametrize("scores", [[0.0, 0.5, 1e150], [0.0, 0.5e-150, 1e-150], [1e200] * 3],
                             ids=["largest", "smallest", "zero"])
    def test_range_at_bounds_or_zero_fits(self, scores):
        with np.errstate(all="raise"):
            model = fit_em(sample_of(scores), 1)
        assert np.isfinite(model.log_likelihood) and np.all(model.variances > 0.0)

    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_max_iter_counts_m_steps(self, max_iter):
        # well separated: no restart starves, so each runs all max_iter M-steps
        rng = np.random.default_rng(3)
        data = np.concatenate([rng.normal(0, 1, 120), rng.normal(6, 0.5, 80)])
        config = EmConfig(max_iter=max_iter, n_restarts=3, seed=1)
        _, traces = fit_em(sample_of(data), 2, config, return_trace=True)
        assert [len(trace) for trace in traces] == [max_iter + 1] * 3

    @pytest.mark.parametrize("max_iter", [1, 2, 500])
    def test_log_likelihood_is_of_returned_params(self, max_iter):
        rng = np.random.default_rng(3)
        data = np.concatenate([rng.normal(0, 1, 120), rng.normal(4, 0.5, 80)])
        model = fit_em(sample_of(data), 3, EmConfig(max_iter=max_iter, seed=1))
        assert model.log_likelihood == pytest.approx(np.sum(np.log(pdf(model, data))), rel=1e-12)

    @pytest.mark.parametrize("restart", [0, 1, 2])
    def test_initial_variances_are_per_cluster_means(self, restart):
        # heavy ties: a repeated center leaves the second copy an empty cluster
        x = np.sort(np.random.default_rng(12).integers(0, 4, 40).astype(float) ** 3)
        floor = gmm._effective_floor(x)
        for k in (1, 3, 5):
            _, centers, variances = gmm._initial_params(x, k, floor, np.random.default_rng(restart))
            owner = np.argmin(np.abs(x[:, None] - centers[None, :]), axis=1)
            ref = [max(np.mean((x[owner == j] - c) ** 2) if np.any(owner == j) else 0.0, floor)
                   for j, c in enumerate(centers)]
            np.testing.assert_allclose(variances, ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("data, k, config", [
        # restarts converge after 11 to 26 M-steps
        (np.concatenate([np.random.default_rng(3).normal(0, 1, 120),
                         np.random.default_rng(4).normal(4, 0.5, 80)]), 2, EmConfig(seed=1)),
        # restarts 0 and 1 starve mid-batch, restart 2 runs on to max_iter
        (np.random.default_rng(0).normal(0, 1, 30), 3, EmConfig(seed=0, n_restarts=3)),
        (np.random.default_rng(34).normal(0, 1, 30), 3, EmConfig(seed=0, n_restarts=3)),
        (np.random.default_rng(3).normal(0, 1, 200), 3, EmConfig(max_iter=1, seed=1)),
        (np.random.default_rng(3).normal(0, 1, 200), 3, EmConfig(max_iter=2, seed=1)),
        (np.random.default_rng(10).normal(3, 2, 200), 1, EmConfig()),
        (np.array([0.0, 1.0]), 2, EmConfig()),
        (np.random.default_rng(12).integers(0, 4, 40).astype(float) ** 3, 3, EmConfig(seed=0)),
    ], ids=["staggered", "two-starve", "all-starve", "max-iter-1", "max-iter-2", "k1", "n2",
            "ties"])
    def test_batched_restarts_match_scalar_loop(self, data, k, config):
        assert_matches_scalar(data, k, config)

    def test_batched_restarts_match_scalar_loop_on_random_cases(self):
        # 40 small cases; in some, one restart converges at the E-step where another starves,
        # and the kernel retires both in the same exit
        rng = np.random.default_rng(12)
        coincident = 0
        for case in range(40):
            n, k, max_iter = (int(rng.integers(lo, hi)) for lo, hi in ((5, 61), (1, 5), (1, 41)))
            data = (rng.normal(0.0, 1.0, n), rng.integers(0, 5, n).astype(float),
                    rng.lognormal(0.0, 1.5, n))[case % 3]
            config = EmConfig(max_iter=max_iter, n_restarts=5, seed=case)
            runs = assert_matches_scalar(data, k, config)
            ends = {(len(run[4]), run[3] == -np.inf) for run in runs}
            coincident += any((steps, not starved) in ends for steps, starved in ends)
        assert coincident >= 1

    def test_a_restart_stopping_as_it_starves_stops(self):
        # at the defaults every restart starves, restart 0 last, at its 38th E-step; with
        # max_iter=37 that E-step is also its last, and a restart that stops does not starve
        data = np.random.default_rng(34).normal(0, 1, 30)
        config = EmConfig(seed=0, n_restarts=3, max_iter=37)
        model, traces = fit_em(sample_of(data), 3, config, return_trace=True)
        assert [len(trace) for trace in traces] == [38, 5, 35]
        assert np.isfinite(model.log_likelihood)
        assert_matches_scalar(data, 3, config)

    def test_batching_leaves_restarts_independent(self, monkeypatch):
        # K=3 restarts of unequal length: 0 and 1 starve, 2 runs to max_iter
        data = np.random.default_rng(0).normal(0, 1, 30)
        model, traces = fit_em(sample_of(data), 3, EmConfig(seed=0, n_restarts=5),
                               return_trace=True)
        assert len({len(trace) for trace in traces}) == 5
        for r in range(5):
            _, head = fit_em(sample_of(data), 3, EmConfig(seed=0, n_restarts=r + 1),
                             return_trace=True)
            assert all(np.array_equal(a, b) for a, b in zip(head, traces[: r + 1], strict=True))
        for rows in (1, 2, 5):
            # restarts per batch = _BLOCK_VALUES // (n * k)
            monkeypatch.setattr(gmm, "_BLOCK_VALUES", rows * data.size * 3)
            again, again_traces = fit_em(sample_of(data), 3, EmConfig(seed=0, n_restarts=5),
                                         return_trace=True)
            for field in ("weights", "means", "variances", "log_likelihood"):
                assert np.array_equal(getattr(again, field), getattr(model, field))
            assert all(np.array_equal(a, b) for a, b in zip(again_traces, traces, strict=True))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        data = rng.normal(0, 1, 150)
        a = fit_em(sample_of(data), 2, EmConfig(seed=9))
        b = fit_em(sample_of(data), 2, EmConfig(seed=9))
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.variances, b.variances)


class TestSelectK:
    CFG = EmConfig(k_max=4, n_restarts=2, max_iter=150)

    def test_single_gaussian_prefers_k1(self):
        hits = 0
        trials = 100
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            data = rng.normal(0, 1, 1000)
            model = select_k(sample_of(data), EmConfig(
                k_max=4, n_restarts=2, max_iter=150, seed=seed))
            hits += model.k == 1
        assert hits >= 95, f"K=1 chosen only {hits}/100 times"

    def test_separated_bimodal_prefers_k2(self):
        rng = np.random.default_rng(21)
        data = np.concatenate([rng.normal(-4, 1, 500), rng.normal(4, 1, 500)])
        model = select_k(sample_of(data), self.CFG)
        assert model.k == 2

    @pytest.mark.parametrize("n", [2, 5])
    def test_k_capped_so_parameters_stay_below_n(self, n):
        # without the cap 2 scores took K=2 and 5 scores K=5, every variance on the floor
        assert select_k(sample_of(np.arange(float(n)))).k == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_no_floor_spike_on_ca125_controls(self, seed):
        # BIC must not win with a component of about one observation on the variance floor
        controls = load_dataset(DATA, score_col="ca125", label_col="status").non_diseased
        floor = gmm._effective_floor(controls.scores)
        model = select_k(controls, EmConfig(seed=seed))
        spike = (model.n_train * model.weights < 1.5) & (model.variances <= floor)
        assert not spike.any(), (model.weights, model.variances, floor)

    @pytest.mark.parametrize("n", [5, 10, 30, 100])
    @pytest.mark.parametrize("value", [1e150, 1e170, 1e200, 1e307])
    def test_constant_population_of_huge_scores_fits(self, value, n):
        # EM runs on scores centred at x[n // 2], so no M-step sum overflows; the floor is
        # 1e-12 * |x0| of the raw scores, and the mean is the score exactly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = select_k(sample_of(np.full(n, value)))
        assert model.k == 1 and model.means[0] == value
        assert model.variances[0] == 1e-12 * value

    def test_bic_formula(self):
        model = GmmModel([0.4, 0.6], [0.0, 1.0], [1.0, 2.0], log_likelihood=-100.0, n_train=50)
        assert bic(model) == pytest.approx(200.0 + 5 * np.log(50))


class TestPdf:
    def test_standard_normal_peak(self):
        model = GmmModel([1.0], [0.0], [1.0])
        assert pdf(model, 0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-12)

    def test_two_component_hand_value(self):
        model = GmmModel([0.5, 0.5], [-1.0, 1.0], [1.0, 1.0])
        phi1 = np.exp(-0.5) / np.sqrt(2 * np.pi)
        assert pdf(model, 0.0) == pytest.approx(phi1, abs=1e-12)

    def test_normalizes_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            model = random_mixture(rng)
            sig = np.sqrt(model.variances.max())
            lo = model.means.min() - 10 * sig
            hi = model.means.max() + 10 * sig
            total, _ = quad(lambda v: pdf(model, v), lo, hi, limit=200)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(23)
        model = random_mixture(rng)
        xs = rng.uniform(-20, 20, 200)
        assert np.all(pdf(model, xs) >= 0)

    def test_array_keeps_shape(self):
        model = GmmModel([0.5, 0.5], [0.0, 3.0], [1.0, 1.0])
        x = np.array([[0.0, 3.0], [1.0, 1.0]])
        out = pdf(model, x)
        assert isinstance(out, np.ndarray) and out.shape == x.shape
        for xi, oi in zip(x.ravel(), out.ravel()):
            assert oi == pdf(model, float(xi))


class TestSurvival:
    def test_symmetric_mixture_at_zero(self):
        model = GmmModel([0.5, 0.5], [-1.0, 1.0], [1.0, 1.0])
        assert survival(model, 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_standard_normal_upper_quantile(self):
        model = GmmModel([1.0], [0.0], [1.0])
        assert survival(model, 1.6449) == pytest.approx(0.05, abs=1e-4)

    def test_far_left_limit_is_total_mass(self):
        model = GmmModel([0.3, 0.7], [0.0, 2.0], [1.0, 0.5])
        c = model.means.min() - 40 * model.sigmas.max()
        assert survival(model, c) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            model = random_mixture(rng)
            cs = np.sort(rng.uniform(model.means.min() - 3, model.means.max() + 3, 50))
            vals = survival(model, cs)
            inside = (vals > 1e-12) & (vals < 1 - 1e-12)
            assert np.all(np.diff(vals[inside]) < 0)

    def test_matches_one_minus_pdf_integral(self):
        rng = np.random.default_rng(37)
        model = random_mixture(rng)
        sig = np.sqrt(model.variances.max())
        lo = model.means.min() - 12 * sig
        for c in rng.uniform(model.means.min() - 2, model.means.max() + 2, 20):
            mass, _ = quad(lambda v: pdf(model, v), lo, c, limit=200)
            assert survival(model, c) == pytest.approx(1.0 - mass, abs=1e-8)

    def test_array_keeps_shape(self):
        model = GmmModel([0.5, 0.5], [0.0, 3.0], [1.0, 1.0])
        c = np.array([[0.0, 3.0], [1.0, 1.0]])
        out = survival(model, c)
        assert isinstance(out, np.ndarray) and out.shape == c.shape
        for ci, oi in zip(c.ravel(), out.ravel()):
            assert oi == survival(model, float(ci))


class TestTailAccuracy:
    """pdf and survival against per-component closed forms, relative to the value."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(53)
        for model in [CA125_CONTROLS] + [random_mixture(rng) for _ in range(20)]:
            # +-35 sigma around every component: down to about 1e-268 in each tail
            x = np.linspace((model.means - 35 * model.sigmas).min(),
                            (model.means + 35 * model.sigmas).max(), 20001)
            yield model, x, (x[:, None] - model.means) / model.sigmas

    @staticmethod
    def assert_relative(got, ref):
        seen = ref > 1e-300
        assert np.max(np.abs(got[seen] - ref[seen]) / ref[seen]) <= 1e-11

    def test_pdf(self):
        for model, x, z in self.cases():
            ref = (np.exp(-0.5 * z**2) / (np.sqrt(2.0 * np.pi) * model.sigmas)) @ model.weights
            self.assert_relative(pdf(model, x), ref)

    def test_survival(self):
        for model, x, z in self.cases():
            self.assert_relative(survival(model, x), ndtr(-z) @ model.weights)

    def test_points_at_infinity(self):
        model = GmmModel([0.3, 0.7], [0.0, 2.0], [1.0, 0.5])
        with np.errstate(all="raise"):
            assert pdf(model, [-np.inf, -1e300, 1e300, np.inf]).tolist() == [0.0] * 4
            low, far_low, far_high, high = survival(model, [-np.inf, -1e300, 1e300, np.inf])
        # the total mass exp(log-sum-exp of log weights) is 1 to rounding
        assert low == pytest.approx(1.0, abs=4 * np.finfo(float).eps) and high == 0.0
        assert far_low == pytest.approx(1.0, abs=4 * np.finfo(float).eps) and far_high == 0.0


class TestLogSumExp:
    """The package's one log-sum-exp, with scipy's as the reference."""

    @pytest.mark.parametrize("kind", ["wide", "tied-max", "underflow"])
    def test_matches_scipy(self, kind):
        rng = np.random.default_rng(61)
        if kind == "wide":  # magnitudes from 1 to 1e3, either sign
            a = rng.choice([-1.0, 1.0], (200, 5)) * 10.0 ** rng.uniform(0.0, 3.0, (200, 5))
        elif kind == "tied-max":  # the row maximum repeats
            a = np.repeat(rng.uniform(-50.0, 50.0, (50, 1)), 4, axis=1)
            a[:, 3] -= rng.uniform(0.0, 5.0, 50)
        else:  # a naive exp underflows to 0 on every row
            a = -746.0 - rng.uniform(0.0, 20.0, (50, 4))
            assert np.all(np.exp(a).sum(axis=1) == 0.0)
        ref = logsumexp(a, axis=1)  # the package sums over axis -2: pass (k, rows)
        assert np.max(np.abs(gmm._log_sum_exp(a.T) - ref) / np.abs(ref)) <= 1e-13


class TestSurvivalInverse:
    def test_symmetry_at_half(self):
        model = GmmModel([1.0], [0.0], [1.0])
        assert survival_inverse(model, 0.5) == pytest.approx(0.0, abs=1e-9)

    def test_two_sided_quantile(self):
        model = GmmModel([1.0], [0.0], [1.0])
        assert survival_inverse(model, 0.025) == pytest.approx(1.9600, abs=1e-3)

    def test_round_trip(self):
        model = GmmModel([0.6, 0.4], [-2.0, 3.0], [1.5, 0.3])
        for t in np.arange(0.01, 1.0, 0.01):
            c = survival_inverse(model, float(t))
            assert abs(survival(model, c) - t) <= 1e-9

    def test_monotone(self):
        rng = np.random.default_rng(41)
        model = random_mixture(rng)
        ts = np.sort(rng.uniform(0.01, 0.99, 25))
        cs = [survival_inverse(model, float(t)) for t in ts]
        assert np.all(np.diff(cs) < 0)

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.2, 1.4])
    def test_domain(self, t):
        with pytest.raises(ValueError):
            survival_inverse(GmmModel([1.0], [0.0], [1.0]), t)

    def test_relative_round_trip_in_both_tails(self):
        rng = np.random.default_rng(99)
        edge = np.geomspace(1e-12, 0.5, 200)
        # 1 - t rounds to 1 below t = 1e-16, so the upper tail stops at 1 - 1e-12
        lower = np.r_[np.geomspace(1e-300, 1e-12, 100, endpoint=False), edge]
        upper = 1.0 - edge
        for _ in range(50):
            model = random_mixture(rng)
            c = survival_inverse(model, lower)
            assert np.max(np.abs(survival(model, c) - lower) / lower) <= 1e-9
            # the CDF directly: 1 - survival cannot resolve 1 - t near t = 1
            c = survival_inverse(model, upper)
            cdf = ndtr((c[:, None] - model.means) / model.sigmas) @ model.weights
            assert np.max(np.abs(cdf - (1.0 - upper)) / (1.0 - upper)) <= 1e-9

    @pytest.mark.parametrize("model", [SPIKE_WIDE_SPREAD, CA125_CONTROLS],
                             ids=["spike-wide-spread", "ca125-controls"])
    def test_hostile_models(self, model, monkeypatch):
        calls = []
        log_tail = gmm._log_tail
        monkeypatch.setattr(gmm, "_log_tail", lambda *a: calls.append(1) or log_tail(*a))
        edge = np.geomspace(1e-12, 0.5, 200)
        t = np.unique(np.concatenate([make_refined_grid().points[1:-1], edge, 1.0 - edge]))
        c = survival_inverse(model, t)
        assert np.all(np.isfinite(c))
        assert np.all(np.diff(c) <= 0.0)
        spread = model.sigmas * ndtri(t)[:, None]
        slack = 8.0 * np.finfo(float).eps * np.max(np.abs(model.means) + np.abs(spread), axis=1)
        c_k = model.means - spread
        assert np.all(c >= c_k.min(axis=1) - slack)
        assert np.all(c <= c_k.max(axis=1) + slack)
        # two bracket-end evaluations, then one per step: no cap stops the solve, it ends
        # once every bracket reaches float resolution in c, well inside this bound
        assert len(calls) < 200 + 2

    @pytest.mark.parametrize("means", [[TOP], [-TOP, TOP], [-0.6 * TOP, 0.6 * TOP]],
                             ids=["mean-at-max", "means-at-both-limits", "width-overflows"])
    def test_bracket_beyond_float_range_refused(self, means):
        # the last model's bracket ends are finite, but its width hi - lo overflows
        model = GmmModel(np.full(len(means), 1.0 / len(means)), means, np.ones(len(means)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="leaves the float range"):
                survival_inverse(model, np.linspace(0.1, 0.9, 5))

    def test_fit_at_float_limit_refused(self):
        controls = select_k(sample_of(np.full(5, TOP)))
        cases = select_k(ScoreSample(np.arange(1.0, 6.0), PopulationTag.DISEASED))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="leaves the float range"):
                functional_roc(controls, cases, make_uniform_grid(512))

    def test_matches_scipy_find_root(self, monkeypatch):
        # scipy's find_root, the solve the port replaced, on the same brackets and gap
        from scipy.optimize.elementwise import find_root

        solves = []
        solve = gmm._chandrupatla
        monkeypatch.setattr(gmm, "_chandrupatla", lambda *a: solves.append(a) or solve(*a))
        rng = np.random.default_rng(73)
        edge = np.geomspace(1e-12, 0.5, 200)
        t = np.unique(np.concatenate([make_refined_grid().points[1:-1], edge, 1.0 - edge]))
        models = [CA125_CONTROLS, SPIKE_WIDE_SPREAD] + [random_mixture(rng) for _ in range(20)]
        for model in models:
            c = survival_inverse(model, t)
            gap, lower, upper = solves.pop()
            ref = find_root(gap, (lower, upper), args=(np.arange(t.size),)).x
            assert np.all(np.abs(c - ref) <= 16 * np.spacing(np.abs(ref)))

    def test_array_keeps_shape(self):
        model = GmmModel([0.6, 0.4], [-2.0, 3.0], [1.5, 0.3])
        t = np.array([[0.1, 0.2, 0.3], [0.7, 0.8, 0.9]])
        c = survival_inverse(model, t)
        assert isinstance(c, np.ndarray) and c.shape == t.shape
        for ti, ci in zip(t.ravel(), c.ravel()):
            assert ci == survival_inverse(model, float(ti))

    def test_scalar_gives_float(self):
        assert type(survival_inverse(GmmModel([1.0], [0.0], [1.0]), 0.3)) is float

    def test_log_tail_takes_one_sign_per_point(self):
        # the solve passes sign as a row: each point gets the tail its own sign names
        rng = np.random.default_rng(67)
        for model in [CA125_CONTROLS] + [random_mixture(rng) for _ in range(10)]:
            c = np.r_[-np.inf, rng.uniform(-50.0, 250.0, 37), np.inf]
            sign = rng.choice([-1.0, 1.0], c.size)
            both = [gmm._log_tail(model, c, s) for s in (1.0, -1.0)]
            assert np.array_equal(gmm._log_tail(model, c, sign), np.where(sign > 0, *both))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, np.nan])
    def test_array_domain(self, bad):
        with pytest.raises(ValueError):
            survival_inverse(GmmModel([1.0], [0.0], [1.0]), np.array([0.2, bad, 0.6]))

    def test_strictly_decreasing_on_sorted_grid(self):
        rng = np.random.default_rng(43)
        t = make_refined_grid().points[1:-1]
        for _ in range(5):
            assert np.all(np.diff(survival_inverse(random_mixture(rng), t)) < 0.0)


class TestSampleFrom:
    def test_deterministic_given_stream(self):
        model = GmmModel([0.5, 0.5], [-1.0, 1.0], [1.0, 1.0])
        a = sample_from(model, 100, np.random.default_rng(4))
        b = sample_from(model, 100, np.random.default_rng(4))
        np.testing.assert_array_equal(a, b)

    def test_component_fractions(self):
        model = GmmModel([0.7, 0.3], [-50.0, 50.0], [1.0, 1.0])
        draws = sample_from(model, 100_000, np.random.default_rng(8))
        frac = np.mean(draws < 0)  # components are 100 sigma apart
        assert frac == pytest.approx(0.7, abs=0.01)

    def test_near_degenerate_component(self):
        floor = 1e-6
        model = GmmModel([1.0], [5.0], [floor])
        n = 10_000
        draws = sample_from(model, n, np.random.default_rng(15))
        assert abs(draws.mean() - 5.0) < 3 * np.sqrt(floor / n)


class TestModelValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GmmModel([0.5, 0.6], [0.0, 1.0], [1.0, 1.0])

    def test_weights_positive(self):
        with pytest.raises(ValueError):
            GmmModel([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])

    def test_variances_positive(self):
        with pytest.raises(ValueError):
            GmmModel([1.0], [0.0], [0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            GmmModel([1.0], [0.0, 1.0], [1.0])

    @pytest.mark.parametrize("build", [
        lambda: GmmModel([np.nan], [0.0], [1.0]),
        lambda: GmmModel([1.0], [np.nan], [1.0]),
        lambda: GmmModel([0.5, 0.5], [0.0, np.inf], [1.0, 1.0]),
        lambda: GmmModel([1.0], [0.0], [np.inf]),
        lambda: GmmModel.from_json_dict(json.loads(
            '{"weights": [1.0], "means": [NaN], "variances": [1.0], '
            '"log_likelihood": -1.0, "n_train": 10}')),
    ], ids=["nan-weight", "nan-mean", "inf-mean", "inf-variance", "json-nan"])
    def test_non_finite_rejected(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()

    def test_json_round_trip(self):
        model = GmmModel([0.25, 0.75], [-1.0, 2.0], [0.5, 1.5],
                         log_likelihood=-12.5, n_train=42)
        back = GmmModel.from_json_dict(json.loads(json.dumps(model.to_json_dict())))
        np.testing.assert_array_equal(back.weights, model.weights)
        np.testing.assert_array_equal(back.means, model.means)
        np.testing.assert_array_equal(back.variances, model.variances)
        assert back.log_likelihood == model.log_likelihood
        assert back.n_train == model.n_train


# shapes rescaled to the range [0, 1] (a constant one to 0), then scaled and shifted
CORNER_SHAPES = {
    "ties": lambda rng, n: rng.integers(0, 3, n) / 2.0,
    "two-point": lambda rng, n: rng.integers(0, 2, n).astype(float),
    "outlier": lambda rng, n: np.r_[rng.uniform(0.0, 1e-3, n - 1), 1.0],
}


@st.composite
def corner_fits(draw):
    """(scores, k, max_iter) at the corners of the fit range rule."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unit = CORNER_SHAPES[draw(st.sampled_from(sorted(CORNER_SHAPES)))](rng, n)
    unit = (unit - unit.min()) / (np.ptp(unit) or 1.0)
    centre = draw(st.sampled_from([0.0, 1e300, -1e300, 1e307, 5e-324]))
    spread = draw(st.sampled_from([0.0, 1e-150, 1e150]))
    return (centre + spread * unit, draw(st.integers(1, min(5, n))),
            draw(st.sampled_from([1, 2, 500])))


@given(corner_fits())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_em_restarts_never_end_nan(fit):
    # the range rule keeps every z^2 <= 1e6 and a restart stops before dividing by N_k < 1,
    # so a restart either starves (ll = -inf) or ends finite, and warns about nothing
    scores, k, max_iter = fit
    sample = sample_of(scores)
    gmm._check_fit_range(sample)
    x = sample.scores
    rngs = [gmm._stream(0, 0, k, r) for r in range(5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        *params, ll, traces = gmm._em_restarts(x - x[x.size // 2], k, EmConfig(max_iter=max_iter),
                                              gmm._effective_floor(x), rngs)
    assert np.all(np.isfinite(params))
    assert not np.any(np.isnan(ll))
    assert not np.any(np.isnan(np.concatenate(traces)))
    if k == 1:  # the one component holds every score, so no restart starves
        assert np.all(np.isfinite(ll))


def test_em_memory_does_not_grow_with_max_iter():
    # the log-likelihood history grows with the E-steps run, not with max_iter
    sample = sample_of(np.random.default_rng(0).normal(0.0, 1.0, 100))
    tracemalloc.start()
    try:
        fit_em(sample, 2, EmConfig(max_iter=10**6, n_restarts=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"{peak / 2**20:.2f} MB"


def test_every_stream_is_distinct(monkeypatch):
    # one stream per EM restart (population, K, restart) and per replicate,
    # also across seeds 0, 1000 and 500_000, which integer seed offsets would alias
    stream = gmm._stream
    made = {gmm: [], ensemble: []}  # initial states, by the module that made the stream

    for module, states in made.items():
        def recording_stream(seed, *key, states=states):
            rng = stream(seed, *key)
            states.append(rng.bit_generator.state["state"]["state"])
            return rng
        monkeypatch.setattr(module, "_stream", recording_stream)
    rng = np.random.default_rng(4)
    study = from_arrays(rng.normal(0.0, 1.0, 40), rng.normal(1.0, 1.0, 40))
    for seed in (0, 1000, 500_000):
        mg_pipeline(study, EmConfig(k_max=3, n_restarts=2, max_iter=5, seed=seed),
                    MgConfig(m=2, seed=seed, grid=make_uniform_grid(8)))
    em_states, replicate_states = made[gmm], made[ensemble]
    assert len(em_states) == 36 and len(set(em_states)) == 36
    assert len(replicate_states) == 6 and len(set(replicate_states)) == 6
    assert not set(replicate_states) & set(em_states)


class TestEmConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k_max=0),
            dict(k_max=-1),
            dict(max_iter=0),
            dict(n_restarts=0),
            dict(seed=-1),
            dict(seed=2**128),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            EmConfig(**kwargs)

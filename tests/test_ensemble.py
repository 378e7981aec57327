"""Monte Carlo ensemble engine: averaging, bands, determinism."""

import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from scipy.stats import beta, rankdata

from mixroc import ensemble, roc
from mixroc.datasets import (
    FprGrid,
    from_arrays,
    make_refined_grid,
    make_uniform_grid,
)
from mixroc.ensemble import MgConfig, mg_pipeline, run_mg
from mixroc.gmm import EmConfig, GmmModel, sample_from, survival, survival_inverse
from mixroc.roc import RocCurveGrid, auc_mann_whitney, auc_trapezoid, empirical_roc

GRID = make_uniform_grid(512)
F_STD = GmmModel([1.0], [0.0], [1.0])
G_SHIFT3 = GmmModel([1.0], [3.0], [1.0])


def small_config(**kwargs):
    defaults = dict(m=200, seed=11, grid=GRID, replicate_n_x=60, replicate_n_y=60)
    defaults.update(kwargs)
    return MgConfig(**defaults)


class TestConfigValidation:
    def test_m_below_two(self):
        with pytest.raises(ValueError, match="M=2"):
            MgConfig(m=1)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.7, -0.1])
    def test_alpha_range(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            MgConfig(alpha=alpha)

    def test_replicate_sizes(self):
        with pytest.raises(ValueError, match="replicate_n_x"):
            MgConfig(replicate_n_x=1)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            MgConfig(seed=-1)

    def test_seed_below_2_to_the_128(self):
        MgConfig(seed=2**128 - 1)
        with pytest.raises(ValueError, match=r"seed must be below 2\*\*128"):
            MgConfig(seed=2**128)

    def test_run_mg_needs_replicate_sizes(self):
        # hand-built models carry no n_train, so they need both sizes set
        for sizes in ({}, {"replicate_n_x": 10}, {"replicate_n_y": 10}):
            with pytest.raises(ValueError, match="replicate sizes must be >= 2"):
                run_mg(F_STD, G_SHIFT3, MgConfig(m=2, grid=GRID, **sizes))


class TestRunMg:
    def test_identical_populations_give_chance_curve(self):
        res = run_mg(F_STD, F_STD, MgConfig(m=500, seed=7, grid=GRID,
                                            replicate_n_x=100, replicate_n_y=100))
        assert res.auc_mean == pytest.approx(0.5, abs=0.02)
        assert np.max(np.abs(res.mean_curve.tpr - GRID.points)) < 0.03

    def test_separated_gaussians_match_closed_form(self):
        res = run_mg(F_STD, G_SHIFT3, MgConfig(m=1000, seed=42, grid=GRID,
                                               replicate_n_x=200, replicate_n_y=200))
        assert res.auc_mean == pytest.approx(float(ndtr(3 / np.sqrt(2))), abs=0.01)

    def test_band_ordering_pointwise(self):
        res = run_mg(F_STD, G_SHIFT3, small_config())
        mean = res.mean_curve.tpr
        assert np.all(res.ci_lower <= mean + 1e-12)
        assert np.all(mean <= res.ci_upper + 1e-12)
        assert np.all(res.env_lower <= res.env_upper + 1e-12)
        assert np.all(res.env_lower <= mean + 1e-12)
        assert np.all(mean <= res.env_upper + 1e-12)

    def test_bands_clamped(self):
        res = run_mg(F_STD, G_SHIFT3, small_config())
        for arr in (res.ci_lower, res.ci_upper, res.env_lower, res.env_upper):
            assert np.all((arr >= 0.0) & (arr <= 1.0))

    def test_mean_curve_monotone(self):
        res = run_mg(F_STD, G_SHIFT3, small_config())
        assert np.all(np.diff(res.mean_curve.tpr) >= 0)

    def test_auc_mean_equals_mean_of_replicate_aucs(self):
        res = run_mg(F_STD, G_SHIFT3, small_config())
        assert res.auc_mean == pytest.approx(float(np.mean(res.auc_samples)), abs=1e-12)

    def test_auc_samples_length_is_m(self):
        res = run_mg(F_STD, G_SHIFT3, small_config(m=137))
        assert res.auc_samples.size == 137 == res.m

    def test_deterministic_across_runs(self):
        a = run_mg(F_STD, G_SHIFT3, small_config())
        b = run_mg(F_STD, G_SHIFT3, small_config())
        np.testing.assert_array_equal(a.mean_curve.tpr, b.mean_curve.tpr)
        np.testing.assert_array_equal(a.auc_samples, b.auc_samples)
        np.testing.assert_array_equal(a.se, b.se)

    def test_deterministic_across_block_sizes(self, monkeypatch):
        default = run_mg(F_STD, G_SHIFT3, small_config())
        for rows in (1, 7, 200):
            # replicates per block = _BLOCK_SCORES // (n_x + n_y + grid count); 200 is all of M
            monkeypatch.setattr(ensemble, "_BLOCK_SCORES", rows * (60 + 60 + GRID.count))
            blocked = run_mg(F_STD, G_SHIFT3, small_config())
            np.testing.assert_array_equal(default.mean_curve.tpr, blocked.mean_curve.tpr)
            for name in ("se", "ci_lower", "ci_upper", "env_lower", "env_upper", "auc_samples"):
                np.testing.assert_array_equal(getattr(default, name), getattr(blocked, name))
            assert default.auc_mann_whitney_mean == blocked.auc_mann_whitney_mean

    def test_mean_is_smoother_than_replicates(self):
        res = run_mg(F_STD, G_SHIFT3, small_config(m=300))

        def roughness(v):
            return float(np.sum(np.abs(np.diff(np.diff(v)))))

        replicate_avg = np.mean([roughness(row) for row in res.replicate_matrix])
        assert roughness(res.mean_curve.tpr) < replicate_avg

    def test_replicate_matrix_always_returned(self):
        res = run_mg(F_STD, G_SHIFT3, small_config())
        assert res.replicate_matrix.shape == (200, GRID.count)

    def test_ci_width_shrinks_like_sqrt_m(self):
        base = dict(seed=3, grid=GRID, replicate_n_x=100, replicate_n_y=100)
        r1 = run_mg(F_STD, G_SHIFT3, MgConfig(m=1000, **base))
        r4 = run_mg(F_STD, G_SHIFT3, MgConfig(m=4000, **base))
        ratio = np.mean(r1.ci_upper - r1.ci_lower) / np.mean(r4.ci_upper - r4.ci_lower)
        assert 1.8 <= ratio <= 2.2


def tied_rows(rows, n_x, n_y, seed):
    """Integer scores: heavy ties inside each row and across the two populations."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.integers(0, 6, (rows, n_x)), axis=1).astype(float)
    y = np.sort(rng.integers(2, 8, (rows, n_y)), axis=1).astype(float)
    return x, y


def normal_rows(rows, n_x, n_y, seed):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.normal(0.0, 1.0, (rows, n_x)), axis=1)
    y = np.sort(rng.normal(1.0, 1.5, (rows, n_y)), axis=1)
    return x, y


ROW_INPUTS = {
    "ties": tied_rows(9, 40, 40, 0),
    "ties-unequal": tied_rows(9, 51, 90, 1),
    "unequal": normal_rows(9, 51, 90, 2),
    "tiny": normal_rows(9, 2, 3, 3),
}
ROW_GRIDS = {
    "uniform": GRID,
    "no-endpoints": FprGrid(np.linspace(0.013, 0.97, 77)),
    "refined": make_refined_grid(),
}


# Reference single-study curve and AUCs written with np.quantile, searchsorted
# and rankdata: the row kernels and their one-row public forms share no code
# with them, so comparing against these is not a self-comparison.
def frozen_roc(x, y, t, interpolate=True):
    if interpolate:
        c = np.quantile(x, 1.0 - t, method="interpolated_inverted_cdf")
    else:
        allowed = np.floor(t * x.size + 1e-12).astype(int)
        c = x[::-1][np.minimum(allowed, x.size - 1)].astype(float)
        c[allowed >= x.size] = -np.inf
    r = (y.size - np.searchsorted(y, c, side="right")) / y.size
    r[t >= 1.0] = 1.0
    return np.maximum.accumulate(r)


def frozen_trapezoid(r, t):
    area = float(np.trapezoid(r, t))
    if t[0] > 0.0:
        area += float(r[0]) * float(t[0])
    if t[-1] < 1.0:
        area += float(r[-1]) * (1.0 - float(t[-1]))
    return area


def frozen_mann_whitney(x, y):
    n, m = x.size, y.size
    ranks = rankdata(np.concatenate([x, y]), method="average")
    return (float(np.sum(ranks[n:])) - m * (m + 1) / 2.0) / (n * m)


@pytest.mark.parametrize("grid_name", sorted(ROW_GRIDS))
@pytest.mark.parametrize("data_name", sorted(ROW_INPUTS))
class TestRowKernels:
    """The row kernels of mixroc.roc, and their one-row public forms, equal
    the per-row references bit for bit."""

    def test_quantiles(self, data_name, grid_name):
        x, _ = ROW_INPUTS[data_name]
        q = 1.0 - ROW_GRIDS[grid_name].points
        got = roc._row_quantiles(x, q)
        want = [np.quantile(row, q, method="interpolated_inverted_cdf") for row in x]
        np.testing.assert_array_equal(got, want)

    def test_counts(self, data_name, grid_name):
        x, y = ROW_INPUTS[data_name]
        q = 1.0 - ROW_GRIDS[grid_name].points
        c = np.array([np.quantile(row, q, method="interpolated_inverted_cdf") for row in x])
        got = roc._count_le(y, c)
        want = [np.searchsorted(yr, cr, side="right") for yr, cr in zip(y, c)]
        np.testing.assert_array_equal(got, want)
        # thresholds that are scores themselves tie exactly
        np.testing.assert_array_equal(
            roc._count_le(y, x), [np.searchsorted(yr, xr, side="right") for yr, xr in zip(y, x)]
        )

    def test_curves_and_aucs(self, data_name, grid_name):
        x, y = ROW_INPUTS[data_name]
        grid = ROW_GRIDS[grid_name]
        t = grid.points
        tpr, aucs, mws = roc._roc_rows(x, y, t)
        want = [frozen_roc(xr, yr, t) for xr, yr in zip(x, y)]
        np.testing.assert_array_equal(tpr, want)
        np.testing.assert_array_equal(aucs, [frozen_trapezoid(r, t) for r in want])
        np.testing.assert_array_equal(mws, [frozen_mann_whitney(xr, yr) for xr, yr in zip(x, y)])
        for xr, yr, r in zip(x, y, want):
            study = from_arrays(xr, yr)
            curve = empirical_roc(study, grid)
            np.testing.assert_array_equal(curve.tpr, r)
            assert auc_trapezoid(curve) == frozen_trapezoid(r, t)
            step = frozen_roc(xr, yr, t, interpolate=False)
            np.testing.assert_array_equal(empirical_roc(study, grid, interpolate=False).tpr, step)

    def test_mann_whitney(self, data_name, grid_name):
        x, y = ROW_INPUTS[data_name]
        want = [frozen_mann_whitney(xr, yr) for xr, yr in zip(x, y)]
        np.testing.assert_array_equal(roc._mann_whitney_rows(x, y), want)
        assert [auc_mann_whitney(from_arrays(xr, yr)) for xr, yr in zip(x, y)] == want


def test_run_mg_matches_per_replicate_loop():
    """run_mg against the per-replicate loop it replaced, kept here frozen."""
    f = GmmModel([0.5, 0.3, 0.2], [0.0, 1.0, 2.0], [1.0, 0.5, 0.3])
    g = GmmModel([0.6, 0.4], [1.0, 3.0], [1.0, 0.5])
    grid = ROW_GRIDS["no-endpoints"]
    config = MgConfig(m=37, seed=21, grid=grid, replicate_n_x=51, replicate_n_y=90, alpha=0.1)

    curves = np.empty((config.m, grid.count))
    aucs = np.empty(config.m)
    mws = np.empty(config.m)
    for l, child in enumerate(np.random.SeedSequence(config.seed).spawn(config.m)):
        rng = np.random.default_rng(child)
        xs = np.sort(sample_from(f, config.replicate_n_x, rng))
        ys = np.sort(sample_from(g, config.replicate_n_y, rng))
        curves[l] = frozen_roc(xs, ys, grid.points)
        aucs[l] = frozen_trapezoid(curves[l], grid.points)
        mws[l] = frozen_mann_whitney(xs, ys)
    mean_tpr = curves.mean(axis=0)
    se = curves.std(axis=0, ddof=1)
    half = ndtri(1.0 - config.alpha / 2.0) * se / np.sqrt(config.m)
    env_lower, env_upper = np.quantile(curves, [config.alpha / 2.0, 1.0 - config.alpha / 2.0], axis=0)

    res = run_mg(f, g, config)
    np.testing.assert_array_equal(res.replicate_matrix, curves)
    np.testing.assert_array_equal(res.auc_samples, aucs)
    assert res.auc_mann_whitney_mean == float(np.mean(mws))
    np.testing.assert_array_equal(res.mean_curve.tpr, mean_tpr)
    np.testing.assert_array_equal(res.se, se)
    np.testing.assert_array_equal(res.ci_lower, np.clip(mean_tpr - half, 0.0, 1.0))
    np.testing.assert_array_equal(res.ci_upper, np.clip(mean_tpr + half, 0.0, 1.0))
    np.testing.assert_array_equal(res.env_lower, np.clip(np.minimum(env_lower, mean_tpr), 0.0, 1.0))
    np.testing.assert_array_equal(res.env_upper, np.clip(np.maximum(env_upper, mean_tpr), 0.0, 1.0))
    assert res.auc_mean == frozen_trapezoid(RocCurveGrid(grid, mean_tpr).tpr, grid.points)
    assert res.auc_se == float(np.std(aucs, ddof=1))


def exact_knot_moments(f, g, n_x, n_y, panels):
    """Exact mean and sd of the empirical TPR at the knots t = j/n_x, j = 0..n_x-1.

    At t = j/n_x the threshold is the order statistic X_(n_x-j), and F(X_(n_x-j))
    is Beta(n_x-j, j+1); with S = G-survival at that threshold,
    E[R] = E[S] and Var R = E[S(1-S)]/n_y + Var S. The expectations over u = F(X)
    are composite 16-point Gauss-Legendre sums on `panels` equal panels of [0, 1].
    S(F^-1(u)) is not smooth at u = 1, where only j = 0 (the sample maximum)
    puts weight without a (1-u)^j factor, so that knot converges slowest.
    """
    nodes, weights = np.polynomial.legendre.leggauss(16)
    half = 0.5 / panels
    u = ((np.arange(panels) * 2 + 1)[:, None] * half + half * nodes[None, :]).ravel()
    s = survival(g, survival_inverse(f, 1.0 - u))
    j = np.arange(n_x)[:, None]
    w = np.tile(weights * half, panels)[None, :] * beta.pdf(u[None, :], n_x - j, j + 1)
    mean = w @ s
    var = w @ (s * (1.0 - s)) / n_y + w @ (s * s) - mean**2
    return mean, np.sqrt(var)


def test_run_mg_matches_exact_expectation():
    """The ensemble mean and per-point sd against their exact values at every knot."""
    f = GmmModel([0.7, 0.3], [0.0, 2.0], [1.0, 0.5])
    g = GmmModel([0.6, 0.4], [1.0, 3.0], [1.0, 0.5])
    n_x, n_y, m = 51, 90, 4000
    mean, sd = exact_knot_moments(f, g, n_x, n_y, 1024)
    coarse = exact_knot_moments(f, g, n_x, n_y, 256)
    # 256 against 1024 panels: 1e-8 at j >= 1; 1e-6 at t = 0, still a thousand
    # times below the Monte Carlo standard error sd/sqrt(M) of about 1e-3
    for fine, rough in zip((mean, sd), coarse):
        assert abs(rough[0] - fine[0]) <= 1e-6
        np.testing.assert_allclose(rough[1:], fine[1:], rtol=0, atol=1e-8)

    grid = FprGrid(np.concatenate([np.arange(n_x) / n_x, [1.0]]))
    res = run_mg(f, g, MgConfig(m=m, seed=0, grid=grid, replicate_n_x=n_x, replicate_n_y=n_y))
    # bounds fixed before the first run: |z| <= 5 at every knot, sd ratio in [0.85, 1.15]
    z = (res.mean_curve.tpr[:-1] - mean) / (sd / np.sqrt(m))
    assert np.max(np.abs(z)) <= 5.0
    assert np.all((res.se[:-1] / sd >= 0.85) & (res.se[:-1] / sd <= 1.15))
    assert res.mean_curve.tpr[-1] == 1.0 and res.se[-1] == 0.0


class TestPipeline:
    def test_replicate_sizes_default_to_observed(self):
        rng = np.random.default_rng(0)
        ds = from_arrays(rng.normal(0, 1, 37), rng.normal(2, 1, 53))
        settings = dict(m=50, seed=1, grid=make_uniform_grid(64))
        f, g, res = mg_pipeline(ds, EmConfig(k_max=2, n_restarts=2, seed=1), MgConfig(**settings))
        # replicate studies have 37/53 draws, whether the sizes are set or left to the models
        for config in (MgConfig(**settings, replicate_n_x=37, replicate_n_y=53),
                       MgConfig(**settings)):
            other = run_mg(f, g, config)
            np.testing.assert_array_equal(other.replicate_matrix, res.replicate_matrix)
            np.testing.assert_array_equal(other.auc_samples, res.auc_samples)

    def test_returns_fitted_models(self):
        rng = np.random.default_rng(1)
        ds = from_arrays(rng.normal(0, 1, 60), rng.normal(2.5, 1, 60))
        f, g, res = mg_pipeline(
            ds,
            EmConfig(k_max=2, n_restarts=2, seed=0),
            MgConfig(m=50, seed=0, grid=make_uniform_grid(64)),
        )
        assert f.n_train == 60 and g.n_train == 60
        assert 0.5 < res.auc_mean <= 1.0

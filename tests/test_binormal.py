"""Crude binormal fit, curve and closed-form area."""

from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from mixroc.binormal import (
    BinormalParams, _ndtr, _ndtri, binormal_auc, binormal_curve, fit_binormal,
)
from mixroc.datasets import (
    DatasetError, from_arrays, load_dataset, make_refined_grid, make_uniform_grid,
)
from mixroc.roc import auc_trapezoid

DATA = str(Path(__file__).resolve().parent.parent / "data" / "wieand_pancreatic.csv")


class TestFit:
    def test_hand_moments(self):
        params = fit_binormal(from_arrays([0.0, 2.0], [3.0, 5.0]))
        assert params.a == pytest.approx(3 / np.sqrt(2), abs=1e-12)
        assert params.b == pytest.approx(1.0, abs=1e-12)
        assert params.mu_n == 1.0 and params.mu_d == 4.0

    @pytest.mark.parametrize("cases", [[3.0, 5.0, 1e200], [1e-300, 2e-300]],
                             ids=["1e200", "1e-300"])
    def test_range_beyond_float_squares_rejected(self, cases):
        with pytest.raises(DatasetError, match=r"diseased score range .* \[1e-150, 1e150\]"):
            fit_binormal(from_arrays([0.0, 2.0], cases))

    def test_identical_populations(self):
        vals = [1.0, 2.0, 4.0]
        params = fit_binormal(from_arrays(vals, vals))
        assert params.a == 0.0
        assert params.b == pytest.approx(1.0)

    def test_zero_variance_errors(self):
        with pytest.raises(ValueError, match="zero variance"):
            fit_binormal(from_arrays([1.0, 2.0], [5.0, 5.0]))

    @pytest.mark.parametrize("controls", [[0.1] * 3, [123.456] * 30, [1e307] * 30],
                             ids=["0.1x3", "123.456x30", "1e307x30"])
    def test_constant_population_is_zero_variance(self, controls):
        # the rounded moments of these give a tiny sigma or overflow; the check is exact
        with pytest.raises(ValueError, match="zero variance"):
            fit_binormal(from_arrays(controls, [1.0, 2.0, 3.0, 4.0, 5.0]))

    def test_shift_scale_equivariance(self):
        rng = np.random.default_rng(8)
        x = rng.normal(2, 3, 40)
        y = rng.normal(5, 2, 55)
        p0 = fit_binormal(from_arrays(x, y))
        p1 = fit_binormal(from_arrays(1.5 * x + 7, 1.5 * y + 7))
        assert p1.a == pytest.approx(p0.a, rel=1e-12)
        assert p1.b == pytest.approx(p0.b, rel=1e-12)

    def test_params_consistency_enforced(self):
        with pytest.raises(ValueError, match="inconsistent"):
            BinormalParams(a=1.0, b=1.0, mu_n=0.0, sigma_n=1.0, mu_d=5.0, sigma_d=1.0)
        with pytest.raises(ValueError, match="positive"):
            BinormalParams(a=0.0, b=1.0, mu_n=0.0, sigma_n=-1.0, mu_d=0.0, sigma_d=1.0)


class TestCurve:
    def test_chance_line(self):
        params = BinormalParams(0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
        grid = make_uniform_grid(101)
        curve = binormal_curve(params, grid)
        np.testing.assert_allclose(curve.tpr, grid.points, atol=1e-12)
        assert binormal_auc(params) == pytest.approx(0.5, abs=1e-15)

    def test_midpoint_value(self):
        params = BinormalParams(1.0, 1.0, 0.0, 1.0, 1.0, 1.0)
        grid = make_uniform_grid(3)  # includes t = 0.5
        curve = binormal_curve(params, grid)
        assert curve.tpr[1] == pytest.approx(float(ndtr(1.0)), abs=1e-12)

    def test_quadrature_matches_closed_form(self):
        a = 3 / np.sqrt(2)
        params = BinormalParams(a, 1.0, 0.0, np.sqrt(2), 3.0, np.sqrt(2))
        curve = binormal_curve(params, make_uniform_grid(2048))
        assert auc_trapezoid(curve) == pytest.approx(float(ndtr(1.5)), abs=1e-4)

    def test_monotone_for_positive_b(self):
        params = BinormalParams(-1.2, 2.5, 0.0, 2.5, -1.2, 1.0)
        curve = binormal_curve(params, make_uniform_grid(257))
        assert np.all(np.diff(curve.tpr) >= 0)


class TestClosedFormAuc:
    def test_symmetric_overlap(self):
        assert binormal_auc(BinormalParams(0.0, 1.0, 0.0, 1.0, 0.0, 1.0)) == 0.5

    def test_unit_separation(self):
        params = BinormalParams(1.0, 1.0, 0.0, 1.0, 1.0, 1.0)
        assert binormal_auc(params) == pytest.approx(float(ndtr(1 / np.sqrt(2))), abs=1e-12)

    def test_wieand_ca125(self):
        ds = load_dataset(DATA, score_col="ca125", label_col="status")
        assert binormal_auc(fit_binormal(ds)) == pytest.approx(0.5924, abs=0.005)

    def test_lattice_quadrature_agreement(self):
        # endpoint-refined grid: b far from 1 makes the curve too steep at
        # the corners for a uniform grid of the same size
        grid = make_refined_grid()
        for a in np.linspace(-3, 3, 7):
            for b in (0.3, 0.7, 1.0, 1.8, 3.0):
                params = BinormalParams(a, b, 0.0, b, a, 1.0)
                closed = binormal_auc(params)
                quad = auc_trapezoid(binormal_curve(params, grid))
                assert quad == pytest.approx(closed, abs=1e-4), (a, b)


def ulps(got, ref):
    """|got - ref| in units of the spacing of floats at ref."""
    return np.abs(got - ref) / np.spacing(np.abs(ref))


class TestNormalFunctions:
    """The standard library's Phi and Phi^{-1} against scipy.special, the oracle in tests only."""

    def test_phi_relative_error(self):
        # bound: 1e-12 relative on [-37, 8] wherever scipy's value is at least 1e-300
        x = np.linspace(-37.0, 8.0, 45001)
        ref = ndtr(x)
        kept = ref >= 1e-300
        np.testing.assert_allclose(_ndtr(x[kept]).astype(float), ref[kept], rtol=1e-12, atol=0)
        assert _ndtr(0.0) == 0.5

    @pytest.mark.parametrize("p", [
        np.geomspace(1e-300, 0.5, 3001),
        1.0 - np.geomspace(1e-16, 0.5, 3001),
        np.linspace(1e-3, 1.0 - 1e-3, 3001),
    ], ids=["lower-ladder", "upper-ladder", "middle"])
    def test_phi_inverse_ulps(self, p):
        # bound: 8 ulps of scipy's ndtri
        ref = ndtri(p)
        assert ulps(_ndtri(p).astype(float), ref).max() <= 8

    @pytest.mark.parametrize("grid", [make_uniform_grid(), make_refined_grid()],
                             ids=["uniform", "refined"])
    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.5, 0.4), (0.3, 3.0), (-1.2, 2.5)])
    def test_curve_matches_scipy(self, a, b, grid):
        # bound: 1e-12 relative to ndtr(a + b ndtri(t)) at every interior point
        t = grid.points
        inside = (t > 0.0) & (t < 1.0)
        tpr = binormal_curve(BinormalParams(a, b, 0.0, b, a, 1.0), grid).tpr
        np.testing.assert_allclose(tpr[inside], ndtr(a + b * ndtri(t[inside])), rtol=1e-12, atol=0)
        np.testing.assert_array_equal(tpr[~inside], (t[~inside] >= 1.0).astype(float))

    def test_grid_without_interior_points(self):
        params = BinormalParams(1.0, 1.0, 0.0, 1.0, 1.0, 1.0)
        tpr = binormal_curve(params, make_uniform_grid(2)).tpr
        assert tpr.dtype == np.float64
        np.testing.assert_array_equal(tpr, [0.0, 1.0])
        assert type(binormal_auc(params)) is float

"""ROC construction and AUC/pAUC summaries."""

import numpy as np
import pytest
from scipy.special import ndtr

from mixroc.datasets import FprGrid, from_arrays, make_refined_grid, make_uniform_grid
from mixroc.gmm import GmmModel
from mixroc.roc import (
    RocCurveGrid,
    auc_mann_whitney,
    auc_trapezoid,
    auc_trapezoid_points,
    empirical_roc,
    empirical_roc_points,
    functional_roc,
    pauc,
)


def brute_force_mw(x, y):
    """Quadratic-time oracle for the Mann-Whitney AUC with half ties."""
    total = 0.0
    for xv in x:
        for yv in y:
            total += 1.0 if yv > xv else (0.5 if yv == xv else 0.0)
    return total / (len(x) * len(y))


GRID = make_uniform_grid(512)


class TestCurveValidation:
    def test_rejects_decreasing(self):
        g = make_uniform_grid(3)
        with pytest.raises(ValueError, match="non-decreasing"):
            RocCurveGrid(g, np.array([0.0, 0.5, 0.4]))

    def test_rejects_out_of_range(self):
        g = make_uniform_grid(3)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RocCurveGrid(g, np.array([0.0, 0.5, 1.2]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RocCurveGrid(g, np.array([0.0, np.nan, 1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            RocCurveGrid(make_uniform_grid(4), np.array([0.0, 1.0]))

    def test_float_runoff_is_canonicalized(self):
        g = make_uniform_grid(3)
        c = RocCurveGrid(g, np.array([0.0, 0.5, 0.5 - 1e-14]))
        assert np.all(np.diff(c.tpr) >= 0)


class TestEmpiricalRoc:
    def test_complete_separation(self):
        ds = from_arrays([1, 2], [3, 4])
        curve = empirical_roc(ds, GRID)
        assert curve.tpr[0] == 1.0
        assert auc_trapezoid(curve) == pytest.approx(1.0)

    def test_monotone_and_anchored(self):
        rng = np.random.default_rng(5)
        ds = from_arrays(rng.normal(0, 1, 40), rng.normal(1, 1, 60))
        curve = empirical_roc(ds, GRID)
        assert np.all(np.diff(curve.tpr) >= 0)
        assert curve.tpr[-1] == 1.0

    def test_step_and_interpolated_agree_on_achievable_knots(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0, 1, 23)
        y = rng.normal(0.8, 1.2, 31)
        ds = from_arrays(x, y)
        knots = np.unique((x.size - np.arange(x.size)) / x.size)  # i/n values
        grid = FprGrid(np.unique(np.concatenate([[0.0], knots])))
        smooth = empirical_roc(ds, grid, interpolate=True)
        step = empirical_roc(ds, grid, interpolate=False)
        np.testing.assert_allclose(smooth.tpr, step.tpr, atol=1e-12)

    def test_controls_wider_than_the_float_range(self):
        # the two controls lie 2**1024 apart, beyond the largest float; scaled
        # by 2**-1023 every value stays a normal float and the curve is unchanged
        cases = np.arange(3.0, 7.0)
        wide = empirical_roc(from_arrays([-2.0**1023, 2.0**1023], cases), GRID)
        unit = empirical_roc(from_arrays([-1.0, 1.0], cases * 2.0**-1023), GRID)
        np.testing.assert_array_equal(wide.tpr, unit.tpr)
        assert auc_trapezoid(wide) == auc_trapezoid(unit) == pytest.approx(0.7505, abs=1e-4)


class TestOperatingPoints:
    def test_three_point_example(self):
        ds = from_arrays([1, 2, 3], [2.5, 3.5])
        assert auc_mann_whitney(ds) == pytest.approx(5 / 6)
        _, fpr, tpr = empirical_roc_points(ds)
        assert auc_trapezoid_points(fpr, tpr) == pytest.approx(5 / 6, abs=1e-15)

    def test_starts_at_origin_ends_at_one_one(self):
        ds = from_arrays([1, 2, 3], [2.5, 3.5])
        _, fpr, tpr = empirical_roc_points(ds)
        assert (fpr[0], tpr[0]) == (0.0, 0.0)
        assert (fpr[-1], tpr[-1]) == (1.0, 1.0)

    def test_identity_with_ties(self):
        ds = from_arrays([1, 2], [2, 3])
        _, fpr, tpr = empirical_roc_points(ds)
        assert auc_trapezoid_points(fpr, tpr) == pytest.approx(0.875, abs=1e-15)

    def test_identity_on_random_data(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            x = rng.normal(0, 1, int(rng.integers(3, 40)))
            y = rng.normal(0.5, 1.5, int(rng.integers(3, 40)))
            ds = from_arrays(x, y)
            _, fpr, tpr = empirical_roc_points(ds)
            assert auc_trapezoid_points(fpr, tpr) == pytest.approx(
                brute_force_mw(x, y), abs=1e-12
            )


class TestMannWhitney:
    def test_complete_separation(self):
        assert auc_mann_whitney(from_arrays([1, 2], [3, 4])) == 1.0

    def test_interleaved(self):
        assert auc_mann_whitney(from_arrays([1, 3], [2, 4])) == pytest.approx(0.75)

    def test_tie_half_weight(self):
        assert auc_mann_whitney(from_arrays([1, 2], [2, 3])) == pytest.approx(0.875)

    def test_label_swap_antisymmetry(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, 30)
        y = rng.normal(1, 1, 20)
        a = auc_mann_whitney(from_arrays(x, y))
        a_swapped = auc_mann_whitney(from_arrays(y, x))
        assert a + a_swapped == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            x = rng.integers(0, 6, 25).astype(float)
            y = rng.integers(0, 6, 15).astype(float)
            assert auc_mann_whitney(from_arrays(x, y)) == pytest.approx(
                brute_force_mw(x, y), abs=1e-12
            )


class TestFunctionalRoc:
    def test_identical_models_give_diagonal(self):
        model = GmmModel([0.5, 0.5], [-1.0, 2.0], [1.0, 0.5])
        grid = make_uniform_grid(101)
        curve = functional_roc(model, model, grid)
        np.testing.assert_allclose(curve.tpr, grid.points, atol=1e-8)
        assert auc_trapezoid(curve) == pytest.approx(0.5, abs=1e-8)

    def test_matches_binormal_closed_form_curve(self):
        from mixroc.binormal import BinormalParams, binormal_curve

        f = GmmModel([1.0], [0.0], [1.0])
        g = GmmModel([1.0], [1.5], [1.0])
        curve = functional_roc(f, g, GRID)
        params = BinormalParams(a=1.5, b=1.0, mu_n=0.0, sigma_n=1.0, mu_d=1.5, sigma_d=1.0)
        reference = binormal_curve(params, GRID)
        np.testing.assert_allclose(curve.tpr, reference.tpr, atol=1e-6)

    def test_auc_equals_closed_form(self):
        f = GmmModel([1.0], [0.0], [1.0])
        g = GmmModel([1.0], [3.0], [1.0])
        curve = functional_roc(f, g, make_uniform_grid(2048))
        assert auc_trapezoid(curve) == pytest.approx(
            float(ndtr(3 / np.sqrt(2))), abs=5e-4
        )

    @pytest.mark.parametrize("mu_d, sigma_d", [(1.5, 1.0), (3.0, 0.5), (0.5, 2.0)])
    def test_matches_binormal_relative_on_refined_grid(self, mu_d, sigma_d):
        from mixroc.binormal import BinormalParams, binormal_curve

        grid = make_refined_grid()
        f = GmmModel([1.0], [0.0], [1.0])
        g = GmmModel([1.0], [mu_d], [sigma_d**2])
        params = BinormalParams(a=mu_d / sigma_d, b=1.0 / sigma_d, mu_n=0.0, sigma_n=1.0,
                                mu_d=mu_d, sigma_d=sigma_d)
        curve = functional_roc(f, g, grid)
        reference = binormal_curve(params, grid)
        assert grid.points[1] == 1e-10 and grid.points[-2] == 1.0 - 1e-10
        np.testing.assert_allclose(curve.tpr[1:-1], reference.tpr[1:-1], rtol=1e-9, atol=0.0)

    def test_endpoints_fixed(self):
        f = GmmModel([1.0], [0.0], [1.0])
        g = GmmModel([1.0], [2.0], [1.0])
        curve = functional_roc(f, g, GRID)
        assert curve.tpr[0] == 0.0
        assert curve.tpr[-1] == 1.0

    def test_grid_without_endpoints_pins_nothing(self):
        from mixroc.binormal import BinormalParams, binormal_curve

        grid = FprGrid(np.linspace(0.013, 0.97, 77))
        f = GmmModel([1.0], [0.0], [1.0])
        g = GmmModel([1.0], [1.5], [0.25])
        params = BinormalParams(a=3.0, b=2.0, mu_n=0.0, sigma_n=1.0, mu_d=1.5, sigma_d=0.5)
        curve = functional_roc(f, g, grid)
        reference = binormal_curve(params, grid)
        np.testing.assert_allclose(curve.tpr, reference.tpr, rtol=0.0, atol=1e-12)
        for r in (curve.tpr, reference.tpr):
            assert np.all((r > 0.0) & (r < 1.0))


class TestAucTrapezoid:
    def test_chance_diagonal(self):
        grid = make_uniform_grid(33)
        curve = RocCurveGrid(grid, grid.points.copy())
        assert auc_trapezoid(curve) == pytest.approx(0.5, abs=1e-15)

    def test_perfect_curve(self):
        curve = RocCurveGrid(GRID, np.ones(GRID.count))
        assert auc_trapezoid(curve) == pytest.approx(1.0, abs=1e-15)

    def test_t_squared(self):
        curve = RocCurveGrid(GRID, GRID.points**2)
        assert auc_trapezoid(curve) == pytest.approx(1.0 / 3.0, abs=1e-5)

    def test_boundary_extension(self):
        grid = FprGrid(np.linspace(0.1, 0.9, 9))
        curve = RocCurveGrid(grid, np.ones(9))
        assert auc_trapezoid(curve) == pytest.approx(1.0, abs=1e-15)


class TestPauc:
    def curve(self):
        return RocCurveGrid(GRID, GRID.points.copy())

    def test_full_range_equals_auc(self):
        rng = np.random.default_rng(17)
        ds = from_arrays(rng.normal(0, 1, 30), rng.normal(1, 1, 30))
        curve = empirical_roc(ds, GRID)
        assert pauc(curve, 0.0, 1.0) == pytest.approx(auc_trapezoid(curve), abs=1e-12)

    def test_triangle(self):
        assert pauc(self.curve(), 0.0, 0.5) == pytest.approx(0.125, abs=1e-12)

    def test_rectangle(self):
        flat = RocCurveGrid(GRID, np.ones(GRID.count))
        assert pauc(flat, 0.8, 1.0) == pytest.approx(0.2, abs=1e-12)

    def test_interior_endpoints_interpolated(self):
        # cut points off the grid: R(t)=t so any interval gives (hi^2-lo^2)/2
        assert pauc(self.curve(), 0.1234, 0.8321) == pytest.approx(
            (0.8321**2 - 0.1234**2) / 2, abs=1e-6
        )

    @pytest.mark.parametrize("lo,hi", [(0.5, 0.5), (0.7, 0.2), (-0.1, 0.5), (0.5, 1.1)])
    def test_bad_interval(self, lo, hi):
        with pytest.raises(ValueError):
            pauc(self.curve(), lo, hi)


class TestMonotoneTransformInvariance:
    def test_empirical_outputs_unchanged(self):
        rng = np.random.default_rng(19)
        x = rng.normal(0, 1, 35)
        y = rng.normal(0.7, 1.3, 45)
        base = from_arrays(x, y)

        def warp(v):
            return np.exp(v) + 3.0 * v  # strictly increasing

        mapped = from_arrays(warp(x), warp(y))
        assert auc_mann_whitney(base) == pytest.approx(auc_mann_whitney(mapped), abs=1e-12)
        _, f1, t1 = empirical_roc_points(base)
        _, f2, t2 = empirical_roc_points(mapped)
        np.testing.assert_array_equal(f1, f2)
        np.testing.assert_array_equal(t1, t2)

"""Property-based checks on the rank-level invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mixroc.datasets import from_arrays, make_uniform_grid
from mixroc.roc import (
    auc_mann_whitney,
    auc_trapezoid,
    empirical_roc,
    empirical_roc_points,
    pauc,
)

scores = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=40,
)


@st.composite
def datasets(draw):
    x = draw(scores)
    y = draw(scores)
    return from_arrays(x, y)


@given(datasets())
@settings(max_examples=60, deadline=None)
def test_label_swap_antisymmetry(ds):
    swapped = from_arrays(ds.diseased.scores, ds.non_diseased.scores)
    assert abs(auc_mann_whitney(ds) + auc_mann_whitney(swapped) - 1.0) < 1e-12


@given(datasets())
@settings(max_examples=60, deadline=None)
def test_polyline_trapezoid_equals_mann_whitney(ds):
    _, fpr, tpr = empirical_roc_points(ds)
    assert abs(np.trapezoid(tpr, fpr) - auc_mann_whitney(ds)) < 1e-12


# dyadic scores with power-of-two scales keep the affine map exact in floats,
# so the order and tie structure cannot be disturbed by rounding
dyadic_scores = st.lists(
    st.integers(min_value=-(2**20), max_value=2**20).map(lambda v: v / 256.0),
    min_size=2,
    max_size=40,
)


@given(
    dyadic_scores,
    dyadic_scores,
    st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
    st.integers(min_value=-1000, max_value=1000),
)
@settings(max_examples=40, deadline=None)
def test_affine_transform_invariance(xs, ys, scale, shift):
    ds = from_arrays(xs, ys)
    mapped = from_arrays(
        scale * ds.non_diseased.scores + shift, scale * ds.diseased.scores + shift
    )
    assert abs(auc_mann_whitney(ds) - auc_mann_whitney(mapped)) < 1e-12
    grid = make_uniform_grid(65)
    base = empirical_roc(ds, grid, interpolate=False)
    moved = empirical_roc(mapped, grid, interpolate=False)
    np.testing.assert_array_equal(base.tpr, moved.tpr)


@given(datasets())
@settings(max_examples=40, deadline=None)
def test_empirical_curve_is_valid(ds):
    grid = make_uniform_grid(65)
    for interpolate in (True, False):
        curve = empirical_roc(ds, grid, interpolate=interpolate)
        assert np.all((curve.tpr >= 0) & (curve.tpr <= 1))
        assert np.all(np.diff(curve.tpr) >= 0)
        assert curve.tpr[-1] == 1.0


@given(datasets(), st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=40, deadline=None)
def test_pauc_splits_add_up(ds, cut):
    curve = empirical_roc(ds, make_uniform_grid(129))
    total = pauc(curve, 0.0, cut) + pauc(curve, cut, 1.0)
    assert abs(total - auc_trapezoid(curve)) < 1e-9


@given(st.integers(min_value=2, max_value=4096))
@settings(max_examples=50, deadline=None)
def test_uniform_grid_invariants(n):
    grid = make_uniform_grid(n)
    assert grid.count == n
    assert grid.points[0] == 0.0 and grid.points[-1] == 1.0
    assert np.all(np.diff(grid.points) > 0)

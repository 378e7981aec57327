"""SVG plots: every valid score sample renders."""

import numpy as np
import pytest

from mixroc.datasets import PopulationTag, ScoreSample
from mixroc.svg import _bin_edges, histogram_svg


def _floats_from(x, count):
    """`count` consecutive floats starting at `x`."""
    out = [x]
    for _ in range(count - 1):
        out.append(np.nextafter(out[-1], np.inf))
    return out


@pytest.mark.parametrize("scores", [
    [1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-51],
    _floats_from(1e10, 3),
    [5.0, 5.0, 5.0],
    [1e17, 1e17, 1e17],
    [1.0, 1.0 + 30 * 2.0**-52],
    [1.0, 1.0 + 100 * 2.0**-52],
    [0.0, 3.5e-193],
    [-1e150, 1e150],
    [-1e308, 1e308],
    np.r_[-1e308, np.zeros(25), 1e308],
    [-np.finfo(float).max, np.finfo(float).max],
    [np.finfo(float).max] * 3,
    [-np.finfo(float).max] * 3,
], ids=["3-ulps-at-1", "3-ulps-at-1e10", "zero-range", "zero-range-at-1e17", "30-ulps",
        "100-ulps", "tiny-range", "huge-range", "range-beyond-float", "27-scores-beyond-float",
        "range-of-all-floats", "zero-range-at-max", "zero-range-at-minus-max"])
def test_histogram_renders_every_valid_sample(scores):
    sample = ScoreSample(scores, PopulationTag.NON_DISEASED)
    svg = histogram_svg(sample.scores, "Scores")
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "nan" not in svg and "inf" not in svg
    assert svg.count("<rect") >= 2  # the background and at least one bar


def test_histogram_refuses_a_density_beyond_the_float_range():
    # bins one subnormal wide hold a density of about 1e323
    with pytest.raises(ValueError, match="Scores: the density of the span 0 to 9.88e-324"):
        histogram_svg(np.array([0.0, 5e-324, 1e-323]), "Scores")


@pytest.mark.parametrize("seed", range(5))
def test_bin_edges_are_numpys_where_numpy_has_thirty_bins(seed):
    rng = np.random.default_rng(seed)
    scores = rng.lognormal(size=60) * 10.0 ** rng.uniform(-5, 5)
    np.testing.assert_array_equal(_bin_edges(scores), np.histogram_bin_edges(scores, 30))

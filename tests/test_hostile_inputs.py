"""The hostile-input contract: a run on awkward scores refuses cleanly or writes clean outputs.

Each example is a study of two populations of 2 to 40 scores, each of one hostile shape at a
scale from 1e-300 to 1e307, run in process through `analyse` and `_render` as
`--estimators E --plots --pauc 0:0.1 --mc-reps 20` would run it.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixroc.cli import _render, analyse, build_parser, config_from_args
from mixroc.datasets import from_arrays
from mixroc.report import ESTIMATORS

FMAX = np.finfo(float).max
TINY = np.spacing(0.0)  # the smallest subnormal


# shape name -> scores from (generator, n, scale), before clipping to +-max
SHAPES = {
    "constant": lambda rng, n, s: np.full(n, s),
    "ties": lambda rng, n, s: s * rng.integers(0, 3, n),
    "ulps": lambda rng, n, s: s + np.spacing(s) * rng.integers(0, 4, n),
    "subnormal": lambda rng, n, s: TINY * rng.integers(-20, 20, n),
    "max": lambda rng, n, s: rng.choice([-FMAX, FMAX], n),
    "lognormal": lambda rng, n, s: s * rng.lognormal(0.0, 8.0, n),
    "outlier": lambda rng, n, s: np.r_[s * rng.normal(0.0, 1.0, n - 1),
                                       s * 10.0 ** rng.uniform(2, 8)],
}


@st.composite
def populations(draw):
    n = draw(st.integers(2, 40))
    shape = draw(st.sampled_from(sorted(SHAPES)))
    scale = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-300.0, 307.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    with np.errstate(over="ignore"):  # a score beyond the largest float becomes +-max
        return np.clip(SHAPES[shape](rng, n, scale), -FMAX, FMAX)


NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def run_in_process(controls, cases, estimators):
    """The report, the curves and every rendered file (name -> text) of one run."""
    argv = ["--estimators", ",".join(estimators), "--plots", "--pauc", "0:0.1",
            "--mc-reps", "20", "--reproducible"]
    config = config_from_args(build_parser().parse_args(argv))
    dataset = from_arrays(controls, cases)
    report, curves, mg_result = analyse(dataset, config)
    return report, curves, _render(config, report, curves, mg_result, dataset)


@pytest.mark.parametrize("estimators", [(e,) for e in ESTIMATORS] + [ESTIMATORS],
                         ids=[*ESTIMATORS, "all"])
@given(populations(), populations())
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_hostile_study_refuses_or_writes_clean_outputs(estimators, controls, cases):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning fails the example
        try:
            report, curves, files = run_in_process(controls, cases, estimators)
        except ValueError:  # exit 2, nothing written
            return
    for name, text in files.items():
        assert not NON_FINITE.search(text), name
    for name, entry in report.estimators.items():
        for key in ("auc_trapezoidal", "auc_mann_whitney", "auc_closed_form"):
            assert 0.0 <= entry.get(key, 0.0) <= 1.0, (name, key)
    for name, curve in curves.items():
        assert np.all(np.diff(curve.tpr) >= 0.0), name
        assert 0.0 <= curve.tpr[0] and curve.tpr[-1] <= 1.0, name
    for values in report.pauc.values():
        assert all(0.0 <= v <= 0.1 for v in values.values()), values

"""Simulation study: three levels of discrimination
===================================================

Synthetic studies at strong, moderate and poor discrimination, all with
a bimodal diseased population (a realistic shape when patients present
at different disease stages). For each level the three estimators are
compared side by side; the marker points at the non-empirical estimator
closest to the empirical AUC.

Each study stays in memory and goes through `analyse`, the analysis the
CLI runs on a loaded file, so the numbers are the CLI's numbers.
"""

import numpy as np

from mixroc import EmConfig, MgConfig, compare_table, from_arrays
from mixroc.cli import RunConfig, analyse

SCENARIOS = {
    "strong": dict(means=(2.2, 5.0), sds=(0.6, 1.0)),
    "moderate": dict(means=(0.3, 2.6), sds=(0.5, 0.9)),
    "poor": dict(means=(-0.5, 1.6), sds=(0.6, 1.2)),
}

reports = []
for index, (name, params) in enumerate(SCENARIOS.items()):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(index,)))
    x = rng.normal(0.0, 1.0, 150)
    stage = rng.integers(0, 2, 150)
    y = rng.normal(np.asarray(params["means"])[stage], np.asarray(params["sds"])[stage])

    report, _, _ = analyse(from_arrays(x, y, name), RunConfig(
        em=EmConfig(k_max=3, n_restarts=3, seed=index),
        mg=MgConfig(m=500, seed=index),
        reproducible=True,
    ))
    reports.append(report)

print(compare_table(reports))

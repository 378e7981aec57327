"""The ``sim-sweep`` and ``planning`` workloads: the library called in process.

Importing this module imports the library, so a workload process pays
for it during set-up. Library functions are called through their module
(``ensemble.mg_pipeline``) so that a traced study reaches the wrappers.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from mixroc import binormal, datasets, ensemble, roc
from mixroc.ensemble import MgConfig
from mixroc.gmm import EmConfig

import checks
from common import PILOT, Study

# the acceptance simulation protocol: unimodal controls N(0, 1), cases an
# equal mixture of two normals (means, sds)
SCENARIOS = (
    ((2.2, 5.0), (0.6, 1.0)),  # strong
    ((0.3, 2.6), (0.5, 0.9)),  # moderate
    ((-0.5, 1.6), (0.6, 1.2)),  # poor
)
SIM_SIZES = {"full": dict(n=150, m=400), "tiny": dict(n=40, m=40)}
PLAN_SIZES = {"full": dict(n=1000, m=4000), "tiny": dict(n=100, m=50)}
PILOT_MARKER = "ca199"
# distinct inputs generated at set-up; more studies than this cycle through them
POOL = 64


class SimSweep:
    """EM-heavy, small-n studies drawn from the three protocol scenarios."""

    in_process = True

    def __init__(self, seed: int, size: str, work_dir):
        sizes = SIM_SIZES[size]
        self.m = sizes["m"]
        self.grid = datasets.make_uniform_grid(512)
        self.inputs = []
        for k in range(POOL):
            means, sds = (np.asarray(v) for v in SCENARIOS[k % len(SCENARIOS)])
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
            x = rng.normal(0.0, 1.0, sizes["n"])
            comp = rng.integers(0, 2, sizes["n"])
            y = rng.normal(means[comp], sds[comp])
            self.inputs.append((x, y, int(rng.integers(2**31))))

    def study(self, k: int, tracer, parent) -> Study:
        x, y, seed = self.inputs[k % POOL]
        start = perf_counter()
        ds = datasets.from_arrays(x, y)
        f_model, g_model, result = ensemble.mg_pipeline(
            ds,
            EmConfig(k_max=3, n_restarts=3, max_iter=300, seed=seed),
            MgConfig(m=self.m, seed=seed, grid=self.grid),
        )
        roc.auc_trapezoid(roc.empirical_roc(ds, self.grid))
        roc.auc_mann_whitney(ds)
        binormal.binormal_auc(binormal.fit_binormal(ds))
        elapsed = perf_counter() - start
        failures = checks.ensemble_failures(result, checks.mixture_auc(f_model, g_model))
        return Study(elapsed, failures, f_model.to_json_dict())


class Planning:
    """Ensemble-heavy, large-n studies planned from the Wieand pilot.

    A study fits the CA 19-9 pilot with the default EM settings, simulates
    M replicate studies at the planned size, and computes the model curve
    (the M -> infinity limit of the ensemble) on the refined grid. One
    marker only: a CA 125 study takes about 10% longer, and alternating
    markers over three or four studies per run would make the median
    depend on how many studies fit.
    """

    in_process = True

    def __init__(self, seed: int, size: str, work_dir):
        sizes = PLAN_SIZES[size]
        self.m, self.n = sizes["m"], sizes["n"]
        self.grid = datasets.make_refined_grid()
        self.seeds = [int(s) for s in np.random.default_rng(seed).integers(2**31, size=POOL)]

    def study(self, k: int, tracer, parent) -> Study:
        seed = self.seeds[k % POOL]
        start = perf_counter()
        pilot = datasets.load_dataset(PILOT, score_col=PILOT_MARKER, label_col="status",
                                      source_name=PILOT_MARKER)
        f_model, g_model, result = ensemble.mg_pipeline(
            pilot,
            EmConfig(seed=seed),
            MgConfig(m=self.m, replicate_n_x=self.n, replicate_n_y=self.n, seed=seed),
        )
        curve = roc.functional_roc(f_model, g_model, self.grid)
        elapsed = perf_counter() - start
        closed_form = checks.mixture_auc(f_model, g_model)
        failures = checks.ensemble_failures(result, closed_form)
        failures += checks.functional_failures(curve, closed_form)
        return Study(elapsed, [f"seed {seed}: {msg}" for msg in failures],
                     f_model.to_json_dict())

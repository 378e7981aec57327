"""Three ROC estimators on one synthetic study
==============================================

Controls are a single Gaussian; cases are a bimodal mixture, the shape
that breaks the crude binormal assumption. The empirical curve, the
moment-fit binormal curve and the mixture Monte Carlo (MG) estimate are
computed on one shared grid and compared by AUC and pAUC.
"""

import numpy as np

from mixroc import (
    EmConfig,
    MgConfig,
    auc_mann_whitney,
    auc_trapezoid,
    binormal_auc,
    binormal_curve,
    empirical_roc,
    fit_binormal,
    from_arrays,
    make_uniform_grid,
    mg_pipeline,
    pauc,
)
from mixroc.svg import roc_overlay_svg

rng = np.random.default_rng(7)
n = 200
x = rng.normal(0.0, 1.0, n)
stage = rng.integers(0, 2, n)  # half the cases sit below the controls
y = rng.normal(np.array([-0.8, 2.8])[stage], np.array([0.5, 0.7])[stage])
study = from_arrays(x, y, "synthetic bimodal")

grid = make_uniform_grid(512)
empirical = empirical_roc(study, grid)
params = fit_binormal(study)
binormal = binormal_curve(params, grid)
f_model, g_model, ensemble = mg_pipeline(
    study, EmConfig(seed=0), MgConfig(m=1000, seed=0, grid=grid)
)

print(f"controls: n={study.n_x}   cases: n={study.n_y}")
print(f"fitted component counts: controls K={f_model.k}, cases K={g_model.k}\n")

print(f"{'estimator':<12}{'AUC (trapezoid)':>18}{'Mann-Whitney':>16}")
print(f"{'empirical':<12}{auc_trapezoid(empirical):>18.4f}{auc_mann_whitney(study):>16.4f}")
print(f"{'binormal':<12}{auc_trapezoid(binormal):>18.4f}{binormal_auc(params):>15.4f}*")
print(f"{'mg':<12}{ensemble.auc_mean:>18.4f}{ensemble.auc_mann_whitney_mean:>16.4f}")
print("* closed form\n")

lo, hi = 0.0, 0.2
print(f"pAUC over FPR in [{lo}, {hi}]:")
for name, curve in (("empirical", empirical), ("binormal", binormal), ("mg", ensemble.mean_curve)):
    print(f"  {name:<10} {pauc(curve, lo, hi):.4f}")

overlay = roc_overlay_svg(
    [
        ("empirical", grid.points, empirical.tpr),
        ("binormal", grid.points, binormal.tpr),
        ("mg", grid.points, ensemble.mean_curve.tpr),
    ],
    band=(grid.points, ensemble.env_lower, ensemble.env_upper),
)
with open("demo_roc_overlay.svg", "w") as fh:
    fh.write(overlay)
print("\nwrote demo_roc_overlay.svg")

"""Two kinds of bands around the ensemble mean curve
====================================================

The ensemble gives two different 95% bands:

* a confidence interval for the MEAN curve, whose width shrinks like
  1/sqrt(M) as the ensemble grows, and
* a quantile envelope covering 95% of the individual replicate curves,
  whose width reflects sampling variability and does not shrink with M.

This demo shows both on the same fitted pair of mixtures, and checks the
determinism contract: the same seed always gives bit-identical results,
no matter how many replicates the engine processes per block.
"""

import numpy as np

from mixroc import GmmModel, MgConfig, ensemble, make_uniform_grid, run_mg

f_model = GmmModel([1.0], [0.0], [1.0])
g_model = GmmModel([0.6, 0.4], [1.0, 3.5], [0.8, 0.6])
grid = make_uniform_grid(512)

print(f"{'M':>6}{'mean CI width':>16}{'envelope width':>17}")
for m in (250, 1000, 4000):
    res = run_mg(f_model, g_model, MgConfig(m=m, seed=123, grid=grid,
                                            replicate_n_x=100, replicate_n_y=100))
    ci = float(np.mean(res.ci_upper - res.ci_lower))
    env = float(np.mean(res.env_upper - res.env_lower))
    print(f"{m:>6}{ci:>16.5f}{env:>17.5f}")

print("\nthe CI shrinks ~2x from M=1000 to M=4000; the envelope stays put\n")

config = MgConfig(m=500, seed=9, grid=grid, replicate_n_x=80, replicate_n_y=80)
default = run_mg(f_model, g_model, config)
# the block size is internal (_BLOCK_SCORES // (n_x + n_y + grid count)
# replicates per block); it is changed here only to show that it does not
# affect the result
default_block = ensemble._BLOCK_SCORES
identical = True
try:
    for rows in (1, 7, config.m):
        ensemble._BLOCK_SCORES = rows * (80 + 80 + grid.count)
        blocked = run_mg(f_model, g_model, config)
        identical &= np.array_equal(default.mean_curve.tpr, blocked.mean_curve.tpr)
        identical &= np.array_equal(default.auc_samples, blocked.auc_samples)
finally:
    ensemble._BLOCK_SCORES = default_block
print(f"blocks of 1, 7 and M replicates bit-identical: {identical}")
print(f"ensemble AUC {default.auc_mean:.4f} +- {default.auc_se:.4f} (replicate sd)")

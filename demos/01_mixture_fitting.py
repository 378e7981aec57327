"""Fitting a Gaussian mixture to skewed scores
=============================================

A single Gaussian is a poor description of many real biomarker
distributions. This demo draws a right-skewed, bimodal sample, fits
mixtures with one to five components, and shows how BIC picks the
component count. It then checks the fitted model's survival function
against its own quantiles, down to a tail probability of 1e-10.
"""

import numpy as np

from mixroc import EmConfig, PopulationTag, ScoreSample, bic, fit_em, select_k, survival, survival_inverse

rng = np.random.default_rng(20260808)

# a "diseased" population with two stages of disease severity
stage = rng.random(400) < 0.35
scores = np.where(
    stage,
    rng.lognormal(mean=3.2, sigma=0.35, size=400),
    rng.normal(loc=8.0, scale=2.0, size=400),
)
sample = ScoreSample(scores, PopulationTag.DISEASED, "demo")

print("BIC across component counts:")
for k in range(1, 6):
    model = fit_em(sample, k, EmConfig(seed=1))
    print(f"  K={k}: log-likelihood={model.log_likelihood:9.2f}  BIC={bic(model):9.2f}")

best = select_k(sample, EmConfig(seed=1))
print(f"\nselected K = {best.k}")
for w, mu, var in zip(best.weights, best.means, best.variances):
    print(f"  weight={w:.3f}  mean={mu:7.2f}  sd={np.sqrt(var):6.2f}")

print("\nsurvival round trip (threshold at each tail probability):")
for t in (0.9, 0.5, 0.1, 0.01):
    c = survival_inverse(best, t)
    print(f"  t={t:4}: c={c:8.2f}   survival(c)={survival(best, c):.6f}")

# the inversion is accurate relative to t, so it holds far into the tail
c = survival_inverse(best, 1e-10)
print(f"  t=1e-10: c={c:8.2f}   survival(c)={survival(best, c):.6e}")

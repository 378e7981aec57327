"""Output checks of the benchmark's studies.

Each check returns a list of failure messages; an empty list passes. The
references are arguments, so the self-test can feed a wrong one and see
the check fail.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

# acceptance pins on the bundled Wieand study:
# marker -> (empirical trapezoid, Mann-Whitney, binormal closed form, MG)
WIEAND_PINS = {
    "ca125": (0.7143, 0.7056, 0.5924, 0.7147),
    "ca199": (0.8651, 0.8614, 0.6774, 0.8569),
}
PIN_TOL = 0.005
MG_PIN_TOL = 0.02
# the replicate Mann-Whitney mean may sit this many Monte Carlo standard
# errors from the closed form (measured deviations are about 0.5)
MC_SE_TOL = 5.0
FUNCTIONAL_AUC_TOL = 1e-4


def mixture_auc(f_model, g_model) -> float:
    """Closed-form P(Y > X) for X ~ f, Y ~ g, both Gaussian mixtures.

    sum_ij w_i v_j Phi((mu_gj - mu_fi) / sqrt(var_fi + var_gj)).
    """
    diff = g_model.means[None, :] - f_model.means[:, None]
    scale = np.sqrt(f_model.variances[:, None] + g_model.variances[None, :])
    return float(f_model.weights @ ndtr(diff / scale) @ g_model.weights)


def ensemble_failures(result, closed_form: float) -> list[str]:
    """The ensemble agrees with its own model and its bands are well formed."""
    failures = []
    tol = MC_SE_TOL * result.auc_se / np.sqrt(result.m)
    dev = abs(result.auc_mann_whitney_mean - closed_form)
    if not dev <= tol:
        failures.append(f"Mann-Whitney mean {result.auc_mann_whitney_mean:.6f} is {dev:.2e} "
                        f"from the closed form {closed_form:.6f} (allowed {tol:.2e})")
    tpr = result.mean_curve.tpr
    if not np.all(np.diff(tpr) >= 0.0):
        failures.append("mean curve is not monotone")
    if not (np.all(result.env_lower <= tpr) and np.all(tpr <= result.env_upper)):
        failures.append("envelope does not contain the mean curve")
    return failures


def functional_failures(curve, closed_form: float) -> list[str]:
    """The model curve's trapezoid area matches the closed-form AUC."""
    area = float(np.trapezoid(curve.tpr, curve.grid.points))
    if not abs(area - closed_form) <= FUNCTIONAL_AUC_TOL:
        return [f"functional_roc trapezoid AUC {area:.8f} differs from the closed form "
                f"{closed_form:.8f} by more than {FUNCTIONAL_AUC_TOL}"]
    return []


def report_failures(doc: dict, pins: tuple[float, float, float, float]) -> list[str]:
    """A CLI report.json reproduces the acceptance pins of its marker."""
    est = doc["estimators"]
    trap, mw, binormal, mg = pins
    cases = (
        ("empirical trapezoid", est["empirical"]["auc_trapezoidal"], trap, PIN_TOL),
        ("empirical Mann-Whitney", est["empirical"]["auc_mann_whitney"], mw, PIN_TOL),
        ("binormal", est["binormal"]["auc_closed_form"], binormal, PIN_TOL),
        ("MG", est["mg"]["auc_trapezoidal"], mg, MG_PIN_TOL),
    )
    return [f"{name} AUC {got:.4f} is outside {ref} +- {tol}"
            for name, got, ref, tol in cases if not abs(got - ref) <= tol]

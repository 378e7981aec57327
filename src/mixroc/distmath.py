"""Standard normal helpers shared by the mixture, binormal and band code.

Backed by scipy.special's Cephes routines (|error| < 1e-10 over the
useful range), which is what the quadrature-agreement checks require.
"""

from __future__ import annotations

import numpy as np
from scipy import special

SQRT_2PI = np.sqrt(2.0 * np.pi)


def norm_pdf(z):
    """Standard normal density, elementwise."""
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * z * z) / SQRT_2PI


def norm_cdf(z):
    """Standard normal lower-tail probability Phi(z), elementwise."""
    return special.ndtr(np.asarray(z, dtype=float))


def norm_sf(z):
    """Standard normal upper-tail probability Q(z) = 1 - Phi(z).

    Computed via erfc so the far upper tail keeps full relative accuracy.
    """
    z = np.asarray(z, dtype=float)
    return 0.5 * special.erfc(z / np.sqrt(2.0))


def norm_logcdf(z):
    """log Phi(z), elementwise, with full relative accuracy in both tails."""
    return special.log_ndtr(np.asarray(z, dtype=float))


def norm_ppf(p):
    """Standard normal quantile Phi^{-1}(p), elementwise, p in (0, 1)."""
    return special.ndtri(np.asarray(p, dtype=float))


def two_sided_z(alpha: float) -> float:
    """Critical value z_{1-alpha/2} for a two-sided 100(1-alpha)% interval."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return float(special.ndtri(1.0 - alpha / 2.0))

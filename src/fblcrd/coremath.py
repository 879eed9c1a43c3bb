"""Scalar numerical primitives shared by every other module.

All information quantities in the toolkit are kept in nats (natural
logarithm); conversion to bits happens only at the presentation layer.
The convention 0*ln(0) = 0 is applied throughout so entropies are
continuous at the boundary of the simplex.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)


def gaussian_cdf(t):
    """Standard normal CDF, computed through the complementary error function.

    Saturates cleanly at 0/1 in the far tails.  Accepts scalars or arrays.
    """
    return 0.5 * _sp.erfc(-np.asarray(t, dtype=float) / _SQRT2)


def gaussian_q(t):
    """Upper-tail probability of the standard normal, Q(t) = 1 - Phi(t)."""
    return 0.5 * _sp.erfc(np.asarray(t, dtype=float) / _SQRT2)


def gaussian_q_inv(eps: float) -> float:
    """Inverse of the Gaussian tail function: returns t with Q(t) = eps.

    Raises ValueError outside the open interval (0, 1), where the inverse
    is unbounded.
    """
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise ValueError(f"gaussian_q_inv requires eps in (0, 1), got {eps!r}")
    return float(_SQRT2 * _sp.erfcinv(2.0 * eps))


def entropy(pmf) -> float:
    """Shannon entropy of a probability vector, in nats."""
    p = np.asarray(pmf, dtype=float)
    return float(-_sp.xlogy(p, p).sum())


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) variable in nats, with 0 ln 0 = 0."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy requires p in [0, 1], got {p!r}")
    return float(-_sp.xlogy(p, p) - _sp.xlogy(1.0 - p, 1.0 - p))


def chi2_logpdf(k: int, x):
    """Log of the central chi-square density with k degrees of freedom.

    Computed through log-gamma so it stays finite for k up to 1e6.
    Returns -inf for x < 0.
    """
    if k < 1 or int(k) != k:
        raise ValueError(f"chi2 degrees of freedom must be a positive integer, got {k!r}")
    k = int(k)
    x = np.asarray(x, dtype=float)
    half = 0.5 * k
    with np.errstate(divide="ignore", invalid="ignore"):
        logpdf = (half - 1.0) * np.log(x) - 0.5 * x - half * LN2 - _sp.gammaln(half)
    if np.any(x <= 0):   # skipped on the cap integral's nodes, all positive
        logpdf = np.where(x < 0, -np.inf, logpdf)
        # x == 0 boundary: density is 0 for k > 2, 1/2 for k == 2, +inf for k == 1.
        if k == 2:
            logpdf = np.where(x == 0, np.log(0.5), logpdf)
        elif k > 2:
            logpdf = np.where(x == 0, -np.inf, logpdf)
        else:
            logpdf = np.where(x == 0, np.inf, logpdf)
    return logpdf if logpdf.ndim else float(logpdf)


def chi2_cdf(k: int, x):
    """Central chi-square CDF with k degrees of freedom."""
    return _sp.chdtr(k, np.maximum(np.asarray(x, dtype=float), 0.0))


def chi2_sf(k: int, x):
    """Central chi-square upper tail with k degrees of freedom."""
    return _sp.chdtrc(k, np.maximum(np.asarray(x, dtype=float), 0.0))


def pow_one_minus_log(log_p, log_m):
    """(1 - p)^M elementwise from ln p, with M = exp(log_m), in log space.

    Takes p through its log, so that probabilities below the smallest
    double (ln p < -745) still count.  Below p = e^-37 the hazard
    -ln(1 - p) = p (1 + p/2 + ...) equals p to rounding, so ln p stands
    for its log; above, it is -log1p(-p).
    """
    log_p = np.minimum(np.asarray(log_p, dtype=float), 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        log_hazard = np.where(log_p < -37.0, log_p, np.log(-np.log1p(-np.exp(log_p))))
        return np.exp(-np.exp(log_m + log_hazard))

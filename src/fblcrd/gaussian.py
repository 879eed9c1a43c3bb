"""Closed-form quantities and bounds for the jointly Gaussian source.

The source is X ~ N(0, var_x) with side information S = X + Z observed at
both terminals, Z ~ N(0, var_z) independent of X, and per-symbol squared
error distortion (sequence distortion is the mean of (x_i - y_i)^2, so the
distortion-D ball around x^n has radius sqrt(n D)).

Conditioned on S the source is Gaussian with variance
var_x_given_s = var_x var_z / (var_x + var_z) around the MMSE estimate
mu(s) = var_x / (var_x + var_z) * s, giving the rate
R = (1/2) ln(var_x_given_s / D) for D below the conditional variance.

The achievability construction draws codewords uniformly on the sphere of
radius r0 = sqrt(n (var_x_given_s - D)) centered at mu(s^n); a codeword
covers x^n exactly when it falls in the polar cap subtended by the
distortion ball, which is possible only for residual radii between
r1 = r0 - sqrt(nD) and r2 = r0 + sqrt(nD).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import betainc, gammaln

from .bounds import default_gamma_grid
from .coremath import chi2_cdf, chi2_logpdf, chi2_sf, gaussian_q_inv, pow_one_minus
from .exceptions import ConvergenceError, ValidationError
from .mc import McEstimate, chunk_streams, chunked_monte_carlo

#: Dispersion of the Gaussian source with side information, in nats^2 per
#: symbol; independent of both variances.
GAUSSIAN_DISPERSION = 0.5

_MC_CHUNK = 1 << 14
#: Relative tolerance of the sphere-cap quadrature.
_CAP_QUAD_TOL = 1e-8
#: Largest codebook gaussian_simulate's empirical mode samples.
_EMPIRICAL_CODEBOOK_CAP = 4096


@dataclass(frozen=True)
class GaussianModel:
    """Jointly Gaussian source/side-information pair with distortion level."""

    var_x: float
    var_z: float
    distortion: float

    def __post_init__(self):
        if self.var_x <= 0 or self.var_z <= 0:
            raise ValidationError("variances must be positive")
        if self.distortion <= 0:
            raise ValidationError("distortion must be positive")

    @property
    def var_x_given_s(self) -> float:
        return self.var_x * self.var_z / (self.var_x + self.var_z)

    @property
    def rho(self) -> float:
        """Correlation coefficient between X and S."""
        return math.sqrt(self.var_x / (self.var_x + self.var_z))

    @property
    def mmse_coeff(self) -> float:
        """Slope of the MMSE estimate of X from S."""
        return self.var_x / (self.var_x + self.var_z)

    def mu(self, s):
        """Conditional mean of X given S = s."""
        return self.mmse_coeff * np.asarray(s, dtype=float)


@dataclass(frozen=True)
class SphereCapParams:
    """Geometry of the sphere-cap codebook at blocklength n.

    All radii are derived from the model; r1 may be negative, in which case
    small residuals are entirely covered instead of entirely missed.
    """

    n: int
    r0: float
    r1: float
    r2: float
    log_m: float


def sphere_cap_params(model: GaussianModel, n: int, log_m: float) -> SphereCapParams:
    if model.distortion >= model.var_x_given_s:
        raise ValidationError("sphere-cap geometry requires D < var_x_given_s")
    r0 = math.sqrt(n * (model.var_x_given_s - model.distortion))
    rd = math.sqrt(n * model.distortion)
    return SphereCapParams(n=n, r0=r0, r1=r0 - rd, r2=r0 + rd, log_m=log_m)


def gaussian_crd(model: GaussianModel) -> float:
    """Conditional rate-distortion function, (1/2) ln(var_x_given_s / D)."""
    if model.distortion >= model.var_x_given_s:
        return 0.0
    return 0.5 * math.log(model.var_x_given_s / model.distortion)


def tilted_density_samples(model: GaussianModel, count: int, seed=0) -> np.ndarray:
    """Per-letter tilted-density samples from fresh (X, S) draws.

    Useful for checking that the per-letter variance is 1/2 nats^2
    regardless of the two variances.
    """
    rate = gaussian_crd(model)
    var = model.var_x_given_s
    out = []
    for rng, m in chunk_streams(count, seed, _MC_CHUNK):
        x = rng.standard_normal(m) * math.sqrt(model.var_x)
        z = rng.standard_normal(m) * math.sqrt(model.var_z)
        resid = x - model.mu(x + z)
        out.append(rate + (resid * resid / var - 1.0) / 2.0)
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# achievability: cap-area integral bound and Monte-Carlo simulation
# ---------------------------------------------------------------------------


def _cos_theta(w, n, model):
    """Cosine of the cap angle at normalized squared radius w = |resid|^2/var."""
    a = model.distortion / model.var_x_given_s
    z = w / n
    with np.errstate(divide="ignore", invalid="ignore"):
        return (z + 1.0 - 2.0 * a) / (2.0 * np.sqrt((1.0 - a) * z))


def _log_sakrison_prefactor(n):
    return gammaln(0.5 * n + 1.0) - gammaln(0.5 * (n - 1) + 1.0) - math.log(
        math.sqrt(math.pi) * n)


def sphere_cap_bound(model: GaussianModel, n: int, log_m: float) -> float:
    """Upper bound on eps_n for the sphere-cap codebook, by quadrature.

    Integrates (1 - f)^M against the chi-square law of the normalized
    residual radius, where f lower-bounds the normalized cap area via the
    classical sin^{n-1} estimate, and adds the two residual-tail
    probabilities.  Everything is evaluated in log space.
    """
    if n < 2:
        raise ValueError("sphere-cap bound requires n >= 2")
    var = model.var_x_given_s
    D = model.distortion
    if D >= var:
        # rate-zero codebook: a single reproduction at the conditional mean
        return float(chi2_sf(n, n * D / var))
    params = sphere_cap_params(model, n, log_m)
    w1 = params.r1**2 / var
    w2 = params.r2**2 / var
    log_pref = _log_sakrison_prefactor(n)

    def integrand(w):
        cos = _cos_theta(w, n, model)
        sin2 = np.clip(1.0 - cos * cos, 0.0, 1.0)
        with np.errstate(divide="ignore"):
            log_f = log_pref + 0.5 * (n - 1) * np.log(sin2)
        f = np.exp(log_f)
        miss = pow_one_minus(f, log_m)
        return miss * np.exp(chi2_logpdf(n, w))

    breakpoint_w = _covering_transition(n, model, log_m, w1, w2, log_pref)
    points = [breakpoint_w] if breakpoint_w is not None else None
    integral, err = integrate.quad(integrand, w1, w2, epsabs=1e-12,
                                   epsrel=_CAP_QUAD_TOL, limit=400, points=points)
    if not np.isfinite(integral) or (integral > 0 and err > max(
            10 * _CAP_QUAD_TOL * integral, 1e-9)):
        raise ConvergenceError(
            f"cap-area quadrature did not converge: value {integral!r}, residual {err!r}",
            gap=err,
        )
    tails = float(chi2_sf(n, w2))
    if params.r1 > 0:
        tails += float(chi2_cdf(n, w1))
    return min(max(integral + tails, 0.0), 1.0)


def _covering_transition(n, model, log_m, w1, w2, log_pref):
    """Solve M * f(w) = 1 inside (w1, w2); helps the quadrature subdivide."""
    def g(w):
        cos = _cos_theta(np.array([w]), n, model)[0]
        sin2 = min(max(1.0 - cos * cos, 0.0), 1.0)
        if sin2 <= 0.0:
            return -math.inf
        return log_m + log_pref + 0.5 * (n - 1) * math.log(sin2)

    lo, hi = w1 * (1 + 1e-9) + 1e-12, w2 * (1 - 1e-9)
    if g(lo) >= 0 or g(hi) <= 0:
        mid_val = g(0.5 * (lo + hi))
        if not (g(lo) < 0 < mid_val or mid_val < 0 < g(hi)):
            return None
        hi = 0.5 * (lo + hi) if g(lo) < 0 < mid_val else hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _exact_cap_fraction(cos_theta, n):
    """Exact normalized surface area of the polar cap with the given angle."""
    cos_theta = np.asarray(cos_theta, dtype=float)
    sin2 = np.clip(1.0 - cos_theta**2, 0.0, 1.0)
    half = 0.5 * betainc(0.5 * (n - 1), 0.5, sin2)
    return np.where(cos_theta >= 0, half, 1.0 - half)


def gaussian_simulate(model: GaussianModel, n: int, log_m: float, trials: int,
                      seed=0, mode: str = "analytic-cap", threads: int = 1) -> McEstimate:
    """Monte-Carlo estimate of the sphere-cap codebook excess probability.

    analytic-cap mode draws only the residual radius (its law is
    chi-square and independent of the side information) and evaluates the
    exact cap-coverage probability from the cap angle; empirical mode
    additionally samples the M codewords and is intended for small-n
    cross-checks of the analytic geometry.
    """
    var = model.var_x_given_s
    D = model.distortion
    if D >= var:
        def trial_zero(rng, m):
            w = rng.chisquare(n, size=m)
            return (w > n * D / var).astype(float)
        return chunked_monte_carlo(trials, seed, trial_zero, chunk_size=_MC_CHUNK,
                                   threads=threads)
    params = sphere_cap_params(model, n, log_m)
    if mode == "analytic-cap":
        def trial_fn(rng, m):
            w = rng.chisquare(n, size=m)
            xi = np.sqrt(var * w)
            out = np.ones(m)
            inside = (xi > max(params.r1, 0.0)) & (xi < params.r2)
            cos = (xi[inside]**2 + params.r0**2 - n * D) / (2 * xi[inside] * params.r0)
            p = _exact_cap_fraction(cos, n)
            out[inside] = pow_one_minus(p, log_m)
            if params.r1 < 0:
                out[xi <= -params.r1] = 0.0
            return out
        return chunked_monte_carlo(trials, seed, trial_fn, chunk_size=_MC_CHUNK,
                                   threads=threads)
    if mode == "empirical":
        m_size = math.exp(log_m)
        m_int = int(round(m_size))
        if abs(m_size - m_int) > 1e-6 or m_int < 1 or m_int > _EMPIRICAL_CODEBOOK_CAP:
            raise ValueError(
                f"empirical mode needs an integer codebook size <= {_EMPIRICAL_CODEBOOK_CAP}"
            )

        def trial_emp(rng, m):
            resid = rng.standard_normal((m, n)) * math.sqrt(var)
            g = rng.standard_normal((m, m_int, n))
            g /= np.linalg.norm(g, axis=2, keepdims=True)
            codewords = params.r0 * g
            sq = ((resid[:, None, :] - codewords) ** 2).sum(axis=2)
            return (sq.min(axis=1) > n * D).astype(float)
        return chunked_monte_carlo(trials, seed, trial_emp,
                                   chunk_size=1024, threads=threads)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# converse and second-order prediction
# ---------------------------------------------------------------------------


def gaussian_converse_eps(model: GaussianModel, n: int, log_m: float,
                          gamma: float | None = None) -> float:
    """Converse lower bound on eps_n, exact via the chi-square tail.

    The n-letter tilted-density sum equals n R + (W - n)/2 with W ~ chi^2_n,
    so the tail probability needs no sampling.
    """
    rate = gaussian_crd(model)

    def value(g):
        thr = n + 2.0 * (log_m + g - n * rate)
        return float(chi2_sf(n, max(thr, 0.0))) - math.exp(-g)

    if gamma is not None:
        return min(max(value(gamma), 0.0), 1.0)
    grid = default_gamma_grid(n, GAUSSIAN_DISPERSION)
    return min(max(max(value(g) for g in grid), 0.0), 1.0)


def gaussian_second_order_rate(model: GaussianModel, n: int, eps: float) -> float:
    """R + sqrt(1/(2n)) Q^{-1}(eps): the dispersion is 1/2 regardless of
    the side-information variance."""
    return gaussian_crd(model) + math.sqrt(GAUSSIAN_DISPERSION / n) * gaussian_q_inv(eps)

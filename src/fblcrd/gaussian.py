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
r1 = r0 - sqrt(nD) and r2 = r0 + sqrt(nD).  The code's excess probability
is E[(1 - f(W))^M] over the chi-square law of the normalized squared
residual radius W, with f the cap's share of the sphere: one integral,
evaluated in logs with the exact f (``cap_code_eps``) or with Sakrison's
sin^(n-1) lower bound on it (``sphere_cap_bound``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaln, gammaln, xlogy

from .bounds import default_gamma_grid
from .coremath import LN2, chi2_cdf, chi2_logpdf, chi2_sf, gaussian_q_inv, pow_one_minus_log
from .exceptions import ConvergenceError, ValidationError
from .mc import McEstimate, chunk_streams, chunked_monte_carlo

#: Dispersion of the Gaussian source with side information, in nats^2 per
#: symbol; independent of both variances.
GAUSSIAN_DISPERSION = 0.5

_MC_CHUNK = 1 << 14
#: Relative tolerance of the whole cap integral: the error estimates of its
#: pieces must sum to at most this share of its value.
_CAP_QUAD_TOL = 1e-8
#: Equal pieces the cap integral's range starts from; the adaptive rule
#: halves them where their error estimates are large.
_CAP_PIECES = 32
#: The cap integral's rule on [-1, 1]: (nodes, weights) of the 21-point
#: Gauss-Legendre rule, whose sum is a piece's value, and of the 10-point
#: rule, whose distance from it is the piece's error estimate.
_CAP_RULE = (np.polynomial.legendre.leggauss(21), np.polynomial.legendre.leggauss(10))
#: Reach of the cap integral around the chi-square mean n, in standard
#: deviations sqrt(2n); the chi^2_n mass beyond it is below 1e-100.
_CAP_REACH = 40.0
#: Largest codebook gaussian_simulate samples.
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
# achievability: the sphere-cap code's excess probability as one cap integral
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


def _log_exact_fraction(cos, n):
    """ln of the exact fraction of the codeword sphere inside the cap.

    For cos theta >= 0 the fraction is (1/2) I_x((n-1)/2, 1/2) with
    x = sin^2 theta.  Where the regularized incomplete beta falls below
    1e-290 its log is x^a (1-x)^(1/2) / (a B(a, 1/2)) in logs plus the log
    of the continued fraction (``_betacf_half``).  For cos theta < 0 the
    fraction is one minus the opposite cap's.
    """
    x = np.clip(1.0 - cos * cos, 0.0, 1.0)
    a = 0.5 * (n - 1)
    inc = betainc(a, 0.5, x)
    with np.errstate(divide="ignore"):
        log_inc = np.log(inc)
    deep = (inc < 1e-290) & (x > 0.0)
    if np.any(deep):
        xd = x[deep]
        log_inc[deep] = (a * np.log(xd) + 0.5 * np.log1p(-xd) - math.log(a)
                         - betaln(a, 0.5) + np.log(_betacf_half(a, xd)))
    return np.where(cos >= 0.0, log_inc - LN2, np.log1p(-0.5 * inc))


def _betacf_half(a, x):
    """I_x(a, 1/2) / (x^a (1-x)^(1/2) / (a B(a, 1/2))), elementwise over the
    array x: the continued fraction of Numerical Recipes' ``betacf``,
    evaluated by the modified Lentz method.

    It converges fast for x below (a + 1) / (a + 5/2), which holds with
    room to spare where I_x(a, 1/2) is below 1e-290: there x^a < 1e-290,
    so 1 - x is about 668 / a or more.  Entries that have not converged
    after 200 terms are nan, so that the cap integral's check fails
    rather than passing a wrong value.
    """
    b, tiny = 0.5, 1e-300

    def lentz(coeff, d, c):
        d = 1.0 + coeff * d
        c = 1.0 + coeff / c
        return 1.0 / np.where(np.abs(d) < tiny, tiny, d), np.where(np.abs(c) < tiny, tiny, c)

    c = np.ones_like(x)
    d = h = 1.0 / (1.0 - (a + b) * x / (a + 1.0))   # x <= 1: denominator >= 1/(2a + 2)
    converged = np.zeros(x.shape, dtype=bool)
    for m in range(1, 201):
        d, c = lentz(m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)), d, c)
        h = h * d * c
        d, c = lentz(-(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)), d, c)
        step = d * c
        h = h * step
        converged |= np.abs(step - 1.0) < 1e-12
        if converged.all():
            return h
    return np.where(converged, h, np.nan)


def _log_sakrison_fraction(cos, n):
    """ln of Sakrison's lower bound on the cap fraction, sin^(n-1) theta times
    a prefactor (exactly 1/2 at n = 1, where sin^0 = 1)."""
    sin2 = np.clip(1.0 - np.square(cos), 0.0, 1.0)
    return _log_sakrison_prefactor(n) + xlogy(0.5 * (n - 1), sin2)


def _adaptive_quadrature(fn, lo, hi):
    """Integral of fn over [lo, hi] and its error estimate, by _CAP_RULE.

    Starts from _CAP_PIECES equal pieces and evaluates the nodes of every
    new piece in one call of fn on a (pieces, nodes) array.  Stops once the
    pieces' errors sum to at most _CAP_QUAD_TOL of the value (or 1e-15);
    otherwise it halves each piece whose error exceeds its length's share of
    that budget and evaluates the halves.  It gives up, leaving the error
    above the budget, on a non-finite error, or where halving would pass 50
    pieces per starting piece (QUADPACK's default subdivision limit).
    """
    (xk, wk), (xg, wg) = _CAP_RULE
    nodes = np.concatenate([xk, xg])
    edges = np.linspace(lo, hi, _CAP_PIECES + 1)
    left, width = edges[:-1], np.diff(edges)             # pieces to evaluate
    kept = np.empty((4, 0))                              # left, width, value, error
    while True:
        half = 0.5 * width
        f = fn((left + half)[:, None] + half[:, None] * nodes)
        value = half * (f[:, :xk.size] @ wk)
        error = np.abs(value - half * (f[:, xk.size:] @ wg))
        pieces = np.hstack([kept, [left, width, value, error]])
        integral, residual = pieces[2].sum(), pieces[3].sum()
        budget = max(_CAP_QUAD_TOL * abs(integral), 1e-15)
        if not residual > budget:
            break
        split = pieces[3] > budget * pieces[1] / (hi - lo)
        n_split = np.count_nonzero(split)
        if n_split == 0 or pieces.shape[1] + n_split > 50 * _CAP_PIECES:
            break
        kept = pieces[:, ~split]
        width = 0.5 * pieces[1, split]
        left = np.concatenate([pieces[0, split], pieces[0, split] + width])
        width = np.concatenate([width, width])
    return float(integral), float(residual)


def _cap_integral(model: GaussianModel, n: int, log_m: float, log_fraction) -> float:
    """E[(1 - f(W))^M] of the sphere-cap codebook, W ~ chi^2_n, in log space.

    ``log_fraction(cos_theta, n)`` gives ln f, the fraction of the codeword
    sphere that covers a residual of normalized squared radius W.  Inside
    the reachable radii (w1, w2) the miss probability times the chi-square
    density is integrated by ``_adaptive_quadrature`` over the part within
    _CAP_REACH standard deviations of the mean; outside, residuals
    above w2 always miss, and so do those below w1 when r1 > 0 (when
    r1 < 0 they are always covered).  At D >= var_x_given_s the codebook
    is one reproduction at the conditional mean.
    """
    var = model.var_x_given_s
    D = model.distortion
    if D >= var:
        return float(chi2_sf(n, n * D / var))
    params = sphere_cap_params(model, n, log_m)
    w1 = params.r1**2 / var
    w2 = params.r2**2 / var

    def integrand(w):
        log_f = log_fraction(_cos_theta(w, n, model), n)
        return pow_one_minus_log(log_f, log_m) * np.exp(chi2_logpdf(n, w))

    reach = _CAP_REACH * math.sqrt(2.0 * n)
    lo, hi = max(w1, n - reach), min(w2, n + reach)
    integral = residual = 0.0
    if hi > lo:
        integral, residual = _adaptive_quadrature(integrand, lo, hi)
    if not math.isfinite(integral) or residual > max(10 * _CAP_QUAD_TOL * integral, 1e-9):
        raise ConvergenceError(
            f"cap-area quadrature did not converge: value {integral!r}, "
            f"residual {residual!r}", gap=residual)
    tails = float(chi2_sf(n, w2))
    if params.r1 > 0:
        tails += float(chi2_cdf(n, w1))
    return min(max(integral + tails, 0.0), 1.0)


def sphere_cap_bound(model: GaussianModel, n: int, log_m: float) -> float:
    """Upper bound on eps_n for the sphere-cap codebook.

    The cap integral (``_cap_integral``) with Sakrison's sin^(n-1) lower
    bound in place of the cap fraction, which can only overstate the
    failure probability.
    """
    return _cap_integral(model, n, log_m, _log_sakrison_fraction)


def cap_code_eps(model: GaussianModel, n: int, log_m: float) -> float:
    """Excess-distortion probability eps_n of the sphere-cap codebook.

    The cap integral (``_cap_integral``) with the exact cap fraction: the
    probability that none of M = exp(log_m) codewords drawn uniformly on
    the sphere of radius r0 lands within sqrt(nD) of the residual.
    """
    return _cap_integral(model, n, log_m, _log_exact_fraction)


def gaussian_simulate(model: GaussianModel, n: int, log_m: float, trials: int,
                      seed=0, threads: int = 1) -> McEstimate:
    """Monte-Carlo estimate of the sphere-cap codebook excess probability.

    Samples the residual and all M codewords on the sphere of radius r0,
    so it checks the cap geometry behind ``cap_code_eps`` independently;
    it is meant for small n and integer codebooks of at most
    _EMPIRICAL_CODEBOOK_CAP words.
    """
    var = model.var_x_given_s
    params = sphere_cap_params(model, n, log_m)
    m_size = math.exp(log_m)
    m_int = int(round(m_size))
    if abs(m_size - m_int) > 1e-6 or m_int < 1 or m_int > _EMPIRICAL_CODEBOOK_CAP:
        raise ValueError(
            f"sampled codewords need an integer codebook size <= {_EMPIRICAL_CODEBOOK_CAP}")

    def trial_fn(rng, m):
        resid = rng.standard_normal((m, n)) * math.sqrt(var)
        g = rng.standard_normal((m, m_int, n))
        g /= np.linalg.norm(g, axis=2, keepdims=True)
        codewords = params.r0 * g
        sq = ((resid[:, None, :] - codewords) ** 2).sum(axis=2)
        return (sq.min(axis=1) > n * model.distortion).astype(float)
    return chunked_monte_carlo(trials, seed, trial_fn, chunk_size=1024, threads=threads)


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

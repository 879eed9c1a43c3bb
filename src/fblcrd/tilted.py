"""Tilted information densities and dispersion quantities.

The distortion-tilted information density of a solved instance is

    j(x, D | s) = -ln sum_y P_{Y*|S}(y|s) exp{lam* (D - d(x, y))},

where P_{Y*|S} is the output law induced by the optimal test channel and
lam* >= 0 is the magnitude of the rate-distortion slope (the sign is folded
into the exponent: the curve decreases in D, and the stored nonnegative
value acts as the exponential tilt).  Its mean over P_XS recovers the
rate, and its variance is the dispersion governing the second-order rate
penalty sqrt(V/n) Q^{-1}(eps).  In the rate-zero regime (lam* = 0) the
density vanishes identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .exceptions import FblcrdError
from .solver import CrdSolution

#: verify_tilted_identities' limits on identity_dev, mean_dev and tilt_slack;
#: equality_dev may reach 10 * _TOL_TILT.
_TOL_IDENTITY = 1e-8
_TOL_MEAN = 1e-8
_TOL_TILT = 1e-9


@dataclass(frozen=True)
class TiltedField:
    """Per-letter tilted density table with its moments under P_XS.

    per_state_mean / per_state_var are conditional moments given S = s;
    states with zero probability carry zeros.  atoms_value / atoms_prob
    flatten the support for downstream tail computations.
    """

    table: np.ndarray        # [X, S]
    probs: np.ndarray        # [X, S], copy of the joint pmf
    mean: float
    variance: float
    third_abs: float
    per_state_mean: np.ndarray
    per_state_var: np.ndarray
    slope: float
    distortion: float

    @property
    def atoms_value(self):
        return self.table.ravel()

    @property
    def atoms_prob(self):
        return self.probs.ravel()


@dataclass(frozen=True)
class InfoDensities:
    """Conditional information-density tables for a solved instance."""

    i_xy_given_s: np.ndarray   # [X, S, Y], ln channel/induced (on the support)
    i_x_given_s: np.ndarray    # [X, S], conditional self-information


def tilted_density(solution: CrdSolution) -> TiltedField:
    """Tilted information density table and moments for a solved instance."""
    inst = solution.instance
    pmf = inst.source.pmf
    lam = solution.slope
    D = solution.target_distortion
    if lam <= 0.0:
        table = np.zeros_like(pmf)
        zeros = np.zeros(inst.s_size)
        return TiltedField(table=table, probs=pmf.copy(), mean=0.0, variance=0.0,
                           third_abs=0.0, per_state_mean=zeros,
                           per_state_var=zeros.copy(), slope=0.0,
                           distortion=D)
    # ln sum_y q(y|s) exp(-lam d(x, y)), guarded against empty supports
    with np.errstate(divide="ignore"):
        log_q = np.log(solution.induced)           # [S, Y]
    expo = log_q[None, :, :] - lam * inst.dist.d[:, None, :]   # [X, S, Y]
    table = -lam * D - logsumexp(expo, axis=2)
    mean = float((pmf * table).sum())
    var = float((pmf * (table - mean) ** 2).sum())
    third = float((pmf * np.abs(table - mean) ** 3).sum())
    p_s = inst.source.p_s
    cond = inst.source.cond_x_given_s
    per_mean = np.where(p_s > 0, (cond * table).sum(axis=0), 0.0)
    per_var = np.where(p_s > 0, (cond * (table - per_mean[None, :]) ** 2).sum(axis=0), 0.0)
    return TiltedField(table=table, probs=pmf.copy(), mean=mean, variance=var,
                       third_abs=third, per_state_mean=per_mean,
                       per_state_var=per_var, slope=lam,
                       distortion=D)


def info_densities(solution: CrdSolution) -> InfoDensities:
    """Log-ratio tables i(x;y|s) and the conditional self-information."""
    inst = solution.instance
    with np.errstate(divide="ignore", invalid="ignore"):
        i_xy = np.log(solution.channel) - np.log(solution.induced)[None, :, :]
        i_x = -np.log(inst.source.cond_x_given_s)
    return InfoDensities(i_xy_given_s=i_xy, i_x_given_s=i_x)


@dataclass(frozen=True)
class TiltedIdentityReport:
    """Worst-case slacks of the defining identities of the tilted density.

    * identity_dev — max over the channel support of
      |j - (i(x;y|s) + lam d(x,y) - lam D)|.
    * mean_dev — |E[j] - R|.
    * tilt_slack — max over sampled output laws P_{Y|S} (with X -> S -> Y) of
      E[exp{lam D - lam d(X,Y) + j}] - 1; nonpositive up to tolerance.
    * equality_dev — |E[...] - 1| when P_{Y|S} is the optimal output law.
    * ok — every slack within its limit (1e-8, 1e-8, 1e-9 and 1e-8).
    """

    identity_dev: float
    mean_dev: float
    tilt_slack: float
    equality_dev: float
    ok: bool


def verify_tilted_identities(field: TiltedField, solution: CrdSolution,
                             trials: int = 100, seed=0) -> TiltedIdentityReport:
    """Check the three defining properties of the tilted density.

    Property 3 is exercised against ``trials`` random output laws with rows
    drawn Dirichlet(1, ..., 1), so the whole simplex is covered uniformly;
    all expectations are exact finite sums, not Monte-Carlo estimates.
    """
    inst = solution.instance
    pmf = inst.source.pmf
    lam, D = field.slope, field.distortion
    dmat = inst.dist.d

    dens = info_densities(solution)
    rhs = dens.i_xy_given_s + lam * dmat[:, None, :] - lam * D
    # Restrict the pointwise check to outputs carrying material mass: a
    # certificate gap g only bounds (induced mass) x (identity error), so
    # entries below the mass floor can sit mid-decay toward leaving the
    # support with an arbitrary log-ratio.
    support = ((solution.channel > 1e-9)
               & (solution.induced > 1e-3)[None, :, :]
               & (pmf[:, :, None] > 0))
    dev = np.abs(field.table[:, :, None] - rhs)
    identity_dev = float(dev[support].max()) if support.any() else 0.0

    mean_dev = abs(field.mean - solution.rate)

    # exp{lam D - lam d(x,y) + j(x|s)} as an [X, S, Y] tensor
    weight = np.exp(lam * (D - dmat[:, None, :]) + field.table[:, :, None])
    rng = np.random.default_rng(seed)
    draws = rng.gamma(1.0, size=(trials, inst.s_size, inst.y_size))
    draws /= draws.sum(axis=2, keepdims=True)
    expectations = np.einsum("xs,tsy,xsy->t", pmf, draws, weight)
    tilt_slack = float(expectations.max() - 1.0) if trials else -np.inf

    eq = float(np.einsum("xs,sy,xsy->", pmf, solution.induced, weight))
    equality_dev = abs(eq - 1.0)

    ok = (identity_dev <= _TOL_IDENTITY and mean_dev <= _TOL_MEAN
          and tilt_slack <= _TOL_TILT and equality_dev <= 10.0 * _TOL_TILT)
    return TiltedIdentityReport(
        identity_dev=identity_dev, mean_dev=mean_dev, tilt_slack=tilt_slack,
        equality_dev=equality_dev, ok=ok,
    )


@dataclass(frozen=True)
class VarianceDecomposition:
    """Law-of-total-variance split of the dispersion.

    within  = E[var(j | S)]    — source randomness inside each state,
    between = var(E[j | S])    — side-information randomness across states.
    """

    total: float
    within: float
    between: float


def dispersion_v(field: TiltedField) -> VarianceDecomposition:
    """Dispersion V = var(j) with its exact conditional decomposition."""
    p_s = field.probs.sum(axis=0)
    within = float(p_s @ field.per_state_var)
    between = float(p_s @ (field.per_state_mean - field.mean) ** 2)
    total = field.variance
    if abs(total - (within + between)) > 1e-10 * max(1.0, abs(total)):
        raise FblcrdError(
            f"law-of-total-variance mismatch: {total!r} vs {within + between!r}"
        )
    return VarianceDecomposition(total=total, within=within, between=between)


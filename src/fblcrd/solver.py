"""Conditional rate-distortion solver.

Computes R(X;D|S) = min I(X;Y|S) over test channels P_{Y|XS} meeting an
expected-distortion budget.  One slope search finds the solution:
alternating minimization over the joint channel tensor with a single
Lagrange multiplier (slope) on the joint distortion constraint, wrapped in
an outer bisection that drives the achieved distortion to the budget.  The
Lagrangian separates over side-information states, so the per-state
distortions of that solution are the equal-slope allocation of
R(X;D|S) = sum_s P_S(s) R_{X|S=s}(d_s).

The inner alternating minimization carries a primal-dual certificate: for
the output-marginal iterate q, the multiplicative update factor kappa
satisfies sum_y q(y) kappa(y) = 1, and convexity of the Lagrangian in q
gives  value(q) - value(q*) <= max_y kappa(y) - 1.  Iterations stop when
the probability-weighted certificate drops below the gap tolerance.  The
iteration runs on the row-shifted kernel exp(-lam (d - min_y d)), whose
entries lie in [0, 1] at every slope.  Where an output enters or leaves
the optimal support the multiplicative update decays geometrically with
ratio near 1; a certificate that has not halved over 128 iterations hands
the output law to a Newton solve of the stationarity system over
enumerated supports.

The slope search runs once, at that one gap tolerance: every probe warm
starts from the previous probe's output law, whose exact zeros alone are
revived, and the two bracket ends enter the final timeshare as solved.

The reported rate is certified from the same solution: Blahut's dual
bound at its slope and output law is a lower bound on R(D), and
``solve_crd`` refuses to answer when the two differ by more than 10*tol.
``solve_rd_per_state`` solves one source without side information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, InfeasibleDistortionError
from .source import FLOOR_SLACK, DistortionSpec, Instance, JointSource, validate

_TINY = 1e-300
_MAX_SLOPE = float(2.0**60)
_MAX_ITER = 400_000
#: Solver tolerance of the solves behind rd_gradient's finite differences.
_GRADIENT_TOL = 1e-10


# ---------------------------------------------------------------------------
# fixed-slope inner solver (vectorized over side-information states)
# ---------------------------------------------------------------------------


@dataclass
class _SlopeSolution:
    """Certified near-minimizer of I + lam * E[d] for a batch of states."""

    lam: float
    q: np.ndarray          # [S, Y] output-law iterate
    channel: np.ndarray    # [S, X, Y]
    induced: np.ndarray    # [S, Y] marginal of channel (exact)
    rate_s: np.ndarray     # [S]
    dist_s: np.ndarray     # [S]
    gap: float
    iterations: int


def _rate_per_state(cond, channel, induced):
    """I(X;Y|S=s) per state from a channel [S,X,Y] and its marginal [S,Y].

    Entries below 1e-300 are treated as structural zeros; their log-ratio
    contribution is below 1e-297 nats and denormal arithmetic on them can
    manufacture spurious infinities.
    """
    live = (channel > _TINY) & (induced > _TINY)[:, None, :] & (cond > 0)[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log(channel) - np.log(induced)[:, None, :]
        term = np.where(live, channel * ratio, 0.0)
    return np.einsum("sx,sxy->s", cond, term)


def _logsumexp(a, axis):
    m = np.max(a, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = m_safe + np.log(np.exp(a - m_safe).sum(axis=axis, keepdims=True))
    return np.where(np.isfinite(m), out, m)


def _warm_start(q0, n_s, n_y):
    """Start from a neighboring slope's output law, reviving its exact zeros.

    The multiplicative update cannot revive an output whose mass has
    decayed to exact zero, and the optimal support at the new slope may
    include it, so each exact zero gets mass 1e-3/n_y.  Positive entries
    are kept as they are: mixing uniform mass into them would cost the
    iteration thousands of steps to drive back out of outputs that are
    leaving the support.
    """
    if q0 is None:
        return np.full((n_s, n_y), 1.0 / n_y)
    q = np.where(q0 > 0.0, q0, 1e-3 / n_y)
    return q / q.sum(axis=1, keepdims=True)


def _newton_support(ps, A, qs, support):
    """Newton on kappa(y) = 1 restricted to a candidate support set.

    Returns the solved output law over the full alphabet (zeros off the
    support) or None when the iteration fails to make progress.
    """
    idx = np.flatnonzero(support)
    if idx.size == 0:
        return None
    q_try = np.zeros_like(qs)
    base = qs[idx]
    if base.sum() <= 0 or np.any(base <= 0):
        base = np.full(idx.size, 1.0 / idx.size)
    q_try[idx] = base / base.sum()
    for _ in range(60):
        c = A @ q_try
        if np.any((c <= _TINY) & (ps > 0)):
            return None
        r = ps / np.maximum(c, _TINY)
        kap = r @ A
        f = kap[idx] - 1.0
        fmax = np.abs(f).max()
        if fmax <= 1e-14:
            break
        m = A[:, idx] / np.maximum(c, _TINY)[:, None]
        jac = -(m.T * ps) @ m
        try:
            delta = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return None
        stepped = False
        for t in (1.0, 0.5, 0.25, 0.125, 0.0625):
            trial = q_try[idx] + t * delta
            if trial.min() <= 0.0:
                continue
            cand = np.zeros_like(q_try)
            cand[idx] = trial
            kap_try = (ps / np.maximum(A @ cand, _TINY)) @ A
            if np.abs(kap_try[idx] - 1.0).max() < fmax:
                q_try = cand
                stepped = True
                break
        if not stepped:
            return None
    total = q_try.sum()
    if not np.isfinite(total) or total <= 0:
        return None
    return q_try / total


def _newton_polish(cond, A, q, kappa, gap_tol):
    """Finish convergence by solving the stationarity system directly.

    The multiplicative update identifies the optimal output support only
    sublinearly (and not at all when the tilt matrix has fewer rows than
    outputs, where the optimum lives on a low-dimensional face).  For each
    state, candidate supports are enumerated from largest to smallest and
    solved by Newton; a candidate is kept when it satisfies the full KKT
    conditions, kappa = 1 on the support and kappa <= 1 off it.  The
    caller re-certifies the result and keeps it only if the certificate
    improves.
    """
    from itertools import combinations

    q = q.copy()
    n_s, n_y = q.shape
    for s in range(n_s):
        ps = cond[s]
        qs = q[s]
        active = (qs > 1e-13) | (kappa[s] > 1.0 + 0.1 * gap_tol)
        idx_all = np.flatnonzero(active)
        best = None
        best_excess = max(kappa[s].max() - 1.0, 0.0)
        for size in range(idx_all.size, 0, -1):
            for subset in combinations(idx_all, size):
                mask = np.zeros(n_y, dtype=bool)
                mask[list(subset)] = True
                cand = _newton_support(ps, A, qs, mask)
                if cand is None:
                    continue
                kap = (ps / np.maximum(A @ cand, _TINY)) @ A
                excess = max(kap.max() - 1.0, 0.0)
                if excess < best_excess:
                    best, best_excess = cand, excess
            if best is not None and best_excess <= 0.25 * gap_tol:
                break
        if best is not None:
            q[s] = best
    return q


def _certify(cond, w, a, q):
    """c = q A^T, the update factors kappa [S, Y] and the weighted certificate."""
    c = q @ a.T
    np.maximum(c, _TINY, out=c)
    kappa = (cond / c) @ a
    return c, kappa, float(w @ np.maximum(kappa.max(axis=1) - 1.0, 0.0))


def _extrapolate(q, kappa, beta):
    """The output law q * kappa^beta, formed in logs and renormalized."""
    with np.errstate(divide="ignore"):
        log_q = np.log(q) + beta * np.log(kappa)
    cand = np.exp(log_q - log_q.max(axis=1, keepdims=True))
    return cand / cand.sum(axis=1, keepdims=True)


def _lagrangian_solve(cond, w, dmat, lam, q0=None, gap_tol=1e-12):
    """Alternating minimization at fixed slope lam >= 0.

    cond [S,X] holds P(x|s) rows, w [S] the state weights, dmat [X,Y] the
    distortion matrix.  Rows of dmat are shifted by their minimum before
    exponentiation, so every entry of the kernel A = exp(-lam (d - min_y d))
    lies in [0, 1] at every slope: steep slopes underflow to 0 off each
    row's nearest outputs, never overflow, and A tends to the 0/1
    indicator of the row minima.

    Support identification (an output symbol entering or leaving the
    optimal law) makes the plain multiplicative update geometrically slow
    with ratio near 1.  Every 64 iterations a decay slower than 0.9 per
    iteration is extrapolated by the implied geometric factor (accepted
    only if the certificate improves), which jumps past short stalls
    without leaving the simplex.  Every 128 iterations, if the certificate
    has not halved, the Newton polish identifies the optimal support
    outright (at most 8 times; kept only if the certificate falls); a
    certificate that stays flat even so has hit its numerical floor and
    ends the iteration, and the caller checks the gap it returns.
    """
    a = np.exp(-lam * (dmat - dmat.min(axis=1, keepdims=True)))
    q = _warm_start(q0, cond.shape[0], dmat.shape[1])
    check = 64
    horizon = 128
    prev_gap = None
    hist_gap = None
    polish_attempts = 0
    c, kappa, gap = _certify(cond, w, a, q)
    for it in range(1, _MAX_ITER + 1):
        if gap <= gap_tol:
            break
        if it % horizon == 0:
            # not halved over the horizon: a support change is stalling
            # the update, so identify the support outright
            if hist_gap is not None and gap > 0.5 * hist_gap:
                improved = False
                if polish_attempts < 8:
                    polish_attempts += 1
                    cand = _newton_polish(cond, a, q, kappa, gap_tol)
                    c2, k2, g2 = _certify(cond, w, a, cand)
                    if g2 < gap:
                        q, c, kappa, gap = cand, c2, k2, g2
                        improved = True
                # still flat (micro improvements from the extrapolation
                # ladder aside): the certificate is at its numerical floor
                if not improved and gap > 0.999 * hist_gap:
                    break
            hist_gap = gap
        if it % check == 0:
            if prev_gap is not None and gap > 0.0:
                rho = min((gap / prev_gap) ** (1.0 / check), 1.0 - 1e-12)
                accepted = False
                if rho > 0.9:
                    beta0 = min(1.0 / (1.0 - rho), 1e8)
                    for beta in (beta0, beta0 / 16.0, beta0 / 256.0):
                        if beta <= 1.0:
                            break
                        cand = _extrapolate(q, kappa, beta)
                        c2, k2, g2 = _certify(cond, w, a, cand)
                        if g2 < gap:
                            q, c, kappa, gap = cand, c2, k2, g2
                            accepted = True
                            break
                if accepted:
                    prev_gap = None
                    continue
            prev_gap = gap
        q = q * kappa
        q /= q.sum(axis=1, keepdims=True)
        c, kappa, gap = _certify(cond, w, a, q)
    else:
        it = _MAX_ITER
    channel = q[:, None, :] * a[None, :, :] / c[:, :, None]
    induced = q * kappa
    induced /= induced.sum(axis=1, keepdims=True)
    dist_s = np.einsum("sx,sxy,xy->s", cond, channel, dmat)
    rate_s = _rate_per_state(cond, channel, induced)
    return _SlopeSolution(
        lam=lam, q=q, channel=channel, induced=induced,
        rate_s=rate_s, dist_s=dist_s, gap=gap, iterations=it,
    )


def _zero_rate_solution(cond, dmat):
    """The best rate-zero code: one constant reproduction per state."""
    n_s, n_x = cond.shape
    per_y = cond @ dmat                      # [S, Y] expected distortion per constant output
    best = per_y.argmin(axis=1)
    n_y = dmat.shape[1]
    q = np.zeros((n_s, n_y))
    q[np.arange(n_s), best] = 1.0
    channel = np.broadcast_to(q[:, None, :], (n_s, n_x, n_y)).copy()
    dist_s = per_y[np.arange(n_s), best]
    return _SlopeSolution(
        lam=0.0, q=q, channel=channel, induced=q.copy(),
        rate_s=np.zeros(n_s), dist_s=dist_s.copy(), gap=0.0, iterations=0,
    )


@dataclass
class _TargetSolution:
    """Solution of the distortion-constrained problem at a target budget."""

    slope: float
    channel: np.ndarray
    induced: np.ndarray
    rate_s: np.ndarray
    dist_s: np.ndarray
    gap: float


def _mix(sol_lo, sol_hi, cond, target, w):
    """Timeshare two fixed-slope solutions so the weighted distortion hits target.

    On a linear stretch of the rate-distortion curve the mixture of the two
    bracketing channels is itself optimal; elsewhere the bracket has already
    collapsed and the blend is a no-op up to solver tolerance.
    """
    d_lo = float(w @ sol_lo.dist_s)
    d_hi = float(w @ sol_hi.dist_s)
    if d_lo - d_hi > 1e-300:
        alpha = (target - d_hi) / (d_lo - d_hi)
    else:
        alpha = 0.5
    alpha = min(max(alpha, 0.0), 1.0)
    channel = alpha * sol_lo.channel + (1.0 - alpha) * sol_hi.channel
    induced = alpha * sol_lo.induced + (1.0 - alpha) * sol_hi.induced
    dist_s = alpha * sol_lo.dist_s + (1.0 - alpha) * sol_hi.dist_s
    rate_s = _rate_per_state(cond, channel, induced)
    slope = 0.5 * (sol_lo.lam + sol_hi.lam)
    # Lagrangian value is convex in the channel, so certificates blend.
    gap = alpha * sol_lo.gap + (1.0 - alpha) * sol_hi.gap
    return _TargetSolution(
        slope=slope, channel=channel, induced=induced,
        rate_s=rate_s, dist_s=dist_s, gap=gap,
    )


def _bisect_slope(cond, w, dmat, target, gap_tol):
    """Outer slope search: find lam with achieved distortion = target.

    The achieved distortion of the fixed-slope solution is nonincreasing in
    lam; the bracket starts at lam = 0 (the rate-zero code) and grows
    geometrically until the distortion budget is met, then shrinks.  Every
    probe is solved at the one certificate tolerance gap_tol, so both
    bracket ends can enter the final mixture as they stand.

    At the feasibility floor no finite slope may bring the computed
    distortion down to the target: the steepest slope's solution then
    stands for the floor solution when its distortion exceeds the target by
    at most FLOOR_SLACK, the slack solve_crd grants below the floor.
    """
    lo, sol_lo = 0.0, _zero_rate_solution(cond, dmat)
    hi = sol_hi = q_warm = None
    lam = 1.0
    while lam <= _MAX_SLOPE:
        sol = _lagrangian_solve(cond, w, dmat, lam, q0=q_warm, gap_tol=gap_tol)
        q_warm = sol.q
        if float(w @ sol.dist_s) <= target:
            hi, sol_hi = lam, sol
            break
        lo, sol_lo = lam, sol
        lam *= 4.0
    if hi is None:
        reached = float(w @ sol_lo.dist_s)
        if reached - target > FLOOR_SLACK:
            raise ConvergenceError(
                f"slope search exhausted at lam={lo:g}; distortion "
                f"{reached!r} still above target {target!r}",
                gap=reached - target,
            )
        return _mix(sol_lo, sol_lo, cond, target, w)
    lo, sol_lo, hi, sol_hi = _refine_bracket(
        cond, w, dmat, target, lo, sol_lo, hi, sol_hi, q_warm, gap_tol)
    return _mix(sol_lo, sol_hi, cond, target, w)


def _refine_bracket(cond, w, dmat, target, lo, sol_lo, hi, sol_hi, q_warm, gap_tol):
    """Shrink a slope bracket around the distortion target.

    Interleaves secant (false-position) steps with plain halving; the
    achieved distortion is monotone in the slope, so the bracket invariant
    (distortion above the target at lo, at or below it at hi) is preserved
    throughout.  On a smooth stretch of the curve the secant hits the
    target within a handful of probes and the search exits early, but only
    on a probe at most atol below the target, never above it; at a corner
    or linear face (where no slope attains the target exactly) the halving
    steps still collapse the bracket geometrically.
    """
    atol = 1e-13 * max(1.0, abs(target))
    for it in range(200):
        if hi - lo <= 3e-11 * (1.0 + hi):
            break
        d_lo = float(w @ sol_lo.dist_s) - target
        d_hi = float(w @ sol_hi.dist_s) - target
        mid = 0.5 * (lo + hi)
        if it % 2 == 0 and d_lo > 0.0 > d_hi and d_lo - d_hi > 1e-300:
            secant = lo + d_lo * (hi - lo) / (d_lo - d_hi)
            width = hi - lo
            secant = min(max(secant, lo + 0.01 * width), hi - 0.01 * width)
            mid = secant
        sol = _lagrangian_solve(cond, w, dmat, mid, q0=q_warm, gap_tol=gap_tol)
        q_warm = sol.q
        achieved = float(w @ sol.dist_s)
        if 0.0 <= target - achieved <= atol:
            return mid, sol, mid, sol
        if achieved <= target:
            hi, sol_hi = mid, sol
        else:
            lo, sol_lo = mid, sol
    return lo, sol_lo, hi, sol_hi


# ---------------------------------------------------------------------------
# public per-state solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerStateSolution:
    """Rate-distortion solution for a single source (no side information)."""

    rate: float
    channel: np.ndarray    # [X, Y]
    induced: np.ndarray    # [Y]
    slope: float
    distortion: float
    gap: float


def solve_rd_per_state(px, dist, target_d: float, tol: float = 1e-9) -> PerStateSolution:
    """Rate-distortion function of a single source at distortion target_d.

    solve_crd on the one-state instance with source pmf px: rate 0 exactly
    once target_d reaches the distortion of the best constant-output code,
    InfeasibleDistortionError below the floor E[min_y d(X, y)], and the
    rate certified against Blahut's dual bound.
    """
    px = np.asarray(px, dtype=float)
    if px.ndim != 1:
        raise ValueError("px must be a pmf over the distortion matrix rows")
    sol = solve_crd(validate(JointSource(px[:, None]), dist), target_d, tol=tol)
    return PerStateSolution(rate=sol.rate, channel=sol.channel[:, 0, :],
                            induced=sol.induced[0], slope=sol.slope,
                            distortion=sol.distortion, gap=sol.gap)


# ---------------------------------------------------------------------------
# joint solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrdSolution:
    """Solution of the conditional rate-distortion problem.

    channel[x, s, y] holds P(y | x, s); induced[s, y] is its marginal
    against the conditional source law.  slope is the nonnegative magnitude
    of dR/dD (the curve is nonincreasing, and the stored value is the
    exponential-tilt parameter used by the tilted information density).
    rate_lower is Blahut's dual lower bound on R(target_distortion) at that
    slope and the induced output law.
    """

    rate: float
    channel: np.ndarray
    induced: np.ndarray
    slope: float
    distortion: float
    target_distortion: float
    allocation: np.ndarray
    gap: float
    instance: Instance
    rate_lower: float


def _dual_lower_bound(cond, w, dmat, lam, q, D):
    """Blahut's dual lower bound on R(D) from a slope lam >= 0 and output laws q [S, Y].

    R(D) >= -lam * D + sum_s w_s [-sum_x p(x|s) ln c_s(x) - ln max_y kappa_s(y)]
    with c_s(x) = sum_y q_s(y) exp(-lam d(x, y)) and kappa_s(y) = sum_x
    p(x|s) exp(-lam d(x, y)) / c_s(x) (Blahut 1972; Cover & Thomas 10.8).
    Shifting each row of d by its minimum takes lam * floor out of every
    ln c_s(x) and into -lam * (D - floor); unshifted, the two large terms
    cancel catastrophically at steep slopes.  Logs keep c_s in range.
    """
    row_min = dmat.min(axis=1)
    floor = float(w @ (cond @ row_min))
    log_a = -lam * (dmat - row_min[:, None])
    with np.errstate(divide="ignore"):
        log_q, log_cond = np.log(q), np.log(cond)
    log_c = _logsumexp(log_q[:, None, :] + log_a[None, :, :], axis=2)[:, :, 0]
    log_kappa = _logsumexp(
        (log_cond - log_c)[:, :, None] + log_a[None, :, :], axis=1)[:, 0, :]
    per_state = -np.einsum("sx,sx->s", cond, log_c) - log_kappa.max(axis=1)
    return -lam * max(D - floor, 0.0) + float(w @ per_state)


def solve_crd(instance, D: float, tol: float = 1e-9,
              dist: DistortionSpec | None = None) -> CrdSolution:
    """Solve min I(X;Y|S) subject to E[d(X,Y)] <= D.

    One equal-slope search over the joint channel tensor yields the
    solution, its weighted rate and its per-state distortion allocation.
    Blahut's dual bound at the solution's slope and output law gives
    rate_lower <= R(D); ConvergenceError is raised when the inner
    certificate exceeds tol or the rate and rate_lower differ by more than
    10*tol.
    """
    instance = validate(instance, dist)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not instance.feasible(D):
        raise InfeasibleDistortionError(
            f"distortion {D!r} is below the feasibility floor {instance.d_floor!r}"
        )
    src, dspec = instance.source, instance.dist
    zr = instance.zero_rate_distortion
    if D >= zr - 1e-12 * max(1.0, zr):
        return _zero_rate_crd(instance, D)

    kept = np.flatnonzero(src.p_s > 0)
    w = src.p_s[kept] / src.p_s[kept].sum()
    cond = src.cond_x_given_s[:, kept].T.copy()   # [S_kept, X]
    joint = _bisect_slope(cond, w, dspec.d, D, max(tol / 1000.0, 1e-13))
    if joint.gap > tol:
        raise ConvergenceError(
            f"joint minimization stalled with certificate gap {joint.gap:g}",
            gap=joint.gap,
        )
    rate = float(w @ joint.rate_s)
    rate_lower = _dual_lower_bound(cond, w, dspec.d, joint.slope, joint.induced, D)
    if abs(rate - rate_lower) > 10.0 * tol:
        raise ConvergenceError(
            f"rate {rate!r} is not within 10*tol of its dual lower bound {rate_lower!r}",
            gap=abs(rate - rate_lower),
        )
    allocation = np.array(instance.zero_rate_by_state, dtype=float)
    allocation[kept] = joint.dist_s
    channel, induced = _reinsert_states(instance, kept, joint.channel, joint.induced)
    return CrdSolution(
        rate=rate,
        channel=channel,
        induced=induced,
        slope=joint.slope,
        distortion=float(w @ joint.dist_s),
        target_distortion=D,
        allocation=allocation,
        gap=joint.gap,
        instance=instance,
        rate_lower=rate_lower,
    )


def _constant_output_code(instance):
    """The best constant-output channel [X, S, Y] and its induced law [S, Y]."""
    n_x, n_s, n_y = instance.x_size, instance.s_size, instance.y_size
    channel = np.zeros((n_x, n_s, n_y))
    induced = np.zeros((n_s, n_y))
    induced[np.arange(n_s), instance.best_y_by_state] = 1.0
    channel[:, np.arange(n_s), instance.best_y_by_state] = 1.0
    return channel, induced


def _reinsert_states(instance, kept, channel_k, induced_k):
    """Expand kept-state arrays back to the full state axis.

    Dropped (probability-zero) states get the constant-output code; they
    contribute to no expectation.
    """
    channel, induced = _constant_output_code(instance)
    channel[:, kept, :] = np.moveaxis(channel_k, 0, 1)
    induced[kept, :] = induced_k
    return channel, induced


def _zero_rate_crd(instance, D):
    channel, induced = _constant_output_code(instance)
    zr = instance.zero_rate_distortion
    allocation = instance.zero_rate_by_state + (D - zr)
    return CrdSolution(
        rate=0.0, channel=channel, induced=induced, slope=0.0,
        distortion=zr, target_distortion=D, allocation=allocation,
        gap=0.0, instance=instance, rate_lower=0.0,
    )


# ---------------------------------------------------------------------------
# gradient of the rate with respect to the joint source law
# ---------------------------------------------------------------------------


def rd_gradient(instance, D: float, h: float = 1e-5,
                scheme: str = "forward") -> np.ndarray:
    """Finite-difference gradient of R with respect to the joint pmf entries.

    Each entry (a, b) of P_XS is perturbed by +h as a free variable, without
    renormalizing the remaining entries.  The rate functional is extended to
    unnormalized measures Pbar by mass scaling, R(Pbar) = m * R(Pbar / m)
    with m the total mass (the distortion budget is per unit mass), which is
    the degree-1 homogeneous extension; its gradient entries equal the
    tilted information density on test instances.
    """
    instance = validate(instance)
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"step h must lie in [1e-7, 1e-3], got {h!r}")
    if scheme not in ("forward", "central"):
        raise ValueError(f"unknown scheme {scheme!r}")
    pmf = instance.source.pmf
    base = solve_crd(instance, D, tol=_GRADIENT_TOL).rate
    grad = np.empty_like(pmf)
    for a in range(pmf.shape[0]):
        for b in range(pmf.shape[1]):
            r_plus = _perturbed_rate(instance, pmf, a, b, +h, D)
            if scheme == "central" and pmf[a, b] >= h:
                r_minus = _perturbed_rate(instance, pmf, a, b, -h, D)
                grad[a, b] = (r_plus - r_minus) / (2.0 * h)
            else:
                grad[a, b] = (r_plus - base) / h
    return grad


def _perturbed_rate(instance, pmf, a, b, h, D):
    mass = 1.0 + h
    perturbed = pmf.copy()
    perturbed[a, b] += h
    src = JointSource(perturbed / mass)
    try:
        sol = solve_crd(validate(src, instance.dist), D, tol=_GRADIENT_TOL)
    except InfeasibleDistortionError as exc:
        raise InfeasibleDistortionError(
            f"perturbing mass at (x={a}, s={b}) by {h:+g} makes distortion {D!r} "
            f"infeasible: {exc}"
        ) from exc
    return mass * sol.rate


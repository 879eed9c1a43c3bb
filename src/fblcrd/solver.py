"""Conditional rate-distortion solver.

Computes R(X;D|S) = min I(X;Y|S) over test channels P_{Y|XS} meeting an
expected-distortion budget.  One slope search finds the solution:
alternating minimization over the joint channel tensor with a single
Lagrange multiplier (slope) on the joint distortion constraint, wrapped in
an outer bisection that drives the achieved distortion to the budget.  The
Lagrangian separates over side-information states, so the per-state
distortions of that solution are the equal-slope allocation of
R(X;D|S) = sum_s P_S(s) R_{X|S=s}(d_s).

``solve_crd`` reports the rate by two routes:

* ``direct`` — the weighted rate of the joint solution.
* ``decomposed`` — each state's rate-distortion function solved on its own
  at its allocated distortion, then weighted by P_S.

The default runs both and cross-checks them; the decomposed route alone
takes its allocation from the same slope search at a relaxed certificate.

The inner alternating minimization carries a primal-dual certificate: for
the output-marginal iterate q, the multiplicative update factor kappa
satisfies sum_y q(y) kappa(y) = 1, and convexity of the Lagrangian in q
gives  value(q) - value(q*) <= max_y kappa(y) - 1.  Iterations stop when
the probability-weighted certificate drops below the gap tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConvergenceError, InfeasibleDistortionError
from .source import DistortionSpec, Instance, JointSource, validate

_TINY = 1e-300
_MAX_SLOPE = float(2.0**60)
_MAX_ITER = 400_000
_ALLOCATION_GAP_TOL = 1e-12


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
    """Blend a warm start with a little uniform mass.

    The multiplicative update cannot revive an output whose mass has
    decayed to exact zero, so a warm start taken from a neighboring slope
    (where the optimal support may differ) must keep every output alive.
    """
    if q0 is None:
        return np.full((n_s, n_y), 1.0 / n_y)
    q = (1.0 - 1e-3) * q0 + 1e-3 / n_y
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


def _lagrangian_solve(cond, w, dmat, lam, q0=None, gap_tol=1e-12):
    """Alternating minimization at fixed slope lam >= 0.

    cond [S,X] holds P(x|s) rows, w [S] the state weights, dmat [X,Y] the
    distortion matrix.  Rows of dmat are shifted by their minimum before
    exponentiation, which keeps moderate slopes in range; once lam times
    the within-row spread exceeds float range the whole iteration moves to
    log space.

    Support identification (an output symbol entering or leaving the
    optimal law) makes the plain multiplicative update geometrically slow
    with ratio near 1; when the certificate decays that slowly the update
    is extrapolated by the implied geometric factor (accepted only if the
    certificate improves), which jumps past the stall without leaving the
    simplex.
    """
    spread = float((dmat.max(axis=1) - dmat.min(axis=1)).max())
    if lam * spread > 400.0:
        return _lagrangian_solve_log(cond, w, dmat, lam, q0=q0, gap_tol=gap_tol)
    n_s, n_x = cond.shape
    n_y = dmat.shape[1]
    A = np.exp(-lam * (dmat - dmat.min(axis=1, keepdims=True)))
    q = _warm_start(q0, n_s, n_y)

    def certify(qq):
        c = qq @ A.T
        np.maximum(c, _TINY, out=c)
        kappa = (cond / c) @ A
        gap = float(w @ np.maximum(kappa.max(axis=1) - 1.0, 0.0))
        return c, kappa, gap

    check = 64
    horizon = 128
    prev_gap = None
    hist_gap = None
    newton_attempts = 0
    c, kappa, gap = certify(q)
    for it in range(1, _MAX_ITER + 1):
        if gap <= gap_tol:
            break
        if it % horizon == 0:
            # certificate essentially flat over a long stretch (micro
            # improvements from the extrapolation ladder do not count):
            # identify the optimal support outright, and if even that
            # cannot move the certificate, it has hit its numerical floor
            if hist_gap is not None and gap > 0.999 * hist_gap:
                improved = False
                if gap < 1e-2 and newton_attempts < 8:
                    newton_attempts += 1
                    cand = _newton_polish(cond, A, q, kappa, gap_tol)
                    c2, k2, g2 = certify(cand)
                    if g2 < gap:
                        q, c, kappa, gap = cand, c2, k2, g2
                        improved = True
                if not improved:
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
                        with np.errstate(divide="ignore"):
                            logq = np.log(q) + beta * np.log(kappa)
                        logq -= logq.max(axis=1, keepdims=True)
                        cand = np.exp(logq)
                        cand /= cand.sum(axis=1, keepdims=True)
                        c2, k2, g2 = certify(cand)
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
        c, kappa, gap = certify(q)
    else:
        it = _MAX_ITER
    if gap > gap_tol and q0 is not None:
        # a polluted warm start can pin the iteration at a certificate
        # floor that a fresh start sails below
        return _lagrangian_solve(cond, w, dmat, lam, q0=None, gap_tol=gap_tol)
    channel = q[:, None, :] * A[None, :, :] / c[:, :, None]
    induced = q * kappa
    induced /= induced.sum(axis=1, keepdims=True)
    dist_s = np.einsum("sx,sxy,xy->s", cond, channel, dmat)
    rate_s = _rate_per_state(cond, channel, induced)
    return _SlopeSolution(
        lam=lam, q=q, channel=channel, induced=induced,
        rate_s=rate_s, dist_s=dist_s, gap=gap, iterations=it,
    )


def _lagrangian_solve_log(cond, w, dmat, lam, q0=None, gap_tol=1e-12):
    """Log-domain twin of the fixed-slope iteration, for very steep slopes."""
    n_s, n_x = cond.shape
    n_y = dmat.shape[1]
    log_a = -lam * (dmat - dmat.min(axis=1, keepdims=True))   # [X, Y]
    with np.errstate(divide="ignore"):
        log_cond = np.log(cond)
        log_q = np.log(_warm_start(q0, n_s, n_y))

    def certify(lq):
        # log c[s, x] = lse_y(log q[s, y] + log A[x, y])
        log_c = _logsumexp(lq[:, None, :] + log_a[None, :, :], axis=2)[:, :, 0]
        log_kappa = _logsumexp(
            (log_cond - log_c)[:, :, None] + log_a[None, :, :], axis=1)[:, 0, :]
        with np.errstate(over="ignore"):
            gap = float(w @ np.maximum(np.exp(log_kappa.max(axis=1)) - 1.0, 0.0))
        return log_c, log_kappa, gap

    check = 64
    horizon = 128
    prev_gap = None
    hist_gap = None
    log_c, log_kappa, gap = certify(log_q)
    for it in range(1, _MAX_ITER + 1):
        if gap <= gap_tol:
            break
        if it % horizon == 0:
            if hist_gap is not None and gap > 0.999 * hist_gap:
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
                        cand = log_q + beta * log_kappa
                        cand -= _logsumexp(cand, axis=1)
                        c2, k2, g2 = certify(cand)
                        if g2 < gap:
                            log_q, log_c, log_kappa, gap = cand, c2, k2, g2
                            accepted = True
                            break
                if accepted:
                    prev_gap = None
                    continue
            prev_gap = gap
        log_q = log_q + log_kappa
        log_q -= _logsumexp(log_q, axis=1)
        log_c, log_kappa, gap = certify(log_q)
    else:
        it = _MAX_ITER
    if gap > gap_tol and q0 is not None:
        return _lagrangian_solve_log(cond, w, dmat, lam, q0=None, gap_tol=gap_tol)
    channel = np.exp(log_q[:, None, :] + log_a[None, :, :] - log_c[:, :, None])
    channel /= channel.sum(axis=2, keepdims=True)
    induced = np.exp(log_q + log_kappa)
    induced /= induced.sum(axis=1, keepdims=True)
    q = np.exp(log_q)
    q /= q.sum(axis=1, keepdims=True)
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


def _mix(sol_lo, sol_hi, cond, target_total, w):
    """Timeshare two fixed-slope solutions so the weighted distortion hits target.

    On a linear stretch of the rate-distortion curve the mixture of the two
    bracketing channels is itself optimal; elsewhere the bracket has already
    collapsed and the blend is a no-op up to solver tolerance.
    """
    d_lo = float(w @ sol_lo.dist_s)
    d_hi = float(w @ sol_hi.dist_s)
    if d_lo - d_hi > 1e-300:
        alpha = (target_total - d_hi) / (d_lo - d_hi)
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


def _bisect_slope(cond, w, dmat, target, gap_tol, slope_hint=None):
    """Outer slope search: find lam with achieved distortion = target.

    The achieved distortion of the fixed-slope solution is nonincreasing in
    lam; the bracket starts at lam = 0 (the rate-zero code) and grows
    geometrically until the distortion budget is met, then bisects.

    The search itself runs at a relaxed certificate (bracketing decisions
    only need the distortion side of each iterate); the endpoints entering
    the final mixture are re-certified at the full tolerance on their
    respective sides of the target, then the bracket is re-collapsed so
    the mixture interpolates a short chord.
    """
    zero = _zero_rate_solution(cond, dmat)
    target_total = target
    search_gap = max(gap_tol, 1e-9)
    lo, sol_lo = 0.0, zero
    q_warm = None
    sol_hi = None
    hi = None
    if slope_hint and slope_hint > 0:
        # a trusted hint usually brackets the answer within a few percent
        cand_hi = slope_hint * 1.05
        sol = _lagrangian_solve(cond, w, dmat, cand_hi, gap_tol=search_gap)
        q_warm = sol.q
        if float(w @ sol.dist_s) <= target_total:
            hi, sol_hi = cand_hi, sol
            cand_lo = slope_hint / 1.05
            sol2 = _lagrangian_solve(cond, w, dmat, cand_lo, q0=q_warm,
                                     gap_tol=search_gap)
            if float(w @ sol2.dist_s) > target_total:
                lo, sol_lo = cand_lo, sol2
            else:
                hi, sol_hi = cand_lo, sol2
        else:
            lo, sol_lo = cand_hi, sol
    lam = max(4.0 * lo, lo + 1.0) if hi is None else 0.0
    while hi is None and lam <= _MAX_SLOPE:
        sol = _lagrangian_solve(cond, w, dmat, lam, q0=q_warm, gap_tol=search_gap)
        q_warm = sol.q
        if float(w @ sol.dist_s) <= target_total:
            hi, sol_hi = lam, sol
            break
        lo, sol_lo = lam, sol
        lam *= 4.0
    if hi is None:
        raise ConvergenceError(
            f"slope search exhausted at lam={lo:g}; distortion "
            f"{float(w @ sol_lo.dist_s)!r} still above target {target!r}",
            gap=float(w @ sol_lo.dist_s) - target,
        )
    lo, sol_lo, hi, sol_hi = _refine_bracket(
        cond, w, dmat, target_total, lo, sol_lo, hi, sol_hi, q_warm, search_gap)

    if gap_tol < search_gap:
        # both endpoints can carry nontrivial mixture weight once the
        # bracket has collapsed, so both must hold the full certificate
        hi, sol_hi = _tight_side(cond, w, dmat, hi, sol_hi.q, target_total,
                                 "hi", gap_tol, zero)
        lo, sol_lo = _tight_side(cond, w, dmat, lo, sol_lo.q, target_total,
                                 "lo", gap_tol, zero)
        # if certifying the sides widened the slope bracket, shrink it
        # back so the final mixture interpolates a short chord
        for _ in range(80):
            if hi - lo <= 3e-11 * (1.0 + hi):
                break
            mid = 0.5 * (lo + hi)
            sol = _lagrangian_solve(cond, w, dmat, mid, q0=sol_hi.q, gap_tol=gap_tol)
            if float(w @ sol.dist_s) <= target_total:
                hi, sol_hi = mid, sol
            else:
                lo, sol_lo = mid, sol
    return _mix(sol_lo, sol_hi, cond, target_total, w)


def _refine_bracket(cond, w, dmat, target, lo, sol_lo, hi, sol_hi, q_warm, gap_tol):
    """Shrink a slope bracket around the distortion target.

    Interleaves secant (false-position) steps with plain halving; the
    achieved distortion is monotone in the slope, so the bracket invariant
    is preserved throughout.  On a smooth stretch of the curve the secant
    hits the target within a handful of probes and the search exits early;
    at a corner or linear face (where no slope attains the target exactly)
    the halving steps still collapse the bracket geometrically.
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
        if abs(achieved - target) <= atol:
            return mid, sol, mid, sol
        if achieved <= target:
            hi, sol_hi = mid, sol
        else:
            lo, sol_lo = mid, sol
    return lo, sol_lo, hi, sol_hi


def _tight_side(cond, w, dmat, lam, q_warm, target, side, gap_tol, zero):
    """Certify a bracket endpoint at full tolerance on its required side.

    The relaxed search phase can misjudge a side near a corner or a linear
    face of the curve, so after re-solving tightly the slope is stepped
    geometrically (up for the low-distortion side, down toward the
    rate-zero code otherwise) until the achieved distortion genuinely lies
    on the required side of the target.
    """
    if side == "lo" and lam <= 0.0:
        return 0.0, zero
    sol = _lagrangian_solve(cond, w, dmat, lam, q0=q_warm, gap_tol=gap_tol)

    def ok(s):
        d = float(w @ s.dist_s)
        return d <= target if side == "hi" else d >= target

    step = 1e-12 * (1.0 + lam)
    for _ in range(80):
        if ok(sol):
            return lam, sol
        if side == "hi":
            lam = lam + step
        else:
            lam = lam - step
            if lam <= 0.0:
                return 0.0, zero
        step *= 4.0
        sol = _lagrangian_solve(cond, w, dmat, lam, q0=sol.q, gap_tol=gap_tol)
    raise ConvergenceError(
        f"could not certify a {side}-side solution at the distortion target {target!r}",
        gap=float(w @ sol.dist_s) - target,
    )


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


def solve_rd_per_state(px, dist, target_d: float, tol: float = 1e-9,
                       slope_hint: float | None = None) -> PerStateSolution:
    """Rate-distortion function of a single source at distortion target_d.

    Returns rate 0 exactly once target_d reaches the distortion of the best
    constant-output code; raises InfeasibleDistortionError below the floor
    E[min_y d(X, y)].
    """
    px = np.asarray(px, dtype=float)
    if not isinstance(dist, DistortionSpec):
        dist = DistortionSpec(dist)
    if px.ndim != 1 or px.shape[0] != dist.x_size:
        raise ValueError("px must be a pmf over the distortion matrix rows")
    if tol <= 0:
        raise ValueError("tol must be positive")
    px = px / px.sum()
    floor = float(px @ dist.row_min)
    zr = float((px @ dist.d).min())
    if target_d < floor - 1e-12:
        raise InfeasibleDistortionError(
            f"target distortion {target_d!r} is below the floor {floor!r}"
        )
    cond = px[None, :]
    w = np.ones(1)
    if target_d >= zr - 1e-12 * max(1.0, zr):
        sol = _zero_rate_solution(cond, dist.d)
        return PerStateSolution(rate=0.0, channel=sol.channel[0], induced=sol.induced[0],
                                slope=0.0, distortion=float(sol.dist_s[0]), gap=0.0)
    gap_tol = max(tol / 1000.0, 1e-13)
    res = _bisect_slope(cond, w, dist.d, target_d, gap_tol, slope_hint=slope_hint)
    if res.gap > tol:
        raise ConvergenceError(
            f"inner minimization stalled with certificate gap {res.gap:g} > tol {tol:g}",
            gap=res.gap,
        )
    return PerStateSolution(
        rate=float(res.rate_s[0]), channel=res.channel[0], induced=res.induced[0],
        slope=res.slope, distortion=float(res.dist_s[0]), gap=res.gap,
    )


# ---------------------------------------------------------------------------
# per-state curves and the distortion allocation across states
# ---------------------------------------------------------------------------


class PerStateCurve:
    """Lazy handle on the rate-distortion curve of one conditional source."""

    def __init__(self, px, dist: DistortionSpec):
        self.px = np.asarray(px, dtype=float)
        self.px = self.px / self.px.sum()
        self.dist = dist
        self.floor = float(self.px @ dist.row_min)
        self.zero_rate_distortion = float((self.px @ dist.d).min())

    def rate_at(self, d: float, tol: float = 1e-9) -> float:
        return solve_rd_per_state(self.px, self.dist, d, tol=tol).rate


def allocate_distortion(per_state_curves, p_s, D: float) -> np.ndarray:
    """Allocate per-state distortions {d_s} minimizing the weighted rate sum.

    All states with interior allocations share a common slope at the
    optimum; the aggregate constraint sum_s P_S(s) d_s = D holds exactly.
    States with zero probability are excluded from the objective and pinned
    at their rate-zero distortion.
    """
    p_s = np.asarray(p_s, dtype=float)
    active = np.flatnonzero(p_s > 0)
    if active.size == 0:
        raise ValueError("no states with positive probability")
    if len({c.dist.y_size for c in per_state_curves}) != 1:
        raise ValueError("all per-state curves must share one reproduction alphabet")
    w = p_s[active] / p_s[active].sum()
    cond = np.stack([per_state_curves[s].px for s in active])
    dmat = per_state_curves[active[0]].dist.d
    floor = float(w @ (cond @ dmat.min(axis=1)))
    if D < floor - 1e-12:
        raise InfeasibleDistortionError(
            f"aggregate target {D!r} is below the weighted floor {floor!r}"
        )
    d_s = np.array([c.zero_rate_distortion for c in per_state_curves])
    zr = (cond @ dmat).min(axis=1)
    total_zr = float(w @ zr)
    if D >= total_zr - 1e-12 * max(1.0, total_zr):
        d_s[active] = zr + (D - total_zr)
    else:
        d_s[active] = _bisect_slope(cond, w, dmat, D, _ALLOCATION_GAP_TOL).dist_s
    return d_s


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
    rate_by_method: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RdCurvePoint:
    """One sampled point of the rate-distortion curve."""

    distortion: float
    rate: float
    slope: float
    dispersion: float | None = None


def solve_crd(instance, D: float, tol: float = 1e-9, method: str = "both",
              dist: DistortionSpec | None = None) -> CrdSolution:
    """Solve min I(X;Y|S) subject to E[d(X,Y)] <= D.

    One equal-slope search over the joint channel tensor yields the solution
    and its per-state distortion allocation.  method selects the rate
    reported: "direct" (the joint solution's weighted rate), "decomposed"
    (each state's rate-distortion function re-solved at its allocated
    distortion), or "both" (default; the two routes must agree within
    10*tol).
    """
    instance = validate(instance, dist)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if method not in ("direct", "decomposed", "both"):
        raise ValueError(f"unknown method {method!r}")
    if D < instance.d_floor - 1e-12:
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
    gap_tol = max(tol / 1000.0, 1e-13)

    rate_by_method = {}
    if method == "decomposed":
        # only the allocation is read from this search, so it runs at a
        # relaxed certificate; the per-state solves below run at the full one
        joint = _bisect_slope(cond, w, dspec.d, D, max(gap_tol, 1e-9))
    else:
        joint = _bisect_slope(cond, w, dspec.d, D, gap_tol)
        if joint.gap > tol:
            raise ConvergenceError(
                f"joint minimization stalled with certificate gap {joint.gap:g}",
                gap=joint.gap,
            )
        rate_by_method["direct"] = float(w @ joint.rate_s)
    allocation = np.array(instance.zero_rate_by_state, dtype=float)
    allocation[kept] = joint.dist_s

    if method != "direct":
        per_state = [solve_rd_per_state(cond[i], dspec, float(joint.dist_s[i]), tol=tol,
                                        slope_hint=joint.slope)
                     for i in range(len(kept))]
        rate_by_method["decomposed"] = float(w @ np.array([p.rate for p in per_state]))

    if method == "both":
        if abs(rate_by_method["direct"] - rate_by_method["decomposed"]) > 10.0 * tol:
            raise ConvergenceError(
                "direct and decomposed solutions disagree: "
                f"{rate_by_method['direct']!r} vs {rate_by_method['decomposed']!r}",
                gap=abs(rate_by_method["direct"] - rate_by_method["decomposed"]),
            )

    if method == "decomposed":
        rate = rate_by_method["decomposed"]
        slope = float(np.median([p.slope for p in per_state if p.slope > 0] or [0.0]))
        gap = max(p.gap for p in per_state)
        channel_k = np.stack([p.channel for p in per_state])
        induced_k = np.stack([p.induced for p in per_state])
        dist_s = np.array([p.distortion for p in per_state])
    else:
        rate = rate_by_method["direct"]
        slope, gap = joint.slope, joint.gap
        channel_k, induced_k = joint.channel, joint.induced
        dist_s = joint.dist_s

    channel, induced = _reinsert_states(instance, kept, channel_k, induced_k)
    achieved = float(w @ dist_s)
    return CrdSolution(
        rate=rate,
        channel=channel,
        induced=induced,
        slope=slope,
        distortion=achieved,
        target_distortion=D,
        allocation=allocation,
        gap=gap,
        instance=instance,
        rate_by_method=rate_by_method,
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
        gap=0.0, instance=instance,
        rate_by_method={"direct": 0.0, "decomposed": 0.0},
    )


# ---------------------------------------------------------------------------
# gradient of the rate with respect to the joint source law
# ---------------------------------------------------------------------------


def rd_gradient(instance, D: float, h: float = 1e-5, scheme: str = "forward",
                tol: float = 1e-10) -> np.ndarray:
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
    base = solve_crd(instance, D, tol=tol, method="direct").rate
    grad = np.empty_like(pmf)
    for a in range(pmf.shape[0]):
        for b in range(pmf.shape[1]):
            r_plus = _perturbed_rate(instance, pmf, a, b, +h, D, tol)
            if scheme == "central" and pmf[a, b] >= h:
                r_minus = _perturbed_rate(instance, pmf, a, b, -h, D, tol)
                grad[a, b] = (r_plus - r_minus) / (2.0 * h)
            else:
                grad[a, b] = (r_plus - base) / h
    return grad


def _perturbed_rate(instance, pmf, a, b, h, D, tol):
    mass = 1.0 + h
    perturbed = pmf.copy()
    perturbed[a, b] += h
    src = JointSource(perturbed / mass)
    try:
        sol = solve_crd(validate(src, instance.dist), D, tol=tol, method="direct")
    except InfeasibleDistortionError as exc:
        raise InfeasibleDistortionError(
            f"perturbing mass at (x={a}, s={b}) by {h:+g} makes distortion {D!r} "
            f"infeasible: {exc}"
        ) from exc
    return mass * sol.rate


def solve_rd_curve(instance, d_grid, tol: float = 1e-9) -> list[RdCurvePoint]:
    """Sample the rate-distortion curve on a distortion grid.

    Dispersion fields are left unset; the tilted-information module fills
    them when requested.
    """
    instance = validate(instance)
    points = []
    for d in d_grid:
        sol = solve_crd(instance, float(d), tol=tol)
        points.append(RdCurvePoint(distortion=float(d), rate=sol.rate, slope=sol.slope))
    return points

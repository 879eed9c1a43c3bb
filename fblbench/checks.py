"""Independent correctness checks of the rows fblcrd returns.

Every reference value here is computed from closed forms, scipy
distributions, numpy linear algebra, mpmath or the benchmark's own random
generator, never by calling the fblcrd function whose output is checked.
Each ``check_*`` function returns a list of reasons; an empty list means
the row passed.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import stats
from scipy.special import ndtri, xlogy

#: the CLI's default solver certificate tolerance (--tol)
SOLVER_TOL = 1e-9
#: rates may differ from the truth by the two routes' agreement bound
RATE_TOL = 10 * SOLVER_TOL
CLOSED_FORM_TOL = 1e-6
MARKOV_REL_TOL = 1e-6
CONVERSE_TOL = 1e-9
SANDWICH_SE = 3.0
LATTICE_SE = 4.0
GAUSS_SIM_SE = 5.0
CAP_BOUND_TOL = 1e-6


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def h2(p: float) -> float:
    """Binary entropy in nats."""
    return float(-xlogy(p, p) - xlogy(1.0 - p, 1.0 - p))


def binary_rate(c: float, D: float) -> float:
    """R(X;D|S) = h(c) - h(D) for binary-Hamming with X independent of S."""
    return h2(c) - h2(D)


def binary_dispersion(c: float) -> float:
    return c * (1.0 - c) * math.log((1.0 - c) / c) ** 2


def qary_rate(q: int, D: float) -> float:
    """R(D) = ln q - h(D) - D ln(q - 1) for the uniform q-ary Hamming source."""
    return math.log(q) - h2(D) - D * math.log(q - 1)


def conditional_entropy(pmf) -> float:
    """H(X|S) = H(X, S) - H(S) in nats."""
    pmf = np.asarray(pmf, dtype=float)
    p_s = pmf.sum(axis=0)
    return float(-xlogy(pmf, pmf).sum() + xlogy(p_s, p_s).sum())


def q_inv(eps: float) -> float:
    return float(-ndtri(eps))


def _close(value, expected, tol, what):
    if not abs(value - expected) <= tol:
        return [f"{what} {value!r} differs from {expected!r} by more than {tol:g}"]
    return []


# ---------------------------------------------------------------------------
# characterize: rd-curve rows
# ---------------------------------------------------------------------------


def check_rd_row(row, ref) -> list:
    """Single-row checks: closed forms and 0 <= R <= H(X|S)."""
    reasons = []
    rate = row["rate"]
    family = ref["family"]
    if family == "binary":
        reasons += _close(rate, binary_rate(ref["c"], ref["D"]), CLOSED_FORM_TOL, "rate")
        reasons += _close(row["V"], binary_dispersion(ref["c"]), CLOSED_FORM_TOL, "V")
    elif family == "qary":
        reasons += _close(rate, qary_rate(ref["q"], ref["D"]), CLOSED_FORM_TOL, "rate")
        reasons += _close(row["V"], 0.0, CLOSED_FORM_TOL, "V")
    if "pmf" in ref:
        bound = conditional_entropy(ref["pmf"])
        if not -RATE_TOL <= rate <= bound + RATE_TOL:
            reasons.append(f"rate {rate!r} outside [0, H(X|S) = {bound!r}]")
    return reasons


def check_rd_grid(distortions, rates, slopes) -> dict:
    """Monotone, convex, and slopes between neighbouring chords.

    ``slopes`` are the reported magnitudes |dR/dD|.  Returns
    {grid index: reasons} for the points that fail.
    """
    d = np.asarray(distortions, dtype=float)
    r = np.asarray(rates, dtype=float)
    chords = (r[:-1] - r[1:]) / np.diff(d)            # chord slope magnitudes
    # a rate error of RATE_TOL moves a chord by 2 RATE_TOL / dD
    chord_tol = 2.0 * RATE_TOL / np.diff(d)
    out = {}
    for k in range(len(d)):
        reasons = []
        if k > 0 and r[k] > r[k - 1] + RATE_TOL:
            reasons.append(f"rate increases from {r[k - 1]!r} to {r[k]!r}")
        slack = 1e-6 * max(1.0, slopes[k])
        if 0 < k < len(d) - 1 and chords[k - 1] < chords[k] - chord_tol[k - 1] - chord_tol[k]:
            reasons.append(f"not convex: chords {chords[k - 1]!r} < {chords[k]!r}")
        if k > 0 and slopes[k] > chords[k - 1] + chord_tol[k - 1] + slack:
            reasons.append(f"slope {slopes[k]!r} above left chord {chords[k - 1]!r}")
        if k < len(d) - 1 and slopes[k] < chords[k] - chord_tol[k] - slack:
            reasons.append(f"slope {slopes[k]!r} below right chord {chords[k]!r}")
        if reasons:
            out[k] = reasons
    return out


def check_collapsed(rate_conditional, rate_collapsed) -> list:
    """Side information never hurts: R(X;D|S) <= R_X(D)."""
    if rate_conditional > rate_collapsed + RATE_TOL:
        return [f"R(X;D|S) {rate_conditional!r} exceeds R_X(D) {rate_collapsed!r}"]
    return []


# ---------------------------------------------------------------------------
# characterize: Markov rows
# ---------------------------------------------------------------------------


def markov_reference(xi, pmf, c, D, n, ladder_lags=None) -> dict:
    """Closed-form Markov quantities of a binary-Hamming stationary law.

    The tilted density is j(x, s) = -ln P_X(x) - h(D), so the centred
    table is jt = -ln P_X(x) - h(c).  With A = Xi - 1 pi and the
    fundamental matrix Z = (I - A)^-1 = (I - Xi + 1 pi)^-1,

        V_inf = pi . (jt o (2 Z - I) jt),
        sum_{k > L} cov_k = pi . (jt o A^(L+1) Z jt),
        sum_{k=1}^{n-1} (n - k) A^k = n A Z - A (I - A^n) Z^2.

    ``ladder_lags`` is the truncation of a ladder that ran to its cap.
    """
    xi = np.asarray(xi, dtype=float)
    pmf = np.asarray(pmf, dtype=float)
    pi = pmf.ravel()
    s_size = pmf.shape[1]
    p_x = pmf.sum(axis=1)
    jt = np.repeat(-np.log(p_x) - h2(c), s_size)       # index x * s_size + s
    k = pi.size
    eye = np.eye(k)
    a_mat = xi - np.outer(np.ones(k), pi)
    z_mat = np.linalg.inv(eye - a_mat)

    def quad(m):
        return float(pi @ (jt * (m @ jt)))

    lag0 = quad(eye)
    v_inf = quad(2.0 * z_mat - eye)
    ladder = v_inf
    if ladder_lags is not None:
        ladder = v_inf - 2.0 * quad(np.linalg.matrix_power(a_mat, ladder_lags + 1) @ z_mat)
    weighted = n * a_mat @ z_mat - a_mat @ (eye - np.linalg.matrix_power(a_mat, n)) @ z_mat @ z_mat
    v_n = lag0 + 2.0 / n * quad(weighted)
    return {"mu": binary_rate(c, D), "lag0": lag0, "v_inf": v_inf,
            "v_inf_ladder": ladder, "v_n": v_n}


def check_markov_row(row, ref, eps) -> list:
    reasons = _close(row["mu"], ref["mu"], CLOSED_FORM_TOL, "mu")
    for key, expected in (("lag0", ref["lag0"]), ("v_inf_spectral", ref["v_inf"]),
                          ("v_inf_ladder", ref["v_inf_ladder"]), ("v_n", ref["v_n"])):
        reasons += _close(row[key], expected, MARKOV_REL_TOL * abs(expected), key)
    so_rate = ref["mu"] + math.sqrt(ref["v_inf_ladder"] / row["n"]) * q_inv(eps)
    reasons += _close(row["second_order_rate"], so_rate, CLOSED_FORM_TOL,
                      "second_order_rate")
    return reasons


# ---------------------------------------------------------------------------
# fbl rows
# ---------------------------------------------------------------------------


def gamma_grid(n: int, variance: float) -> list:
    """The converse's documented slack grid: ln sqrt(n) and sqrt(nV) 2^k."""
    scale = math.sqrt(max(n * variance, 0.0))
    if not scale > 0:
        scale = 1.0
    grid = {scale * 2.0**k for k in range(-4, 11)}
    if n > 1:
        grid.add(0.5 * math.log(n))
    return sorted(g for g in grid if g > 0)


def check_sandwich(row) -> list:
    """The converse and the forward bound straddle the random-coding estimate,
    within SANDWICH_SE standard errors."""
    mc, se = row["achievability_eps_mc"], row["achievability_stderr"]
    reasons = []
    if row["converse_eps"] > mc + SANDWICH_SE * se:
        reasons.append(f"random-coding estimate {mc!r} +- {se!r} is below the "
                       f"converse {row['converse_eps']!r}")
    if row["forward_bound"] < mc - SANDWICH_SE * se:
        reasons.append(f"forward bound {row['forward_bound']!r} is below the "
                       f"random-coding estimate {mc!r} +- {se!r}")
    return reasons


def binary_converse(n: int, log_m: float, c: float, D: float) -> float:
    """Converse of the binary-Hamming source from its two closed-form atoms.

    The tilted-density sum is n v0 + K (v1 - v0), K ~ Binomial(n, c), with
    v0 = -ln(1 - c) - h(D) and v1 = -ln c - h(D).
    """
    v0 = -math.log(1.0 - c) - h2(D)
    step = math.log((1.0 - c) / c)
    best = -math.inf
    for g in gamma_grid(n, binary_dispersion(c)):
        k_min = math.ceil((log_m + g - n * v0) / step)
        tail = float(stats.binom.sf(k_min - 1, n, c))
        best = max(best, tail - math.exp(-g))
    return min(max(best, 0.0), 1.0)


def check_fbl_binary(row, ref) -> list:
    n, c, D, eps = ref["n"], ref["c"], ref["D"], ref["eps"]
    so_rate = binary_rate(c, D) + math.sqrt(binary_dispersion(c) / n) * q_inv(eps)
    reasons = _close(row["second_order_rate"], so_rate, CLOSED_FORM_TOL,
                     "second_order_rate")
    expected = binary_converse(n, row["second_order_rate"] * n, c, D)
    reasons += _close(row["converse_eps"], expected, CONVERSE_TOL, "converse_eps")
    return reasons + check_sandwich(row)


def lattice_converse_bracket(values, probs, n, log_m, quant_bound, rng,
                             samples=200_000) -> tuple:
    """Range the lattice converse must fall in, from a Monte-Carlo tail.

    The tail Pr[sum >= t] is estimated from ``samples`` draws of the
    n-letter atom counts.  Quantizing atoms onto the lattice moves the sum
    by at most ``quant_bound`` (n q), so the converse lies between the
    estimates at thresholds widened by that bound, give or take LATTICE_SE
    worst-case standard errors.
    """
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    keep = probs > 0
    values, probs = values[keep], probs[keep] / probs[keep].sum()
    mean = float(probs @ values)
    variance = float(probs @ (values - mean) ** 2)
    sums = np.sort(rng.multinomial(n, probs, size=samples) @ values)

    def tail(t):
        return 1.0 - np.searchsorted(sums, t, side="left") / samples

    lo = hi = -math.inf
    for g in gamma_grid(n, variance):
        thr = log_m + g
        lo = max(lo, tail(thr + quant_bound) - math.exp(-g))
        hi = max(hi, tail(thr - quant_bound) - math.exp(-g))
    slack = LATTICE_SE * 0.5 / math.sqrt(samples)
    return min(max(lo, 0.0), 1.0) - slack, min(max(hi, 0.0), 1.0) + slack


def check_fbl_lattice(row, bracket) -> list:
    lo, hi = bracket
    reasons = []
    if not lo <= row["converse_eps"] <= hi:
        reasons.append(f"lattice converse {row['converse_eps']!r} outside the "
                       f"Monte-Carlo range [{lo!r}, {hi!r}]")
    return reasons + check_sandwich(row)


# ---------------------------------------------------------------------------
# gaussian rows
# ---------------------------------------------------------------------------


def gaussian_rate(var_x, var_z, D) -> float:
    return 0.5 * math.log(var_x * var_z / (var_x + var_z) / D)


def gaussian_converse(var_x, var_z, D, n, log_m) -> float:
    """Chi-square converse: the tilted sum is n R + (W - n) / 2, W ~ chi2_n."""
    rate = gaussian_rate(var_x, var_z, D)
    grid = [0.5 * math.log(n)] + [math.sqrt(0.5 * n) * 2.0**k for k in range(-4, 11)]
    best = max(float(stats.chi2.sf(max(n + 2.0 * (log_m + g - n * rate), 0.0), n))
               - math.exp(-g) for g in grid if g > 0)
    return min(max(best, 0.0), 1.0)


def cap_code_eps(var_x, var_z, D, n, log_m, fraction="exact", dps=20) -> float:
    """E[(1 - f(W))^M] of the sphere-cap codebook, evaluated in logs.

    W = |X - mu(S)|^2 / var_{X|S} ~ chi2_n and f(W) is the fraction of the
    codeword sphere inside the distortion ball.  ``fraction="exact"`` uses
    the exact cap area (regularized incomplete beta); ``"sakrison"`` uses
    the sin^(n-1) lower bound behind the program's cap bound.  Residuals
    outside the reachable radii [r1, r2] miss, except that residuals below
    -r1 are always covered.  M = exp(log_m) and (1 - f)^M are carried as
    exp(exp(log_m) log1p(-f)) with mpmath, so no quantity underflows.
    """
    with mpmath.workdps(dps):
        var = mpmath.mpf(var_x) * var_z / (var_x + var_z)
        r0 = mpmath.sqrt(n * (var - D))
        rd = mpmath.sqrt(mpmath.mpf(n) * D)
        r1, r2 = r0 - rd, r0 + rd
        w1, w2 = r1**2 / var, r2**2 / var
        big_m = mpmath.exp(log_m)
        half = mpmath.mpf(n) / 2
        log_norm = -half * mpmath.log(2) - mpmath.loggamma(half)
        log_pref = (mpmath.loggamma(half + 1) - mpmath.loggamma(mpmath.mpf(n - 1) / 2 + 1)
                    - mpmath.log(mpmath.sqrt(mpmath.pi) * n))

        def frac(w):
            xi = mpmath.sqrt(var * w)
            cos = (xi**2 + r0**2 - n * D) / (2 * xi * r0)
            sin2 = max(1 - cos**2, mpmath.mpf(0))
            if sin2 == 0:
                return mpmath.mpf(0)
            if fraction == "sakrison":
                return mpmath.exp(log_pref + (n - 1) / mpmath.mpf(2) * mpmath.log(sin2))
            cap = mpmath.betainc(mpmath.mpf(n - 1) / 2, 0.5, 0, sin2, regularized=True) / 2
            return cap if cos >= 0 else 1 - cap

        def integrand(w):
            f = frac(w)
            if f >= 1:
                return mpmath.mpf(0)
            log_pdf = log_norm + (half - 1) * mpmath.log(w) - w / 2
            return mpmath.exp(log_pdf + big_m * mpmath.log1p(-f))

        # chi2_n mass beyond 40 standard deviations is below 1e-100
        spread = 40 * math.sqrt(2.0 * n)
        a = max(float(w1), n - spread, 0.0)
        b = min(float(w2), n + spread)
        total = mpmath.mpf(0)
        if b > a:
            total = mpmath.quad(integrand, list(np.linspace(a, b, 33)))
        total += mpmath.gammainc(half, w2 / 2, mpmath.inf, regularized=True)
        if r1 > 0:
            total += mpmath.gammainc(half, 0, w1 / 2, regularized=True)
        return float(total)


def check_gaussian(row, ref, eps_exact, eps_sakrison) -> list:
    var_x, var_z, D, n = ref["var_x"], ref["var_z"], ref["D"], ref["n"]
    reasons = _close(row["rate"], gaussian_rate(var_x, var_z, D), CLOSED_FORM_TOL, "rate")
    log_m = row["second_order_rate"] * n
    reasons += _close(row["converse_eps"], gaussian_converse(var_x, var_z, D, n, log_m),
                      CONVERSE_TOL, "converse_eps")
    sim, se = row["sim_eps"], row["sim_stderr"]
    if not abs(sim - eps_exact) <= GAUSS_SIM_SE * se + CAP_BOUND_TOL:
        reasons.append(f"simulated eps {sim!r} +- {se!r} disagrees with the "
                       f"log-domain value {eps_exact!r}")
    reasons += _close(row["cap_bound"], eps_sakrison, CAP_BOUND_TOL, "cap_bound")
    if row["converse_eps"] > eps_exact + CAP_BOUND_TOL:
        reasons.append(f"converse {row['converse_eps']!r} exceeds the cap code's "
                       f"eps {eps_exact!r}")
    return reasons

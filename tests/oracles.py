"""Independent reference computations used to pin expected values.

Each oracle deliberately takes a different route from the implementation
it checks: quadrature instead of erfc, bisection instead of a closed-form
inverse, arbitrary-precision logs instead of float entropy, and direct
search over test channels instead of alternating minimization.
"""

import dataclasses
import itertools
import math
from decimal import Decimal, getcontext

import mpmath
import numpy as np
from scipy import integrate, optimize
from scipy.signal import fftconvolve
from scipy.special import gammaln

import fblcrd as f
from fblcrd.bounds import _dedupe_atoms, _lattice_quantum
from fblcrd.exceptions import ValidationError
from fblcrd.mc import chunk_streams


def gaussian_cdf_quadrature(t: float) -> float:
    """Phi(t) by adaptive quadrature of the normal density."""
    density = lambda u: np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
    value, _ = integrate.quad(density, -40.0, t, epsabs=1e-13, epsrel=1e-13)
    return value


def q_inv_bisection(eps: float, lo=-12.0, hi=12.0) -> float:
    """Invert Q by bisection on the implementation's CDF."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 1.0 - f.gaussian_cdf(mid) > eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def entropy_decimal(p: str, digits: int = 40) -> float:
    """Bernoulli entropy in nats at high precision (p given as a string)."""
    getcontext().prec = digits
    pd = Decimal(p)
    qd = Decimal(1) - pd
    h = -(pd * pd.ln() + qd * qd.ln())
    return float(h)


def rd_binary_grid(px, dmat, budget, step=1e-3):
    """Exhaustive grid search over binary test channels.

    Minimizes I(X;Y) over all 2x2 channels meeting the distortion budget,
    scanning both crossover parameters on a uniform grid.
    """
    px = np.asarray(px, dtype=float)
    a = np.arange(0.0, 1.0 + step / 2, step)
    b = np.arange(0.0, 1.0 + step / 2, step)
    aa, bb = np.meshgrid(a, b, indexing="ij")
    # channel rows: P(y=1|x=0) = aa, P(y=1|x=1) = bb
    q1 = px[0] * aa + px[1] * bb
    q0 = 1.0 - q1

    def xlog(p, q):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = p * (np.log(p) - np.log(q))
        return np.where(p > 0, out, 0.0)

    mi = (px[0] * (xlog(1 - aa, q0) + xlog(aa, q1))
          + px[1] * (xlog(1 - bb, q0) + xlog(bb, q1)))
    dist = (px[0] * ((1 - aa) * dmat[0, 0] + aa * dmat[0, 1])
            + px[1] * ((1 - bb) * dmat[1, 0] + bb * dmat[1, 1]))
    feasible = dist <= budget + 1e-12
    return float(mi[feasible].min())


def rd_slsqp(px, dmat, budget, restarts=8, seed=0):
    """Direct constrained minimization of I(X;Y) over the channel simplex."""
    px = np.asarray(px, dtype=float)
    n_x, n_y = dmat.shape
    rng = np.random.default_rng(seed)

    def unpack(z):
        ch = z.reshape(n_x, n_y)
        return ch

    def mutual_information(z):
        ch = unpack(z)
        q = px @ ch
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.log(ch) - np.log(q)[None, :]
            term = np.where(ch > 0, ch * ratio, 0.0)
        return float(px @ term.sum(axis=1))

    cons = [{"type": "eq", "fun": lambda z, i=i: z.reshape(n_x, n_y)[i].sum() - 1.0}
            for i in range(n_x)]
    cons.append({"type": "ineq",
                 "fun": lambda z: budget - float(px @ (z.reshape(n_x, n_y) * dmat).sum(axis=1))})
    best = np.inf
    for _ in range(restarts):
        z0 = rng.dirichlet(np.ones(n_y), size=n_x).ravel()
        res = optimize.minimize(mutual_information, z0, method="SLSQP",
                                bounds=[(0.0, 1.0)] * (n_x * n_y),
                                constraints=cons,
                                options={"maxiter": 500, "ftol": 1e-12})
        if res.success and res.fun < best:
            best = float(res.fun)
    return best


def hamming_rd_uniform(alphabet_size: int, budget: float) -> float:
    """Closed-form rate-distortion of a uniform source under Hamming loss."""
    q = alphabet_size
    if budget >= (q - 1) / q:
        return 0.0
    return (np.log(q) - f.binary_entropy(budget)
            - budget * np.log(q - 1))


def allocation_search_two_states(rows, weights, dist, budget, tol=1e-10):
    """Golden-section search over the single free allocation variable.

    rows holds the two states' source pmfs; each state's rate comes from
    its own rate-distortion function (solve_rd_per_state).
    """
    rows = [np.asarray(px, dtype=float) for px in rows]
    floors = [float(px @ dist.row_min) for px in rows]
    zero_rate = [float((px @ dist.d).min()) for px in rows]
    w0, w1 = weights
    lo = max(floors[0], (budget - w1 * zero_rate[1]) / w0)
    hi = min(zero_rate[0], (budget - w1 * floors[1]) / w0)

    def objective(d0):
        d1 = (budget - w0 * d0) / w1
        return (w0 * f.solve_rd_per_state(rows[0], dist, d0, tol=1e-10).rate
                + w1 * f.solve_rd_per_state(rows[1], dist, d1, tol=1e-10).rate)

    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = objective(d)
    d0 = 0.5 * (a + b)
    return d0, objective(d0)


def solve_crd_decomposed(instance, D, tol=1e-9):
    """solve_crd with every state's rate-distortion function solved on its own.

    Each state of positive probability runs solve_rd_per_state at its
    share of solve_crd's allocation; the rate is the P_S-weighted sum of
    the per-state rates, and channel, output law, slope (the median of the
    positive per-state slopes), certificate gap and distortion come from
    the per-state solutions too.
    """
    sol = f.solve_crd(instance, D, tol=tol)
    inst = sol.instance
    src = inst.source
    kept = np.flatnonzero(src.p_s > 0)
    w = src.p_s[kept] / src.p_s[kept].sum()
    per_state = [f.solve_rd_per_state(src.cond_x_given_s[:, s], inst.dist,
                                      float(sol.allocation[s]), tol=tol)
                 for s in kept]
    channel = sol.channel.copy()
    induced = sol.induced.copy()
    channel[:, kept, :] = np.stack([p.channel for p in per_state], axis=1)
    induced[kept, :] = np.stack([p.induced for p in per_state])
    slopes = [p.slope for p in per_state if p.slope > 0]
    return dataclasses.replace(
        sol,
        rate=float(w @ np.array([p.rate for p in per_state])),
        channel=channel,
        induced=induced,
        slope=float(np.median(slopes)) if slopes else 0.0,
        distortion=float(w @ np.array([p.distortion for p in per_state])),
        gap=max(p.gap for p in per_state),
    )


def enumerate_pair_outcomes(instance):
    """All (x, s) outcomes of one letter with their probabilities."""
    pmf = instance.source.pmf
    outcomes = []
    for x, s in itertools.product(range(pmf.shape[0]), range(pmf.shape[1])):
        if pmf[x, s] > 0:
            outcomes.append(((x, s), pmf[x, s]))
    return outcomes


def sample_markov_stepwise(model, n, seed=0):
    """Stationary Markov path drawn one step per iteration from one uniform each."""
    rng = np.random.default_rng(seed)
    cum_rows = np.cumsum(model.xi, axis=1)
    u = rng.random(n)
    states = np.empty(n, dtype=np.int64)
    states[0] = np.searchsorted(np.cumsum(model.pi), u[0], side="right")
    for i in range(1, n):
        states[i] = np.searchsorted(cum_rows[states[i - 1]], u[i], side="right")
    states = np.minimum(states, model.k - 1)
    return f.SequencePair(x=states // model.s_size, s=states % model.s_size)


def self_convolve_direct(kernel, m):
    """m-fold self-convolution of a short pmf by m - 1 direct convolutions."""
    out = np.asarray(kernel, dtype=float)
    for _ in range(m - 1):
        out = np.convolve(out, kernel)
    return out


def _convolve(a, b):
    if min(len(a), len(b)) <= 64 or len(a) + len(b) <= 4096:
        return np.convolve(a, b)
    out = fftconvolve(a, b)
    np.clip(out, 0.0, None, out=out)
    return out


def self_convolve(base, n):
    """n-fold self-convolution by binary exponentiation.

    Pairs of long factors are convolved by FFT, so long results carry
    absolute noise of order 1e-16 per bin.
    """
    result = None
    cur = base
    e = n
    while True:
        if e & 1:
            result = cur if result is None else _convolve(result, cur)
        e >>= 1
        if e == 0:
            break
        cur = _convolve(cur, cur)
    return result


def _compositions(n, k):
    if k == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _compositions(n - head, k - 1):
            yield (head,) + rest


def exact_random_code(query, solution) -> float:
    """Exhaustive evaluation of the random-coding bound (small n only).

    Enumerates per-class letter counts (the sufficient statistic for every
    quantity involved) with exact multinomial weights.  Each composition's
    cover probability is the distortion sum's lattice law, built by direct
    convolution of every class's m-fold kernel under the optimal output law.
    """
    n, D = query.n, query.distortion
    inst = solution.instance
    pmf = inst.source.pmf
    classes = np.argwhere(pmf > 0)
    if len(classes) ** min(n, 8) > 10**8 and n > 16:
        raise f.FblcrdError("exact enumeration is limited to small blocklengths")
    q, _ = _lattice_quantum(inst.dist.d, n)
    kernels = [np.bincount(np.rint(inst.dist.d[x] / q).astype(np.int64),
                           weights=solution.induced[s]) for x, s in classes]
    cover = int(math.floor(n * D / q + 1e-9))
    log_p = np.log(pmf[pmf > 0])
    total = 0.0
    for counts in _compositions(n, len(classes)):
        m = np.array(counts)
        logw = gammaln(n + 1) - gammaln(m + 1).sum() + float(m @ log_p)
        law = np.ones(1)
        for kern, c in zip(kernels, counts):
            if c:
                law = np.convolve(law, self_convolve_direct(kern, c))
        p = min(float(law[:cover + 1].sum()), 1.0)
        # (1 - p)^M directly: M stays small at the blocklengths allowed here
        with np.errstate(divide="ignore"):
            miss = np.exp(math.exp(query.log_m) * np.log1p(-p))
        total += math.exp(logw) * float(miss)
    return total


def exact_tilted_tail(field, n: int, thresholds) -> np.ndarray:
    """Exact Pr[sum of n tilted-density letters >= t] by count enumeration."""
    values, probs = _dedupe_atoms(field.atoms_value, field.atoms_prob)
    log_p = np.log(probs)
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=float))
    tails = np.zeros_like(thresholds)
    for counts in _compositions(n, len(values)):
        m = np.array(counts)
        logw = gammaln(n + 1) - gammaln(m + 1).sum() + float(m @ log_p)
        s = float(m @ values)
        tails[s >= thresholds] += math.exp(logw)
    return tails


@dataclasses.dataclass(frozen=True)
class BerryEsseenTerms:
    """Aggregated moments of a sum of independent terms.

    ``bound`` dominates the uniform Gaussian-approximation error of the
    normalized sum: |Pr[sum of centered terms >= lam*sigma] - Q(lam)| <= bound.
    It is infinite exactly when the variance vanishes while the third
    absolute moment does not.
    """

    sigma2: float
    t3: float
    bound: float


def berry_esseen_bound(terms) -> BerryEsseenTerms:
    """Aggregate (mean, variance, third absolute central moment) triples.

    ``terms`` is an iterable of triples; only the variance and third-moment
    entries enter the bound 6*T/sigma^3.
    """
    arr = np.asarray(list(terms), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("terms must be an iterable of (mean, var, abs3) triples")
    var = arr[:, 1]
    abs3 = arr[:, 2]
    if np.any(var < 0):
        raise ValueError("negative variance in Berry-Esseen terms")
    if np.any(abs3 < 0):
        raise ValueError("negative third absolute moment in Berry-Esseen terms")
    sigma2 = float(var.sum())
    t3 = float(abs3.sum())
    if sigma2 == 0.0:
        bound = math.inf if t3 > 0.0 else 0.0
    else:
        bound = 6.0 * t3 / sigma2**1.5
    return BerryEsseenTerms(sigma2=sigma2, t3=t3, bound=bound)


def chi2_pdf(k: int, x):
    """Central chi-square density with k degrees of freedom (0 for x < 0)."""
    return np.exp(f.chi2_logpdf(k, x))


def second_order_classifier(kappa: float, rate: float, v: float, eps: float):
    """Optimal second-order rate at first-order operating point kappa.

    Below the rate-distortion function every second-order rate is
    achievable only as +inf (strong converse direction); above it the
    second-order cost collapses to -inf; exactly at the rate the answer is
    sqrt(V) Q^{-1}(eps).
    """
    if v < 0:
        raise ValueError("dispersion must be nonnegative")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if abs(kappa - rate) <= 1e-12:
        return float(np.sqrt(v) * f.gaussian_q_inv(eps))
    return float("inf") if kappa < rate else float("-inf")


def sample_iid(instance, n: int, seed, chunk_size: int = 1 << 16):
    """Draw n i.i.d. pairs from P_XS, deterministically given the seed.

    Sampling is performed in fixed-size chunks with per-chunk substreams
    derived from the seed, so parallel evaluation of chunks cannot change
    the result.
    """
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")
    instance = f.validate(instance) if isinstance(instance, f.Instance) else instance
    src = instance.source if isinstance(instance, f.Instance) else instance
    flat = src.pmf.ravel()
    idx = np.concatenate([rng.choice(flat.size, size=m, p=flat)
                          for rng, m in chunk_streams(n, seed, chunk_size)])
    return f.SequencePair(x=idx // src.s_size, s=idx % src.s_size)


def sequence_distortion(x_seq, y_seq, dist) -> float:
    """Arithmetic mean of per-letter distortions along a sequence pair."""
    x_seq = np.asarray(x_seq)
    y_seq = np.asarray(y_seq)
    if x_seq.shape != y_seq.shape:
        raise ValidationError(
            f"length mismatch: {x_seq.shape} source symbols vs {y_seq.shape} reproductions"
        )
    if len(x_seq) == 0:
        raise ValidationError("sequences must have length >= 1")
    return float(dist.d[x_seq, y_seq].mean())


def gaussian_tilted_density(model, x_seq, s_seq) -> float:
    """Tilted information density of a Gaussian sequence pair, in nats.

    (n/2) ln(var/D) + |x - mu(s)|^2 / (2 var) - n/2 with var = var_x_given_s.
    """
    x_seq = np.asarray(x_seq, dtype=float)
    s_seq = np.asarray(s_seq, dtype=float)
    if x_seq.shape != s_seq.shape:
        raise ValidationError("x and s sequences must have equal length")
    n = x_seq.size
    var = model.var_x_given_s
    resid = x_seq - model.mu(s_seq)
    return (0.5 * n * math.log(var / model.distortion)
            + float(resid @ resid) / (2.0 * var) - 0.5 * n)


def cap_code_eps_mpmath(model, n: int, log_m: float, fraction: str = "exact",
                        dps: int = 20) -> float:
    """Excess probability of the sphere-cap codebook in ``dps``-digit arithmetic.

    Integrates over the residual's radius xi, whose density is that of a
    chi law scaled by sqrt(var_x_given_s), rather than over the normalized
    squared radius.  The angle of the cap follows from the law of cosines
    on the triangle (0, residual, codeword): a codeword at radius r0 covers
    when it lies within sqrt(nD) of the residual.  ``fraction="exact"``
    takes the cap's area from the regularized incomplete beta,
    ``"sakrison"`` from the sin^(n-1) lower bound.  The miss probability
    (1 - f)^M is exp(M log1p(-f)), so nothing underflows.  Residuals beyond
    the reachable radii [r1, r2] miss, except that those below -r1 are
    always covered; radii whose squared normalization lies more than
    40 sqrt(2n) from n carry less than 1e-100 of the mass and are dropped.
    """
    with mpmath.workdps(dps):
        var = mpmath.mpf(model.var_x) * model.var_z / (model.var_x + model.var_z)
        dist = mpmath.mpf(model.distortion)
        r0 = mpmath.sqrt(n * (var - dist))
        rd = mpmath.sqrt(n * dist)
        r1, r2 = r0 - rd, r0 + rd
        big_m = mpmath.exp(log_m)
        a = mpmath.mpf(n - 1) / 2
        log_chi = (1 - mpmath.mpf(n) / 2) * mpmath.log(2) - mpmath.loggamma(mpmath.mpf(n) / 2)
        log_sakrison = (mpmath.loggamma(mpmath.mpf(n) / 2 + 1) - mpmath.loggamma(a + 1)
                        - mpmath.log(n * mpmath.sqrt(mpmath.pi)))

        def covered(xi):
            cos = (xi**2 + r0**2 - n * dist) / (2 * xi * r0)
            sin2 = max(1 - cos**2, mpmath.mpf(0))
            if fraction == "sakrison":
                return mpmath.exp(log_sakrison + a * mpmath.log(sin2)) if sin2 > 0 else 0
            cap = mpmath.betainc(a, 0.5, 0, sin2, regularized=True) / 2
            return cap if cos >= 0 else 1 - cap

        def density_times_miss(xi):
            u = xi / mpmath.sqrt(var)
            log_density = log_chi + (n - 1) * mpmath.log(u) - u**2 / 2 - mpmath.log(var) / 2
            return mpmath.exp(log_density + big_m * mpmath.log1p(-covered(xi)))

        reach = 40 * math.sqrt(2.0 * n)
        lo = max(abs(float(r1)), math.sqrt(float(var) * max(n - reach, 0.0)))
        hi = min(float(r2), math.sqrt(float(var) * (n + reach)))
        total = mpmath.mpf(0)
        if hi > lo:
            total = mpmath.quad(density_times_miss, np.linspace(lo, hi, 33).tolist())
        total += mpmath.gammainc(mpmath.mpf(n) / 2, r2**2 / (2 * var), mpmath.inf,
                                 regularized=True)
        if r1 > 0:
            total += mpmath.gammainc(mpmath.mpf(n) / 2, 0, r1**2 / (2 * var), regularized=True)
        return float(total)


def cap_code_sampled_stderr(model, n: int, log_m: float, trials: int) -> float:
    """Standard error of a ``trials``-draw estimate of the cap code's eps.

    The estimate averages the miss probability (1 - f(W))^M over sampled
    residual radii W; its second moment E[(1 - f)^(2M)] is the cap code's
    eps at a codebook of 2M words.
    """
    eps = f.cap_code_eps(model, n, log_m)
    second = f.cap_code_eps(model, n, log_m + math.log(2.0))
    return math.sqrt((second - eps * eps) / trials)

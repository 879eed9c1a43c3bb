"""Non-asymptotic excess-distortion bounds for i.i.d. instances.

Three bound evaluators share the machinery in this module:

* ``converse_lower`` — every code of size M suffers
  eps_n >= sup_gamma Pr[sum_i j_i >= ln M + gamma] - exp(-gamma),
  with the tail of the tilted-density sum computed exactly by convolving
  the finite per-letter support on a lattice (two-valued supports collapse
  to an exact binomial, with no quantization at all).
* ``simulate_random_code`` — Monte-Carlo evaluation of the random-coding
  achievability bound E[(1 - P(ball))^M], where the per-sequence ball
  probability is computed by exact per-letter convolution of the
  distortion distribution under the optimal output law.
* ``forward_bound`` — a three-term relaxation of the random-coding bound
  (tail term, distortion-window term, codebook-size term) that is cheap to
  evaluate and easier to analyze; it can never beat the simulated bound.

The converse and the forward bound both read the n-letter tilted-sum
distribution, a ``SumDistribution`` that the caller builds once with
``tilted_sum_distribution(field, n)`` and passes to each; they reject one
built for another blocklength.  ``converse_rate_bound`` takes it too.

``second_order_rate`` gives the Gaussian approximation
R + sqrt(V/n) Q^{-1}(eps) that both bounds straddle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve
from scipy.special import gammaln

from .coremath import gaussian_q_inv, pow_one_minus
from .exceptions import FblcrdError
from .mc import chunk_streams, chunked_monte_carlo
from .solver import CrdSolution
from .tilted import TiltedField

#: Default lattice resolution (nats / distortion units) for exact convolution.
DEFAULT_RESOLUTION = 1e-6
#: Lattice size budget; the resolution is coarsened to fit, and the
#: resulting worst-case value error n*q is reported with the result.
MAX_BINS = 1 << 23

_MC_CHUNK = 1 << 12
#: Pilot sample size of the forward bound's default calibration.
_PILOT = 128


# ---------------------------------------------------------------------------
# queries and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FblQuery:
    """A finite-blocklength operating point.

    The codebook size is carried as log_m = ln M so that sizes far beyond
    float range stay representable.
    """

    n: int
    distortion: float
    log_m: float
    eps: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"blocklength must be >= 1, got {self.n}")
        if self.log_m < 0:
            raise ValueError(f"codebook size must be >= 1, got ln M = {self.log_m}")
        if self.eps is not None and not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")

    @property
    def rate(self) -> float:
        return self.log_m / self.n

    @classmethod
    def from_rate(cls, n, distortion, rate, eps=None):
        return cls(n=n, distortion=distortion, log_m=rate * n, eps=eps)

    @classmethod
    def from_size(cls, n, distortion, m, eps=None):
        return cls(n=n, distortion=distortion, log_m=math.log(m), eps=eps)


@dataclass(frozen=True)
class BoundResult:
    """A bound value in [0, 1] with its additive breakdown.

    ``terms`` sums to the value before clamping; ``mc_stderr`` is set when
    any term was Monte-Carlo estimated.
    """

    value: float
    terms: dict
    mc_stderr: float | None = None
    quantization_bound: float | None = None


@dataclass(frozen=True)
class ConverseBound:
    """Converse lower bound on the excess-distortion probability."""

    value: float
    gamma: float
    tail: float
    threshold: float
    quantization_bound: float


@dataclass(frozen=True)
class ForwardBoundParams:
    """Free parameters of the three-term forward bound.

    gamma is carried in logs (it scales like the codebook size); beta and
    delta are plain positive reals.  Defaults mirror the choices used in
    the second-order analysis: delta = D/100, beta = sqrt(n)/C with C
    calibrated from a pilot sample of the distortion-window probability,
    and gamma = M/sqrt(n).
    """

    log_gamma: float
    beta: float
    delta: float

    def __post_init__(self):
        if self.beta <= 0 or self.delta <= 0:
            raise ValueError("beta and delta must be positive")


# ---------------------------------------------------------------------------
# exact distribution of sums of a finite per-letter support
# ---------------------------------------------------------------------------


class SumDistribution:
    """Distribution of the n-fold sum of i.i.d. finite-support atoms."""

    def __init__(self, values, pmf, n, quantization_bound):
        order = np.argsort(values)
        self.values = np.asarray(values, dtype=float)[order]
        self.pmf = np.asarray(pmf, dtype=float)[order]
        self.n = n
        self.quantization_bound = float(quantization_bound)
        self._suffix = np.cumsum(self.pmf[::-1])[::-1]

    def tail_ge(self, t: float) -> float:
        """Pr[sum >= t]."""
        idx = np.searchsorted(self.values, t, side="left")
        return float(self._suffix[idx]) if idx < len(self.values) else 0.0

    def expect_capped_exp(self, log_gamma: float) -> float:
        """E[min(1, gamma * exp(-sum))] with gamma given in logs."""
        expo = np.minimum(log_gamma - self.values, 0.0)
        return float(self.pmf @ np.exp(expo))

    def mean(self) -> float:
        return float(self.pmf @ self.values)

    def variance(self) -> float:
        m = self.mean()
        return float(self.pmf @ (self.values - m) ** 2)


def _dedupe_atoms(values, probs):
    values = np.asarray(values, dtype=float).ravel()
    probs = np.asarray(probs, dtype=float).ravel()
    keep = probs > 0
    values, probs = values[keep], probs[keep]
    if values.size == 0:
        raise ValueError("per-letter support is empty")
    uniq, inverse = np.unique(np.round(values, 12), return_inverse=True)
    agg = np.bincount(inverse, weights=probs, minlength=len(uniq))
    return uniq, agg / agg.sum()


def _convolve(a, b):
    if min(len(a), len(b)) <= 64 or len(a) + len(b) <= 4096:
        return np.convolve(a, b)
    out = fftconvolve(a, b)
    np.clip(out, 0.0, None, out=out)
    return out


def _self_convolve(base, n):
    """n-fold self-convolution by binary exponentiation."""
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


def sum_distribution(values, probs, n, resolution=DEFAULT_RESOLUTION,
                     max_bins=MAX_BINS) -> SumDistribution:
    """Exact distribution of the sum of n i.i.d. draws from finite atoms.

    Supports of one or two distinct values yield exact point-mass/binomial
    distributions; larger supports are quantized to a lattice of the given
    resolution (coarsened when necessary to fit the bin budget) and
    convolved, with the worst-case sum error n*q reported.
    """
    v, p = _dedupe_atoms(values, probs)
    if len(v) == 1:
        return SumDistribution([n * v[0]], [1.0], n, 0.0)
    if len(v) == 2:
        k = np.arange(n + 1)
        logpmf = (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
                  + k * math.log(p[1]) + (n - k) * math.log(p[0]))
        vals = n * v[0] + k * (v[1] - v[0])
        return SumDistribution(vals, np.exp(logpmf), n, 0.0)
    span = v[-1] - v[0]
    q = resolution
    if span * n / q > max_bins:
        q = span * n / max_bins
    offs = np.rint((v - v[0]) / q).astype(np.int64)
    base = np.zeros(int(offs.max()) + 1)
    np.add.at(base, offs, p)
    pmf = _self_convolve(base, n)
    pmf_sum = pmf.sum()
    if pmf_sum > 0:
        pmf = pmf / pmf_sum
    vals = n * v[0] + q * np.arange(len(pmf))
    return SumDistribution(vals, pmf, n, n * q)


def tilted_sum_distribution(field: TiltedField, n: int) -> SumDistribution:
    """Distribution of the n-letter tilted-density sum of an instance."""
    return sum_distribution(field.atoms_value, field.atoms_prob, n)


def _check_sums(sums: SumDistribution, n: int):
    if sums.n != n:
        raise ValueError(f"tilted-sum distribution is for n = {sums.n}, query has n = {n}")


# ---------------------------------------------------------------------------
# converse bound
# ---------------------------------------------------------------------------


def default_gamma_grid(n: int, variance: float):
    """Candidate slack values: ln sqrt(n) plus dyadic multiples of sqrt(nV)."""
    scale = math.sqrt(max(n * variance, 0.0))
    if not scale > 0:
        scale = 1.0
    grid = {scale * 2.0**k for k in range(-4, 11)}
    if n > 1:
        grid.add(0.5 * math.log(n))
    return sorted(g for g in grid if g > 0)


def _best_slack(sums: SumDistribution, log_m: float, gammas):
    """(value, gamma, tail, threshold) maximizing Pr[sum >= ln M + gamma] - exp(-gamma)."""
    best = None
    for g in gammas:
        thr = log_m + g
        tail = sums.tail_ge(thr)
        val = tail - math.exp(-g)
        if best is None or val > best[0]:
            best = (val, g, tail, thr)
    return best


def converse_lower(query: FblQuery, field: TiltedField, sums: SumDistribution,
                   gamma: float | None = None) -> ConverseBound:
    """Lower bound on eps_n for every code at the queried operating point.

    ``sums`` is the n-letter tilted-sum distribution of ``field``.  When
    gamma is omitted the bound is maximized over the default grid (which
    only improves it).  Vacuous (negative) values clamp to 0.
    """
    _check_sums(sums, query.n)
    if gamma is None:
        gammas = default_gamma_grid(query.n, field.variance)
    elif gamma <= 0:
        raise ValueError("gamma must be positive")
    else:
        gammas = [float(gamma)]
    val, g, tail, thr = _best_slack(sums, query.log_m, gammas)
    return ConverseBound(value=min(max(val, 0.0), 1.0), gamma=g, tail=tail,
                         threshold=thr, quantization_bound=sums.quantization_bound)


def converse_rate_bound(field: TiltedField, sums: SumDistribution, eps: float) -> float:
    """Smallest rate consistent with the converse at excess probability eps.

    ``sums`` is the n-letter tilted-sum distribution of ``field``.  Any
    code of blocklength n with eps_n <= eps must satisfy rate >= the
    returned value.
    """
    n = sums.n
    gammas = default_gamma_grid(n, field.variance)

    def eps_lower(log_m):
        return max(_best_slack(sums, log_m, gammas)[0], 0.0)

    lo, hi = 0.0, n * float(np.max(field.atoms_value)) + 1.0
    if eps_lower(lo) <= eps:
        return 0.0
    for _ in range(30):
        if eps_lower(hi) <= eps:
            break
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if eps_lower(mid) <= eps:
            hi = mid
        else:
            lo = mid
    return hi / n


# ---------------------------------------------------------------------------
# distortion-sum lattice machinery (per-sequence ball / window probabilities)
# ---------------------------------------------------------------------------


def _lattice_quantum(dmat, n):
    """Pick a lattice quantum for distortion values.

    Prefers an exact quantum (all values integer multiples of it, e.g.
    Hamming distortion) when it fits the bin budget.  Otherwise the
    per-letter quantum floors at one thousandth of the value span: these
    lattices back per-sequence ball probabilities estimated by Monte-Carlo,
    where sub-1e-3 relative threshold precision is far below the sampling
    noise, and finer grids make the per-trial convolutions intractable.
    """
    vals = np.unique(dmat)
    span = float(vals[-1]) if vals.size else 0.0
    if span == 0.0:
        return 1.0, 0.0
    pos = vals[vals > 0]
    candidates = [float(pos.min())]
    diffs = np.diff(vals)
    candidates.extend(float(d) for d in diffs[diffs > 1e-12])
    for q in sorted(set(candidates), reverse=True):
        mult = vals / q
        if np.allclose(mult, np.rint(mult), atol=1e-9) and span * n / q <= MAX_BINS:
            return q, 0.0
    q = max(DEFAULT_RESOLUTION, 1e-3 * span)
    if span * n / q > MAX_BINS:
        q = span * n / MAX_BINS
    return q, n * q


def _codeword_laws(solution: CrdSolution):
    """Per-class law of a codeword drawn from the optimal output law: P*(y | s)."""
    return np.broadcast_to(solution.induced, solution.channel.shape)


class _DistortionConvolver:
    """Exact distribution of sum_i d(x_i, Y_i) given per-class letter counts.

    A class is a joint symbol (x, s) of positive probability; its per-letter
    kernel is the lattice law of d(x, Y) with Y drawn from ``laws[x, s]``.
    """

    def __init__(self, solution: CrdSolution, n: int, laws):
        inst = solution.instance
        pmf = inst.source.pmf
        self.classes = [tuple(r) for r in np.argwhere(pmf > 0)]
        probs = pmf[pmf > 0]
        self.class_probs = probs / probs.sum()
        self.n = n
        dmat = inst.dist.d
        self.q, self.quantization_bound = _lattice_quantum(dmat, n)
        self.kernels = []
        for x, s in self.classes:
            ydist = laws[x, s]
            offs = np.rint(dmat[x] / self.q).astype(np.int64)
            keep = ydist > 0
            offs, p = offs[keep], ydist[keep]
            lo, hi = int(offs.min()), int(offs.max())
            dense = np.zeros(hi - lo + 1)
            np.add.at(dense, offs - lo, p)
            dense /= dense.sum()
            self.kernels.append((lo, dense))

    def _mfold(self, kern, m):
        lo, dense = kern
        nz = np.flatnonzero(dense)
        if nz.size == 1:
            return m * (lo + int(nz[0])), np.ones(1)
        if nz.size == 2:
            stride = int(nz[1] - nz[0])
            p1 = dense[nz[1]]
            k = np.arange(m + 1)
            logpmf = (gammaln(m + 1) - gammaln(k + 1) - gammaln(m - k + 1)
                      + k * math.log(p1) + (m - k) * math.log(1.0 - p1))
            arr = np.zeros(m * stride + 1)
            arr[k * stride] = np.exp(logpmf)
            return m * (lo + int(nz[0])), arr
        return m * lo, _self_convolve(dense, m)

    def sum_pmf(self, counts):
        """(shift, dense pmf) of the distortion sum for one count vector."""
        shift = 0
        total = None
        for kern, m in zip(self.kernels, counts):
            if m == 0:
                continue
            s, arr = self._mfold(kern, int(m))
            shift += s
            total = arr if total is None else _convolve(total, arr)
        if total is None:
            return 0, np.ones(1)
        return shift, total

    def interval_prob(self, counts, lo_value, hi_value):
        """Pr[lo_value <= sum <= hi_value] on the lattice."""
        shift, pmf = self.sum_pmf(counts)
        a = math.ceil(lo_value / self.q - 1e-9) - shift
        b = math.floor(hi_value / self.q + 1e-9) - shift
        a = max(a, 0)
        b = min(b, len(pmf) - 1)
        if b < a:
            return 0.0
        if a == 0 and b == len(pmf) - 1:
            return 1.0
        return float(min(max(pmf[a:b + 1].sum(), 0.0), 1.0))

    def trial_probs(self, rng, m, lo_value, hi_value):
        """interval_prob for m source sequences drawn i.i.d. from the class law."""
        counts = rng.multinomial(self.n, self.class_probs, size=m)
        return np.array([self.interval_prob(c, lo_value, hi_value) for c in counts])


# ---------------------------------------------------------------------------
# random-coding bound (Monte-Carlo and exact enumeration)
# ---------------------------------------------------------------------------


def simulate_random_code(query: FblQuery, solution: CrdSolution,
                         trials: int, seed=0, chunk_size=_MC_CHUNK,
                         threads: int = 1) -> BoundResult:
    """Monte-Carlo estimate of the random-coding achievability bound.

    Per trial, a source/side-information sequence is drawn from the product
    law (only the per-class letter counts matter and they are drawn
    directly); the probability p that one codeword drawn from the optimal
    output law lands within distortion D is computed by exact per-letter
    convolution; the trial contributes (1 - p)^M.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, D = query.n, query.distortion
    conv = _DistortionConvolver(solution, n, _codeword_laws(solution))

    def trial_fn(rng, m):
        return pow_one_minus(conv.trial_probs(rng, m, 0.0, n * D), query.log_m)

    est = chunked_monte_carlo(trials, seed, trial_fn, chunk_size=chunk_size,
                              threads=threads)
    return BoundResult(value=min(max(est.mean, 0.0), 1.0),
                       terms={"mc_mean": est.mean},
                       mc_stderr=est.stderr,
                       quantization_bound=conv.quantization_bound)


def _compositions(n, k):
    if k == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _compositions(n - head, k - 1):
            yield (head,) + rest


def exact_random_code(query: FblQuery, solution: CrdSolution) -> float:
    """Exhaustive evaluation of the random-coding bound (small n only).

    Enumerates per-class letter counts (the sufficient statistic for every
    quantity involved) with exact multinomial weights.
    """
    n, D = query.n, query.distortion
    conv = _DistortionConvolver(solution, n, _codeword_laws(solution))
    if len(conv.class_probs) ** min(n, 8) > 10**8 and n > 16:
        raise FblcrdError("exact enumeration is limited to small blocklengths")
    log_p = np.log(conv.class_probs)
    total = 0.0
    for counts in _compositions(n, len(conv.classes)):
        m = np.array(counts)
        logw = gammaln(n + 1) - gammaln(m + 1).sum() + float(m @ log_p)
        p = conv.interval_prob(m, 0.0, n * D)
        total += math.exp(logw) * float(pow_one_minus(p, query.log_m))
    return total


def exact_tilted_tail(field: TiltedField, n: int, thresholds) -> np.ndarray:
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


def achievable_rate_estimate(solution: CrdSolution, n: int, eps: float,
                             trials: int, seed=0, chunk_size=_MC_CHUNK,
                             distortion: float | None = None):
    """Smallest rate at which the simulated random-coding bound meets eps.

    The per-trial cover probabilities do not depend on the codebook size,
    so one batch of trials supports the whole bisection over ln M.
    Returns (rate, cover probabilities) for downstream error assessment.
    """
    D = solution.target_distortion if distortion is None else distortion
    conv = _DistortionConvolver(solution, n, _codeword_laws(solution))
    p = np.concatenate([conv.trial_probs(rng, m, 0.0, n * D)
                        for rng, m in chunk_streams(trials, seed, chunk_size)])

    def eps_hat(log_m):
        return float(pow_one_minus(p, log_m).mean())

    lo, hi = 0.0, max(n * 1.0, 8.0)
    for _ in range(60):
        if eps_hat(hi) <= eps:
            break
        hi *= 2.0
    else:
        raise FblcrdError("achievability bisection failed: some trials never covered")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if eps_hat(mid) <= eps:
            hi = mid
        else:
            lo = mid
    return hi / n, p


# ---------------------------------------------------------------------------
# forward (three-term) bound
# ---------------------------------------------------------------------------


def default_forward_params(query: FblQuery, solution: CrdSolution,
                           pilot: int = _PILOT, seed=0) -> ForwardBoundParams:
    """Parameter defaults: delta = D/100, beta = sqrt(n)/C, gamma = M/sqrt(n).

    C is calibrated per instance from the smallest distortion-window
    probability observed on a pilot sample (with a factor-2 margin so that
    sequences slightly colder than the pilot minimum still zero out the
    window term); any positive choice keeps the bound valid.
    """
    conv = _DistortionConvolver(solution, query.n, solution.channel)
    return _forward_params(query, conv, pilot, seed)


def _forward_params(query, conv, pilot, seed):
    n, D = query.n, query.distortion
    delta = D / 100.0
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    probs = conv.trial_probs(rng, pilot, n * (D - delta), n * D)
    positive = probs[probs > 0]
    if positive.size == 0:
        beta = 1.0
    else:
        c_cal = 0.5 * math.sqrt(n) * float(positive.min())
        beta = math.sqrt(n) / c_cal
    return ForwardBoundParams(log_gamma=query.log_m - 0.5 * math.log(n),
                              beta=beta, delta=delta)


def forward_bound(query: FblQuery, solution: CrdSolution, field: TiltedField,
                  sums: SumDistribution, params: ForwardBoundParams | None = None,
                  trials: int = 1024, seed=0, chunk_size=_MC_CHUNK,
                  threads: int = 1) -> BoundResult:
    """Three-term achievability bound.

    ``sums`` is the n-letter tilted-sum distribution of ``field``.

    T1: tail of the tilted-density sum above ln gamma - ln beta - n lam* delta.
    T2: E[|1 - beta Pr[D - delta <= d(X^n, Y^n) <= D | X^n]|^+] by Monte-Carlo
        over source sequences with the inner window probability exact.
    T3: exp(-M/gamma) E[min(1, gamma exp(-sum j))], exact.
    """
    _check_sums(sums, query.n)
    n, D = query.n, query.distortion
    conv = _DistortionConvolver(solution, n, solution.channel)
    if params is None:
        params = _forward_params(query, conv, _PILOT, seed)
    lam = field.slope

    threshold = params.log_gamma - math.log(params.beta) - n * lam * params.delta
    t1 = sums.tail_ge(threshold)

    lo_val, hi_val = n * (D - params.delta), n * D

    def trial_fn(rng, m):
        return np.maximum(1.0 - params.beta * conv.trial_probs(rng, m, lo_val, hi_val), 0.0)

    est = chunked_monte_carlo(trials, seed, trial_fn, chunk_size=chunk_size,
                              threads=threads)
    t2 = est.mean

    m_over_gamma = query.log_m - params.log_gamma
    if m_over_gamma > 700.0:
        t3 = 0.0
    else:
        t3 = math.exp(-math.exp(m_over_gamma)) * sums.expect_capped_exp(params.log_gamma)

    total = t1 + t2 + t3
    return BoundResult(value=min(max(total, 0.0), 1.0),
                       terms={"tail": t1, "window": t2, "codebook": t3},
                       mc_stderr=est.stderr,
                       quantization_bound=max(sums.quantization_bound,
                                              conv.quantization_bound))


# ---------------------------------------------------------------------------
# second-order (Gaussian) approximation
# ---------------------------------------------------------------------------


def second_order_rate(n: int, eps: float, rate: float, v: float) -> float:
    """Gaussian approximation R + sqrt(V/n) Q^{-1}(eps), with no higher terms."""
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")
    if v < 0:
        raise ValueError("dispersion must be nonnegative")
    return rate + math.sqrt(v / n) * gaussian_q_inv(eps)

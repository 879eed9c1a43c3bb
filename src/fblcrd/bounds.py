"""Non-asymptotic excess-distortion bounds for i.i.d. instances.

Three bound evaluators share the machinery in this module:

* ``converse_lower`` — every code of size M suffers
  eps_n >= sup_gamma Pr[sum_i j_i >= ln M + gamma] - exp(-gamma),
  with the tail of the tilted-density sum computed by quantizing the
  finite per-letter support to a lattice and taking its n-fold
  self-convolution as one real FFT raised to the n-th power.  The
  transform spans only the window around the mean that Hoeffding's
  inequality shows to hold all but 1e-20 of the mass; what lies outside
  folds onto it, and that bound is carried with the result.  Two-valued
  supports collapse to an exact binomial, with no quantization at all.
* ``simulate_random_code`` — Monte-Carlo evaluation of the random-coding
  achievability bound E[(1 - P(ball))^M], where the per-sequence ball
  probability is the exact lattice law of the distortion sum under the
  optimal output law, returned as ln p.  Such probabilities lie far below
  an FFT's noise floor, so each trial's per-class kernels are
  exponentially tilted to put the sum's mass at the ball's edge; one
  transform per slab of trials then works where the mass is, over the
  same Hoeffding window, and the tilt is undone in logs.
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
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import gammaln

from .coremath import gaussian_q_inv, pow_one_minus_log
from .exceptions import FblcrdError
from .mc import chunk_streams, chunked_monte_carlo
from .solver import CrdSolution
from .tilted import TiltedField

#: Default lattice resolution (nats / distortion units) for exact convolution.
DEFAULT_RESOLUTION = 1e-6
#: Lattice size budget: the resolution is coarsened until the whole support
#: of the n-fold sum fits, and the resulting worst-case value error n*q is
#: reported with the result.  The transform itself spans only the window.
MAX_BINS = 1 << 23
#: Mass the tilted-sum window may leave out (folded onto it), by Hoeffding.
_ALIAS_MASS = 1e-20
#: Bins (trials x transform length) per slab of per-trial cover probabilities.
_SLAB_BINS = 1 << 14

#: Monte-Carlo trials per seeded chunk of the random-coding bounds.
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
    """Distribution of the n-fold sum of i.i.d. finite-support atoms.

    ``values`` must be ascending; both arrays are kept without copying.
    ``aliasing_bound`` caps the mass from outside ``values`` that was
    folded onto them, and so the error of every ``tail_ge`` and
    ``expect_capped_exp`` value.
    """

    def __init__(self, values, pmf, n, quantization_bound, aliasing_bound=0.0):
        self.values = np.asarray(values, dtype=float)
        self.pmf = np.asarray(pmf, dtype=float)
        self.n = n
        self.quantization_bound = float(quantization_bound)
        self.aliasing_bound = float(aliasing_bound)
        self._suffix = np.cumsum(self.pmf[::-1])[::-1]

    def tail_ge(self, t: float) -> float:
        """Pr[sum >= t], clamped to [0, 1] against the transform's noise."""
        idx = np.searchsorted(self.values, t, side="left")
        tail = float(self._suffix[idx]) if idx < len(self.values) else 0.0
        return min(max(tail, 0.0), 1.0)

    def expect_capped_exp(self, log_gamma: float) -> float:
        """E[min(1, gamma * exp(-sum))] with gamma given in logs, clamped to [0, 1]."""
        expo = np.minimum(log_gamma - self.values, 0.0)
        return min(max(float(self.pmf @ np.exp(expo)), 0.0), 1.0)

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


def _window_length(span, n):
    """Transform length of the Hoeffding window of an n-fold sum of span-bin kernels.

    By Hoeffding, all but ``_ALIAS_MASS`` of the sum's mass lies within
    h = span sqrt(n ln(2/_ALIAS_MASS)/2) bins of its mean; the window is
    2h + 2 bins, or the whole support n span + 1 when that is shorter.
    """
    half = span * math.sqrt(n * math.log(2.0 / _ALIAS_MASS) / 2.0)
    return next_fast_len(min(math.ceil(2.0 * half) + 2, n * span + 1), real=True)


def _power_transform(base, n):
    """Window of the n-fold self-convolution: (first sum index, pmf, aliasing bound).

    The sum index of n draws from the per-letter kernel ``base`` (bins
    0..K) lies in 0..nK, but by Hoeffding all but ``_ALIAS_MASS`` of its
    mass lies within t = K sqrt(n ln(2/_ALIAS_MASS)/2) of the mean n mu.
    The kernel's transform at a length L >= 2t + 2 is raised to the n-th
    power; the cyclic result, rolled to start at the window's first index
    a, holds the sum indices a .. a+L-1 with the mass outside them wrapped
    in.  That mass is at most the returned Hoeffding bound, so every tail
    and expectation of a quantity in [0, 1] moves by no more.  When L
    covers the whole support, a = 0, nothing wraps and the bound is 0.

    The transform adds zero-mean noise of order 1e-16 or less to each
    bin, negative values included.  It is not clipped, which would keep
    only its positive half and bias the tails upwards; the readers of
    ``SumDistribution`` clamp instead.  The noise is harmless in the
    tilted-sum tails but fatal to the far smaller per-trial cover
    probabilities, which tilt their kernels first (``_DistortionConvolver``).
    """
    if n == 1:
        return 0, base, 0.0
    span = len(base) - 1
    size = n * span + 1
    nfft = _window_length(span, n)
    mean = n * float(np.arange(len(base)) @ base)
    first = min(max(round(mean - nfft / 2), 0), max(size - nfft, 0))
    spectrum = rfft(base, nfft)
    np.power(spectrum, n, out=spectrum)
    pmf = np.roll(irfft(spectrum, nfft, overwrite_x=True), -first)[:size]
    # both window edges lie at least (nfft - 1)/2 bins from the mean
    alias = 0.0 if nfft >= size else 2.0 * math.exp(-0.5 * ((nfft - 1) / span) ** 2 / n)
    return first, pmf, alias


def sum_distribution(values, probs, n) -> SumDistribution:
    """Exact distribution of the sum of n i.i.d. draws from finite atoms.

    Supports of one or two distinct values yield exact point-mass/binomial
    distributions.  Larger supports are quantized to a lattice of
    resolution DEFAULT_RESOLUTION, coarsened when the whole support of the
    sum, n times the per-letter span, would exceed MAX_BINS bins; the
    worst-case sum error n*q is reported.  The sum is then one transform of
    the per-letter kernel, over the window of the lattice that holds all
    but at most ``aliasing_bound`` of the mass (``_power_transform``).
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
    q = DEFAULT_RESOLUTION
    if span * n / q > MAX_BINS:
        q = span * n / MAX_BINS
    offs = np.rint((v - v[0]) / q).astype(np.int64)
    base = np.zeros(int(offs.max()) + 1)
    np.add.at(base, offs, p)
    first, pmf, alias = _power_transform(base, n)
    pmf /= pmf.sum()
    vals = n * v[0] + q * np.arange(first, first + len(pmf))
    return SumDistribution(vals, pmf, n, n * q, alias)


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
    noise, and finer grids make the per-trial transforms longer.
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
    """Law of sum_i d(x_i, Y_i) given per-class letter counts, in logs.

    A class is a joint symbol (x, s) of positive probability; its per-letter
    kernel is the lattice law of d(x, Y) with Y drawn from ``laws[x, s]``,
    kept as ln pmf over bins 0..K above the class's smallest value.
    """

    def __init__(self, solution: CrdSolution, n: int, laws):
        inst = solution.instance
        pmf = inst.source.pmf
        probs = pmf[pmf > 0]
        self.class_probs = probs / probs.sum()
        self.n = n
        dmat = inst.dist.d
        self.q, self.quantization_bound = _lattice_quantum(dmat, n)
        lows, kernels = [], []
        for x, s in np.argwhere(pmf > 0):
            keep = laws[x, s] > 0
            offs = np.rint(dmat[x][keep] / self.q).astype(np.int64)
            dense = np.bincount(offs - offs.min(), weights=laws[x, s][keep])
            lows.append(offs.min())
            kernels.append(dense / dense.sum())
        self.lows = np.array(lows, dtype=float)
        self.spans = np.array([len(k) - 1 for k in kernels], dtype=float)
        self.bins = np.arange(self.spans.max() + 1)
        with np.errstate(divide="ignore"):
            self.log_kernels = np.log(np.stack(
                [np.pad(k, (0, len(self.bins) - len(k))) for k in kernels]))
        self.means = np.array([k @ self.bins[:len(k)] for k in kernels])
        self.nfft = _window_length(len(self.bins) - 1, n)

    def draw_counts(self, rng, m):
        """Per-class letter counts of m source sequences drawn i.i.d."""
        return rng.multinomial(self.n, self.class_probs, size=m)

    def log_interval_probs(self, counts, lo_value, hi_value):
        """ln Pr[lo_value <= sum <= hi_value] on the lattice, one per row of counts.

        Rows whose sum lies wholly inside the interval give 0, wholly
        outside -inf.  The others are transformed in slabs of about
        ``_SLAB_BINS`` bins (``_tilted_window``); each row's value depends
        on that row alone.
        """
        counts = np.asarray(counts, dtype=float)
        top = counts @ self.spans
        shift = counts @ self.lows
        a = math.ceil(lo_value / self.q - 1e-9) - shift
        b = math.floor(hi_value / self.q + 1e-9) - shift
        miss = (b < np.maximum(a, 0.0)) | (a > top)
        out = np.where(miss, -np.inf, 0.0)
        rows = np.flatnonzero(~miss & ((a > 0) | (b < top)))
        slab = max(_SLAB_BINS // self.nfft, 1)
        for i in range(0, rows.size, slab):
            r = rows[i:i + slab]
            out[r] = self._tilted_window(counts[r], a[r], b[r], top[r])
        return out

    def _tilt(self, theta):
        """Kernels tilted by exp(theta v) and normalised, with their ln normalisers."""
        expo = theta[:, None, None] * self.bins + self.log_kernels
        peak = expo.max(axis=-1, keepdims=True)
        w = np.exp(expo - peak)
        z = w.sum(axis=-1, keepdims=True)
        return w / z, (peak + np.log(z))[..., 0]

    def _saddle(self, counts, target):
        """theta with sum_k c_k mu_k(theta) within a quarter bin of target, per row.

        Newton steps, each at most max(2, |theta|)/K, inside a bracket that
        the sign of the miss narrows; a step that leaves it bisects.
        """
        theta = np.zeros(len(target))
        lo = np.full(len(target), -np.inf)
        hi = np.full(len(target), np.inf)
        todo = np.arange(len(target))
        for _ in range(200):
            w, _ = self._tilt(theta[todo])
            mu = (w * self.bins).sum(axis=-1)
            c = counts[todo]
            miss = (c * mu).sum(axis=1) - target[todo]
            slope = (c * ((w * self.bins**2).sum(axis=-1) - mu * mu)).sum(axis=1)
            open_ = np.abs(miss) > 0.25
            todo, miss, slope = todo[open_], miss[open_], slope[open_]
            if todo.size == 0:
                return theta
            th = theta[todo]
            lo[todo] = np.where(miss < 0, th, lo[todo])
            hi[todo] = np.where(miss > 0, th, hi[todo])
            reach = np.maximum(2.0, np.abs(th)) / (len(self.bins) - 1)
            with np.errstate(divide="ignore"):
                step = np.clip(-miss / slope, -reach, reach)
            new = th + step
            out = (new <= lo[todo]) | (new >= hi[todo])
            theta[todo] = np.where(out, 0.5 * (lo[todo] + hi[todo]), new)
        raise FblcrdError("cover-probability saddle point did not converge")

    def _tilted_window(self, counts, a, b, top):
        """ln Pr[a <= U <= b] for the sums U = sum - shift of a slab of rows.

        The tilt point T is the point of [a, b] nearest the row's mean,
        half a bin inside its support [0, top]; at the saddle theta the
        tilted sum has mean T, and one irfft of prod_k S_k(theta)^(c_k)
        over the Hoeffding window around T gives its law p~.  Then
        ln p = sum_k c_k ln Z_k(theta) - theta T
               + ln sum_{v in [a, b]} p~(v) exp(-theta (v - T)),
        where every weight is at most 1, so the transform's noise and the
        folded mass stay relative errors.
        """
        nfft = self.nfft
        target = np.clip(np.clip((counts * self.means).sum(axis=1), a, b), 0.5, top - 0.5)
        theta = self._saddle(counts, target)
        w, log_z = self._tilt(theta)
        start = np.clip(np.rint(target - 0.5 * nfft), 0.0, np.maximum(top + 1 - nfft, 0.0))
        padded = np.zeros(w.shape[:-1] + (nfft,))
        padded[..., :w.shape[-1]] = w
        spec = rfft(padded, axis=-1, overwrite_x=True)
        c = counts[:, :, None]
        # |S| can be exactly 0 (two equal atoms at omega = pi); a class with
        # no letters must still contribute 0 there, not 0 * -inf
        abs2 = np.maximum(spec.real * spec.real + spec.imag * spec.imag, np.finfo(float).tiny)
        log_amp = 0.5 * (c * np.log(abs2)).sum(axis=1)
        # frequencies whose amplitude is below e^-50 in every row are 0 to
        # far below the transform's noise: no phase is formed for them
        band = int(np.flatnonzero((log_amp > -50.0).any(axis=0))[-1]) + 1
        spec = spec[..., :band]
        amp = np.where(log_amp[:, :band] > -50.0, np.exp(log_amp[:, :band]), 0.0)
        phase = ((c * np.arctan2(spec.imag, spec.real)).sum(axis=1)
                 + start[:, None] * (2.0 * np.pi / nfft) * np.arange(band))
        prod = np.empty(amp.shape, dtype=complex)
        prod.real = amp * np.cos(phase)
        prod.imag = amp * np.sin(phase)
        tilted = irfft(prod, nfft, axis=-1)
        v = start[:, None] + np.arange(nfft) - target[:, None]
        inside = (v >= (a - target)[:, None]) & (v <= (b - target)[:, None])
        weight = np.exp(np.where(inside, -theta[:, None] * v, -np.inf))
        return (counts * log_z).sum(axis=1) - theta * target + np.log((tilted * weight).sum(axis=1))


# ---------------------------------------------------------------------------
# random-coding bound (Monte-Carlo)
# ---------------------------------------------------------------------------


def simulate_random_code(query: FblQuery, solution: CrdSolution,
                         trials: int, seed=0, threads: int = 1) -> BoundResult:
    """Monte-Carlo estimate of the random-coding achievability bound.

    Per trial, a source/side-information sequence is drawn from the product
    law (only the per-class letter counts matter and they are drawn
    directly); the probability p that one codeword drawn from the optimal
    output law lands within distortion D is the exact lattice law of the
    distortion sum, taken in logs; the trial contributes (1 - p)^M.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n, D = query.n, query.distortion
    conv = _DistortionConvolver(solution, n, _codeword_laws(solution))

    def trial_fn(rng, m):
        log_p = conv.log_interval_probs(conv.draw_counts(rng, m), 0.0, n * D)
        return pow_one_minus_log(log_p, query.log_m)

    est = chunked_monte_carlo(trials, seed, trial_fn, chunk_size=_MC_CHUNK,
                              threads=threads)
    return BoundResult(value=min(max(est.mean, 0.0), 1.0),
                       terms={"mc_mean": est.mean},
                       mc_stderr=est.stderr,
                       quantization_bound=conv.quantization_bound)


def achievable_rate_estimate(solution: CrdSolution, n: int, eps: float,
                             trials: int, seed=0):
    """Smallest rate at which the simulated random-coding bound meets eps.

    The per-trial cover probabilities do not depend on the codebook size,
    so one batch of trials supports the whole bisection over ln M.
    Returns (rate, ln cover probabilities) for downstream error assessment.
    """
    D = solution.target_distortion
    conv = _DistortionConvolver(solution, n, _codeword_laws(solution))
    log_p = np.concatenate([conv.log_interval_probs(conv.draw_counts(rng, m), 0.0, n * D)
                            for rng, m in chunk_streams(trials, seed, _MC_CHUNK)])

    def eps_hat(log_m):
        return float(pow_one_minus_log(log_p, log_m).mean())

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
    return hi / n, log_p


# ---------------------------------------------------------------------------
# forward (three-term) bound
# ---------------------------------------------------------------------------


def _forward_params(query, conv, seed):
    """Parameter defaults: delta = D/100, beta = sqrt(n)/C, gamma = M/sqrt(n).

    delta grows to reach the lattice point below nD when n D/100 falls
    short of it: a window [n(D - delta), nD] with no lattice point has
    probability 0, and the window term would be 1.  C is calibrated per
    instance from the smallest distortion-window probability observed on a
    pilot sample (with a factor-2 margin so that sequences slightly colder
    than the pilot minimum still zero out the window term); any positive
    choices keep the bound valid.
    """
    n, D = query.n, query.distortion
    delta = max(D / 100.0, (n * D - conv.q * math.floor(n * D / conv.q)) / n)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    probs = np.exp(conv.log_interval_probs(conv.draw_counts(rng, _PILOT),
                                           n * (D - delta), n * D))
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
                  trials: int = 1024, seed=0, threads: int = 1) -> BoundResult:
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
        params = _forward_params(query, conv, seed)
    lam = field.slope

    threshold = params.log_gamma - math.log(params.beta) - n * lam * params.delta
    t1 = sums.tail_ge(threshold)

    lo_val, hi_val = n * (D - params.delta), n * D

    def trial_fn(rng, m):
        log_p = conv.log_interval_probs(conv.draw_counts(rng, m), lo_val, hi_val)
        return np.maximum(1.0 - params.beta * np.exp(log_p), 0.0)

    est = chunked_monte_carlo(trials, seed, trial_fn, chunk_size=_MC_CHUNK,
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

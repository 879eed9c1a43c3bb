"""Second-order quantities for Markov source/side-information pairs.

The pair sequence (X_i, S_i) forms an irreducible, aperiodic,
time-homogeneous Markov chain over K = |X| |S| joint states, started from
its stationary law.  All single-letter quantities (rate mu, tilted density
j, its stationary variance) are those of the i.i.d. instance with joint
law pi_XS; memory enters only through the lag covariances of j along the
chain:

    V_n    = lag0 + (2/n) sum_{k=1}^{n} (n - k) cov_k,
    V_inf  = lag0 + 2 sum_{k>=1} cov_k,

where cov_k decays geometrically for this chain class.  V_inf has the
closed form pi . (jt o (2 Z - I) jt) with the fundamental matrix
Z = (I - Xi + 1 pi)^-1 (Kemeny & Snell, Finite Markov Chains, 1960); the
covariance ladder gives the lags themselves and V_n.

Joint states are indexed as x * s_size + s throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph

from .exceptions import ValidationError
from .solver import CrdSolution, solve_crd
from .source import DistortionSpec, Instance, JointSource, SequencePair, validate
from .tilted import TiltedField, tilted_density

_LADDER_FLOOR = 1e-14
_LADDER_MAX_LAG = 10_000
#: Steps composed together by sample_markov; bounds its table to k x 2^12.
_SAMPLE_BLOCK = 1 << 12


def stationary_law(xi) -> np.ndarray:
    """Unique stationary distribution of an irreducible row-stochastic matrix.

    One linear solve, pi (I - Xi + 1 1^T) = 1^T, whose matrix is
    nonsingular for an irreducible chain; the returned law satisfies
    pi @ xi = pi with residual below 1e-12.  Entries below the solve's
    rounding (about 1e-16) can come out negative and are set to 0.
    """
    xi = np.asarray(xi, dtype=float)
    _check_stochastic(xi)
    _check_irreducible(xi)
    k = xi.shape[0]
    pi = np.linalg.solve((np.eye(k) - xi + 1.0).T, np.ones(k))
    np.maximum(pi, 0.0, out=pi)
    residual = np.abs(pi @ xi - pi).max()
    if residual > 1e-12:
        raise ValidationError(
            f"stationary law solve is inaccurate: residual {residual:g} > 1e-12"
        )
    return pi


def _check_stochastic(xi):
    if xi.ndim != 2 or xi.shape[0] != xi.shape[1] or xi.size == 0:
        raise ValidationError("transition matrix must be square and non-empty")
    if np.any(xi < 0) or not np.all(np.isfinite(xi)):
        raise ValidationError("transition matrix entries must be finite and nonnegative")
    rows = xi.sum(axis=1)
    bad = np.flatnonzero(np.abs(rows - 1.0) > 1e-12)
    if bad.size:
        raise ValidationError(
            f"transition matrix row {bad[0]} sums to {rows[bad[0]]!r}, expected 1"
        )


def _check_irreducible(xi):
    n_comp, labels = csgraph.connected_components(xi > 0, directed=True,
                                                  connection="strong")
    if n_comp > 1:
        counts = np.bincount(labels)
        minority = np.flatnonzero(labels != np.argmax(counts))
        raise ValidationError(
            f"transition matrix is reducible; states {minority.tolist()} are not "
            "mutually reachable with the rest"
        )


def _period(xi) -> int:
    """Period of an irreducible chain via BFS level differences."""
    k = xi.shape[0]
    level = np.full(k, -1)
    level[0] = 0
    queue = [0]
    g = 0
    adj = [np.flatnonzero(xi[u] > 0) for u in range(k)]
    while queue:
        u = queue.pop()
        for v in adj[u]:
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
            else:
                g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g) if g else 0


class MarkovModel:
    """Validated Markov source model over joint (x, s) states."""

    def __init__(self, xi, x_size: int, s_size: int, dist: DistortionSpec):
        xi = np.array(xi, dtype=float)
        if xi.shape != (x_size * s_size, x_size * s_size):
            raise ValidationError(
                f"transition matrix must be {x_size * s_size} x {x_size * s_size} "
                f"for x_size={x_size}, s_size={s_size}"
            )
        if not isinstance(dist, DistortionSpec):
            dist = DistortionSpec(dist)
        if dist.x_size != x_size:
            raise ValidationError(
                "distortion matrix rows must match the source alphabet size"
            )
        self.pi = stationary_law(xi)
        period = _period(xi)
        if period != 1:
            raise ValidationError(f"transition matrix is periodic with period {period}")
        xi.flags.writeable = False
        self.xi = xi
        self.x_size = x_size
        self.s_size = s_size
        self.dist = dist
        self.k = x_size * s_size

    def stationary_instance(self) -> Instance:
        """The i.i.d. instance with joint law pi_XS (single-letter quantities)."""
        pmf = self.pi.reshape(self.x_size, self.s_size)
        return validate(JointSource(pmf), self.dist)


def load_markov_model(path) -> MarkovModel:
    """Load the JSON Markov schema: x_size, s_size, xi (row-stochastic), d."""
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    for key in ("x_size", "s_size", "xi", "d"):
        if key not in obj:
            raise ValidationError(f"{path}: missing required key {key!r}")
    return MarkovModel(np.asarray(obj["xi"], dtype=float), int(obj["x_size"]),
                       int(obj["s_size"]), DistortionSpec(np.asarray(obj["d"], dtype=float)))


@dataclass(frozen=True)
class CovarianceLadder:
    """Lag covariances of the tilted density along the chain.

    v_inf is lag0 + 2 sum(covs), the truncated series; its remainder is
    exactly v_inf_spectral - v_inf.
    """

    lag0: float
    covs: np.ndarray
    v_inf: float


@dataclass(frozen=True)
class MarkovTiltedQuantities:
    """Single-letter solution plus the covariance ladder of one model."""

    mu: float
    field: TiltedField
    solution: CrdSolution
    ladder: CovarianceLadder


def markov_tilted_quantities(model: MarkovModel, distortion: float,
                             tol: float = 1e-9) -> MarkovTiltedQuantities:
    """Rate and covariance ladder of the tilted density at the stationary law.

    Lag-k covariances are exact matrix computations,
    cov_k = sum_{u,v} pi(u) Xi^k(u, v) jt(u) jt(v) with jt centered, iterated
    by repeated multiplication; the ladder stops after five consecutive lags
    below 1e-14 or at 10,000 lags.
    """
    inst = model.stationary_instance()
    solution = solve_crd(inst, distortion, tol=tol)
    field = tilted_density(solution)
    j = field.table.reshape(-1)          # index x * s_size + s matches the chain
    mu = field.mean
    jt = j - mu
    lag0 = float(model.pi @ (jt * jt))
    covs = []
    w = jt.copy()
    below = 0
    for _ in range(_LADDER_MAX_LAG):
        w = model.xi @ w
        c = float(model.pi @ (jt * w))
        covs.append(c)
        below = below + 1 if abs(c) < _LADDER_FLOOR else 0
        if below >= 5:
            break
    covs = np.array(covs)
    ladder = CovarianceLadder(lag0=lag0, covs=covs, v_inf=lag0 + 2.0 * float(covs.sum()))
    return MarkovTiltedQuantities(mu=mu, field=field, solution=solution, ladder=ladder)


def v_n(ladder: CovarianceLadder, n: int) -> float:
    """Variance of the normalized n-letter tilted sum, exact given the ladder.

    V_n = lag0 + (2/n) sum_{k=1}^{n} (n - k) cov_k; lags beyond the ladder
    truncation contribute below its stated floor.
    """
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")
    k_max = min(n, len(ladder.covs))
    if k_max == 0:
        return ladder.lag0
    k = np.arange(1, k_max + 1)
    return ladder.lag0 + (2.0 / n) * float(((n - k) * ladder.covs[:k_max]).sum())


def v_inf_spectral(model: MarkovModel, quantities: MarkovTiltedQuantities) -> float:
    """Asymptotic variance in closed form from the fundamental matrix.

    With A = Xi - 1 pi, A^k = Xi^k - 1 pi for k >= 1 and the centred
    density has pi . jt = 0, so sum_{k>=1} cov_k = pi . (jt o (Z - I) jt)
    with Z = (I - A)^-1 = (I - Xi + 1 pi)^-1, and
    V_inf = pi . (jt o (2 Z - I) jt): one linear solve, exact for every
    irreducible aperiodic chain, diagonalizable or not.
    """
    jt = quantities.field.table.reshape(-1) - quantities.mu
    z_jt = np.linalg.solve(np.eye(model.k) - model.xi + model.pi[None, :], jt)
    return float(model.pi @ (jt * (2.0 * z_jt - jt)))


def sample_markov(model: MarkovModel, n: int, seed=0) -> SequencePair:
    """Sample a stationary path of length n, deterministic given the seed.

    Step i maps state k to searchsorted(cumsum(xi[k]), u_i) for one uniform
    u_i per step.  Within each block of steps the maps are tabulated for
    every k and composed by pointer doubling, so the path is the one a
    step-by-step walk over the same uniforms takes.
    """
    if n < 1:
        raise ValueError(f"path length must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    cum_rows = np.cumsum(model.xi, axis=1)
    u = rng.random(n)
    states = np.empty(n, dtype=np.int64)
    states[0] = np.searchsorted(np.cumsum(model.pi), u[0], side="right")
    states[0] = min(states[0], model.k - 1)
    for start in range(1, n, _SAMPLE_BLOCK):
        steps = u[start:start + _SAMPLE_BLOCK]
        maps = np.stack([np.searchsorted(row, steps, side="right") for row in cum_rows])
        np.minimum(maps, model.k - 1, out=maps)
        stride = 1
        while stride < steps.size:
            # afterwards maps[:, i] composes the block's steps i - 2 stride + 1 .. i
            maps[:, stride:] = np.take_along_axis(maps[:, stride:], maps[:, :-stride],
                                                  axis=0)
            stride *= 2
        states[start:start + steps.size] = maps[states[start - 1]]
    return SequencePair(x=states // model.s_size, s=states % model.s_size)


def iid_kernel(pmf) -> np.ndarray:
    """Transition matrix whose rows all equal the flattened joint law.

    The resulting chain is i.i.d.; every lag covariance vanishes and the
    asymptotic variance collapses to the single-letter dispersion.
    """
    flat = np.asarray(pmf, dtype=float).ravel()
    flat = flat / flat.sum()
    return np.tile(flat, (flat.size, 1))

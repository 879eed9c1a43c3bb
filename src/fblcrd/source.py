"""Problem instances: finite joint sources with side information.

A problem instance pairs a joint law P_XS over the source alphabet X and
the side-information alphabet S with a bounded nonnegative per-letter
distortion matrix d(x, y) over X and the reproduction alphabet Y.
Sequence distortion is the arithmetic mean of per-letter distortions.

Alphabets are 0-based integer indices; optional string labels are carried
for presentation only and never affect computation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .mc import chunk_streams

#: Probabilities below this are treated as structural zeros and removed
#: from supports, so downstream log-densities never see them.
STRUCTURAL_ZERO = 1e-15

#: Default Monte-Carlo / sampling chunk size; per-chunk substreams are
#: derived deterministically from the user seed.
DEFAULT_CHUNK = 1 << 16

_PMF_SUM_TOL = 1e-12


class JointSource:
    """Joint pmf P_XS over a finite source/side-information alphabet pair.

    The pmf is stored as an [x_size, s_size] array.  Entries below the
    structural-zero threshold are removed and the remaining mass is
    renormalized.  Instances are immutable after construction.
    """

    def __init__(self, pmf, labels: dict | None = None):
        pmf = np.array(pmf, dtype=float)
        if pmf.ndim != 2 or pmf.size == 0:
            raise ValidationError(
                f"pmf must be a non-empty 2-D matrix, got shape {pmf.shape}"
            )
        if not np.all(np.isfinite(pmf)):
            bad = np.argwhere(~np.isfinite(pmf))[0]
            raise ValidationError(f"non-finite probability at (x={bad[0]}, s={bad[1]})")
        if np.any(pmf < -STRUCTURAL_ZERO):
            bad = np.argwhere(pmf < -STRUCTURAL_ZERO)[0]
            raise ValidationError(
                f"negative probability at (x={bad[0]}, s={bad[1]}): {pmf[bad[0], bad[1]]!r}"
            )
        total = pmf.sum()
        if abs(total - 1.0) > _PMF_SUM_TOL:
            raise ValidationError(
                f"pmf sums to {total!r}, violating the unit row-sum requirement"
            )
        pmf[pmf < STRUCTURAL_ZERO] = 0.0
        pmf /= pmf.sum()
        pmf.flags.writeable = False
        self.pmf = pmf
        self.x_size, self.s_size = pmf.shape
        self.labels = dict(labels) if labels else {}
        self.p_s = pmf.sum(axis=0)
        self.p_x = pmf.sum(axis=1)
        self.p_s.flags.writeable = False
        self.p_x.flags.writeable = False
        # Conditional P_{X|S}; columns with P_S(s) = 0 are left identically zero.
        cond = np.zeros_like(pmf)
        pos = self.p_s > 0
        cond[:, pos] = pmf[:, pos] / self.p_s[pos]
        cond.flags.writeable = False
        self.cond_x_given_s = cond

    def __repr__(self):
        return f"JointSource(x_size={self.x_size}, s_size={self.s_size})"


class DistortionSpec:
    """Per-letter distortion matrix d(x, y), nonnegative and bounded."""

    def __init__(self, d):
        d = np.array(d, dtype=float)
        if d.ndim != 2 or d.size == 0:
            raise ValidationError(
                f"distortion matrix must be a non-empty 2-D matrix, got shape {d.shape}"
            )
        if not np.all(np.isfinite(d)):
            bad = np.argwhere(~np.isfinite(d))[0]
            raise ValidationError(f"non-finite distortion at (x={bad[0]}, y={bad[1]})")
        if np.any(d < 0):
            bad = np.argwhere(d < 0)[0]
            raise ValidationError(
                f"negative distortion at (x={bad[0]}, y={bad[1]}): {d[bad[0], bad[1]]!r}"
            )
        d.flags.writeable = False
        self.d = d
        self.x_size, self.y_size = d.shape
        self.d_max = float(d.max())
        self.row_min = d.min(axis=1)
        self.row_min.flags.writeable = False

    def __repr__(self):
        return f"DistortionSpec(x_size={self.x_size}, y_size={self.y_size}, d_max={self.d_max})"


@dataclass(frozen=True)
class Instance:
    """A validated (source, distortion) pair with cached feasibility data.

    d_floor is the smallest achievable expected distortion (every source
    letter mapped to its best reproduction); zero_rate_distortion is the
    expected distortion of the best rate-zero code, above which the
    rate-distortion function is exactly zero.
    """

    source: JointSource
    dist: DistortionSpec
    d_floor: float
    d_floor_by_state: np.ndarray
    zero_rate_distortion: float
    zero_rate_by_state: np.ndarray
    best_y_by_state: np.ndarray

    @property
    def x_size(self):
        return self.source.x_size

    @property
    def s_size(self):
        return self.source.s_size

    @property
    def y_size(self):
        return self.dist.y_size

    def feasible(self, distortion: float) -> bool:
        return distortion >= self.d_floor - 1e-12


def validate(source, dist: DistortionSpec | None = None) -> Instance:
    """Attach cached marginals and distortion-range data to a model.

    Idempotent: passing an already-validated Instance returns it unchanged.
    """
    if isinstance(source, Instance):
        return source
    if dist is None:
        raise ValidationError("a DistortionSpec is required to validate a JointSource")
    if not isinstance(source, JointSource):
        source = JointSource(source)
    if not isinstance(dist, DistortionSpec):
        dist = DistortionSpec(dist)
    if dist.x_size != source.x_size:
        raise ValidationError(
            f"distortion matrix has {dist.x_size} rows but the source alphabet has "
            f"{source.x_size} symbols"
        )
    cond = source.cond_x_given_s
    d_floor_by_state = cond.T @ dist.row_min
    d_floor = float(source.p_s @ d_floor_by_state)
    # Expected distortion per state of every constant-output code.
    per_y = np.einsum("xs,xy->sy", cond, dist.d)
    best_y = per_y.argmin(axis=1)
    zero_rate_by_state = per_y.min(axis=1)
    zero_rate = float(source.p_s @ zero_rate_by_state)
    d_floor_by_state.flags.writeable = False
    zero_rate_by_state.flags.writeable = False
    best_y.flags.writeable = False
    return Instance(
        source=source,
        dist=dist,
        d_floor=d_floor,
        d_floor_by_state=d_floor_by_state,
        zero_rate_distortion=zero_rate,
        zero_rate_by_state=zero_rate_by_state,
        best_y_by_state=best_y,
    )


@dataclass(frozen=True)
class SequencePair:
    """A length-n sequence of (x, s) symbol pairs."""

    x: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        if len(self.x) != len(self.s):
            raise ValidationError("x and s sequences must have equal length")

    def __len__(self):
        return len(self.x)


def sample_iid(instance, n: int, seed, chunk_size: int = DEFAULT_CHUNK) -> SequencePair:
    """Draw n i.i.d. pairs from P_XS, deterministically given the seed.

    Sampling is performed in fixed-size chunks with per-chunk substreams
    derived from the seed, so parallel evaluation of chunks cannot change
    the result.
    """
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")
    instance = validate(instance) if isinstance(instance, Instance) else instance
    src = instance.source if isinstance(instance, Instance) else instance
    flat = src.pmf.ravel()
    idx = np.concatenate([rng.choice(flat.size, size=m, p=flat)
                          for rng, m in chunk_streams(n, seed, chunk_size)])
    return SequencePair(x=idx // src.s_size, s=idx % src.s_size)


def sequence_distortion(x_seq, y_seq, dist: DistortionSpec) -> float:
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


def parse_model(obj: dict, origin: str = "<model>") -> Instance:
    """Build an Instance from the JSON model-file schema.

    Schema: {"x_size": int, "s_size": int, "y_size": int,
             "pmf": [[...]], "d": [[...]], "labels": {...}?}
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"{origin}: model document must be a JSON object")
    for key in ("x_size", "s_size", "y_size", "pmf", "d"):
        if key not in obj:
            raise ValidationError(f"{origin}: missing required key {key!r}")
    x_size, s_size, y_size = obj["x_size"], obj["s_size"], obj["y_size"]
    pmf = _parse_matrix(obj["pmf"], "pmf", x_size, s_size, origin)
    d = _parse_matrix(obj["d"], "d", x_size, y_size, origin)
    labels = obj.get("labels")
    return validate(JointSource(pmf, labels=labels), DistortionSpec(d))


def _parse_matrix(rows, name, n_rows, n_cols, origin):
    if not isinstance(rows, list) or len(rows) != n_rows:
        raise ValidationError(
            f"{origin}: {name} must be a list of {n_rows} rows, got "
            f"{len(rows) if isinstance(rows, list) else type(rows).__name__}"
        )
    out = np.empty((n_rows, n_cols), dtype=float)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n_cols:
            raise ValidationError(f"{origin}: {name} row {i} must have {n_cols} columns")
        for j, val in enumerate(row):
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                raise ValidationError(
                    f"{origin}: {name} row {i} col {j}: expected a number, got {val!r}"
                )
            out[i, j] = float(val)
    return out


def load_model(path) -> Instance:
    """Load and validate a JSON model file; diagnostics carry the file name."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    return parse_model(obj, origin=str(path))


def binary_hamming_instance(a: float = 0.5, c: float = 0.2) -> Instance:
    """Binary source with binary side information under Hamming distortion.

    P_S(1) = a; the conditional P_{X|S}(1|s) = c for both states, so the
    source is independent of the side information.  This is the standard
    closed-form benchmark: R(X;D|S) = H(c) - H(D) for 0 < D < c.
    """
    if not (0.0 < a < 1.0 and 0.0 < c < 0.5):
        raise ValidationError("binary instance requires 0 < a < 1 and 0 < c < 0.5")
    p_s = np.array([1.0 - a, a])
    pmf = np.vstack([(1.0 - c) * p_s, c * p_s])
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    return validate(JointSource(pmf), DistortionSpec(d))

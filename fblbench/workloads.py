"""Seeded inputs of the three benchmark workloads.

A workload is one *round*: a fixed list of queries that the benchmark
repeats until its time budget is spent.  Every query is one fblcrd
command line that yields exactly one output row, so query timing and
query failure are per row.  The same seed always gives the same models,
command lines and checker parameters.

The few queries that exercise known program faults are built from fixed
constants, never from the seed, so they fail in every round of every run.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

import numpy as np

#: Monte-Carlo worker threads passed to every command; at most ``nproc``
#: of the reference machine, and fixed rather than read at run time.
THREADS = 2

# characterize: random joint sources, (|X|, |S|, |Y|) each within 2..6,
# drawn from a fixed catalogue seed rather than the run's seed: on some
# draws the solver stalls for a minute or more on a single (model, D)
# point, which no per-seed time budget can absorb.
CATALOGUE_SEED = 1
RANDOM_SHAPES = ((2, 2, 3), (3, 2, 2), (3, 3, 4), (4, 2, 5), (2, 6, 2), (6, 2, 6), (5, 3, 3),
                 (4, 4, 4))
# D grid positions between the feasibility floor (0) and the zero-rate
# distortion (1).  Uniform, so second differences test convexity; it stops
# short of the zero-rate end, where the solver slows by two orders of
# magnitude and its time would depend on the seed more than on the code.
RANDOM_GRID = (0.15, 0.3, 0.45, 0.6)
# grid indices at which the side-information-collapsed model is solved too
COLLAPSED_AT = (1, 2)
BINARY_GRID = (0.2, 0.35, 0.5, 0.65, 0.8)        # fractions of c
QARY_SIZES = (3, 5)
QARY_GRID = (0.2, 0.4, 0.6, 0.8)                 # fractions of (q - 1) / q
# Sticky chains Xi = (1 - alpha) I + alpha K, fast mixing to slow, set by
# the gap 1 - r of their slowest mode r.  Lag covariances decay like r^k,
# so each ladder's length is fixed by its gap, whatever the seeded kernel K.
# The last gap keeps lag-10,000 covariances near exp(-20) of lag 0, far
# above the ladder's 1e-14 stopping floor, so that ladder runs to its cap.
CHAIN_GAPS = (0.5, 0.15, 0.05, 0.015, 0.002)
LADDER_CAP = 10_000
CHAIN_N = (1000, 10_000)

# fbl-montecarlo: (blocklength, random-coding trials).  Each count spans
# two 4096-trial chunks; the forward bound's window term adds a quarter.
FBL_MC_ROWS = ((300, 8192), (600, 8192), (1000, 8192))
# Gaussian rows outnumber the rest, so the query-time median falls inside
# their cluster.  One n for all keeps that cluster tight (nearly every
# trial lands in the cap region and costs one incomplete-beta call), and
# at n = 300 ln M stays below ~260 nats.
GAUSS_ROWS = 7
GAUSS_N = 300
GAUSS_TRIALS = 1_000_000

# fbl-lattice: one (model, n) row each; every lattice call hits the bin
# budget, so each row costs about the same whatever n.  n * max d stays
# below 4096 so the per-trial distortion lattice keeps to direct
# convolution (see FAULT_FBL), and over seeds 0..99 ln M stays below 520
# nats, clear of the cover-probability underflow near 745.
LATTICE_ROWS = (("ternary-abs", 600), ("quaternary-abs", 800))
LATTICE_TRIALS = 512

# Known-fault queries: fixed inputs, independent of the seed.
FAULT_FBL = {"a": 0.5, "c": 0.2, "D": 0.1, "eps": 0.1, "n": 5000, "trials": 512,
             "seed": 7}
FAULT_GAUSS = (
    {"var_x": 4.0, "var_z": 0.5, "D": 0.05, "eps": 0.1, "n": 1000, "seed": 7},
    {"var_x": 1.0, "var_z": 1.0, "D": 0.25, "eps": 0.1, "n": 2000, "seed": 7},
)


@dataclass(frozen=True)
class Query:
    """One command line and what its checker needs to know about it."""

    qid: int
    argv: tuple
    ref: dict

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    seed: int
    models: dict          # file name -> JSON document
    queries: list         # one round
    warmup: tuple         # argv of the untimed warm-up query

    def write_models(self, model_dir: pathlib.Path) -> None:
        for fname, doc in self.models.items():
            (model_dir / fname).write_text(json.dumps(doc), encoding="utf-8")


def resolve(argv, model_dir: pathlib.Path) -> list:
    """The command line with its model file name turned into a path."""
    argv = list(argv)
    if "--model" in argv:
        i = argv.index("--model") + 1
        argv[i] = str(model_dir / argv[i])
    return argv


def shuffled(queries, rng) -> list:
    """The round in a seeded order, rows of every family spread across it.

    The machine's speed drifts over seconds; run in build order, all rows
    of one family would be timed in one stretch of the round, and the rows
    near the query-time median would all see the same speed.
    """
    return [queries[i] for i in rng.permutation(len(queries))]


def _common(seed: int) -> list:
    return ["--format", "json", "--threads", str(THREADS), "--seed", str(seed)]


def _discrete_doc(pmf, d) -> dict:
    pmf = np.asarray(pmf, dtype=float)
    d = np.asarray(d, dtype=float)
    return {"x_size": pmf.shape[0], "s_size": pmf.shape[1], "y_size": d.shape[1],
            "pmf": pmf.tolist(), "d": d.tolist()}


def binary_pmf(a: float, c: float) -> np.ndarray:
    """P_XS with P_S(1) = a and X independent of S, P_X(1) = c."""
    p_s = np.array([1.0 - a, a])
    return np.vstack([(1.0 - c) * p_s, c * p_s])


def _floor_and_zero_rate(pmf, d):
    pmf, d = np.asarray(pmf), np.asarray(d)
    floor = float(pmf.sum(axis=1) @ d.min(axis=1))
    p_s = pmf.sum(axis=0)
    cond = pmf / p_s
    zero_rate = float(p_s @ (cond.T @ d).min(axis=1))
    return floor, zero_rate


def metropolis_kernel(pi, rng) -> np.ndarray:
    """Reversible kernel with stationary law pi and a random symmetric proposal."""
    k = pi.size
    prop = rng.uniform(0.2, 1.0, size=(k, k))
    prop = (prop + prop.T) / (2.0 * k)
    np.fill_diagonal(prop, 0.0)
    ratio = np.minimum(1.0, pi[None, :] / pi[:, None])
    kern = prop * ratio
    np.fill_diagonal(kern, 1.0 - kern.sum(axis=1))
    return kern


def sticky_chain(kern, gap) -> np.ndarray:
    """(1 - alpha) I + alpha K with slowest mode 1 - gap (alpha at most 1)."""
    second = np.sort(np.linalg.eigvals(kern).real)[-2]
    alpha = min(1.0, gap / (1.0 - second))
    return (1.0 - alpha) * np.eye(len(kern)) + alpha * kern


def _chain_doc(xi, d) -> dict:
    return {"x_size": 2, "s_size": 2, "xi": np.asarray(xi).tolist(),
            "d": np.asarray(d, dtype=float).tolist()}


def characterize(seed: int) -> Workload:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    cat = np.random.default_rng(CATALOGUE_SEED)
    models, queries = {}, []

    def add(argv, **ref):
        queries.append(Query(qid=len(queries), argv=tuple(argv), ref=ref))

    def rd(fname, D, **ref):
        add(["rd-curve", "--model", fname, "--D", repr(float(D))] + _common(seed),
            D=float(D), model=fname, **ref)

    for i, (nx, ns, ny) in enumerate(RANDOM_SHAPES):
        while True:   # redraw models whose rate is zero (nearly) everywhere
            pmf = cat.dirichlet(np.full(nx * ns, 2.0)).reshape(nx, ns)
            d = cat.uniform(0.0, 1.0, size=(nx, ny))
            floor, zero_rate = _floor_and_zero_rate(pmf, d)
            if zero_rate - floor >= 0.15:
                break
        name = f"random{i}.json"
        models[name] = _discrete_doc(pmf, d)
        grid = [floor + t * (zero_rate - floor) for t in RANDOM_GRID]
        for k, D in enumerate(grid):
            rd(name, D, family="random", group=name, index=k, pmf=pmf)
        collapsed = f"random{i}-collapsed.json"
        models[collapsed] = _discrete_doc(pmf.sum(axis=1, keepdims=True), d)
        for k in COLLAPSED_AT:
            rd(collapsed, grid[k], family="collapsed", of=name, index=k)

    a, c = rng.uniform(0.3, 0.7), rng.uniform(0.15, 0.35)
    models["binary.json"] = _discrete_doc(binary_pmf(a, c), [[0, 1], [1, 0]])
    for k, frac in enumerate(BINARY_GRID):
        rd("binary.json", frac * c, family="binary", c=c, group="binary.json",
           index=k, pmf=binary_pmf(a, c))
    warmup = ("rd-curve", "--model", "binary.json", "--D", repr(0.5 * BINARY_GRID[0] * c),
              *_common(seed))

    for q in QARY_SIZES:
        p_s = rng.dirichlet(np.full(2, 4.0))
        pmf = np.outer(np.full(q, 1.0 / q), p_s)
        name = f"qary{q}.json"
        models[name] = _discrete_doc(pmf, 1.0 - np.eye(q))
        for k, frac in enumerate(QARY_GRID):
            rd(name, frac * (q - 1) / q, family="qary", q=q, group=name, index=k, pmf=pmf)

    # Every chain gets its own binary-Hamming law, kernel and distortion:
    # a Markov row costs about the median query, and independent draws keep
    # the seed's effect on which rows fall below the median small.
    chains = [(f"chain{j}.json", gap, "chain") for j, gap in enumerate(CHAIN_GAPS[:-1])]
    chains += [("chain-cap.json", CHAIN_GAPS[-1], "cap-chain"),
               ("chain-iid.json", None, "iid-chain")]
    for name, gap, family in chains:
        a, c = rng.uniform(0.3, 0.7), rng.uniform(0.15, 0.35)
        D = c * rng.uniform(0.45, 0.55)     # solve time grows with D / c
        pmf = binary_pmf(a, c)
        pi = pmf.ravel()
        if gap is None:
            xi = np.tile(pi, (4, 1))
        else:
            xi = sticky_chain(metropolis_kernel(pi, rng), gap)
        models[name] = _chain_doc(xi, [[0, 1], [1, 0]])
        for n in CHAIN_N:
            add(["markov", "--model", name, "--D", repr(float(D)), "--eps", "0.1",
                 "--n", str(n)] + _common(seed),
                family=family, xi=np.array(models[name]["xi"]), pmf=pmf, c=c,
                D=float(D), n=n)

    return Workload("characterize", seed, models, shuffled(queries, rng), warmup)


def fbl_montecarlo(seed: int) -> Workload:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    models = {"binary.json": _discrete_doc(binary_pmf(FAULT_FBL["a"], FAULT_FBL["c"]),
                                           [[0, 1], [1, 0]])}
    queries = []

    def add(argv, **ref):
        queries.append(Query(qid=len(queries), argv=tuple(argv), ref=ref))

    def fbl(D, eps, n, trials, mc_seed, **ref):
        add(["fbl", "--model", "binary.json", "--D", repr(float(D)), "--eps",
             repr(float(eps)), "--n", str(n), "--trials", str(trials)] + _common(mc_seed),
            family="fbl-binary", c=FAULT_FBL["c"], D=float(D), eps=float(eps), n=n,
            trials=trials, **ref)

    def gauss(var_x, var_z, D, eps, n, mc_seed, **ref):
        add(["gaussian", "--var-x", repr(float(var_x)), "--var-z", repr(float(var_z)),
             "--D", repr(float(D)), "--eps", repr(float(eps)), "--n", str(n),
             "--trials", str(GAUSS_TRIALS)] + _common(mc_seed),
            family="gaussian", var_x=float(var_x), var_z=float(var_z), D=float(D),
            eps=float(eps), n=n, trials=GAUSS_TRIALS, **ref)

    for n, trials in FBL_MC_ROWS:
        fbl(rng.uniform(0.08, 0.12), rng.uniform(0.05, 0.2), n, trials,
            int(rng.integers(2**31)))
    f = FAULT_FBL
    fbl(f["D"], f["eps"], f["n"], f["trials"], f["seed"],
        known_fault="random-coding estimate collapses to 0 on the FFT lattice")
    for _ in range(GAUSS_ROWS):
        var_x, var_z = rng.uniform(0.5, 4.0, size=2)
        cond_var = var_x * var_z / (var_x + var_z)
        gauss(var_x, var_z, cond_var * rng.uniform(0.2, 0.6), rng.uniform(0.05, 0.2),
              GAUSS_N, int(rng.integers(2**31)))
    for g in FAULT_GAUSS:
        gauss(g["var_x"], g["var_z"], g["D"], g["eps"], g["n"], g["seed"],
              known_fault="linear-domain cap fraction past ln M ~ 700")

    warmup = ("fbl", "--model", "binary.json", "--D", "0.1", "--eps", "0.1",
              "--n", "100", "--trials", "256", *_common(seed))
    return Workload("fbl-montecarlo", seed, models, shuffled(queries, rng), warmup)


def lattice_models(rng) -> dict:
    """Discrete models whose tilted density has more than two atoms."""
    models = {}
    for name, size in (("ternary-abs", 3), ("quaternary-abs", 4)):
        pmf = rng.dirichlet(np.full(2 * size, 5.0)).reshape(size, 2)
        x = np.arange(float(size))
        models[name] = (pmf, np.abs(x[:, None] - x[None, :]))
    return models


def fbl_lattice(seed: int) -> Workload:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    models, queries = {}, []
    for name, (pmf, d) in lattice_models(rng).items():
        models[f"{name}.json"] = _discrete_doc(pmf, d)
    distortions = {}
    for name, n in LATTICE_ROWS:
        if name not in distortions:
            doc = models[f"{name}.json"]
            _, zero_rate = _floor_and_zero_rate(doc["pmf"], doc["d"])
            distortions[name] = zero_rate * rng.uniform(0.3, 0.5)
        D, eps = distortions[name], rng.uniform(0.05, 0.2)
        mc_seed = int(rng.integers(2**31))
        queries.append(Query(
            qid=len(queries),
            argv=("fbl", "--model", f"{name}.json", "--D", repr(float(D)), "--eps",
                  repr(float(eps)), "--n", str(n), "--trials", str(LATTICE_TRIALS),
                  *_common(mc_seed)),
            ref={"family": "fbl-lattice", "model": f"{name}.json", "D": float(D),
                 "eps": float(eps), "n": n, "trials": LATTICE_TRIALS}))
    # n = 1 runs every stage of fbl on a one-letter block in a fraction of a
    # second; the first full-budget call in the timed batch is no slower
    # than later ones, and a full-budget warm-up would make set-up time as
    # drift-prone as the queries.
    name = LATTICE_ROWS[0][0]
    warmup = ("fbl", "--model", f"{name}.json", "--D", repr(float(distortions[name])),
              "--eps", "0.1", "--n", "1", "--trials", "64", *_common(seed))
    return Workload("fbl-lattice", seed, models, queries, warmup)


BUILDERS = {"characterize": characterize, "fbl-montecarlo": fbl_montecarlo,
            "fbl-lattice": fbl_lattice}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)


def mc_trials_in_round(workload: Workload) -> int:
    """Trials the round asks ``mc.chunked_monte_carlo`` for.

    ``fbl`` runs the random-coding simulation with --trials and the forward
    bound's window term with max(trials // 4, 64); ``gaussian`` runs one
    simulation with --trials.
    """
    total = 0
    for q in workload.queries:
        trials = q.ref.get("trials")
        if trials is None:
            continue
        total += trials + (max(trials // 4, 64) if q.command == "fbl" else 0)
    return total

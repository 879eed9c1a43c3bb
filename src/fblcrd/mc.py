"""Deterministic chunked Monte-Carlo driver.

Trials are split into fixed-size chunks; every chunk gets its own
substream spawned from the user seed, and chunk results are combined in
chunk order.  The outcome is therefore bit-identical for a fixed
(seed, chunk_size) pair no matter how many worker threads execute the
chunks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

DEFAULT_CHUNK = 1 << 12


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error over independent trials."""

    mean: float
    stderr: float
    trials: int


def chunk_streams(count: int, seed, chunk_size: int = DEFAULT_CHUNK):
    """Yield (Generator, m) for each fixed-size chunk of count draws.

    Every chunk holds chunk_size draws except the last, which holds the
    rest; chunk i draws from the i-th substream spawned from the seed.
    """
    n_chunks = (count + chunk_size - 1) // chunk_size
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_chunks)):
        yield np.random.default_rng(child), min(chunk_size, count - i * chunk_size)


def chunked_monte_carlo(trials: int, seed, trial_fn, chunk_size: int = DEFAULT_CHUNK,
                        threads: int = 1) -> McEstimate:
    """Estimate E[f] by averaging trial_fn(rng, m) -> array of m samples.

    trial_fn receives a chunk-local Generator and must return one value per
    trial; it must not touch shared mutable state.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    chunks = list(chunk_streams(trials, seed, chunk_size))

    def run(args):
        rng, m = args
        vals = np.asarray(trial_fn(rng, m), dtype=float)
        if vals.shape != (m,):
            raise ValueError("trial_fn must return one value per trial")
        return vals.sum(), (vals * vals).sum()

    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(run, chunks))
    else:
        partials = [run(args) for args in chunks]

    total = 0.0
    total_sq = 0.0
    for s, sq in partials:
        total += s
        total_sq += sq
    mean = total / trials
    if trials > 1:
        var = max(total_sq / trials - mean * mean, 0.0) * trials / (trials - 1)
        stderr = float(np.sqrt(var / trials))
    else:
        stderr = float("inf")
    return McEstimate(mean=float(mean), stderr=stderr, trials=trials)

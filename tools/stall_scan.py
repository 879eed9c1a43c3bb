#!/usr/bin/env python3
"""Time solve_crd over a catalogue of random models, one TSV row per point.

    python3 tools/stall_scan.py > scan.tsv

The catalogue is the benchmark's random models (``fblbench/workloads.py``,
``characterize``) drawn at catalogue seeds 0..5 in place of the fixed
benchmark seed: for each seed, each of the 8 ``RANDOM_SHAPES`` as drawn and
with its side information collapsed, solved at D = floor + t * (zero-rate
distortion - floor) for the eight values of t below, 768 points in all.
t = 0 and 1e-6 sit at and next to the feasibility floor, where the slope
search reaches slopes at which exp(-lam d) underflows.

Each row holds the catalogue seed, the shape, ``full`` or ``collapsed``, t,
the wall time in seconds, the inner iterations summed over every
fixed-slope solve of the search, the rate, and the error (empty when the
solve succeeded).  A summary line goes to stderr: total time, total
iterations, errors and points over 1.5 s.  Two checkouts can be compared
row by row, since the points come in a fixed order.

The package is imported from this checkout's ``src/``; the workloads are
only read from ``fblbench/``.
"""

from __future__ import annotations

import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEEDS = range(6)
TS = (0.0, 1e-6, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9)
SLOW_S = 1.5


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "fblbench")]
    import numpy as np

    import fblcrd as f
    import workloads
    from fblcrd import solver

    plain, iterations = solver._lagrangian_solve, [0]

    def counted(*args, **kwargs):
        res = plain(*args, **kwargs)
        iterations[0] += res.iterations
        return res

    solver._lagrangian_solve = counted
    print("seed\tshape\tsource\tt\tseconds\titerations\trate\terror")
    total_s = total_it = errors = slow = 0
    for seed in SEEDS:
        workloads.CATALOGUE_SEED = seed
        models = workloads.characterize(0).models
        for i, shape in enumerate(workloads.RANDOM_SHAPES):
            for source, fname in (("full", f"random{i}.json"),
                                  ("collapsed", f"random{i}-collapsed.json")):
                doc = models[fname]
                inst = f.validate(f.JointSource(np.array(doc["pmf"])),
                                  f.DistortionSpec(doc["d"]))
                for t in TS:
                    D = inst.d_floor + t * (inst.zero_rate_distortion - inst.d_floor)
                    iterations[0], rate, error = 0, "", ""
                    start = time.perf_counter()
                    try:
                        rate = repr(f.solve_crd(inst, D).rate)
                    except Exception as exc:  # a failure is recorded, not raised
                        error = f"{type(exc).__name__}: {exc}"
                        errors += 1
                    seconds = time.perf_counter() - start
                    total_s += seconds
                    total_it += iterations[0]
                    slow += seconds > SLOW_S
                    print(f"{seed}\t{'x'.join(map(str, shape))}\t{source}\t{t}\t"
                          f"{seconds:.4f}\t{iterations[0]}\t{rate}\t{error}", flush=True)
    print(f"total {total_s:.1f} s, {total_it} iterations, {errors} errors, "
          f"{slow} points over {SLOW_S} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

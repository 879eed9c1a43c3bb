#!/usr/bin/env python3
"""Benchmark of the fblcrd command: seeded queries, timed, then checked.

    python3 fblbench/run.py --workload characterize --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  The workload's round of queries is sent in-process through
``fblcrd.cli.main`` until ``--seconds`` have passed; whole rounds only, so
every run attempts the same mix.  Each output row is then checked against
independent reference values (``checks.py``).  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s,
queries_per_s, query_p50_ms, peak_rss_mb); with ``--trace 1`` the
layers are traced (``tracing.py``) and the metrics are per-layer figures
per round.  See README.md for the workloads and reference figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"


def process_age_s() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_s = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_s


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("characterize", "fbl-montecarlo", "fbl-lattice"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import fblcrd from the checkout's ``src/``; nothing else will do."""
    src = ROOT / "src"
    if not (src / "fblcrd" / "__init__.py").is_file():
        raise SystemExit(f"fblbench: no fblcrd sources under {src}")
    sys.path.insert(0, str(src))
    import fblcrd.cli  # noqa: F401  (binds the package for tracing)
    return sys.modules["fblcrd"]


class Runner:
    """Sends one command line to the CLI and captures its single row."""

    def __init__(self, fblcrd, model_dir):
        from workloads import resolve

        self.cli = fblcrd.cli
        self.model_dir = model_dir
        self.resolve = resolve

    def __call__(self, argv):
        argv = self.resolve(argv, self.model_dir)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except Exception:  # a crash is a failed query, not a failed benchmark
                code = None
                err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        if code != 0:
            return elapsed, None, f"exit {code}: {err.getvalue().strip()[-300:]}"
        rows = json.loads(out.getvalue())["rows"]
        if len(rows) != 1:
            return elapsed, None, f"expected one row, got {len(rows)}"
        return elapsed, rows[0], None


def timed_rounds(workload, runner, seconds, tracer=None):
    """Whole rounds until the budget is spent: [(round, qid, time, row, error)]."""
    results = []
    rounds = 0
    begin = time.perf_counter()
    while True:
        for q in workload.queries:
            if tracer is not None:
                tracer.query_id = q.qid
            elapsed, row, error = runner(q.argv)
            results.append((rounds, q.qid, elapsed, row, error))
        rounds += 1
        wall = time.perf_counter() - begin
        if wall >= seconds:
            return results, rounds, wall


def main(argv=None) -> int:
    args = parse_args(argv)
    fblcrd = import_program()
    sys.path.insert(0, str(HERE))
    import tracing
    import verify
    import workloads

    workload = workloads.build(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    model_dir = pathlib.Path(tempfile.mkdtemp(prefix="models-", dir=WORK))
    try:
        workload.write_models(model_dir)
        runner = Runner(fblcrd, model_dir)
        _, _, error = runner(workload.warmup)
        if error is not None:
            print(f"fblbench: warm-up query failed: {error}", file=sys.stderr)
            return 1
        setup_s = process_age_s()

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        try:
            results, rounds, wall = timed_rounds(workload, runner, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures = verify.check_results(workload, results, model_dir, fblcrd, args.seed)
    finally:
        shutil.rmtree(model_dir, ignore_errors=True)

    known = {q.qid for q in workload.queries if q.ref.get("known_fault")}
    for (rnd, qid), reasons in sorted(failures.items()):
        if rnd == 0:
            tag = "known fault" if qid in known else "UNEXPECTED"
            print(f"fblbench: query {qid} failed ({tag}): {'; '.join(reasons)}",
                  file=sys.stderr)
    unexpected = {qid for (_, qid) in failures} - known

    if tracer is not None:
        tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl")
        values = tracer.per_layer(rounds)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.metric_units().items()}
        print(f"fblbench: traced wall {wall:.3f} s over {rounds} rounds; mc.trials per "
              f"round {values['mc.trials']} (input spec: "
              f"{workloads.mc_trials_in_round(workload)})", file=sys.stderr)
    else:
        times = [elapsed for (_, _, elapsed, _, _) in results]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "queries_per_s": {"value": len(results) / wall, "unit": "1/s"},
            "query_p50_ms": {"value": 1000.0 * statistics.median(times), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"fblbench: wall {wall:.3f} s over {rounds} rounds", file=sys.stderr)
    print(json.dumps({"correct": not unexpected, "attempted": len(results),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

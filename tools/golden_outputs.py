#!/usr/bin/env python3
"""Write every benchmark query's output and every demo's output to a directory.

    python3 tools/golden_outputs.py SEED OUT

For each query of the three benchmark workloads (``fblbench/workloads.py``)
at SEED, the exit code and standard output of ``fblcrd.cli.main`` go to
``OUT/<workload>-<qid>.txt``; each demo's standard output goes to
``OUT/demo-<name>.txt``.  The model files are written under ``OUT/models``
and passed by a path relative to OUT, because the output document echoes
``--model``.  Two checkouts that compute the same documents therefore give
trees that ``diff -r`` finds identical:

    python3 tools/golden_outputs.py 701 /tmp/before   # in the old checkout
    python3 tools/golden_outputs.py 701 /tmp/after    # in the new checkout
    diff -r /tmp/before /tmp/after

The package is imported from this checkout's ``src/``; the workloads are
only read from ``fblbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ("characterize", "fbl-montecarlo", "fbl-lattice")


def run_query(cli, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # a crash is recorded, not raised
            code = f"exception {type(exc).__name__}: {exc}"
    return f"exit {code}\n{out.getvalue()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seed", type=int)
    parser.add_argument("out", type=pathlib.Path)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "fblbench")]
    import fblcrd.cli
    import workloads

    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    for name in WORKLOADS:
        workload = workloads.build(name, args.seed)
        model_dir = pathlib.Path("models") / name
        model_dir.mkdir(parents=True, exist_ok=True)
        workload.write_models(model_dir)
        for q in workload.queries:
            text = run_query(fblcrd.cli, workloads.resolve(q.argv, model_dir))
            (out / f"{name}-{q.qid}.txt").write_text(text, encoding="utf-8")

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                                capture_output=True, text=True)
        (out / f"demo-{demo.stem}.txt").write_text(
            f"exit {result.returncode}\n{result.stdout}", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing of fblcrd's layers from outside the package.

``Tracer.install`` wraps the public functions listed in ``TRACED`` and
rebinds every fblcrd module attribute that refers to the original, so
calls made through ``from .solver import solve_crd`` style imports are
seen as well.  Nothing in the package is edited; ``uninstall`` restores
the originals.

Each wrapped call records a span (name, start, end, parent span, query
id, counters).  Spans stay in memory until ``dump``.  A span's self time
is its duration minus the union of its child spans' intervals; with
Monte-Carlo chunks on worker threads, trial callbacks overlap, so
``mc.trial_fn.self_s`` sums busy time across threads.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time

# (module, function): the layers and their public entry points
TRACED = (
    ("cli", "main"),
    ("source", "load_model"),
    ("solver", "solve_crd"),
    ("solver", "solve_rd_per_state"),
    ("tilted", "tilted_density"),
    ("tilted", "dispersion_v"),
    ("markov", "markov_tilted_quantities"),
    ("markov", "v_inf_spectral"),
    ("bounds", "sum_distribution"),
    ("bounds", "converse_lower"),
    ("bounds", "forward_bound"),
    ("bounds", "simulate_random_code"),
    ("mc", "chunked_monte_carlo"),
    ("gaussian", "sphere_cap_bound"),
    ("gaussian", "gaussian_simulate"),
    ("gaussian", "gaussian_converse_eps"),
)

# per-layer metrics reported by a traced run: name -> unit
CALLS = ("solver.solve_crd", "solver.solve_rd_per_state", "source.load_model",
         "bounds.sum_distribution", "mc.chunked_monte_carlo")
SELF = ("solver.solve_crd", "solver.solve_rd_per_state", "tilted.tilted_density",
        "tilted.dispersion_v", "markov.markov_tilted_quantities", "markov.v_inf_spectral",
        "cli.main", "source.load_model", "bounds.sum_distribution",
        "bounds.converse_lower", "bounds.forward_bound", "bounds.simulate_random_code",
        "mc.trial_fn", "gaussian.sphere_cap_bound", "gaussian.gaussian_simulate",
        "gaussian.gaussian_converse_eps")
COUNTERS = ("markov.ladder_lags", "bounds.sum_distribution.bins", "mc.trials")


def metric_units() -> dict:
    units = {f"{name}.calls": "count" for name in CALLS}
    units.update({f"{name}.self_s": "s" for name in SELF})
    units.update({name: "count" for name in COUNTERS})
    units["mc.trials_per_s"] = "1/s"
    return units


def _counters(name, args, result):
    """Work counts read off a call's arguments or result."""
    if name == "markov.markov_tilted_quantities":
        return {"markov.ladder_lags": len(result.ladder.covs)}
    if name == "bounds.sum_distribution":
        return {"bounds.sum_distribution.bins": len(result.pmf)}
    if name == "mc.chunked_monte_carlo":
        return {"mc.trials": args.arguments["trials"]}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []
        self.query_id = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, fn, args, kwargs, parent=None, bound=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = {"name": name, "parent": parent, "query": self.query_id,
                "thread": threading.get_ident()}
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
        if bound is not None:
            span["counts"] = _counters(name, bound, result)
        return result

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            if name == "mc.chunked_monte_carlo":
                return self._record_mc(fn, bound)
            return self._record(name, fn, args, kwargs, bound=bound)

        return wrapper

    def _record_mc(self, fn, bound):
        """Trace chunked_monte_carlo and every trial callback it hands to its threads."""
        stack = self._stack()
        holder = {}
        trial_fn = bound.arguments["trial_fn"]

        def traced_trial(rng, m):
            return self._record("mc.trial_fn", trial_fn, (rng, m), {},
                                parent=holder["id"])

        bound.arguments["trial_fn"] = traced_trial

        def run(*args, **kwargs):
            holder["id"] = stack[-1]
            return fn(*args, **kwargs)

        return self._record("mc.chunked_monte_carlo", run, bound.args, bound.kwargs,
                            bound=bound)

    # -- installation ------------------------------------------------------

    def install(self):
        for module_name, attr in TRACED:
            module = sys.modules[f"fblcrd.{module_name}"]
            original = getattr(module, attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for name, mod in list(sys.modules.items()):
                if (name == "fblcrd" or name.startswith("fblcrd.")) and \
                        getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def per_layer(self, rounds: int) -> dict:
        """Per-round layer metrics derived from the spans."""
        children = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        calls, self_s, counts = {}, {}, {}
        mc_wall = 0.0
        for span in self.spans:
            name = span["name"]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + _self_time(span, children.get(span["id"], ()))
            for key, value in span.get("counts", {}).items():
                counts[key] = counts.get(key, 0) + value
            if name == "mc.chunked_monte_carlo":
                mc_wall += span["end"] - span["start"]
        metrics = {}
        for name in CALLS:
            metrics[f"{name}.calls"] = _per_round(calls.get(name, 0), rounds)
        for name in SELF:
            metrics[f"{name}.self_s"] = self_s.get(name, 0.0) / rounds
        for name in COUNTERS:
            metrics[name] = _per_round(counts.get(name, 0), rounds)
        trials = counts.get("mc.trials", 0)
        metrics["mc.trials_per_s"] = trials / mc_wall if mc_wall > 0 else 0.0
        return metrics

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _self_time(span, kids) -> float:
    """Duration minus the union of the children's intervals inside it."""
    start, end = span["start"], span["end"]
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(k["start"], start), min(k["end"], end)) for k in kids):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (end - start) - covered


def _per_round(total, rounds):
    return total // rounds if total % rounds == 0 else total / rounds

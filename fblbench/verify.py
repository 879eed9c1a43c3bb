"""Applies the checks of ``checks.py`` to every row a run produced.

Reference values depend only on a query's inputs (and, for the bounds,
on the codebook size ln M the row reports), so each is computed once and
compared with that query's row in every round.  Runs after the timed
batch, with tracing off.
"""

from __future__ import annotations

import numpy as np

import checks
from workloads import LADDER_CAP


def check_results(workload, results, model_dir, fblcrd, seed) -> dict:
    """{(round, qid): reasons} for every failed query."""
    queries = {q.qid: q for q in workload.queries}
    failures = {}
    rows = {}
    for rnd, qid, _elapsed, row, error in results:
        if error is not None:
            failures[(rnd, qid)] = [error]
        else:
            rows[(rnd, qid)] = row
    refs = References(model_dir, fblcrd, seed)
    for (rnd, qid), row in rows.items():
        try:
            reasons = refs.check(queries[qid], row)
        except (KeyError, TypeError, ValueError) as exc:
            reasons = [f"malformed row: {exc!r}"]
        if reasons:
            failures[(rnd, qid)] = reasons
    for (rnd, qid), reasons in _check_curves(workload, rows).items():
        failures.setdefault((rnd, qid), []).extend(reasons)
    return failures


def _check_curves(workload, rows) -> dict:
    """Checks that span several rows of one round: grids and collapsed models."""
    failures = {}
    rounds = {rnd for (rnd, _) in rows}
    groups, collapsed = {}, []
    for q in workload.queries:
        if "group" in q.ref:
            groups.setdefault(q.ref["group"], []).append(q)
        if q.ref.get("family") == "collapsed":
            collapsed.append(q)
    for rnd in rounds:
        for members in groups.values():
            members = sorted(members, key=lambda q: q.ref["index"])
            got = [rows.get((rnd, q.qid)) for q in members]
            if any(r is None for r in got):
                continue
            bad = checks.check_rd_grid([r["D"] for r in got], [r["rate"] for r in got],
                                       [r["slope"] for r in got])
            for k, reasons in bad.items():
                failures.setdefault((rnd, members[k].qid), []).extend(reasons)
        for q in collapsed:
            base = next(p for p in groups[q.ref["of"]] if p.ref["index"] == q.ref["index"])
            mine, theirs = rows.get((rnd, q.qid)), rows.get((rnd, base.qid))
            if mine is None or theirs is None:
                continue
            reasons = checks.check_collapsed(theirs["rate"], mine["rate"])
            if reasons:
                failures.setdefault((rnd, q.qid), []).extend(reasons)
    return failures


class References:
    """Reference values per query, computed on first use."""

    def __init__(self, model_dir, fblcrd, seed):
        self.model_dir = model_dir
        self.fblcrd = fblcrd
        self.seed = seed
        self._cache = {}

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def check(self, query, row) -> list:
        ref = query.ref
        family = ref["family"]
        if query.command == "rd-curve":
            return checks.check_rd_row(row, ref)
        if query.command == "markov":
            lags = LADDER_CAP if family == "cap-chain" else None
            expected = self._memo(query.qid, lambda: checks.markov_reference(
                ref["xi"], ref["pmf"], ref["c"], ref["D"], ref["n"], ladder_lags=lags))
            return checks.check_markov_row(row, expected, eps=0.1)
        log_m = row["second_order_rate"] * ref["n"]
        if family == "fbl-binary":
            return checks.check_fbl_binary(row, ref)
        if family == "fbl-lattice":
            bracket = self._memo((query.qid, log_m), lambda: self._lattice_bracket(
                query, log_m))
            return checks.check_fbl_lattice(row, bracket)
        if family == "gaussian":
            args = (ref["var_x"], ref["var_z"], ref["D"], ref["n"], log_m)
            exact = self._memo((query.qid, log_m, "exact"),
                               lambda: checks.cap_code_eps(*args, fraction="exact"))
            sakrison = self._memo((query.qid, log_m, "sakrison"),
                                  lambda: checks.cap_code_eps(*args, fraction="sakrison"))
            return checks.check_gaussian(row, ref, exact, sakrison)
        raise ValueError(f"no check for family {family!r}")

    def _lattice_bracket(self, query, log_m):
        """Tilted-density atoms from the solver (checked on ``characterize``)
        and the lattice quantum from the documented bin-budget rule."""
        ref = query.ref
        fb = self.fblcrd
        instance = fb.load_model(self.model_dir / ref["model"])
        field = fb.tilted_density(fb.solve_crd(instance, ref["D"]))
        values, probs = field.atoms_value, field.atoms_prob
        n = ref["n"]
        span = float(values[probs > 0].max() - values[probs > 0].min())
        quantum = max(fb.bounds.DEFAULT_RESOLUTION, span * n / fb.bounds.MAX_BINS)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 4, query.qid]))
        return checks.lattice_converse_bracket(values, probs, n, log_m, n * quantum, rng)

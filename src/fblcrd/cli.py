"""Command-line surface.

Four subcommands cover the toolkit: ``rd-curve`` (rate/slope/dispersion
along a distortion grid), ``fbl`` (finite-blocklength bounds at a target
excess probability), ``gaussian`` (closed forms, cap-integral bound,
simulation and converse for the jointly Gaussian source), and ``markov``
(stationary-law quantities and second-order rates for a joint Markov
chain).

Every run is fully reproducible from its configuration: the parsed
arguments are echoed into the output document together with a per-column
provenance map, and identical configurations produce byte-identical
output.  Wall-clock timing goes to stderr so it cannot perturb the
document.  Information columns are emitted in nats; pass --bits to
convert the presentation layer.

Exit codes: 0 success, 2 usage/parse error, 3 infeasible model or
distortion, 4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .bounds import FblQuery, converse_lower, forward_bound, second_order_rate, \
    simulate_random_code, tilted_sum_distribution
from .coremath import LN2
from .exceptions import ConvergenceError, InfeasibleDistortionError, ValidationError
from .gaussian import GaussianModel, gaussian_converse_eps, gaussian_crd, \
    gaussian_second_order_rate, gaussian_simulate, sphere_cap_bound, \
    GAUSSIAN_DISPERSION
from .markov import load_markov_model, markov_second_order_rate, \
    markov_tilted_quantities, v_inf_spectral, v_n as ladder_v_n
from .solver import solve_crd
from .source import load_model
from .tilted import dispersion_v, tilted_density

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NONCONVERGED = 4


def _parse_grid(text: str):
    """Parse '0.05,0.06' or '0.05:0.15:11' into a list of floats."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(
                f"grid must be start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise argparse.ArgumentTypeError("grid count must be >= 1")
        return [float(v) for v in np.linspace(start, stop, count)]
    return [float(v) for v in text.split(",") if v]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def _parse_int_list(text: str):
    return [_positive_int(v) for v in text.split(",") if v]


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fblcrd",
        description="Conditional rate-distortion curves, dispersions, and "
                    "finite-blocklength bounds for sources with side information.",
    )
    parser.add_argument("--version", action="version", version=f"fblcrd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="worker threads for Monte-Carlo chunks; results "
                             "do not depend on this")
    common.add_argument("--tol", type=_positive_float, default=1e-9,
                        help="solver primal-dual gap tolerance")
    common.add_argument("--bits", action="store_true",
                        help="report information columns in bits instead of nats")

    p_curve = sub.add_parser("rd-curve", parents=[common],
                             help="rate-distortion curve with dispersions")
    p_curve.add_argument("--model", required=True)
    p_curve.add_argument("--D", required=True, type=_parse_grid,
                         help="distortion grid: comma list or start:stop:count")

    p_fbl = sub.add_parser("fbl", parents=[common],
                           help="finite-blocklength bounds at a target eps")
    p_fbl.add_argument("--model", required=True)
    p_fbl.add_argument("--D", required=True, type=float)
    p_fbl.add_argument("--eps", required=True, type=_probability)
    p_fbl.add_argument("--n", required=True, type=_parse_int_list,
                       help="comma-separated blocklengths")
    p_fbl.add_argument("--trials", type=_positive_int, default=2000)

    p_g = sub.add_parser("gaussian", parents=[common],
                         help="jointly Gaussian source quantities and bounds")
    p_g.add_argument("--var-x", required=True, type=float)
    p_g.add_argument("--var-z", required=True, type=float)
    p_g.add_argument("--D", required=True, type=float)
    p_g.add_argument("--eps", required=True, type=_probability)
    p_g.add_argument("--n", required=True, type=_parse_int_list)
    p_g.add_argument("--trials", type=_positive_int, default=4000)

    p_m = sub.add_parser("markov", parents=[common],
                         help="Markov source second-order quantities")
    p_m.add_argument("--model", required=True)
    p_m.add_argument("--D", required=True, type=float)
    p_m.add_argument("--eps", required=True, type=_probability)
    p_m.add_argument("--n", required=True, type=_parse_int_list)

    return parser


def _config_echo(args) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items())}
    cfg["tool_version"] = __version__
    return cfg


def _scale(args):
    return 1.0 / LN2 if args.bits else 1.0


def _run_rd_curve(args):
    instance = load_model(args.model)
    u = _scale(args)
    rows = []
    for d in args.D:
        sol = solve_crd(instance, float(d), tol=args.tol)
        field = tilted_density(sol)
        dec = dispersion_v(field)
        rows.append({
            "D": float(d),
            "rate": sol.rate * u,
            "slope": sol.slope * u,
            "V": dec.total * u * u,
            "V_within_states": dec.within * u * u,
            "V_between_states": dec.between * u * u,
        })
    provenance = {
        "D": "input grid",
        "rate": "solver (dual-certified alternating minimization)",
        "slope": "solver (distortion-matched exponential tilt)",
        "V": "exact moments of the tilted density",
        "V_within_states": "law-of-total-variance split, within-state part",
        "V_between_states": "law-of-total-variance split, between-state part",
    }
    return rows, provenance


def _run_fbl(args):
    instance = load_model(args.model)
    u = _scale(args)
    sol = solve_crd(instance, args.D, tol=args.tol)
    field = tilted_density(sol)
    rows = [_fbl_row(args, sol, field, n, u) for n in args.n]
    provenance = {
        "n": "input list",
        "second_order_rate": "closed form R + sqrt(V/n) Qinv(eps)",
        "converse_eps": "exact tilted-sum tail (convolution), sup over slack grid",
        "achievability_eps_mc": f"monte-carlo, {args.trials} trials +- stderr",
        "achievability_stderr": "monte-carlo standard error",
        "forward_bound": "three-term bound; window term monte-carlo",
    }
    return rows, provenance


def _fbl_row(args, sol, field, n, u):
    """One fbl row; its n-letter tilted-sum distribution is freed on return."""
    so_rate = second_order_rate(n, args.eps, sol.rate, field.variance)
    query = FblQuery.from_rate(n, args.D, so_rate, eps=args.eps)
    sums = tilted_sum_distribution(field, n)
    conv = converse_lower(query, field, sums)
    sim = simulate_random_code(query, sol, trials=args.trials,
                               seed=args.seed, threads=args.threads)
    fwd = forward_bound(query, sol, field, sums, trials=max(args.trials // 4, 64),
                        seed=args.seed, threads=args.threads)
    return {
        "n": n,
        "second_order_rate": so_rate * u,
        "converse_eps": conv.value,
        "achievability_eps_mc": sim.value,
        "achievability_stderr": sim.mc_stderr,
        "forward_bound": fwd.value,
    }


def _run_gaussian(args):
    model = GaussianModel(var_x=args.var_x, var_z=args.var_z, distortion=args.D)
    u = _scale(args)
    rate = gaussian_crd(model)
    rows = []
    for n in args.n:
        so_rate = gaussian_second_order_rate(model, n, args.eps)
        log_m = so_rate * n
        sim = gaussian_simulate(model, n, log_m, trials=args.trials,
                                seed=args.seed, threads=args.threads)
        rows.append({
            "n": n,
            "rate": rate * u,
            "dispersion": GAUSSIAN_DISPERSION * u * u,
            "second_order_rate": so_rate * u,
            "cap_bound": sphere_cap_bound(model, n, log_m) if n >= 2 else float("nan"),
            "sim_eps": sim.mean,
            "sim_stderr": sim.stderr,
            "converse_eps": gaussian_converse_eps(model, n, log_m),
        })
    provenance = {
        "n": "input list",
        "rate": "closed form (1/2) ln(var_x_given_s / D)",
        "dispersion": "closed form, 1/2 nats^2 per symbol",
        "second_order_rate": "closed form",
        "cap_bound": "adaptive quadrature of the sphere-cap integral",
        "sim_eps": f"monte-carlo, {args.trials} trials +- stderr",
        "sim_stderr": "monte-carlo standard error",
        "converse_eps": "exact chi-square tail, sup over slack grid",
    }
    return rows, provenance


def _run_markov(args):
    model = load_markov_model(args.model)
    u = _scale(args)
    quantities = markov_tilted_quantities(model, args.D, tol=args.tol)
    spectral = v_inf_spectral(model, args.D, quantities=quantities)
    ladder = quantities.ladder
    rows = []
    for n in args.n:
        rows.append({
            "n": n,
            "mu": quantities.mu * u,
            "lag0": ladder.lag0 * u * u,
            "v_n": ladder_v_n(ladder, n) * u * u,
            "v_inf_ladder": ladder.v_inf * u * u,
            "v_inf_spectral": spectral * u * u,
            "second_order_rate": markov_second_order_rate(
                model, args.D, n, args.eps, quantities=quantities) * u,
        })
    provenance = {
        "n": "input list",
        "mu": "solver at the stationary law",
        "lag0": "stationary variance of the tilted density",
        "v_n": "covariance ladder, exact finite-n combination",
        "v_inf_ladder": "covariance ladder with geometric tail bound",
        "v_inf_spectral": "eigendecomposition reweighting (ladder fallback)",
        "second_order_rate": "mu + sqrt(v_inf/n) Qinv(eps)",
    }
    return rows, provenance


def _format_value(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(rows, provenance, args) -> str:
    config = _config_echo(args)
    if args.format == "json":
        doc = {
            "tool": {"name": "fblcrd", "version": __version__},
            "config": config,
            "provenance": provenance,
            "rows": rows,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    lines = [f"# fblcrd {__version__}",
             "# config " + json.dumps(config, sort_keys=True),
             "# provenance " + json.dumps(provenance, sort_keys=True)]
    if rows:
        cols = list(rows[0].keys())
        lines.append(",".join(cols))
        for row in rows:
            lines.append(",".join(_format_value(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


_RUNNERS = {
    "rd-curve": _run_rd_curve,
    "fbl": _run_fbl,
    "gaussian": _run_gaussian,
    "markov": _run_markov,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    started = time.monotonic()
    try:
        rows, provenance = _RUNNERS[args.command](args)
    except ValidationError as exc:
        print(f"fblcrd: model error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleDistortionError as exc:
        print(f"fblcrd: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"fblcrd: non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    document = _emit(rows, provenance, args)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(document)
    else:
        sys.stdout.write(document)
    elapsed = time.monotonic() - started
    print(f"fblcrd: {args.command} finished in {elapsed:.2f} s", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance gate: one test per criterion, each printing a PASS line.

Tolerances are pinned here and match the package's documented guarantees;
run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import json
import math
import time

import numpy as np

import fblcrd as f
from conftest import random_instance
from oracles import cap_code_sampled_stderr, exact_random_code, exact_tilted_tail

EPS = 0.1


def _report(k, text):
    print(f"ACCEPTANCE {k}: PASS - {text}")


def test_acceptance_1_binary_closed_form():
    """Closed-form recovery on the binary/Hamming benchmark in under 1 s."""
    start = time.monotonic()
    inst = f.binary_hamming_instance(a=0.5, c=0.2)
    sol = f.solve_crd(inst, 0.1, tol=1e-9)
    field = f.tilted_density(sol)
    elapsed = time.monotonic() - start
    rate_expected = f.binary_entropy(0.2) - f.binary_entropy(0.1)
    v_expected = 0.16 * math.log(4.0) ** 2
    assert abs(sol.rate - rate_expected) <= 1e-6
    assert abs(field.variance - v_expected) <= 1e-6
    assert elapsed < 1.0
    _report(1, f"rate err {abs(sol.rate - rate_expected):.2e}, "
               f"V err {abs(field.variance - v_expected):.2e}, {elapsed:.2f} s")


def test_acceptance_2_tilted_identity_suite():
    """200 random instances: identity/mean within 1e-8, tilt slack <= 1e-9."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_identity = worst_mean = 0.0
    worst_tilt = -np.inf
    for i in range(200):
        inst, budget = random_instance(rng, max_size=4)
        sol = f.solve_crd(inst, budget, tol=1e-9)
        field = f.tilted_density(sol)
        rep = f.verify_tilted_identities(field, sol, trials=100, seed=i)
        worst_identity = max(worst_identity, rep.identity_dev)
        worst_mean = max(worst_mean, rep.mean_dev)
        worst_tilt = max(worst_tilt, rep.tilt_slack)
    elapsed = time.monotonic() - start
    assert worst_identity <= 1e-8
    assert worst_mean <= 1e-8
    assert worst_tilt <= 1e-9
    assert elapsed < 120.0
    _report(2, f"200 instances, identity {worst_identity:.2e}, "
               f"mean {worst_mean:.2e}, tilt slack {worst_tilt:.2e}, "
               f"{elapsed:.0f} s")


def test_acceptance_3_gradient_identity():
    """Finite-difference rate gradient matches the tilted table to 1e-3.

    Central differences under the free-perturbation convention; instances
    are drawn with interior joint masses so both one-sided perturbations
    stay feasible and curvature truncation stays inside the tolerance.
    """
    rng = np.random.default_rng(515)
    worst = 0.0
    done = 0
    while done < 20:
        inst, budget = random_instance(rng, max_size=4, min_range=0.05)
        if inst.source.pmf.min() < 1e-3:
            continue
        sol = f.solve_crd(inst, budget)
        field = f.tilted_density(sol)
        grad = f.rd_gradient(inst, budget, h=1e-5, scheme="central")
        worst = max(worst, float(np.abs(grad - field.table).max()))
        done += 1
    assert worst <= 1e-3
    _report(3, f"20 instances, worst entrywise deviation {worst:.2e}")


def test_acceptance_4_gaussian_dispersion_invariance():
    """Per-letter tilted variance is 1/2 nats^2 for every variance pair."""
    start = time.monotonic()
    worst = 0.0
    for var_x in (0.5, 1.0, 2.0):
        for var_z in (0.5, 1.0, 2.0):
            cond_var = var_x * var_z / (var_x + var_z)
            model = f.GaussianModel(var_x=var_x, var_z=var_z,
                                    distortion=cond_var / 2.0)
            samples = f.tilted_density_samples(
                model, 10**6, seed=(int(var_x * 2), int(var_z * 2), 404))
            v = samples.var(ddof=1)
            assert 0.495 <= v <= 0.505
            worst = max(worst, abs(v - 0.5))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(4, f"9 variance pairs, worst |V - 1/2| = {worst:.2e}, {elapsed:.0f} s")


def test_acceptance_5_sandwich_at_desk_scale():
    """Converse rate <= achievable rate, both near the Gaussian prediction."""
    inst = f.binary_hamming_instance(a=0.5, c=0.2)
    sol = f.solve_crd(inst, 0.1)
    field = f.tilted_density(sol)
    gaps = []
    lines = []
    for n in (200, 500, 1000, 2000):
        r_conv = f.converse_rate_bound(field, f.tilted_sum_distribution(field, n), EPS)
        r_ach, _ = f.achievable_rate_estimate(sol, n, EPS, trials=2500, seed=n)
        r_star = f.second_order_rate(n, EPS, sol.rate, field.variance)
        window = 8.0 * math.log(n) / math.sqrt(n)
        assert r_conv <= r_ach
        assert abs(r_conv - r_star) <= window
        assert abs(r_ach - r_star) <= window
        gaps.append(r_ach - r_conv)
        lines.append(f"n={n}: {r_conv:.4f} <= {r_ach:.4f} (target {r_star:.4f})")
    assert all(a > b for a, b in zip(gaps[:-1], gaps[1:]))
    _report(5, "; ".join(lines) + f"; gaps {['%.4f' % g for g in gaps]}")


def test_acceptance_6_exhaustive_oracle_at_n8():
    """Monte-Carlo and convolution agree with exhaustive enumeration at n=8."""
    inst = f.binary_hamming_instance(a=0.5, c=0.2)
    sol = f.solve_crd(inst, 0.1)
    field = f.tilted_density(sol)
    query = f.FblQuery.from_size(8, 0.1, 4)
    exact = exact_random_code(query, sol)
    sim = f.simulate_random_code(query, sol, trials=30000, seed=6)
    assert abs(sim.value - exact) <= 3.0 * sim.mc_stderr

    dist = f.tilted_sum_distribution(field, 8)
    assert dist.quantization_bound == 0.0   # two-valued support: exact
    thresholds = [query.log_m + g for g in f.bounds.default_gamma_grid(
        8, field.variance)]
    tails = exact_tilted_tail(field, 8, thresholds)
    worst = max(abs(dist.tail_ge(t) - e) for t, e in zip(thresholds, tails))
    assert worst <= 1e-12
    _report(6, f"random-coding |mc - exact| = {abs(sim.value - exact):.2e} "
               f"(3se {3 * sim.mc_stderr:.2e}); converse tail dev {worst:.2e}")


def test_acceptance_7_markov_consistency():
    """Spectral and ladder asymptotic variances agree; memoryless collapse."""
    hamming = f.DistortionSpec([[0.0, 1.0], [1.0, 0.0]])
    rng = np.random.default_rng(707)
    shapes = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)]
    worst_pair = 0.0
    for _ in range(20):
        x_size, s_size = shapes[int(rng.integers(len(shapes)))]
        k = x_size * s_size
        xi = rng.dirichlet(np.ones(k), size=k)
        d = rng.uniform(0.0, 1.0, (x_size, x_size))
        model = f.MarkovModel(xi, x_size, s_size, f.DistortionSpec(d))
        inst = model.stationary_instance()
        budget = inst.d_floor + 0.45 * (inst.zero_rate_distortion - inst.d_floor)
        qt = f.markov_tilted_quantities(model, budget)
        spectral = f.v_inf_spectral(model, qt)
        worst_pair = max(worst_pair, abs(spectral - qt.ladder.v_inf))
        assert abs(spectral - qt.ladder.v_inf) <= 1e-6

    # memoryless collapse
    inst = f.binary_hamming_instance(a=0.5, c=0.2)
    model = f.MarkovModel(f.iid_kernel(inst.source.pmf), 2, 2, hamming)
    qt = f.markov_tilted_quantities(model, 0.1)
    v_iid = f.tilted_density(f.solve_crd(inst, 0.1)).variance
    assert abs(qt.ladder.v_inf - v_iid) <= 1e-9

    # finite-n variance converges monotonically for a mixing chain
    rng = np.random.default_rng(11)
    xi = rng.dirichlet(np.ones(4), size=4)
    model = f.MarkovModel(xi, 2, 2, hamming)
    qt = f.markov_tilted_quantities(model, 0.1)
    gaps = [abs(f.v_n(qt.ladder, 2**k) - qt.ladder.v_inf) for k in range(6, 15)]
    assert all(a >= b - 1e-15 for a, b in zip(gaps[:-1], gaps[1:]))
    _report(7, f"20 chains, worst |spectral - ladder| = {worst_pair:.2e}; "
               f"memoryless collapse |dV| <= 1e-9; V_n trend monotone")


def test_acceptance_8_gaussian_bound_cross_check():
    """Cap-integral bound vs the cap code's eps, and that eps vs sampled codewords."""
    model = f.GaussianModel(var_x=1.0, var_z=1.0, distortion=0.25)
    lines = []
    for n in (100, 200):
        log_m = n * f.gaussian_second_order_rate(model, n, EPS)
        cap = f.sphere_cap_bound(model, n, log_m)
        exact = f.cap_code_eps(model, n, log_m)
        # three standard errors of the 6000-draw estimate this replaces
        tol = 3.0 * cap_code_sampled_stderr(model, n, log_m, 6000)
        assert abs(cap - exact) <= tol
        lines.append(f"n={n}: |cap - eps| = {abs(cap - exact):.4f} (tol {tol:.4f})")
    log_m = math.log(32.0)
    exact = f.cap_code_eps(model, 10, log_m)
    empirical = f.gaussian_simulate(model, 10, log_m, trials=20000, seed=82)
    assert abs(exact - empirical.mean) <= 3.0 * empirical.stderr
    _report(8, "; ".join(lines) + f"; n=10 sampled codewords |d| = "
            f"{abs(exact - empirical.mean):.4f} (3se {3 * empirical.stderr:.4f})")


def test_acceptance_9_cli_reproducibility(tmp_path):
    """A repeated CLI run with an identical configuration is byte-identical."""
    from fblcrd.cli import main

    inst = f.binary_hamming_instance(a=0.5, c=0.2)
    model_path = tmp_path / "binary.json"
    model_path.write_text(json.dumps({
        "x_size": 2, "s_size": 2, "y_size": 2,
        "pmf": inst.source.pmf.tolist(), "d": inst.dist.d.tolist(),
    }))
    out_path = tmp_path / "run.csv"
    argv = ["fbl", "--model", str(model_path), "--D", "0.1", "--eps", "0.1",
            "--n", "64,128", "--trials", "256", "--seed", "9", "--threads", "2",
            "--out", str(out_path)]
    assert main(argv) == 0
    first = out_path.read_bytes()
    assert main(argv) == 0
    second = out_path.read_bytes()
    assert first == second

    argv_json = ["rd-curve", "--model", str(model_path), "--D", "0.05:0.15:5",
                 "--format", "json", "--out", str(out_path)]
    assert main(argv_json) == 0
    first = out_path.read_bytes()
    assert main(argv_json) == 0
    assert out_path.read_bytes() == first
    _report(9, "fbl and rd-curve reruns byte-identical")

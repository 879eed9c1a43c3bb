import itertools
import math

import numpy as np
import pytest

import fblcrd as f
from conftest import random_instance


@pytest.fixture(scope="module")
def binary_pieces(binary_instance, binary_solution, binary_field):
    return binary_instance, binary_solution, binary_field


class TestFblQuery:
    def test_rate_round_trip(self):
        q = f.FblQuery.from_rate(100, 0.1, 0.25)
        assert q.log_m == pytest.approx(25.0)
        assert q.rate == pytest.approx(0.25)

    def test_from_size(self):
        q = f.FblQuery.from_size(10, 0.1, 4)
        assert q.log_m == pytest.approx(math.log(4.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            f.FblQuery(n=0, distortion=0.1, log_m=1.0)
        with pytest.raises(ValueError):
            f.FblQuery(n=5, distortion=0.1, log_m=-1.0)
        with pytest.raises(ValueError):
            f.FblQuery(n=5, distortion=0.1, log_m=1.0, eps=1.5)


class TestSumDistribution:
    def test_two_atom_support_is_exact_binomial(self):
        vals = [0.25, 1.5]
        probs = [0.7, 0.3]
        dist = f.sum_distribution(vals, probs, 12)
        assert dist.quantization_bound == 0.0
        # direct check against scipy binomial
        from scipy.stats import binom
        k = np.arange(13)
        assert np.allclose(dist.pmf, binom.pmf(k, 12, 0.3), atol=1e-14)
        assert np.allclose(dist.values, 12 * 0.25 + k * 1.25)

    def test_single_atom(self):
        dist = f.sum_distribution([0.4, 0.4], [0.5, 0.5], 9)
        assert dist.values.tolist() == [pytest.approx(3.6)]
        assert dist.pmf.tolist() == [1.0]

    def test_lattice_path_normalizes(self):
        rng = np.random.default_rng(8)
        vals = rng.uniform(0, 1, 5)
        probs = rng.dirichlet(np.ones(5))
        n = 40
        dist = f.sum_distribution(vals, probs, n, resolution=1e-6)
        assert dist.pmf.sum() == pytest.approx(1.0, abs=1e-9)
        span = vals.max() - vals.min()
        q_eff = max(1e-6, span * n / f.bounds.MAX_BINS)
        assert dist.quantization_bound <= n * q_eff * (1 + 1e-12)
        assert dist.mean() == pytest.approx(n * float(vals @ probs),
                                            abs=dist.quantization_bound)

    def test_lattice_coarsens_to_budget(self):
        rng = np.random.default_rng(9)
        vals = rng.uniform(0, 1, 4)
        probs = rng.dirichlet(np.ones(4))
        dist = f.sum_distribution(vals, probs, 2000, resolution=1e-6,
                                  max_bins=1 << 18)
        assert len(dist.pmf) <= (1 << 18) + 2000

    def test_tail_ge_semantics(self):
        dist = f.sum_distribution([0.0, 1.0], [0.5, 0.5], 2)
        assert dist.tail_ge(-0.5) == pytest.approx(1.0)
        assert dist.tail_ge(0.5) == pytest.approx(0.75)
        assert dist.tail_ge(1.5) == pytest.approx(0.25)
        assert dist.tail_ge(2.5) == 0.0

    def test_three_atom_exact_enumeration(self):
        vals = np.array([0.0, 0.5, 1.25])
        probs = np.array([0.5, 0.3, 0.2])
        n = 5
        dist = f.sum_distribution(vals, probs, n, resolution=1e-6)
        # brute force over all 3^5 letter assignments
        tails = {}
        for combo in itertools.product(range(3), repeat=n):
            s = float(vals[list(combo)].sum())
            w = float(np.prod(probs[list(combo)]))
            tails[s] = tails.get(s, 0.0) + w
        for threshold in (0.9, 2.3, 4.0):
            exact = sum(w for s, w in tails.items() if s >= threshold)
            assert dist.tail_ge(threshold) == pytest.approx(exact, abs=1e-9)


class TestConverse:
    def test_huge_codebook_is_vacuous(self, binary_pieces):
        inst, sol, field = binary_pieces
        query = f.FblQuery(n=50, distortion=0.1, log_m=50 * 10.0)
        sums = f.tilted_sum_distribution(field, query.n)
        assert f.converse_lower(query, field, sums).value == 0.0

    def test_single_letter_enumeration(self, binary_pieces):
        inst, sol, field = binary_pieces
        # n = 1, M = 1, gamma = ln 2: bound = Pr[j >= ln 2] - 1/2 exactly
        query = f.FblQuery(n=1, distortion=0.1, log_m=0.0)
        bound = f.converse_lower(query, field, f.tilted_sum_distribution(field, 1),
                                 gamma=math.log(2.0))
        pmf = inst.source.pmf
        tail = float(pmf[field.table >= math.log(2.0)].sum())
        assert bound.tail == pytest.approx(tail, abs=1e-12)
        assert bound.value == pytest.approx(max(tail - 0.5, 0.0), abs=1e-12)

    def test_berry_esseen_window_at_n1000(self, binary_pieces):
        inst, sol, field = binary_pieces
        n, eps = 1000, 0.1
        gamma = math.log(math.sqrt(n))
        rate = f.second_order_rate(n, eps, sol.rate, field.variance)
        query = f.FblQuery.from_rate(n, 0.1, rate, eps=eps)
        bound = f.converse_lower(query, field, f.tilted_sum_distribution(field, n),
                                 gamma=gamma)
        sigma = math.sqrt(n * field.variance)
        b_n = 6.0 * field.third_abs / field.variance ** 1.5
        center = f.gaussian_q(f.gaussian_q_inv(eps) + gamma / sigma) - math.exp(-gamma)
        window = b_n / math.sqrt(n)
        assert center - window <= bound.value <= center + window

    def test_nonincreasing_in_codebook_size(self, binary_pieces):
        inst, sol, field = binary_pieces
        n = 200
        sums = f.tilted_sum_distribution(field, n)
        values = []
        for rate in (0.15, 0.18, 0.21, 0.24):
            query = f.FblQuery.from_rate(n, 0.1, rate)
            values.append(f.converse_lower(query, field, sums).value)
        assert all(a >= b - 1e-12 for a, b in zip(values[:-1], values[1:]))

    def test_rejects_sums_for_another_blocklength(self, binary_pieces):
        inst, sol, field = binary_pieces
        query = f.FblQuery.from_rate(50, 0.1, 0.2)
        with pytest.raises(ValueError, match="n = 49"):
            f.converse_lower(query, field, f.tilted_sum_distribution(field, 49))

    def test_default_grid_includes_half_log_n(self):
        grid = f.bounds.default_gamma_grid(400, 0.3)
        assert any(abs(g - 0.5 * math.log(400)) < 1e-12 for g in grid)


class TestSimulate:
    def test_everything_covered_at_max_distortion(self, binary_pieces):
        inst, sol, field = binary_pieces
        query = f.FblQuery(n=16, distortion=1.0, log_m=math.log(2.0))
        res = f.simulate_random_code(query, sol, trials=200, seed=0)
        assert res.value == 0.0

    def test_large_codebook_drives_failure_down(self, binary_pieces):
        inst, sol, field = binary_pieces
        small = f.simulate_random_code(
            f.FblQuery.from_rate(64, 0.1, 0.05), sol, trials=300, seed=1)
        large = f.simulate_random_code(
            f.FblQuery.from_rate(64, 0.1, 0.60), sol, trials=300, seed=1)
        assert large.value <= small.value
        assert large.value <= 1e-3

    def test_matches_exact_enumeration_at_n8(self, binary_pieces):
        inst, sol, field = binary_pieces
        query = f.FblQuery.from_size(8, 0.1, 4)
        exact = f.exact_random_code(query, sol)
        mc = f.simulate_random_code(query, sol, trials=30000, seed=12)
        assert abs(mc.value - exact) <= 3.0 * mc.mc_stderr

    def test_deterministic_given_seed(self, binary_pieces):
        inst, sol, field = binary_pieces
        query = f.FblQuery.from_rate(64, 0.1, 0.25)
        a = f.simulate_random_code(query, sol, trials=500, seed=3)
        b = f.simulate_random_code(query, sol, trials=500, seed=3)
        assert a.value == b.value and a.mc_stderr == b.mc_stderr

    def test_thread_count_does_not_change_result(self, binary_pieces):
        inst, sol, field = binary_pieces
        query = f.FblQuery.from_rate(128, 0.1, 0.22)
        serial = f.simulate_random_code(query, sol, trials=600, seed=4,
                                        chunk_size=128, threads=1)
        threaded = f.simulate_random_code(query, sol, trials=600, seed=4,
                                          chunk_size=128, threads=4)
        assert serial.value == threaded.value


class TestExactTail:
    def test_convolution_matches_enumeration(self, binary_pieces):
        inst, sol, field = binary_pieces
        n = 8
        dist = f.tilted_sum_distribution(field, n)
        thresholds = np.linspace(0.0, 8 * 0.7, 23)
        exact = f.exact_tilted_tail(field, n, thresholds)
        for t, e in zip(thresholds, exact):
            assert dist.tail_ge(float(t)) == pytest.approx(e, abs=1e-12)


class TestForwardBound:
    def test_window_term_vanishes_with_default_calibration(self, binary_pieces):
        inst, sol, field = binary_pieces
        n = 400
        rate = f.second_order_rate(n, 0.1, sol.rate, field.variance)
        query = f.FblQuery.from_rate(n, 0.1, rate, eps=0.1)
        sums = f.tilted_sum_distribution(field, n)
        res = f.forward_bound(query, sol, field, sums, trials=512, seed=6)
        assert res.terms["window"] == 0.0

    def test_dominates_simulation(self, binary_pieces):
        inst, sol, field = binary_pieces
        for n, rate in ((100, 0.22), (200, 0.21), (400, 0.20)):
            query = f.FblQuery.from_rate(n, 0.1, rate, eps=0.1)
            sums = f.tilted_sum_distribution(field, n)
            fwd = f.forward_bound(query, sol, field, sums, trials=256, seed=7)
            sim = f.simulate_random_code(query, sol, trials=1500, seed=8)
            assert fwd.value >= sim.value - 3.0 * sim.mc_stderr

    def test_extreme_gamma_shifts_weight_to_window_term(self, binary_pieces):
        inst, sol, field = binary_pieces
        n = 100
        query = f.FblQuery.from_rate(n, 0.1, 0.25, eps=0.1)
        params = f.ForwardBoundParams(log_gamma=query.log_m + 200.0, beta=1.0,
                                      delta=0.001)
        sums = f.tilted_sum_distribution(field, n)
        res = f.forward_bound(query, sol, field, sums, params=params, trials=256,
                              seed=9)
        # with gamma astronomically large the tail term dies and the
        # codebook term approaches exp(-M/gamma) <= 1
        assert res.terms["tail"] == 0.0
        assert res.terms["codebook"] <= 1.0
        assert res.value == pytest.approx(
            min(res.terms["window"] + res.terms["codebook"], 1.0), abs=1e-12)

    def test_rejects_sums_for_another_blocklength(self, binary_pieces):
        inst, sol, field = binary_pieces
        query = f.FblQuery.from_rate(50, 0.1, 0.2, eps=0.1)
        with pytest.raises(ValueError, match="n = 51"):
            f.forward_bound(query, sol, field, f.tilted_sum_distribution(field, 51),
                            trials=64)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            f.ForwardBoundParams(log_gamma=0.0, beta=-1.0, delta=0.1)


class TestSecondOrderRate:
    def test_median_gives_rate(self, binary_pieces):
        _, sol, field = binary_pieces
        assert f.second_order_rate(100, 0.5, sol.rate, field.variance) == \
            pytest.approx(sol.rate, abs=1e-15)

    def test_symmetry_about_rate(self, binary_pieces):
        _, sol, field = binary_pieces
        up = f.second_order_rate(100, 0.1, sol.rate, field.variance)
        dn = f.second_order_rate(100, 0.9, sol.rate, field.variance)
        assert up - sol.rate == pytest.approx(sol.rate - dn, abs=1e-12)

    def test_binary_value_at_n1000(self, binary_pieces):
        _, sol, field = binary_pieces
        got = f.second_order_rate(1000, 0.1, sol.rate, field.variance)
        expected = sol.rate + math.sqrt(field.variance / 1000.0) * f.gaussian_q_inv(0.1)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.1977920, abs=1e-6)


class TestImpliedRates:
    def test_sandwich_and_window(self, binary_pieces):
        inst, sol, field = binary_pieces
        eps = 0.1
        for n in (200, 500):
            r_conv = f.converse_rate_bound(field, f.tilted_sum_distribution(field, n), eps)
            r_ach, _ = f.achievable_rate_estimate(sol, n, eps, trials=1500, seed=13)
            r_star = f.second_order_rate(n, eps, sol.rate, field.variance)
            assert r_conv <= r_ach
            window = 8.0 * math.log(n) / math.sqrt(n)
            assert abs(r_conv - r_star) <= window
            assert abs(r_ach - r_star) <= window


def test_random_instance_bounds_are_probabilities():
    rng = np.random.default_rng(2)
    inst, budget = random_instance(rng, max_size=3)
    sol = f.solve_crd(inst, budget)
    field = f.tilted_density(sol)
    rate = f.second_order_rate(64, 0.2, sol.rate, field.variance)
    query = f.FblQuery.from_rate(64, budget, rate, eps=0.2)
    sums = f.tilted_sum_distribution(field, 64)
    conv = f.converse_lower(query, field, sums)
    sim = f.simulate_random_code(query, sol, trials=400, seed=14)
    fwd = f.forward_bound(query, sol, field, sums, trials=128, seed=15)
    for value in (conv.value, sim.value, fwd.value):
        assert 0.0 <= value <= 1.0
    assert all(t >= 0.0 for t in fwd.terms.values())

import numpy as np
import pytest

import fblcrd as f
from conftest import random_instance
from fblcrd.exceptions import InfeasibleDistortionError
from fblcrd.solver import PerStateCurve
from oracles import allocation_search_two_states, hamming_rd_uniform, \
    rd_binary_grid, rd_slsqp

HAMMING = f.DistortionSpec([[0.0, 1.0], [1.0, 0.0]])


class TestPerState:
    def test_bernoulli_hamming_closed_form(self):
        c = 0.2
        px = np.array([1.0 - c, c])
        for budget in (0.01, 0.05, 0.1, 0.15, 0.19):
            sol = f.solve_rd_per_state(px, HAMMING, budget, tol=1e-10)
            expected = f.binary_entropy(c) - f.binary_entropy(budget)
            assert sol.rate == pytest.approx(expected, abs=1e-9)
            assert sol.distortion <= budget + 1e-9

    def test_rate_zero_at_and_beyond_c(self):
        px = np.array([0.8, 0.2])
        for budget in (0.2, 0.3, 0.9):
            sol = f.solve_rd_per_state(px, HAMMING, budget)
            assert sol.rate == 0.0
            assert sol.slope == 0.0

    def test_infeasible_below_floor(self):
        px = np.array([0.5, 0.5])
        dist = f.DistortionSpec([[0.5, 1.0], [1.0, 0.5]])
        with pytest.raises(InfeasibleDistortionError):
            f.solve_rd_per_state(px, dist, 0.2)

    def test_uniform_ternary_hamming_closed_form(self):
        px = np.full(3, 1.0 / 3.0)
        dist = f.DistortionSpec(1.0 - np.eye(3))
        sol = f.solve_rd_per_state(px, dist, 0.2, tol=1e-10)
        assert sol.rate == pytest.approx(hamming_rd_uniform(3, 0.2), abs=1e-9)

    def test_binary_grid_search_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            px = rng.dirichlet([2.0, 2.0])
            d = rng.uniform(0, 1, (2, 2))
            d -= d.min(axis=1, keepdims=True)        # keep the floor at 0
            dist = f.DistortionSpec(d)
            zr = float((px @ d).min())
            budget = 0.45 * zr
            sol = f.solve_rd_per_state(px, dist, budget, tol=1e-10)
            grid = rd_binary_grid(px, d, budget, step=1e-3)
            assert sol.rate <= grid + 1e-9          # grid can only be higher
            assert sol.rate == pytest.approx(grid, abs=1e-3)

    def test_slsqp_oracle_three_letters(self):
        rng = np.random.default_rng(12)
        px = rng.dirichlet([3.0, 3.0, 3.0])
        d = rng.uniform(0, 1, (3, 3))
        dist = f.DistortionSpec(d)
        floor = float(px @ d.min(axis=1))
        zr = float((px @ d).min())
        budget = floor + 0.5 * (zr - floor)
        sol = f.solve_rd_per_state(px, dist, budget, tol=1e-10)
        direct = rd_slsqp(px, d, budget, restarts=10, seed=3)
        assert sol.rate <= direct + 1e-7
        assert sol.rate == pytest.approx(direct, abs=1e-5)


class TestJointSolver:
    def test_binary_example_closed_form(self, binary_instance):
        sol = f.solve_crd(binary_instance, 0.1, tol=1e-9)
        expected = f.binary_entropy(0.2) - f.binary_entropy(0.1)
        assert sol.rate == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.175319, abs=1e-6)
        assert sol.slope == pytest.approx(np.log(9.0), abs=1e-8)
        assert abs(sol.rate_by_method["direct"] - sol.rate_by_method["decomposed"]) <= 1e-8

    def test_zero_rate_regime_channel_is_product(self, binary_instance):
        sol = f.solve_crd(binary_instance, 0.35)
        assert sol.rate == 0.0
        assert sol.slope == 0.0
        # channel must not depend on the source letter
        assert np.abs(sol.channel[0] - sol.channel[1]).max() == 0.0
        assert np.abs(sol.allocation @ binary_instance.source.p_s - 0.35) <= 1e-9

    def test_methods_agree_on_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(8):
            inst, budget = random_instance(rng, max_size=3)
            sol = f.solve_crd(inst, budget, tol=1e-9)
            diff = abs(sol.rate_by_method["direct"] - sol.rate_by_method["decomposed"])
            assert diff <= 1e-8
            assert sol.distortion <= budget + 1e-9
            assert sol.gap <= 1e-9

    def test_default_allocation_is_the_direct_solution(self):
        rng = np.random.default_rng(43)
        for _ in range(3):
            inst, budget = random_instance(rng, max_size=3)
            both = f.solve_crd(inst, budget)
            direct = f.solve_crd(inst, budget, method="direct")
            assert np.array_equal(both.allocation, direct.allocation)

    def test_allocation_sums_to_budget(self):
        rng = np.random.default_rng(21)
        inst, budget = random_instance(rng, max_size=4)
        sol = f.solve_crd(inst, budget)
        total = float(inst.source.p_s @ sol.allocation)
        assert total == pytest.approx(budget, abs=1e-9)

    def test_curve_monotone_and_convex(self, binary_instance):
        grid = np.linspace(0.02, 0.18, 9)
        rates = [f.solve_crd(binary_instance, float(d)).rate for d in grid]
        assert all(r1 >= r2 - 1e-10 for r1, r2 in zip(rates[:-1], rates[1:]))
        for i in range(1, len(grid) - 1):
            mid = rates[i]
            chord = 0.5 * (rates[i - 1] + rates[i + 1])
            assert mid <= chord + 1e-8

    def test_slope_matches_curve_derivative(self, binary_instance):
        d0, h = 0.1, 1e-5
        sol = f.solve_crd(binary_instance, d0)
        r_plus = f.solve_crd(binary_instance, d0 + h).rate
        r_minus = f.solve_crd(binary_instance, d0 - h).rate
        fd = -(r_plus - r_minus) / (2.0 * h)
        assert sol.slope == pytest.approx(fd, abs=1e-3)

    def test_conditioning_reduces_rate(self):
        rng = np.random.default_rng(31)
        for _ in range(4):
            inst, budget = random_instance(rng, max_size=3)
            conditional = f.solve_crd(inst, budget).rate
            merged = f.validate(f.JointSource(inst.source.p_x[:, None]), inst.dist)
            unconditional = f.solve_crd(merged, budget).rate
            assert conditional <= unconditional + 1e-8

    def test_zero_rate_boundary_exact(self, binary_instance):
        sol = f.solve_crd(binary_instance, binary_instance.zero_rate_distortion)
        assert sol.rate == 0.0

    def test_infeasible_distortion(self, binary_instance):
        with pytest.raises(InfeasibleDistortionError):
            f.solve_crd(binary_instance, -0.01)


class TestAllocation:
    def test_identical_curves_split_evenly(self):
        px = np.array([0.8, 0.2])
        curves = [PerStateCurve(px, HAMMING), PerStateCurve(px, HAMMING)]
        alloc = f.allocate_distortion(curves, np.array([0.4, 0.6]), 0.1)
        assert np.abs(alloc - 0.1).max() <= 1e-9

    def test_zero_probability_state_excluded(self):
        px0 = np.array([0.8, 0.2])
        px1 = np.array([0.6, 0.4])
        curves = [PerStateCurve(px0, HAMMING), PerStateCurve(px1, HAMMING)]
        alloc = f.allocate_distortion(curves, np.array([1.0, 0.0]), 0.1)
        assert alloc[0] == pytest.approx(0.1, abs=1e-9)
        # the null-weight state sits at its rate-zero point by convention
        assert alloc[1] == pytest.approx(curves[1].zero_rate_distortion, abs=1e-12)

    def test_two_state_allocation_matches_direct_search(self):
        px0 = np.array([0.9, 0.1])
        px1 = np.array([0.65, 0.35])
        weights = np.array([0.3, 0.7])
        budget = 0.08
        curves = [PerStateCurve(px0, HAMMING), PerStateCurve(px1, HAMMING)]
        alloc = f.allocate_distortion(curves, weights, budget)
        value = (weights[0] * curves[0].rate_at(float(alloc[0]), tol=1e-10)
                 + weights[1] * curves[1].rate_at(float(alloc[1]), tol=1e-10))
        d0_star, value_star = allocation_search_two_states(curves, weights, budget)
        assert value == pytest.approx(value_star, abs=1e-6)
        assert float(weights @ alloc) == pytest.approx(budget, abs=1e-10)


    def test_infeasible_below_weighted_floor(self):
        dist = f.DistortionSpec([[0.5, 1.0], [1.0, 0.5]])
        curves = [PerStateCurve(np.array([0.8, 0.2]), dist),
                  PerStateCurve(np.array([0.6, 0.4]), dist)]
        with pytest.raises(InfeasibleDistortionError):
            f.allocate_distortion(curves, np.array([0.4, 0.6]), 0.49)

    @pytest.mark.parametrize("excess", [0.0, 0.05])
    def test_zero_rate_budget_shifts_every_state(self, excess):
        curves = [PerStateCurve(np.array([0.8, 0.2]), HAMMING),
                  PerStateCurve(np.array([0.6, 0.4]), HAMMING)]
        weights = np.array([0.3, 0.7])
        zr = np.array([c.zero_rate_distortion for c in curves])
        budget = float(weights @ zr) + excess
        alloc = f.allocate_distortion(curves, weights, budget)
        np.testing.assert_allclose(alloc, zr + (budget - float(weights @ zr)),
                                   rtol=0.0, atol=1e-15)


class TestGradient:
    def test_gradient_matches_tilted_table(self, binary_instance, binary_field):
        grad = f.rd_gradient(binary_instance, 0.1, h=1e-5)
        assert np.abs(grad - binary_field.table).max() <= 1e-3

    def test_gradient_mean_recovers_rate(self, binary_instance, binary_solution):
        grad = f.rd_gradient(binary_instance, 0.1, h=1e-5)
        mean = float((binary_instance.source.pmf * grad).sum())
        assert mean == pytest.approx(binary_solution.rate, abs=1e-3)

    def test_gradient_step_domain(self, binary_instance):
        with pytest.raises(ValueError):
            f.rd_gradient(binary_instance, 0.1, h=1e-8)

    def test_central_scheme_agrees(self, binary_instance, binary_field):
        grad = f.rd_gradient(binary_instance, 0.1, h=1e-4, scheme="central")
        assert np.abs(grad - binary_field.table).max() <= 1e-3


def test_rd_curve_emission(binary_instance):
    points = f.solve_rd_curve(binary_instance, [0.05, 0.1, 0.2])
    assert [p.distortion for p in points] == [0.05, 0.1, 0.2]
    assert points[-1].rate == 0.0
    assert points[0].rate > points[1].rate
    assert points[0].dispersion is None

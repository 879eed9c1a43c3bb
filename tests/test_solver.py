import dataclasses

import numpy as np
import pytest

import fblcrd as f
from conftest import random_instance
from fblcrd import solver
from fblcrd.exceptions import ConvergenceError, InfeasibleDistortionError
from oracles import allocation_search_two_states, hamming_rd_uniform, \
    rd_binary_grid, rd_slsqp, solve_crd_decomposed

HAMMING = f.DistortionSpec([[0.0, 1.0], [1.0, 0.0]])
# rounding slack of the closed forms and the rate sums they are compared with
ROUNDING = 1e-15


def states_instance(rows, weights, dist=HAMMING):
    """The instance whose state s has weight weights[s] and source pmf rows[s]."""
    pmf = np.column_stack([w * np.asarray(px, dtype=float) for px, w in zip(rows, weights)])
    return f.validate(f.JointSource(pmf), dist)


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

    @pytest.mark.parametrize("a, c", [(0.5, 0.2), (0.3, 0.1), (0.5, 0.45)])
    def test_dual_interval_brackets_binary_closed_form(self, a, c):
        inst = f.binary_hamming_instance(a=a, c=c)
        for budget in c * np.array([0.05, 0.2, 0.5, 0.8, 0.95, 0.999]):
            sol = f.solve_crd(inst, float(budget), tol=1e-9)
            exact = f.binary_entropy(c) - f.binary_entropy(float(budget))
            assert sol.rate_lower - ROUNDING <= exact <= sol.rate + ROUNDING
            assert sol.rate - sol.rate_lower <= 1e-8

    @pytest.mark.parametrize("q", [3, 5])
    def test_dual_interval_brackets_uniform_qary_closed_form(self, q):
        inst = f.validate(f.JointSource(np.full((q, 1), 1.0 / q)),
                          f.DistortionSpec(1.0 - np.eye(q)))
        for budget in (q - 1) / q * np.array([0.05, 0.2, 0.5, 0.8, 0.95]):
            sol = f.solve_crd(inst, float(budget), tol=1e-9)
            exact = hamming_rd_uniform(q, float(budget))
            assert sol.rate_lower - ROUNDING <= exact <= sol.rate + ROUNDING

    @pytest.mark.parametrize("miss", [1e-6, -1e-6])
    def test_rate_off_its_dual_bound_is_refused(self, binary_instance, monkeypatch, miss):
        # the joint search reports per-state rates that miss R(D) by `miss`
        # while its slope, output law and allocation stay right
        bisect = solver._bisect_slope
        calls = []

        def misreported(*args, **kwargs):
            res = bisect(*args, **kwargs)
            calls.append(res)
            if len(calls) == 1:
                res = dataclasses.replace(res, rate_s=res.rate_s + miss)
            return res

        monkeypatch.setattr(solver, "_bisect_slope", misreported)
        with pytest.raises(ConvergenceError, match="dual lower bound") as err:
            f.solve_crd(binary_instance, 0.1, tol=1e-9)
        assert err.value.gap == pytest.approx(abs(miss), rel=1e-4)
        sol = f.solve_crd(binary_instance, 0.1, tol=1e-9)
        assert sol.rate == pytest.approx(f.binary_entropy(0.2) - f.binary_entropy(0.1),
                                         abs=1e-9)

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
            decomposed = solve_crd_decomposed(inst, budget, tol=1e-9)
            assert abs(sol.rate - decomposed.rate) <= 1e-8
            assert sol.distortion <= budget + 1e-9
            assert sol.gap <= 1e-9

    def test_default_allocation_is_the_direct_solution(self):
        rng = np.random.default_rng(43)
        for _ in range(3):
            inst, budget = random_instance(rng, max_size=3)
            sol = f.solve_crd(inst, budget)
            cond = inst.source.cond_x_given_s
            per_state = np.einsum("xs,xsy,xy->s", cond, sol.channel, inst.dist.d)
            kept = inst.source.p_s > 0
            np.testing.assert_allclose(sol.allocation[kept], per_state[kept],
                                       rtol=0.0, atol=1e-15)

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
        alloc = f.solve_crd(states_instance([px, px], [0.4, 0.6]), 0.1).allocation
        assert np.abs(alloc - 0.1).max() <= 1e-9

    def test_zero_probability_state_excluded(self):
        inst = states_instance([[0.8, 0.2], [0.6, 0.4]], [1.0, 0.0])
        alloc = f.solve_crd(inst, 0.1).allocation
        assert alloc[0] == pytest.approx(0.1, abs=1e-9)
        # the null-weight state sits at its rate-zero point by convention
        assert alloc[1] == inst.zero_rate_by_state[1]

    def test_two_state_allocation_matches_direct_search(self):
        rows = [np.array([0.9, 0.1]), np.array([0.65, 0.35])]
        weights = np.array([0.3, 0.7])
        budget = 0.08
        alloc = f.solve_crd(states_instance(rows, weights), budget).allocation
        value = sum(w * f.solve_rd_per_state(px, HAMMING, float(d), tol=1e-10).rate
                    for px, w, d in zip(rows, weights, alloc))
        d0_star, value_star = allocation_search_two_states(rows, weights, HAMMING, budget)
        assert value == pytest.approx(value_star, abs=1e-6)
        assert float(weights @ alloc) == pytest.approx(budget, abs=1e-10)

    def test_infeasible_below_weighted_floor(self):
        dist = f.DistortionSpec([[0.5, 1.0], [1.0, 0.5]])
        inst = states_instance([[0.8, 0.2], [0.6, 0.4]], [0.4, 0.6], dist)
        with pytest.raises(InfeasibleDistortionError):
            f.solve_crd(inst, 0.49)

    @pytest.mark.parametrize("excess", [0.0, 0.05])
    def test_zero_rate_budget_shifts_every_state(self, excess):
        inst = states_instance([[0.8, 0.2], [0.6, 0.4]], [0.3, 0.7])
        zr = inst.zero_rate_by_state
        budget = inst.zero_rate_distortion + excess
        alloc = f.solve_crd(inst, budget).allocation
        np.testing.assert_allclose(alloc, zr + (budget - inst.zero_rate_distortion),
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

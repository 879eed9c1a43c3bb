import dataclasses
import math

import numpy as np
import pytest

import fblcrd as f
from conftest import random_instance
from oracles import rd_slsqp, second_order_classifier, solve_crd_decomposed


class TestBinaryClosedForm:
    def test_table_is_self_information_minus_entropy(self, binary_instance,
                                                     binary_field):
        # j(x, D | s) = i(x|s) - H(D) for the binary Hamming benchmark
        h_d = f.binary_entropy(0.1)
        cond = binary_instance.source.cond_x_given_s
        expected = -np.log(cond) - h_d
        assert np.abs(binary_field.table - expected).max() <= 1e-8

    def test_zero_table_beyond_zero_rate(self, binary_instance):
        sol = f.solve_crd(binary_instance, 0.25)
        field = f.tilted_density(sol)
        assert np.all(field.table == 0.0)
        assert field.variance == 0.0

    def test_dispersion_closed_form(self, binary_field):
        expected = 0.16 * math.log(4.0) ** 2
        assert binary_field.variance == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.307490, abs=1e-6)

    def test_corollary_regime_variance_is_self_information_variance(
            self, binary_instance, binary_field):
        cond = binary_instance.source.cond_x_given_s
        pmf = binary_instance.source.pmf
        i_table = -np.log(cond)
        mean = float((pmf * i_table).sum())
        var_i = float((pmf * (i_table - mean) ** 2).sum())
        assert binary_field.variance == pytest.approx(var_i, abs=1e-10)


class TestMoments:
    def test_mean_equals_rate_random(self):
        rng = np.random.default_rng(100)
        for k in range(6):
            inst, budget = random_instance(rng, max_size=3)
            sol = f.solve_crd(inst, budget)
            field = f.tilted_density(sol)
            assert abs(field.mean - sol.rate) <= 1e-8

    def test_mean_vs_independent_solver(self):
        # rate from a direct constrained optimization, not the alternating
        # minimization, must match the tilted-density mean
        rng = np.random.default_rng(4)
        px = rng.dirichlet([2, 2, 2])
        d = rng.uniform(0, 1, (3, 3))
        inst = f.validate(f.JointSource(px[:, None]), f.DistortionSpec(d))
        budget = inst.d_floor + 0.5 * (inst.zero_rate_distortion - inst.d_floor)
        sol = f.solve_crd(inst, budget)
        field = f.tilted_density(sol)
        reference = rd_slsqp(px, d, budget, restarts=10, seed=9)
        assert field.mean == pytest.approx(reference, abs=1e-5)

    def test_deterministic_source_zero_variance(self):
        pmf = np.array([[1.0], [0.0]])
        inst = f.validate(f.JointSource(pmf), f.DistortionSpec([[0.0, 1.0], [1.0, 0.0]]))
        sol = f.solve_crd(inst, 0.05)
        field = f.tilted_density(sol)
        assert field.variance == pytest.approx(0.0, abs=1e-12)

    def test_law_of_total_variance(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            inst, budget = random_instance(rng, max_size=4)
            field = f.tilted_density(f.solve_crd(inst, budget))
            dec = f.dispersion_v(field)
            assert abs(dec.total - (dec.within + dec.between)) <= 1e-10

    def test_table_invariant_to_solution_route(self):
        # the tilted density depends only on the optimal output law and the
        # slope, so both solution routes must induce the same table
        rng = np.random.default_rng(55)
        for _ in range(4):
            inst, budget = random_instance(rng, max_size=3)
            t_a = f.tilted_density(f.solve_crd(inst, budget)).table
            t_b = f.tilted_density(solve_crd_decomposed(inst, budget)).table
            assert np.abs(t_a - t_b).max() <= 1e-6


class TestIdentities:
    def test_binary_identities(self, binary_field, binary_solution):
        rep = f.verify_tilted_identities(binary_field, binary_solution,
                                         trials=100, seed=17)
        assert rep.ok
        assert rep.identity_dev <= 1e-8
        assert rep.mean_dev <= 1e-8
        assert rep.tilt_slack <= 1e-9
        assert rep.equality_dev <= 1e-9

    def test_optimal_output_law_achieves_equality(self, binary_field,
                                                  binary_solution):
        rep = f.verify_tilted_identities(binary_field, binary_solution,
                                         trials=1, seed=0)
        assert rep.equality_dev <= 1e-9

    def test_corrupted_density_fails_mean_check(self, binary_field,
                                                binary_solution):
        corrupted = dataclasses.replace(
            binary_field,
            table=binary_field.table + 0.01,
            mean=binary_field.mean + 0.01,
        )
        rep = f.verify_tilted_identities(corrupted, binary_solution,
                                         trials=10, seed=0)
        assert not rep.ok
        assert rep.mean_dev == pytest.approx(0.01, abs=1e-6)

    def test_random_output_laws_never_exceed_unity(self):
        rng = np.random.default_rng(71)
        inst, budget = random_instance(rng, max_size=3)
        sol = f.solve_crd(inst, budget)
        field = f.tilted_density(sol)
        rep = f.verify_tilted_identities(field, sol, trials=200, seed=5)
        assert rep.tilt_slack <= 1e-9


class TestClassifier:
    def test_at_rate_median(self):
        assert second_order_classifier(0.3, 0.3, 0.25, 0.5) == pytest.approx(0.0)

    def test_below_rate_infinite(self):
        assert second_order_classifier(0.29, 0.3, 0.25, 0.1) == math.inf

    def test_above_rate_negative_infinite(self):
        assert second_order_classifier(0.31, 0.3, 0.25, 0.1) == -math.inf

    def test_binary_example_value(self, binary_solution, binary_field):
        val = second_order_classifier(binary_solution.rate, binary_solution.rate,
                                        binary_field.variance, 0.1)
        expected = math.sqrt(binary_field.variance) * f.gaussian_q_inv(0.1)
        assert val == pytest.approx(expected, abs=1e-12)
        assert val == pytest.approx(0.71066, abs=5e-5)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            second_order_classifier(0.3, 0.3, -1.0, 0.1)
        with pytest.raises(ValueError):
            second_order_classifier(0.3, 0.3, 0.25, 0.0)


def test_rd_curve_with_dispersion(binary_instance):
    # below the zero-rate distortion V does not depend on D
    expected = 0.16 * math.log(4.0) ** 2
    for d in [0.05, 0.1]:
        field = f.tilted_density(f.solve_crd(binary_instance, d))
        assert field.variance == pytest.approx(expected, abs=1e-8)


def test_info_densities_self_information(binary_solution, binary_instance):
    dens = f.info_densities(binary_solution)
    cond = binary_instance.source.cond_x_given_s
    assert np.abs(dens.i_x_given_s - (-np.log(cond))).max() <= 1e-14

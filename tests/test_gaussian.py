import math

import mpmath
import numpy as np
import pytest
from scipy import optimize

import fblcrd as f
from fblcrd import gaussian
from fblcrd.exceptions import ConvergenceError, ValidationError
from oracles import cap_code_eps_mpmath, cap_code_sampled_stderr, gaussian_tilted_density


@pytest.fixture(scope="module")
def unit_model():
    return f.GaussianModel(var_x=1.0, var_z=1.0, distortion=0.25)


class TestModel:
    def test_derived_quantities(self, unit_model):
        assert unit_model.var_x_given_s == pytest.approx(0.5)
        assert unit_model.rho == pytest.approx(math.sqrt(0.5))
        assert unit_model.mmse_coeff == pytest.approx(0.5)
        assert unit_model.mu(2.0) == pytest.approx(1.0)

    def test_conditional_variance_dominated(self):
        for vx, vz in ((0.5, 2.0), (2.0, 0.5), (1.0, 1.0)):
            m = f.GaussianModel(var_x=vx, var_z=vz, distortion=0.1)
            assert 0.0 < m.var_x_given_s < min(vx, vz)
            assert 0.0 < m.rho < 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            f.GaussianModel(var_x=-1.0, var_z=1.0, distortion=0.1)
        with pytest.raises(ValidationError):
            f.GaussianModel(var_x=1.0, var_z=1.0, distortion=0.0)


class TestRate:
    def test_closed_form(self, unit_model):
        assert f.gaussian_crd(unit_model) == pytest.approx(0.5 * math.log(2.0),
                                                           abs=1e-15)
        assert f.gaussian_crd(unit_model) == pytest.approx(0.346574, abs=1e-6)

    def test_zero_beyond_conditional_variance(self):
        m = f.GaussianModel(var_x=1.0, var_z=1.0, distortion=0.5)
        assert f.gaussian_crd(m) == 0.0

    def test_large_side_noise_recovers_unconditional(self):
        m = f.GaussianModel(var_x=1.0, var_z=1e9, distortion=0.1)
        assert f.gaussian_crd(m) == pytest.approx(0.5 * math.log(1.0 / 0.1),
                                                  rel=1e-6)


class TestTiltedDensity:
    def test_zero_residual_value(self, unit_model):
        n = 16
        s = np.linspace(-1.0, 1.0, n)
        x = unit_model.mu(s)
        got = gaussian_tilted_density(unit_model, x, s)
        expected = 0.5 * n * math.log(0.5 / 0.25) - 0.5 * n
        assert got == pytest.approx(expected, abs=1e-12)

    def test_mean_is_n_times_rate(self, unit_model):
        rng = np.random.default_rng(0)
        n, trials = 8, 4000
        total = 0.0
        for _ in range(trials):
            x = rng.standard_normal(n) * math.sqrt(unit_model.var_x)
            z = rng.standard_normal(n) * math.sqrt(unit_model.var_z)
            total += gaussian_tilted_density(unit_model, x, x + z)
        mean = total / trials
        expected = n * f.gaussian_crd(unit_model)
        # variance of the estimate: n/2 nats^2 per sequence
        stderr = math.sqrt(n * 0.5 / trials)
        assert abs(mean - expected) <= 4.0 * stderr

    def test_length_mismatch(self, unit_model):
        with pytest.raises(ValidationError):
            gaussian_tilted_density(unit_model, np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("var_x,var_z", [(0.5, 0.5), (0.5, 2.0), (2.0, 0.5),
                                             (1.0, 1.0), (2.0, 2.0)])
    def test_per_letter_variance_is_half(self, var_x, var_z):
        m = f.GaussianModel(var_x=var_x, var_z=var_z,
                            distortion=var_x * var_z / (var_x + var_z) / 2.0)
        samples = f.tilted_density_samples(m, 10**6, seed=123)
        assert 0.495 <= samples.var(ddof=1) <= 0.505


class TestSphereCap:
    def test_geometry_ordering(self, unit_model):
        params = f.sphere_cap_params(unit_model, 64, 10.0)
        assert params.r1 < params.r0 < params.r2
        assert params.r0 == pytest.approx(math.sqrt(64 * 0.25))

    def test_bound_is_probability_and_decreasing_in_m(self, unit_model):
        n = 100
        values = [f.sphere_cap_bound(unit_model, n, log_m)
                  for log_m in (5.0, 15.0, 25.0, 35.0)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a >= b - 1e-12 for a, b in zip(values[:-1], values[1:]))

    def test_single_codeword_rarely_covers(self, unit_model):
        assert f.sphere_cap_bound(unit_model, 100, 0.0) >= 0.5

    def test_agrees_with_simulation(self, unit_model):
        # held to three standard errors of the 6000-draw estimate it replaces
        for n in (100, 200):
            log_m = n * f.gaussian_second_order_rate(unit_model, n, 0.1)
            cap = f.sphere_cap_bound(unit_model, n, log_m)
            exact = f.cap_code_eps(unit_model, n, log_m)
            assert abs(cap - exact) <= 3.0 * cap_code_sampled_stderr(unit_model, n, log_m, 6000)
            # the cap-area lower bound can only overstate the failure
            assert cap >= exact


class TestCapCode:
    # the two rows whose linear-domain cap fractions saturated (n = 1000)
    # or stalled the quadrature (n = 2000), and one row at n = 300
    ROWS = [(4.0, 0.5, 0.05, 1000), (1.0, 1.0, 0.25, 2000), (2.0, 0.5, 0.1, 300)]

    @pytest.mark.parametrize("var_x,var_z,D,n", ROWS)
    def test_matches_mpmath(self, var_x, var_z, D, n):
        model = f.GaussianModel(var_x=var_x, var_z=var_z, distortion=D)
        log_m = n * f.gaussian_second_order_rate(model, n, 0.1)
        exact = f.cap_code_eps(model, n, log_m)
        bound = f.sphere_cap_bound(model, n, log_m)
        assert exact == pytest.approx(cap_code_eps_mpmath(model, n, log_m), abs=1e-12)
        assert bound == pytest.approx(cap_code_eps_mpmath(model, n, log_m, "sakrison"),
                                      abs=1e-12)
        assert bound >= exact


class TestCapQuadrature:
    MODEL = f.GaussianModel(var_x=2.0, var_z=0.5, distortion=0.1)

    def log_m(self, n):
        return n * f.gaussian_second_order_rate(self.MODEL, n, 0.1)

    @pytest.mark.parametrize("rule", [0, 1], ids=["21-point", "10-point"])
    def test_rule_integrates_polynomials_exactly(self, rule):
        nodes, weights = gaussian._CAP_RULE[rule]
        assert weights.sum() == pytest.approx(2.0, abs=1e-14)
        for k in range(20):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert weights @ nodes**k == pytest.approx(exact, abs=1e-14)

    def test_one_call_per_refinement_level(self):
        calls = []

        def counted(cos, n):
            calls.append(cos.size)
            return gaussian._log_exact_fraction(cos, n)

        n = 300
        value = gaussian._cap_integral(self.MODEL, n, self.log_m(n), counted)
        assert value == f.cap_code_eps(self.MODEL, n, self.log_m(n))
        assert 1 <= len(calls) <= 10

    def test_nan_fraction_raises(self):
        with pytest.raises(ConvergenceError):
            gaussian._cap_integral(self.MODEL, 300, self.log_m(300),
                                   lambda cos, n: np.full(cos.shape, np.nan))

    def test_noisy_fraction_raises_within_the_piece_cap(self):
        rng = np.random.default_rng(0)
        sizes = []

        def noisy(cos, n):
            sizes.append(cos.size)
            return gaussian._log_exact_fraction(cos, n) + rng.normal(0.0, 0.5, cos.shape)

        with pytest.raises(ConvergenceError):
            gaussian._cap_integral(self.MODEL, 300, self.log_m(300), noisy)
        nodes = sum(rule[0].size for rule in gaussian._CAP_RULE)
        assert max(sizes) <= 50 * gaussian._CAP_PIECES * nodes


class TestCapRobustness:
    def test_deep_fraction_matches_mpmath(self):
        # a = (n - 1)/2 = 5e5; at x = 0.998 and 0.99867 betainc is below
        # 1e-290 and the continued fraction takes over, at 0.999 it is not
        a = mpmath.mpf(500000)
        for x in (0.998, 0.99867, 0.999):
            cos = math.sqrt(1.0 - x)
            with mpmath.workdps(30):
                xm = mpmath.mpf(1.0 - cos * cos)
                ref = (a * mpmath.log(xm) + mpmath.log1p(-xm) / 2 - mpmath.log(a)
                       - mpmath.log(mpmath.beta(a, 0.5)) - mpmath.log(2)
                       + mpmath.log(mpmath.hyp2f1(a + 0.5, 1, a + 1, xm, maxterms=10**7)))
            got = gaussian._log_exact_fraction(np.array([cos]), 1000001)[0]
            assert got == pytest.approx(float(ref), rel=1e-12)

    def test_near_conditional_variance_large_n(self):
        # D close to var_x_given_s at large n puts the covering transition
        # where betainc underflows; every row must give a sandwiched value
        rng = np.random.default_rng(17)
        for _ in range(12):
            var_x, var_z = rng.uniform(0.1, 2.0, size=2)
            var = var_x * var_z / (var_x + var_z)
            model = f.GaussianModel(var_x=var_x, var_z=var_z,
                                    distortion=rng.uniform(0.9, 0.999) * var)
            n = int(rng.choice([10**4, 10**5, 10**6, 3 * 10**6]))
            log_m = n * f.gaussian_second_order_rate(model, n, rng.uniform(0.05, 0.95))
            exact = f.cap_code_eps(model, n, log_m)
            bound = f.sphere_cap_bound(model, n, log_m)
            converse = f.gaussian_converse_eps(model, n, log_m)
            assert 0.0 <= converse <= exact <= bound <= 1.0

    def test_random_rows_match_mpmath(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            var_x, var_z = rng.uniform(0.2, 3.0, size=2)
            var = var_x * var_z / (var_x + var_z)
            model = f.GaussianModel(var_x=var_x, var_z=var_z,
                                    distortion=rng.uniform(0.05, 0.9) * var)
            n = int(rng.integers(20, 2001))
            log_m = n * f.gaussian_second_order_rate(model, n, rng.uniform(0.05, 0.5))
            assert f.cap_code_eps(model, n, log_m) == pytest.approx(
                cap_code_eps_mpmath(model, n, log_m), abs=1e-10)


class TestSimulation:
    def test_analytic_vs_empirical_at_n10(self, unit_model):
        n, m_size = 10, 32
        log_m = math.log(m_size)
        exact = f.cap_code_eps(unit_model, n, log_m)
        empirical = f.gaussian_simulate(unit_model, n, log_m, trials=20000, seed=9)
        assert abs(exact - empirical.mean) <= 3.0 * empirical.stderr

    def test_zero_rate_regime_matches_chi_square_tail(self):
        m = f.GaussianModel(var_x=1.0, var_z=1.0, distortion=0.6)
        n = 50
        exact = float(f.chi2_sf(n, n * 0.6 / 0.5))
        assert abs(f.cap_code_eps(m, n, 0.0) - exact) <= 3e-6

    def test_deterministic_given_seed(self, unit_model):
        a = f.gaussian_simulate(unit_model, 10, math.log(32), trials=1000, seed=5)
        b = f.gaussian_simulate(unit_model, 10, math.log(32), trials=1000, seed=5)
        assert a.mean == b.mean

    def test_empirical_mode_rejects_huge_codebooks(self, unit_model):
        with pytest.raises(ValueError):
            f.gaussian_simulate(unit_model, 10, 60.0, trials=10)


class TestConverse:
    def test_window_around_target(self, unit_model):
        eps = 0.1
        for n in (500, 1000, 2000):
            log_m = n * f.gaussian_second_order_rate(unit_model, n, eps)
            value = f.gaussian_converse_eps(unit_model, n, log_m)
            assert eps - 5.0 / math.sqrt(n) <= value <= eps + 5.0 / math.sqrt(n)

    def test_monotone_in_codebook(self, unit_model):
        n = 200
        vals = [f.gaussian_converse_eps(unit_model, n, n * r)
                for r in (0.30, 0.35, 0.40)]
        assert vals[0] >= vals[1] >= vals[2]


class TestSecondOrder:
    def test_median_is_rate(self, unit_model):
        assert f.gaussian_second_order_rate(unit_model, 100, 0.5) == \
            pytest.approx(f.gaussian_crd(unit_model), abs=1e-15)

    def test_dispersion_constant(self):
        assert f.GAUSSIAN_DISPERSION == 0.5

    def test_dispersion_extraction_regression(self, unit_model):
        # locate the eps = 0.1 crossing of ln M of the cap code over a range of
        # blocklengths, then regress out the known higher-order shapes; the
        # sqrt(n) coefficient is the second-order rate term
        eps = 0.1
        rate = f.gaussian_crd(unit_model)
        ns = np.array([200, 400, 800, 1600])
        crossings = [optimize.brentq(lambda log_m: f.cap_code_eps(unit_model, int(n), log_m)
                                     - eps, 0.0, 4.0 * n, xtol=1e-9)
                     for n in ns]
        design = np.column_stack([np.sqrt(ns), np.log(ns), np.ones_like(ns)])
        coeffs, *_ = np.linalg.lstsq(design, np.array(crossings) - ns * rate, rcond=None)
        target = math.sqrt(0.5) * f.gaussian_q_inv(eps)
        assert coeffs[0] == pytest.approx(target, rel=0.10)

import math

import numpy as np
import pytest

import fblcrd as f
from fblcrd.exceptions import ValidationError
from oracles import gaussian_tilted_density


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
        for n in (100, 200):
            log_m = n * f.gaussian_second_order_rate(unit_model, n, 0.1)
            cap = f.sphere_cap_bound(unit_model, n, log_m)
            sim = f.gaussian_simulate(unit_model, n, log_m, trials=6000, seed=7)
            assert abs(cap - sim.mean) <= 3.0 * sim.stderr
            # the cap-area lower bound can only overstate the failure
            assert cap >= sim.mean - 3.0 * sim.stderr


class TestSimulation:
    def test_analytic_vs_empirical_at_n10(self, unit_model):
        n, m_size = 10, 32
        log_m = math.log(m_size)
        analytic = f.gaussian_simulate(unit_model, n, log_m, trials=20000, seed=8)
        empirical = f.gaussian_simulate(unit_model, n, log_m, trials=20000, seed=9,
                                        mode="empirical")
        joint = math.hypot(analytic.stderr, empirical.stderr)
        assert abs(analytic.mean - empirical.mean) <= 3.0 * joint

    def test_zero_rate_regime_matches_chi_square_tail(self):
        m = f.GaussianModel(var_x=1.0, var_z=1.0, distortion=0.6)
        n = 50
        sim = f.gaussian_simulate(m, n, 0.0, trials=20000, seed=10)
        exact = float(f.chi2_sf(n, n * 0.6 / 0.5))
        assert abs(sim.mean - exact) <= 3.0 * max(sim.stderr, 1e-6)

    def test_deterministic_given_seed(self, unit_model):
        a = f.gaussian_simulate(unit_model, 64, 12.0, trials=1000, seed=5)
        b = f.gaussian_simulate(unit_model, 64, 12.0, trials=1000, seed=5)
        assert a.mean == b.mean

    def test_empirical_mode_rejects_huge_codebooks(self, unit_model):
        with pytest.raises(ValueError):
            f.gaussian_simulate(unit_model, 10, 60.0, trials=10, mode="empirical")


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
        # locate the simulated eps = 0.1 crossing of ln M over a range of
        # blocklengths, then regress out the known higher-order shapes; the
        # sqrt(n) coefficient is the second-order rate term
        # blocklengths stay below the float-range ceiling for the cap
        # probabilities (the eps = 0.1 crossing needs ln M <= ~709)
        eps = 0.1
        rate = f.gaussian_crd(unit_model)
        ns = np.array([200, 400, 800, 1600])
        crossings = []
        for n in ns:
            params = f.sphere_cap_params(unit_model, int(n), 0.0)
            rng = np.random.default_rng(1000 + int(n))
            w = rng.chisquare(int(n), size=20000)
            xi = np.sqrt(unit_model.var_x_given_s * w)
            inside = (xi > max(params.r1, 0.0)) & (xi < params.r2)
            cos = ((xi[inside]**2 + params.r0**2 - n * unit_model.distortion)
                   / (2 * xi[inside] * params.r0))
            from fblcrd.gaussian import _exact_cap_fraction
            p_in = _exact_cap_fraction(cos, int(n))
            log_p = np.full(xi.shape, -np.inf)
            log_p[inside] = np.log(p_in)

            def eps_hat(log_m):
                with np.errstate(over="ignore"):
                    t = np.exp(log_m + np.log(-np.log1p(-np.exp(log_p))))
                return float(np.mean(np.exp(-t)))

            lo, hi = 0.0, 4.0 * n
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if eps_hat(mid) <= eps:
                    hi = mid
                else:
                    lo = mid
            crossings.append(hi)
        crossings = np.array(crossings)
        design = np.column_stack([np.sqrt(ns), np.log(ns), np.ones_like(ns)])
        coeffs, *_ = np.linalg.lstsq(design, crossings - ns * rate, rcond=None)
        target = math.sqrt(0.5) * f.gaussian_q_inv(eps)
        assert coeffs[0] == pytest.approx(target, rel=0.10)

import math
import warnings

import numpy as np
import pytest

import fblcrd as f
from oracles import entropy_decimal, gaussian_cdf_quadrature, q_inv_bisection


def test_gaussian_cdf_symmetry_and_tails():
    assert f.gaussian_cdf(0.0) == pytest.approx(0.5, abs=1e-16)
    assert f.gaussian_cdf(10.0) == pytest.approx(1.0, abs=1e-15)
    assert f.gaussian_cdf(-10.0) == pytest.approx(0.0, abs=1e-15)


def test_gaussian_cdf_against_quadrature():
    for t in (-2.3, -0.7, 0.31, 1.2815515655, 3.4):
        assert f.gaussian_cdf(t) == pytest.approx(gaussian_cdf_quadrature(t), abs=1e-9)


def test_cdf_plus_tail_is_one_on_grid():
    grid = np.linspace(-8.0, 8.0, 1000)
    assert np.abs(f.gaussian_cdf(grid) + f.gaussian_q(grid) - 1.0).max() <= 1e-14


def test_q_inv_median_and_oracle():
    assert f.gaussian_q_inv(0.5) == pytest.approx(0.0, abs=1e-15)
    assert f.gaussian_q_inv(0.1) == pytest.approx(q_inv_bisection(0.1), abs=1e-9)
    assert f.gaussian_q_inv(0.1) == pytest.approx(1.2815515655, abs=1e-9)


def test_q_inv_round_trip():
    # the t-side identity: for strongly negative t the tail probability
    # saturates toward 1 and float spacing alone costs ulp(1)/phi(t) > 1e-9,
    # so the 1e-9 check applies where double precision can represent it
    for t in np.linspace(-5.9, 5.9, 57):
        density = np.exp(-0.5 * t * t) / np.sqrt(2 * np.pi)
        tol = max(1e-9, 4.0 * np.finfo(float).eps / density)
        assert f.gaussian_q_inv(float(f.gaussian_q(t))) == pytest.approx(t, abs=tol)
    for t in np.linspace(-5.0, 5.9, 41):
        assert f.gaussian_q_inv(float(f.gaussian_q(t))) == pytest.approx(t, abs=1e-9)


def test_q_of_q_inv_round_trip():
    # the eps-side identity is well conditioned everywhere in (0, 1)
    for eps in np.geomspace(1e-9, 0.5, 40):
        assert f.gaussian_q(f.gaussian_q_inv(float(eps))) == pytest.approx(
            eps, rel=1e-12)


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.2, 1.7])
def test_q_inv_domain(eps):
    with pytest.raises(ValueError):
        f.gaussian_q_inv(eps)


def test_binary_entropy_boundary_and_max():
    assert f.binary_entropy(0.0) == 0.0
    assert f.binary_entropy(1.0) == 0.0
    assert f.binary_entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-15)


def test_binary_entropy_against_decimal():
    # 0.2 is not exactly representable; evaluate the oracle at the float's
    # exact decimal expansion so both sides see the same number
    p = 0.2
    expected = entropy_decimal(repr(p))
    assert f.binary_entropy(p) == pytest.approx(expected, abs=1e-15)
    assert f.binary_entropy(p) == pytest.approx(0.500402, abs=1e-6)


def test_binary_entropy_concavity_grid():
    grid = np.linspace(0.0, 1.0, 101)
    for p, q in zip(grid[:-1], grid[1:]):
        mid = f.binary_entropy((p + q) / 2.0)
        avg = (f.binary_entropy(p) + f.binary_entropy(q)) / 2.0
        assert mid >= avg - 1e-12


def test_berry_esseen_single_term():
    terms = f.berry_esseen_bound([(0.0, 1.0, 1.0)])
    assert terms.bound == pytest.approx(6.0, abs=1e-15)


def test_berry_esseen_identical_terms_scaling():
    # n identical terms: 6 n t1 / (n s1)^{3/2} = 6 t1 / (s1^{3/2} sqrt(n))
    n = 100
    s1, t1 = 0.25, 0.125   # Bernoulli(0.5)-derived moments
    agg = f.berry_esseen_bound([(0.5, s1, t1)] * n)
    assert agg.bound == pytest.approx(6.0 * t1 / (s1**1.5 * math.sqrt(n)), rel=1e-14)


def test_berry_esseen_bernoulli_self_information():
    # i.i.d. Bernoulli(0.11) self-information letters, moments by hand
    p = 0.11
    vals = np.array([-math.log(1.0 - p), -math.log(p)])
    probs = np.array([1.0 - p, p])
    mean = float(probs @ vals)
    var = float(probs @ (vals - mean) ** 2)
    abs3 = float(probs @ np.abs(vals - mean) ** 3)
    n = 1000
    agg = f.berry_esseen_bound([(mean, var, abs3)] * n)
    assert agg.sigma2 == pytest.approx(n * var, rel=1e-13)
    assert agg.bound == pytest.approx(6.0 * n * abs3 / (n * var) ** 1.5, rel=1e-12)


def test_berry_esseen_zero_variance_flag():
    assert math.isinf(f.berry_esseen_bound([(0.0, 0.0, 1.0)]).bound)
    assert f.berry_esseen_bound([(0.0, 0.0, 0.0)]).bound == 0.0
    with pytest.raises(ValueError):
        f.berry_esseen_bound([(0.0, -1.0, 1.0)])


def test_chi2_pdf_exponential_special_case():
    assert f.chi2_pdf(2, 0.0) == pytest.approx(0.5, abs=1e-16)
    assert f.chi2_pdf(2, 2.0) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-14)
    assert f.chi2_pdf(5, -1.0) == 0.0


def test_chi2_pdf_normalization():
    from scipy import integrate
    for k in (1, 2, 5, 50, 1000):
        upper = k + 60.0 * math.sqrt(2.0 * k) + 60.0
        total, _ = integrate.quad(lambda x: f.chi2_pdf(k, x), 0.0, upper,
                                  epsabs=1e-11, epsrel=1e-11, limit=300)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_chi2_pdf_quad_tight_for_k5():
    from scipy import integrate
    total, _ = integrate.quad(lambda x: f.chi2_pdf(5, x), 0.0, 200.0,
                              epsabs=1e-12, epsrel=1e-12, limit=300)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_chi2_logpdf_large_dof_finite():
    k = 10**6
    val = f.chi2_logpdf(k, float(k))
    assert np.isfinite(val)


def test_chi2_invalid_dof():
    with pytest.raises(ValueError):
        f.chi2_pdf(0, 1.0)


def test_pow_one_minus_endpoints():
    out = f.pow_one_minus(np.array([0.0, 1.0]), math.log(5.0))
    assert out.tolist() == [1.0, 0.0]


def test_pow_one_minus_huge_codebook_is_finite_and_quiet():
    p = np.array([1e-300, 1e-200, 1e-12, 0.3, 0.999])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = f.pow_one_minus(p, 800.0)
    assert np.all(np.isfinite(out))
    assert np.all((out >= 0.0) & (out <= 1.0))


def test_pow_one_minus_matches_direct_power_for_small_m():
    p = np.array([1e-6, 0.01, 0.25, 0.5, 0.9])
    for m in (1, 2, 7, 40):
        assert f.pow_one_minus(p, math.log(m)) == pytest.approx((1.0 - p) ** m,
                                                                rel=1e-12)

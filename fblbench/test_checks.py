"""The benchmark's checkers accept right values and reject wrong ones.

Every check is shown to reject a deliberately wrong value, so none of
them passes by construction; the reference evaluators are compared with
brute-force or plain-float versions where those are exact enough.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import betainc

import checks


def binary_row(c, D):
    return {"rate": checks.binary_rate(c, D), "V": checks.binary_dispersion(c)}


def test_binary_rate_shifted_by_1e4_is_rejected():
    c, D = 0.2, 0.07
    ref = {"family": "binary", "c": c, "D": D}
    assert checks.check_rd_row(binary_row(c, D), ref) == []
    row = binary_row(c, D)
    row["rate"] += 1e-4
    assert checks.check_rd_row(row, ref)


def test_qary_rate_shifted_by_1e4_is_rejected():
    ref = {"family": "qary", "q": 5, "D": 0.3}
    row = {"rate": checks.qary_rate(5, 0.3), "V": 0.0}
    assert checks.check_rd_row(row, ref) == []
    row["rate"] -= 1e-4
    assert checks.check_rd_row(row, ref)


def test_rate_above_conditional_entropy_is_rejected():
    pmf = np.array([[0.3, 0.2], [0.1, 0.4]])
    bound = checks.conditional_entropy(pmf)
    ref = {"family": "random", "pmf": pmf}
    assert checks.check_rd_row({"rate": bound}, ref) == []
    assert checks.check_rd_row({"rate": bound + 1e-4}, ref)
    assert checks.check_rd_row({"rate": -1e-4}, ref)


def binary_curve(c=0.25):
    d = np.linspace(0.05, 0.2, 6)
    rates = [checks.binary_rate(c, x) for x in d]
    slopes = [math.log((1.0 - x) / x) for x in d]     # |dR/dD| = ln((1-D)/D)
    return list(d), rates, slopes


def test_exact_curve_passes_grid_checks():
    assert checks.check_rd_grid(*binary_curve()) == {}


@pytest.mark.parametrize("side", [+1, -1])
def test_slope_outside_its_chords_is_rejected(side):
    d, rates, slopes = binary_curve()
    left = (rates[1] - rates[2]) / (d[2] - d[1])
    right = (rates[2] - rates[3]) / (d[3] - d[2])
    slopes[2] = left + 1e-3 if side > 0 else right - 1e-3
    assert 2 in checks.check_rd_grid(d, rates, slopes)


def test_non_monotone_or_concave_curve_is_rejected():
    d, rates, slopes = binary_curve()
    bumped = list(rates)
    bumped[3] = rates[2] + 1e-4
    assert 3 in checks.check_rd_grid(d, bumped, slopes)
    dented = list(rates)
    dented[2] += 0.02               # second difference here is about 0.009
    assert checks.check_rd_grid(d, dented, slopes)


def test_collapsed_rate_below_conditional_is_rejected():
    assert checks.check_collapsed(0.3, 0.3) == []
    assert checks.check_collapsed(0.3 + 1e-4, 0.3)


def fbl_row(converse, mc, se, forward):
    return {"converse_eps": converse, "achievability_eps_mc": mc,
            "achievability_stderr": se, "forward_bound": forward}


def test_eps_below_the_converse_is_rejected():
    assert checks.check_sandwich(fbl_row(0.05, 0.12, 0.004, 0.3)) == []
    # the collapsed random-coding estimate seen at n = 5000
    assert checks.check_sandwich(fbl_row(0.0743, 0.0, 0.0, 0.21))
    assert checks.check_sandwich(fbl_row(0.05, 0.12, 0.004, 0.1))


def test_binary_converse_matches_brute_force_and_rejects_a_shift():
    n, c, D, eps = 200, 0.2, 0.1, 0.1
    so_rate = checks.binary_rate(c, D) + math.sqrt(checks.binary_dispersion(c) / n) \
        * checks.q_inv(eps)
    log_m = so_rate * n
    v0 = -math.log(1 - c) - checks.h2(D)
    v1 = -math.log(c) - checks.h2(D)
    k = np.arange(n + 1)
    sums = n * v0 + k * (v1 - v0)
    pmf = stats.binom.pmf(k, n, c)
    brute = max(pmf[sums >= log_m + g].sum() - math.exp(-g)
                for g in checks.gamma_grid(n, checks.binary_dispersion(c)))
    assert checks.binary_converse(n, log_m, c, D) == pytest.approx(brute, abs=1e-12)
    row = fbl_row(brute, 0.2, 0.004, 0.4)
    row["second_order_rate"] = so_rate
    ref = {"n": n, "c": c, "D": D, "eps": eps}
    assert checks.check_fbl_binary(row, ref) == []
    row["converse_eps"] = brute + 1e-6
    assert checks.check_fbl_binary(row, ref)


def test_lattice_bracket_holds_the_exact_converse_and_not_a_shifted_one():
    values = np.array([0.1, 0.45, 1.3])
    probs = np.array([0.5, 0.3, 0.2])
    n = 40
    mean = probs @ values
    var = probs @ (values - mean) ** 2
    log_m = n * mean + 0.5 * math.sqrt(n * var)
    exact = -math.inf
    tails = {}
    for k1 in range(n + 1):
        for k2 in range(n + 1 - k1):
            k3 = n - k1 - k2
            p = stats.multinomial.pmf([k1, k2, k3], n, probs)
            tails[k1 * values[0] + k2 * values[1] + k3 * values[2]] = p
    for g in checks.gamma_grid(n, var):
        tail = sum(p for s, p in tails.items() if s >= log_m + g)
        exact = max(exact, tail - math.exp(-g))
    bracket = checks.lattice_converse_bracket(values, probs, n, log_m, 1e-9,
                                              np.random.default_rng(0))
    ok = fbl_row(max(exact, 0.0), 0.5, 0.01, 0.9)
    assert checks.check_fbl_lattice(ok, bracket) == []
    assert checks.check_fbl_lattice(fbl_row(exact + 0.05, 0.5, 0.01, 0.9), bracket)


def test_markov_reference_matches_summed_ladder():
    rng = np.random.default_rng(3)
    c, a, D = 0.3, 0.4, 0.1
    pmf = np.vstack([(1 - c) * np.array([1 - a, a]), c * np.array([1 - a, a])])
    pi = pmf.ravel()
    prop = rng.uniform(0.2, 1.0, size=(4, 4))
    prop = (prop + prop.T) / 8.0
    np.fill_diagonal(prop, 0.0)
    kern = prop * np.minimum(1.0, pi[None, :] / pi[:, None])
    np.fill_diagonal(kern, 1.0 - kern.sum(axis=1))
    xi = 0.9 * np.eye(4) + 0.1 * kern
    n, lags = 50, 30
    ref = checks.markov_reference(xi, pmf, c, D, n, ladder_lags=lags)
    jt = np.repeat(-np.log(pmf.sum(axis=1)) - checks.h2(c), 2)
    covs, w = [], jt.copy()
    for _ in range(5000):
        w = xi @ w
        covs.append(pi @ (jt * w))
    covs = np.array(covs)
    lag0 = pi @ jt**2
    assert ref["lag0"] == pytest.approx(lag0, rel=1e-12)
    assert ref["v_inf"] == pytest.approx(lag0 + 2 * covs.sum(), rel=1e-9)
    assert ref["v_inf_ladder"] == pytest.approx(lag0 + 2 * covs[:lags].sum(), rel=1e-9)
    k = np.arange(1, n + 1)
    assert ref["v_n"] == pytest.approx(lag0 + 2 / n * ((n - k) * covs[:n]).sum(), rel=1e-9)
    assert ref["mu"] == pytest.approx(checks.binary_rate(c, D))
    row = {"mu": ref["mu"], "lag0": ref["lag0"], "v_inf_spectral": ref["v_inf"],
           "v_inf_ladder": ref["v_inf_ladder"], "v_n": ref["v_n"], "n": n,
           "second_order_rate": ref["mu"] + math.sqrt(ref["v_inf_ladder"] / n)
           * checks.q_inv(0.1)}
    assert checks.check_markov_row(row, ref, eps=0.1) == []
    row["v_inf_spectral"] *= 1 + 1e-5
    assert checks.check_markov_row(row, ref, eps=0.1)


def plain_cap_eps(var_x, var_z, D, n, log_m):
    """Float version of E[(1 - f(W))^M]; fine while M f stays in range."""
    var = var_x * var_z / (var_x + var_z)
    r0 = math.sqrt(n * (var - D))
    rd = math.sqrt(n * D)
    w1, w2 = (r0 - rd) ** 2 / var, (r0 + rd) ** 2 / var

    def integrand(w):
        xi = math.sqrt(var * w)
        cos = (xi * xi + r0 * r0 - n * D) / (2 * xi * r0)
        half = 0.5 * betainc(0.5 * (n - 1), 0.5, max(1 - cos * cos, 0.0))
        f = half if cos >= 0 else 1 - half
        return stats.chi2.pdf(w, n) * math.exp(math.exp(log_m) * math.log1p(-f))

    val, _ = integrate.quad(integrand, w1, w2, limit=400, epsabs=1e-13)
    tails = stats.chi2.sf(w2, n) + (stats.chi2.cdf(w1, n) if r0 > rd else 0.0)
    return val + tails


def gaussian_case(n=40):
    var_x, var_z, D, eps = 1.0, 1.0, 0.2, 0.1
    so_rate = checks.gaussian_rate(var_x, var_z, D) + math.sqrt(0.5 / n) * checks.q_inv(eps)
    return var_x, var_z, D, n, so_rate


def test_log_domain_cap_eps_matches_plain_float_evaluation():
    var_x, var_z, D, n, so_rate = gaussian_case()
    log_m = so_rate * n
    exact = checks.cap_code_eps(var_x, var_z, D, n, log_m, fraction="exact")
    assert exact == pytest.approx(plain_cap_eps(var_x, var_z, D, n, log_m), abs=1e-7)
    sakrison = checks.cap_code_eps(var_x, var_z, D, n, log_m, fraction="sakrison")
    assert exact <= sakrison                 # the sin^(n-1) area is a lower bound


def test_saturated_gaussian_eps_is_rejected():
    var_x, var_z, D, n, so_rate = gaussian_case()
    log_m = so_rate * n
    exact = checks.cap_code_eps(var_x, var_z, D, n, log_m, fraction="exact")
    sakrison = checks.cap_code_eps(var_x, var_z, D, n, log_m, fraction="sakrison")
    ref = {"var_x": var_x, "var_z": var_z, "D": D, "n": n}
    row = {"rate": checks.gaussian_rate(var_x, var_z, D), "second_order_rate": so_rate,
           "converse_eps": checks.gaussian_converse(var_x, var_z, D, n, log_m),
           "sim_eps": exact + 0.001, "sim_stderr": 0.0005, "cap_bound": sakrison}
    assert checks.check_gaussian(row, ref, exact, sakrison) == []
    row.update(sim_eps=1.0, sim_stderr=0.0, cap_bound=1.0)
    reasons = checks.check_gaussian(row, ref, exact, sakrison)
    assert any("simulated eps" in r for r in reasons)
    assert any("cap_bound" in r for r in reasons)

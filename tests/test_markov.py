import math

import numpy as np
import pytest

import fblcrd as f
from fblcrd.exceptions import ValidationError
from oracles import sample_markov_stepwise

HAMMING = f.DistortionSpec([[0.0, 1.0], [1.0, 0.0]])


def random_chain(rng, x_size, s_size, concentration=1.0):
    k = x_size * s_size
    xi = rng.dirichlet(np.full(k, concentration), size=k)
    return xi


@pytest.fixture(scope="module")
def two_by_two_model():
    rng = np.random.default_rng(11)
    xi = random_chain(rng, 2, 2)
    return f.MarkovModel(xi, 2, 2, HAMMING)


class TestStationaryLaw:
    def test_iid_kernel_recovers_row(self):
        q = np.array([0.1, 0.2, 0.3, 0.4])
        pi = f.stationary_law(np.tile(q, (4, 1)))
        assert np.abs(pi - q).max() <= 1e-14

    def test_symmetric_two_state_flip(self):
        for p in (0.1, 0.3, 0.45):
            xi = np.array([[1 - p, p], [p, 1 - p]])
            pi = f.stationary_law(xi)
            assert np.abs(pi - 0.5).max() <= 1e-12

    def test_random_chain_vs_linear_solve(self):
        rng = np.random.default_rng(23)
        xi = random_chain(rng, 2, 2)
        pi = f.stationary_law(xi)
        assert np.abs(pi @ xi - pi).max() <= 1e-12
        # oracle: null space of (Xi^T - I) with the normalization row
        a = np.vstack([xi.T - np.eye(4), np.ones(4)])
        b = np.concatenate([np.zeros(4), [1.0]])
        ref, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert np.abs(pi - ref).max() <= 1e-10

    def test_law_stays_nonnegative_below_rounding(self):
        # states 1-3 carry stationary mass near 1e-16, the solve's rounding
        eps = 1e-16
        xi = np.array([[1 - eps, eps, 0.0, 0.0],
                       [0.5, 0.499, 0.001, 0.0],
                       [0.3, 0.3, 0.3, 0.1],
                       [0.25, 0.25, 0.25, 0.25]])
        pi = f.stationary_law(xi)
        assert pi.min() >= 0.0
        assert np.abs(pi @ xi - pi).max() <= 1e-12

    def test_reducible_chain_names_states(self):
        xi = np.array([[1.0, 0.0, 0.0, 0.0],
                       [0.0, 1.0, 0.0, 0.0],
                       [0.0, 0.0, 0.5, 0.5],
                       [0.0, 0.0, 0.5, 0.5]])
        with pytest.raises(ValidationError, match="reducible"):
            f.stationary_law(xi)

    def test_periodic_chain_rejected(self):
        xi = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError, match="periodic"):
            f.MarkovModel(xi, 1, 2, f.DistortionSpec([[0.0, 1.0]]))

    def test_row_sum_violation(self):
        xi = np.array([[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(ValidationError, match="sums to"):
            f.stationary_law(xi)


class TestCovarianceLadder:
    def test_iid_kernel_has_no_memory(self, binary_instance):
        xi = f.iid_kernel(binary_instance.source.pmf)
        model = f.MarkovModel(xi, 2, 2, HAMMING)
        qt = f.markov_tilted_quantities(model, 0.1)
        assert np.abs(qt.ladder.covs).max() <= 1e-14
        field = f.tilted_density(f.solve_crd(binary_instance, 0.1))
        assert qt.ladder.v_inf == pytest.approx(field.variance, abs=1e-9)
        assert qt.mu == pytest.approx(field.mean, abs=1e-9)

    def test_constant_density_gives_zero_variance(self):
        # uniform conditional everywhere: the tilted density is constant in
        # x, and with a symmetric chain the variance collapses
        xi = np.array([[0.25] * 4] * 4)
        model = f.MarkovModel(xi, 2, 2, HAMMING)
        qt = f.markov_tilted_quantities(model, 0.1)
        assert qt.ladder.lag0 == pytest.approx(0.0, abs=1e-12)
        assert qt.ladder.v_inf == pytest.approx(0.0, abs=1e-12)

    def test_lagged_covariance_matches_sampled_path(self, two_by_two_model):
        qt = f.markov_tilted_quantities(two_by_two_model, 0.1)
        j_flat = qt.field.table.reshape(-1)
        path = f.sample_markov(two_by_two_model, 1_000_000, seed=77)
        states = path.x * two_by_two_model.s_size + path.s
        series = j_flat[states]
        mu = qt.mu
        for lag in (1, 2, 3):
            prod = (series[:-lag] - mu) * (series[lag:] - mu)
            # dependent data: estimate the standard error by batch means
            n_batches = 1000
            batches = np.array_split(prod, n_batches)
            means = np.array([b.mean() for b in batches])
            stderr = means.std(ddof=1) / math.sqrt(n_batches)
            assert abs(prod.mean() - qt.ladder.covs[lag - 1]) <= 3.0 * stderr


class TestVn:
    def test_single_letter_is_lag0(self, two_by_two_model):
        qt = f.markov_tilted_quantities(two_by_two_model, 0.1)
        assert f.v_n(qt.ladder, 1) == pytest.approx(qt.ladder.lag0, abs=1e-15)

    def test_iid_kernel_flat_in_n(self, binary_instance):
        xi = f.iid_kernel(binary_instance.source.pmf)
        model = f.MarkovModel(xi, 2, 2, HAMMING)
        qt = f.markov_tilted_quantities(model, 0.1)
        for n in (1, 10, 1000):
            assert f.v_n(qt.ladder, n) == pytest.approx(qt.ladder.lag0, abs=1e-12)

    def test_convergence_to_asymptotic_value(self, two_by_two_model):
        qt = f.markov_tilted_quantities(two_by_two_model, 0.1)
        gaps = [abs(f.v_n(qt.ladder, 2**k) - qt.ladder.v_inf)
                for k in range(6, 15)]
        assert all(a >= b - 1e-15 for a, b in zip(gaps[:-1], gaps[1:]))
        # remainder bound: the ladder's own weights plus its exact truncation
        k = np.arange(1, len(qt.ladder.covs) + 1)
        n = 2**14
        truncation = f.v_inf_spectral(two_by_two_model, qt) - qt.ladder.v_inf
        remainder = (2.0 / n) * float((k * np.abs(qt.ladder.covs)).sum()) \
            + abs(truncation)
        assert gaps[-1] <= remainder + 1e-12


class TestSpectral:
    def test_iid_kernel_spectrum_collapses(self, binary_instance):
        xi = f.iid_kernel(binary_instance.source.pmf)
        model = f.MarkovModel(xi, 2, 2, HAMMING)
        qt = f.markov_tilted_quantities(model, 0.1)
        v = f.v_inf_spectral(model, qt)
        assert v == pytest.approx(qt.ladder.lag0, abs=1e-9)

    def test_two_state_chain_agreement(self):
        p = 0.2
        xi_flip = np.array([[1 - p, p], [p, 1 - p]])
        # embed the two-state flip in the side-information component
        xi = np.kron(xi_flip, np.array([[0.7, 0.3], [0.3, 0.7]]))
        model = f.MarkovModel(xi, 2, 2, HAMMING)
        qt = f.markov_tilted_quantities(model, 0.1)
        v = f.v_inf_spectral(model, qt)
        assert v == pytest.approx(qt.ladder.v_inf, abs=1e-8)

    def test_defective_chain(self):
        # the eigenvalue 5/8 is double with a single eigenvector (a Jordan
        # block), so no eigenbasis exists; the closed form needs none
        xi = np.array([[7 / 8, 1 / 8, 0.0],
                       [0.0, 7 / 8, 1 / 8],
                       [1 / 2, 0.0, 1 / 2]])
        d = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
        model = f.MarkovModel(xi, 3, 1, f.DistortionSpec(d))
        inst = model.stationary_instance()
        budget = inst.d_floor + 0.45 * (inst.zero_rate_distortion - inst.d_floor)
        qt = f.markov_tilted_quantities(model, budget)
        v = f.v_inf_spectral(model, qt)
        assert abs(v - qt.ladder.v_inf) <= 1e-12 * v

    def test_random_diagonalizable_chains(self):
        rng = np.random.default_rng(200)
        shapes = [(2, 2), (2, 3), (3, 2), (2, 4)]
        for _ in range(6):
            x_size, s_size = shapes[int(rng.integers(len(shapes)))]
            xi = random_chain(rng, int(x_size), int(s_size))
            d = rng.uniform(0, 1, (int(x_size), int(x_size)))
            model = f.MarkovModel(xi, int(x_size), int(s_size), f.DistortionSpec(d))
            inst = model.stationary_instance()
            budget = inst.d_floor + 0.45 * (inst.zero_rate_distortion - inst.d_floor)
            qt = f.markov_tilted_quantities(model, budget)
            v = f.v_inf_spectral(model, qt)
            assert v == pytest.approx(qt.ladder.v_inf, abs=1e-6)


class TestSecondOrderRate:
    def test_median_gives_stationary_rate(self, two_by_two_model):
        qt = f.markov_tilted_quantities(two_by_two_model, 0.1)
        got = f.second_order_rate(500, 0.5, qt.mu, qt.ladder.v_inf)
        assert got == pytest.approx(qt.mu, abs=1e-12)

    def test_iid_kernel_matches_memoryless_prediction(self, binary_instance):
        xi = f.iid_kernel(binary_instance.source.pmf)
        model = f.MarkovModel(xi, 2, 2, HAMMING)
        qt = f.markov_tilted_quantities(model, 0.1)
        sol = f.solve_crd(binary_instance, 0.1)
        field = f.tilted_density(sol)
        for n in (100, 1000):
            markov = f.second_order_rate(n, 0.1, qt.mu, qt.ladder.v_inf)
            memoryless = f.second_order_rate(n, 0.1, sol.rate, field.variance)
            assert markov == pytest.approx(memoryless, abs=1e-8)

    def test_positive_memory_raises_the_rate(self):
        # sticky side information with state-dependent conditionals: the
        # tilted density inherits positive lag correlations, so the
        # prediction exceeds the matched memoryless one at small eps
        flip = 0.1
        s_kernel = np.array([[1 - flip, flip], [flip, 1 - flip]])
        cond = {0: np.array([0.85, 0.15]), 1: np.array([0.65, 0.35])}
        xi = np.zeros((4, 4))
        for x in range(2):
            for s in range(2):
                for x2 in range(2):
                    for s2 in range(2):
                        xi[x * 2 + s, x2 * 2 + s2] = s_kernel[s, s2] * cond[s2][x2]
        model = f.MarkovModel(xi, 2, 2, HAMMING)
        qt = f.markov_tilted_quantities(model, 0.1)
        assert float(qt.ladder.covs[:10].sum()) > 1e-6
        markov = f.second_order_rate(500, 0.1, qt.mu, qt.ladder.v_inf)
        memoryless = qt.mu + math.sqrt(qt.ladder.lag0 / 500) * f.gaussian_q_inv(0.1)
        assert markov > memoryless + 1e-6


class TestSampling:
    @pytest.mark.parametrize("n", [1, 2, 4097, 10_000])
    def test_stream_matches_stepwise_walk(self, two_by_two_model, n):
        rng = np.random.default_rng(41)
        models = (two_by_two_model,
                  f.MarkovModel(random_chain(rng, 3, 2, concentration=0.3), 3, 2,
                                f.DistortionSpec(np.abs(np.subtract.outer(
                                    np.arange(3.0), np.arange(3.0))))))
        for model in models:
            for seed in (0, (900, 3)):
                got = f.sample_markov(model, n, seed=seed)
                want = sample_markov_stepwise(model, n, seed=seed)
                assert np.array_equal(got.x, want.x) and np.array_equal(got.s, want.s)

    def test_deterministic(self, two_by_two_model):
        a = f.sample_markov(two_by_two_model, 500, seed=3)
        b = f.sample_markov(two_by_two_model, 500, seed=3)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.s, b.s)

    def test_transition_frequencies(self, two_by_two_model):
        n = 100_000
        path = f.sample_markov(two_by_two_model, n, seed=5)
        states = path.x * two_by_two_model.s_size + path.s
        xi = two_by_two_model.xi
        for u in range(4):
            mask = states[:-1] == u
            visits = int(mask.sum())
            for v in range(4):
                emp = np.mean(states[1:][mask] == v)
                p = xi[u, v]
                stderr = math.sqrt(max(p * (1 - p), 1e-12) / visits)
                assert abs(emp - p) <= 3.5 * stderr

    def test_iid_kernel_indistinguishable_from_iid_sampling(self, binary_instance):
        xi = f.iid_kernel(binary_instance.source.pmf)
        model = f.MarkovModel(xi, 2, 2, HAMMING)
        n = 50_000
        path = f.sample_markov(model, n, seed=21)
        counts = np.zeros(4)
        states = path.x * 2 + path.s
        for u in range(4):
            counts[u] = np.sum(states == u)
        expected = binary_instance.source.pmf.reshape(-1) * n
        chi2_stat = float(((counts - expected) ** 2 / expected).sum())
        p_value = float(f.chi2_sf(3, chi2_stat))
        assert p_value > 0.001


class TestConverseConsistency:
    def test_tail_tracks_second_order_prediction(self, two_by_two_model):
        # Monte-Carlo tail of the tilted sum along sampled paths against the
        # second-order prediction; deviations must shrink within a fitted
        # mixing-rate window (trend test, no universal constant exists)
        model = two_by_two_model
        qt = f.markov_tilted_quantities(model, 0.1)
        j_flat = qt.field.table.reshape(-1)
        eps = 0.1
        devs = []
        ns = (256, 1024, 4096)
        for n in ns:
            rate = f.second_order_rate(n, eps, qt.mu, qt.ladder.v_inf)
            gamma = 0.5 * math.log(n)
            threshold = n * rate + gamma
            trials = 4000
            hits = 0
            rng_seed = 900 + n
            for chunk in range(4):
                path = f.sample_markov(model, n * (trials // 4), seed=(rng_seed, chunk))
                states = (path.x * model.s_size + path.s).reshape(trials // 4, n)
                sums = j_flat[states].sum(axis=1)
                hits += int((sums >= threshold).sum())
            tail = hits / trials - math.exp(-gamma)
            devs.append(abs(tail - eps))
        envelope = [math.log(n) ** 1.5 / math.sqrt(n) for n in ns]
        fitted = max(d / e for d, e in zip(devs, envelope))
        assert fitted * envelope[-1] < 0.5      # window remains informative
        assert devs[-1] <= devs[0] + 0.02       # deviations do not grow


def test_markov_model_json(tmp_path):
    import json
    rng = np.random.default_rng(31)
    xi = random_chain(rng, 2, 2)
    doc = {"x_size": 2, "s_size": 2, "xi": xi.tolist(),
           "d": [[0.0, 1.0], [1.0, 0.0]]}
    path = tmp_path / "markov.json"
    path.write_text(json.dumps(doc))
    model = f.load_markov_model(path)
    assert model.k == 4
    assert np.abs(model.pi @ model.xi - model.pi).max() <= 1e-12
    with pytest.raises(ValidationError, match="missing required key"):
        bad = tmp_path / "missing.json"
        bad.write_text(json.dumps({"x_size": 2}))
        f.load_markov_model(bad)

import itertools
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.special import gammaln, logsumexp

import fblcrd as f
from conftest import random_instance
from oracles import exact_random_code, exact_tilted_tail, self_convolve, self_convolve_direct

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
ABS_3 = f.DistortionSpec(np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0))))


def lattice_reference(values, probs, n):
    """(values, pmf) of the n-fold sum over the whole lattice sum_distribution
    quantizes to, by binary exponentiation."""
    v, p = f.bounds._dedupe_atoms(values, probs)
    q = max(f.bounds.DEFAULT_RESOLUTION, (v[-1] - v[0]) * n / f.bounds.MAX_BINS)
    offs = np.rint((v - v[0]) / q).astype(np.int64)
    base = np.zeros(int(offs.max()) + 1)
    np.add.at(base, offs, p)
    ref = self_convolve(base, n)
    ref /= ref.sum()
    return n * v[0] + q * np.arange(len(ref)), ref


def assert_tails_match(dist, ref_values, ref, thresholds, tol):
    suffix = np.append(np.cumsum(ref[::-1])[::-1], 0.0)
    for t in thresholds:
        k = int(np.searchsorted(ref_values, t))
        assert dist.tail_ge(float(t)) == pytest.approx(suffix[k], abs=tol)


@pytest.fixture(scope="module")
def binary_pieces(binary_instance, binary_solution, binary_field):
    return binary_instance, binary_solution, binary_field


@pytest.fixture(scope="module")
def ternary_field():
    """Six-atom tilted field of a ternary source with two states, |x - y| loss."""
    pmf = np.random.default_rng(701).dirichlet(np.full(6, 5.0)).reshape(3, 2)
    inst = f.validate(f.JointSource(pmf), ABS_3)
    return f.tilted_density(f.solve_crd(inst, 0.4 * inst.zero_rate_distortion))


@pytest.fixture(scope="module")
def ternary_reference(ternary_field):
    """The n = 600 tilted sum of ``ternary_field``: (window, whole-lattice reference)."""
    n = 600
    return (f.tilted_sum_distribution(ternary_field, n),
            lattice_reference(ternary_field.atoms_value, ternary_field.atoms_prob, n))


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
        dist = f.sum_distribution(vals, probs, n)
        assert dist.pmf.sum() == pytest.approx(1.0, abs=1e-9)
        span = vals.max() - vals.min()
        q_eff = max(f.bounds.DEFAULT_RESOLUTION, span * n / f.bounds.MAX_BINS)
        assert dist.quantization_bound <= n * q_eff * (1 + 1e-12)
        assert dist.mean() == pytest.approx(n * float(vals @ probs),
                                            abs=dist.quantization_bound)

    def test_lattice_coarsens_to_budget(self, monkeypatch):
        rng = np.random.default_rng(9)
        vals = rng.uniform(0, 1, 4)
        probs = rng.dirichlet(np.ones(4))
        monkeypatch.setattr(f.bounds, "MAX_BINS", 1 << 18)
        dist = f.sum_distribution(vals, probs, 2000)
        assert len(dist.pmf) <= (1 << 18) + 2000

    def test_lattice_matches_enumeration_at_small_n(self):
        pmf = np.array([[0.35, 0.15], [0.2, 0.3]])
        inst = f.validate(f.JointSource(pmf), f.DistortionSpec([[0.0, 0.7], [1.3, 0.2]]))
        field = f.tilted_density(f.solve_crd(inst, 0.5 * inst.zero_rate_distortion))
        values = np.unique(field.atoms_value[field.atoms_prob > 0])
        assert values.size == 4
        n = 8
        dist = f.tilted_sum_distribution(field, n)
        sums = np.array([sum(c) for c in
                         itertools.combinations_with_replacement(values, n)])
        grid = np.linspace(n * values[0] - 0.1, n * values[-1] + 0.1, 201)
        # thresholds the lattice rounding (at most n q) cannot move across a sum
        away = [t for t in grid
                if np.abs(sums - t).min() > 2.0 * dist.quantization_bound]
        assert len(away) > 100
        exact = exact_tilted_tail(field, n, away)
        got = np.array([dist.tail_ge(t) for t in away])
        np.testing.assert_allclose(got, exact, rtol=0.0, atol=1e-12)

    def test_full_budget_matches_binary_exponentiation(self, ternary_reference):
        dist, (ref_values, ref) = ternary_reference
        mean, sd = dist.mean(), math.sqrt(dist.variance())
        assert len(dist.pmf) < len(ref)
        assert dist.values[0] < mean - 10.0 * sd < mean + 10.0 * sd < dist.values[-1]
        suffix = np.cumsum(ref[::-1])[::-1]
        for t in np.linspace(mean - 3.0 * sd, mean + 5.0 * sd, 81):
            k = int(np.searchsorted(ref_values, t))
            assert dist.tail_ge(float(t)) == pytest.approx(suffix[k], abs=1e-12)

    def test_window_edges_match_binary_exponentiation(self, ternary_reference):
        dist, (ref_values, ref) = ternary_reference
        assert dist.values[0] > ref_values[0] and dist.values[-1] < ref_values[-1]
        tol = 1e-12 + dist.aliasing_bound
        # below and above the window: all of the mass, none of it
        assert dist.tail_ge(dist.values[0] - 1.0) == pytest.approx(1.0, abs=1e-12)
        assert dist.tail_ge(float(dist.values[0])) == pytest.approx(1.0, abs=1e-12)
        assert dist.tail_ge(dist.values[-1] + 1e-9) == 0.0
        assert_tails_match(dist, ref_values, ref,
                           np.linspace(dist.values[0] - 1.0, dist.values[-1] + 1.0, 201), tol)
        for log_gamma in np.linspace(dist.values[0], dist.values[-1], 9):
            expected = float(ref @ np.exp(np.minimum(log_gamma - ref_values, 0.0)))
            assert dist.expect_capped_exp(float(log_gamma)) == pytest.approx(expected, abs=tol)

    def test_window_clamps_at_the_low_end_of_a_skewed_support(self):
        vals, probs, n = [0.0, 0.5, 10.0], [0.9, 0.09, 0.01], 600
        dist = f.sum_distribution(vals, probs, n)
        q = 10.0 * n / f.bounds.MAX_BINS
        steps = round(0.5 / q), round(10.0 / q)
        lattice = q * np.arange(n * steps[1] + 1)
        assert dist.values[0] == 0.0 and len(dist.pmf) < len(lattice)
        mean, sd = dist.mean(), math.sqrt(dist.variance())
        assert mean + 3.0 * sd < 0.1 * dist.values[-1]
        # the exact trinomial law on the same lattice: the transform's noise is
        # zero-mean and left unclipped, so the tails carry no bias beyond the
        # enumeration's own normalisation error of about 2.1e-13
        k1, k2 = np.tril_indices(n + 1)
        k1, k0 = k1 - k2, n - k1
        logpmf = (gammaln(n + 1) - gammaln(k0 + 1) - gammaln(k1 + 1) - gammaln(k2 + 1)
                  + k0 * math.log(0.9) + k1 * math.log(0.09) + k2 * math.log(0.01))
        exact = np.bincount(k1 * steps[0] + k2 * steps[1], weights=np.exp(logpmf),
                            minlength=len(lattice))
        assert_tails_match(dist, lattice, exact,
                           np.linspace(0.0, dist.values[-1] + 1.0, 201),
                           3e-13 + dist.aliasing_bound)

    def test_aliasing_bound(self):
        assert f.sum_distribution([0.25, 1.5], [0.7, 0.3], 600).aliasing_bound == 0.0
        assert f.sum_distribution([0.4], [1.0], 600).aliasing_bound == 0.0
        # n = 40 spans fewer bins than the window: the whole lattice, no folding
        assert f.sum_distribution([0.0, 0.37, 1.9], [0.5, 0.3, 0.2], 40).aliasing_bound == 0.0
        windowed = f.sum_distribution([0.0, 0.37, 1.9], [0.5, 0.3, 0.2], 600)
        assert 0.0 < windowed.aliasing_bound <= f.bounds._ALIAS_MASS

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak resident set from /proc")
    def test_full_budget_build_memory(self):
        # one full-budget build at n = 600: a single transform over the
        # 3.3 M-bin window grows the peak by ~130 MB; over the whole
        # 2^23-bin lattice it took ~260 MB, binary exponentiation ~615 MB.
        # VmHWM, not ru_maxrss: a child's ru_maxrss starts from the peak of
        # the process that forked it, here the test runner's.
        code = textwrap.dedent("""
            import fblcrd as f

            def peak_mb():
                with open("/proc/self/status") as fh:
                    line = next(x for x in fh if x.startswith("VmHWM:"))
                return int(line.split()[1]) / 1024.0

            before = peak_mb()
            dist = f.sum_distribution([0.0, 0.37, 1.9], [0.5, 0.3, 0.2], 600)
            print(len(dist.pmf), peak_mb() - before)
        """)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr[-2000:]
        bins, growth_mb = result.stdout.split()
        # the Hoeffding window's length on the per-letter span of K bins
        n = 600
        span_bins = round(1.9 / (1.9 * n / f.bounds.MAX_BINS))
        half = span_bins * math.sqrt(n * math.log(2.0 / f.bounds._ALIAS_MASS) / 2.0)
        assert int(bins) == next_fast_len(math.ceil(2.0 * half) + 2, real=True)
        assert float(growth_mb) < 200.0

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
        dist = f.sum_distribution(vals, probs, n)
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


class TestDistortionConvolver:
    def test_mfold_lower_tail_matches_direct_convolution(self):
        # a cover probability of order 1e-30 survives only direct
        # convolution or a tilted transform; an untilted FFT would bury it
        # under ~1e-16 of noise per bin
        inst = f.validate(f.JointSource(np.array([[0.5], [0.3], [0.2]])), ABS_3)
        sol = f.solve_crd(inst, 0.3)
        laws = np.broadcast_to([0.2, 0.3, 0.5], (3, 1, 3))
        m = 600
        conv = f.bounds._DistortionConvolver(sol, m, laws)
        cdf = np.cumsum(self_convolve_direct([0.2, 0.3, 0.5], m))
        t = int(np.searchsorted(cdf, 1e-30, side="right")) - 1
        assert 1e-45 < cdf[t] <= 1e-30
        got = math.exp(conv.log_interval_probs([[m, 0, 0]], 0.0, float(t))[0])
        assert got == pytest.approx(cdf[t], rel=1e-9, abs=0.0)

    def test_two_valued_kernel_with_a_negligible_atom(self, binary_solution):
        # the zero-distortion output has probability 4e-22, so the other
        # atom's normalised probability is exactly 1.0
        laws = np.broadcast_to([4e-22, 1.0], (2, 2, 2))
        m = 50
        conv = f.bounds._DistortionConvolver(binary_solution, m, laws)
        got = math.exp(conv.log_interval_probs([[m, 0, 0, 0]], 0.0, m - 1.0)[0])
        assert got == pytest.approx(m * 4e-22, rel=1e-9, abs=0.0)

    @pytest.fixture(scope="class")
    def unit_kernel(self):
        """The kernel [0.2, 0.3, 0.5] at m = 600 and its law by direct convolution."""
        inst = f.validate(f.JointSource(np.array([[0.5], [0.3], [0.2]])), ABS_3)
        laws = np.broadcast_to([0.2, 0.3, 0.5], (3, 1, 3))
        m = 600
        conv = f.bounds._DistortionConvolver(f.solve_crd(inst, 0.3), m, laws)
        return conv, m, self_convolve_direct([0.2, 0.3, 0.5], m)

    def test_every_threshold_matches_direct_convolution(self, unit_kernel):
        # lower tails from 0.2^600 (underflows in the direct law) to p -> 1
        conv, m, pmf = unit_kernel
        cdf = np.cumsum(pmf)
        got = np.array([conv.log_interval_probs([[m, 0, 0]], 0.0, float(t))[0]
                        for t in range(2 * m + 1)])
        assert got[-1] == 0.0
        ok = cdf > 1e-300
        assert ok.sum() > 1000
        assert cdf[-2] > 1.0 - 1e-15
        np.testing.assert_allclose(np.exp(got[ok]), cdf[ok], rtol=1e-11, atol=0.0)

    def test_interval_wholly_above_the_mean(self, unit_kernel):
        conv, m, pmf = unit_kernel
        mean = float(np.arange(len(pmf)) @ pmf)
        for lo, hi in ((1000, 1100), (1150, 1190), (1199, 1200), (900, 1200)):
            assert lo > mean
            got = conv.log_interval_probs([[m, 0, 0]], float(lo), float(hi))[0]
            assert math.exp(got) == pytest.approx(pmf[lo:hi + 1].sum(), rel=1e-11, abs=0.0)

    def test_empty_interval_is_minus_infinity(self, unit_kernel):
        conv, m, _ = unit_kernel
        counts = [[m, 0, 0]] * 3
        got = conv.log_interval_probs(counts, 2 * m + 0.5, 3 * m)
        assert np.all(got == -np.inf)
        assert conv.log_interval_probs(counts, -5.0, -0.5).tolist() == [-np.inf] * 3
        assert conv.log_interval_probs(counts, 0.4, 0.6).tolist() == [-np.inf] * 3
        assert conv.log_interval_probs(counts, -1.0, 2.0 * m).tolist() == [0.0] * 3

    def test_row_does_not_depend_on_its_slab(self, binary_solution, monkeypatch):
        laws = f.bounds._codeword_laws(binary_solution)
        n = 300
        conv = f.bounds._DistortionConvolver(binary_solution, n, laws)
        counts = conv.draw_counts(np.random.default_rng(5), 97)
        whole = conv.log_interval_probs(counts, 0.0, 0.1 * n)
        alone = np.array([conv.log_interval_probs(c[None], 0.0, 0.1 * n)[0] for c in counts])
        monkeypatch.setattr(f.bounds, "_SLAB_BINS", 7 * conv.nfft)
        slabs_of_7 = conv.log_interval_probs(counts[::-1], 0.0, 0.1 * n)[::-1]
        assert np.all(np.isfinite(whole))
        assert whole.tobytes() == alone.tobytes() == slabs_of_7.tobytes()

    def test_cover_probabilities_past_exp_underflow(self, binary_solution):
        # n = 5000 binary-Hamming rows: ln p well below -745, against a
        # log-domain oracle: per class a binomial count of misses (d = 1
        # exactly when y != x), combined by logsumexp convolutions
        n, D = 5000, 0.1
        conv = f.bounds._DistortionConvolver(binary_solution, n,
                                             f.bounds._codeword_laws(binary_solution))
        counts = conv.draw_counts(np.random.default_rng(7), 6)
        got = conv.log_interval_probs(counts, 0.0, n * D)
        assert np.all(got < -745.0)
        cover = int(math.floor(n * D + 1e-9))
        classes = np.argwhere(binary_solution.instance.source.pmf > 0)
        head = np.arange(cover + 1)
        for row, value in zip(counts, got):
            law = np.where(head == 0, 0.0, -np.inf)
            for (x, s), m in zip(classes, row):
                miss = binary_solution.induced[s, 1 - x]
                k = np.minimum(head, m)
                binom = np.where(head <= m,
                                 gammaln(m + 1) - gammaln(k + 1) - gammaln(m - k + 1)
                                 + k * math.log(miss) + (m - k) * math.log1p(-miss), -np.inf)
                # law'(v) = logsumexp_i law(i) + binom(v - i), v <= cover
                pairs = law[None, :] + np.where(head[:, None] >= head[None, :],
                                                binom[np.maximum(head[:, None] - head, 0)],
                                                -np.inf)
                law = logsumexp(pairs, axis=1)
            assert value == pytest.approx(logsumexp(law), rel=0.0, abs=1e-9)


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
        exact = exact_random_code(query, sol)
        mc = f.simulate_random_code(query, sol, trials=30000, seed=12)
        assert abs(mc.value - exact) <= 3.0 * mc.mc_stderr

    def test_deterministic_given_seed(self, binary_pieces):
        inst, sol, field = binary_pieces
        query = f.FblQuery.from_rate(64, 0.1, 0.25)
        a = f.simulate_random_code(query, sol, trials=500, seed=3)
        b = f.simulate_random_code(query, sol, trials=500, seed=3)
        assert a.value == b.value and a.mc_stderr == b.mc_stderr

    def test_thread_count_does_not_change_result(self, binary_pieces, monkeypatch):
        inst, sol, field = binary_pieces
        query = f.FblQuery.from_rate(128, 0.1, 0.22)
        monkeypatch.setattr(f.bounds, "_MC_CHUNK", 128)
        serial = f.simulate_random_code(query, sol, trials=600, seed=4, threads=1)
        threaded = f.simulate_random_code(query, sol, trials=600, seed=4, threads=4)
        assert serial.value == threaded.value
        two = f.simulate_random_code(query, sol, trials=600, seed=4, threads=2)
        assert (two.value, two.mc_stderr) == (serial.value, serial.mc_stderr)


class TestExactTail:
    def test_convolution_matches_enumeration(self, binary_pieces):
        inst, sol, field = binary_pieces
        n = 8
        dist = f.tilted_sum_distribution(field, n)
        thresholds = np.linspace(0.0, 8 * 0.7, 23)
        exact = exact_tilted_tail(field, n, thresholds)
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

    def test_window_below_one_quantum_reaches_a_lattice_point(self, binary_instance):
        # n D/100 = 0.27 < 1: the window [n(D - D/100), nD] = [26.58, 26.85]
        # holds no Hamming count, so with delta = D/100 the window term is 1
        n, D = 300, 0.0895
        sol = f.solve_crd(binary_instance, D, tol=1e-9)
        field = f.tilted_density(sol)
        query = f.FblQuery.from_rate(n, D, f.second_order_rate(n, 0.1, sol.rate, field.variance),
                                     eps=0.1)
        fwd = f.forward_bound(query, sol, field, f.tilted_sum_distribution(field, n),
                              trials=256, seed=5)
        sim = f.simulate_random_code(query, sol, trials=2000, seed=5)
        assert fwd.terms["window"] < 1.0
        assert fwd.value < 1.0
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

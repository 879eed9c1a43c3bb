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
        # the grid stays below the zero-rate distortion c = 0.2, so the
        # rate decreases strictly along it
        grid = np.linspace(0.02, 0.18, 9)
        rates = [f.solve_crd(binary_instance, float(d)).rate for d in grid]
        assert all(r1 > r2 for r1, r2 in zip(rates[:-1], rates[1:]))
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
    # an rd curve is one solve_crd per grid value
    sols = [f.solve_crd(binary_instance, d) for d in [0.05, 0.1, 0.2]]
    assert [s.target_distortion for s in sols] == [0.05, 0.1, 0.2]
    assert sols[-1].rate == 0.0
    assert sols[0].rate > sols[1].rate


# A 3x2x4 model whose computed distortion, even at the steepest slope the
# search tries, sits one ulp above its feasibility floor 0.3169151114489335.
FLOOR_PMF = [[0.3948290975472396, 0.14909240571378507],
             [0.25862996509817293, 0.10521808042676137],
             [0.005992519366876534, 0.08623793184716456]]
FLOOR_D = [[0.526778564335999, 0.23622015512195615, 0.23900616858173446, 0.9993408920520572],
           [0.7218952892703903, 0.3876081613358592, 0.5479580417801136, 0.9793489546074043],
           [0.918142086486839, 0.8753848300869929, 0.5139237314678226, 0.5944184149853942]]


@pytest.mark.parametrize("budget", [0.3169151114489335, 0.3169151114489])
def test_solves_at_the_feasibility_floor(budget):
    inst = f.validate(f.JointSource(np.array(FLOOR_PMF)), f.DistortionSpec(FLOOR_D))
    assert inst.d_floor == 0.3169151114489335
    tol = 1e-9
    sol = f.solve_crd(inst, budget, tol=tol)
    assert abs(sol.rate - sol.rate_lower) <= 10.0 * tol
    assert sol.distortion <= budget + 1e-12
    # at the floor every letter goes to its unique best reproduction, so
    # the rate is H(best(X) | S)
    best = inst.dist.d.argmin(axis=1)
    cond = inst.source.cond_x_given_s
    exact = sum(p_s * f.entropy(np.bincount(best, weights=cond[:, s]))
                for s, p_s in enumerate(inst.source.p_s))
    assert sol.rate == pytest.approx(exact, abs=10.0 * tol)


# Points of a catalogue of random models (fblbench/workloads.py shapes at
# catalogue seeds 0..5, tools/stall_scan.py) where the slope search stalled.
# At the first two, warm starts that mixed uniform mass into every output
# took 590k and 547k inner iterations.  At the last two (the first is the
# characterize query random5-collapsed at D = 0.20898134319989187), a probe
# whose solution drops an output from the support decays geometrically with
# ratio near 1: 131k and 394k iterations while the Newton polish waited for
# a flat certificate.
STALL_POINTS = {
    "cat0-6x2x6-t0.15": (
        [[0.11297368552580746, 0.04567872510874555], [0.022370161516115785, 0.0094222742655823],
         [0.1689244092095941, 0.12101842571984282], [0.0381702679849031, 0.1057172023974651],
         [0.14189101049955138, 0.06031356589621442], [0.05453731171239353, 0.11898296016378453]],
        [[0.6564422761737766, 0.01339067909718994, 0.1624434427083553, 0.2938234643879565,
          0.6805626097695981, 0.7062353133613742],
         [0.6807608241860267, 0.7676171065637424, 0.07955156101373462, 0.1058889084153547,
          0.8553511602621139, 0.3568377529611344],
         [0.5683712904835098, 0.5035028057334142, 0.6266625713376246, 0.07694671122795227,
          0.7697902263664144, 0.12340232816315366],
         [0.6813744618340352, 0.40214209915071075, 0.49226163606213835, 0.6716937343607445,
          0.3710027506956368, 0.04603747135147218],
         [0.9642115517216056, 0.522676899407916, 0.7421446410608609, 0.5312948337241725,
          0.8196869026699722, 0.5646161790877259],
         [0.12275687838719596, 0.6419065646558053, 0.1727406694369843, 0.8236541350166275,
          0.6810616004728154, 0.9398086381431077]],
        0.15),
    "cat2-4x2x5-collapsed-t0.9": (
        [[0.2326111858110002], [0.27580216430827675], [0.1922433677858622],
         [0.29934328209486083]],
        [[0.12358772827204278, 0.4024060561451719, 0.8558247814625324, 0.08491590611423383,
          0.2503364374202107],
         [0.6137177813130219, 0.8292320556511208, 0.10263635844764507, 0.41635547440798437,
          0.5921317093035723],
         [0.5470508904775759, 0.5355414135001076, 0.9930165942092665, 0.9841191490620264,
          0.21030713884107466],
         [0.2556401443782569, 0.40004197648719275, 0.10096843671984723, 0.14637315025416087,
          0.5650152347084896]],
        0.9),
    # default_rng(1), shape index 5, side information collapsed
    "cat1-6x2x6-collapsed-t0.3": (
        [[0.12001835721043236], [0.1796102040673282], [0.23289489214683756],
         [0.14611433597525147], [0.1642873392799562], [0.15707487132019435]],
        [[0.06625500308532317, 0.6809667073821352, 0.9239861394890241, 0.79236850187799,
          0.02145433492155102, 0.03896848194408775],
         [0.5126584980908546, 0.5732641256148879, 0.6063464038688403, 0.8760248254439775,
          0.897865788127695, 0.9892944308928157],
         [0.3336362814836187, 0.4685438744054826, 0.9936293129383679, 0.7003627951620519,
          0.05743491502267484, 0.9095515927383747],
         [0.6166727366896131, 0.19371225176752527, 0.34772905472451865, 0.5776592921086124,
          0.6527664441151828, 0.410728475381375],
         [0.7443590959461956, 0.5328265257248977, 0.9747578061892133, 0.8534960630493873,
          0.1500965432951359, 0.10308769141213059],
         [0.8535295930326651, 0.6077306724577283, 0.9762235664604278, 0.43583477946261906,
          0.17929837332666654, 0.036988346375273595]],
        0.3),
    # default_rng(4), shape index 0
    "cat4-2x2x3-t0.75": (
        [[0.17125471740730697, 0.32990939918812784], [0.14138138203392275, 0.3574545013706425]],
        [[0.08489445698565479, 0.9398241868920435, 0.2414614867733268],
         [0.9631421218955571, 0.23207460919294987, 0.5353848648366618]],
        0.75),
}
# inner iterations allowed per point; the search takes 5.6k to 15k of them
STALL_BUDGET = 30_000


def count_iterations(monkeypatch, slopes=None):
    """Record the inner iterations of every fixed-slope solve.

    The slope of every call goes to ``slopes`` when given.
    """
    solve = solver._lagrangian_solve
    iterations = []

    def counted(cond, w, dmat, lam, **kwargs):
        if slopes is not None:
            slopes.append(lam)
        res = solve(cond, w, dmat, lam, **kwargs)
        iterations.append(res.iterations)
        return res

    monkeypatch.setattr(solver, "_lagrangian_solve", counted)
    return iterations


@pytest.mark.parametrize("point", sorted(STALL_POINTS))
def test_stall_catalogue_within_iteration_budget(point, monkeypatch):
    pmf, d, t = STALL_POINTS[point]
    inst = f.validate(f.JointSource(np.array(pmf)), f.DistortionSpec(d))
    budget = inst.d_floor + t * (inst.zero_rate_distortion - inst.d_floor)
    iterations = count_iterations(monkeypatch)
    sol = f.solve_crd(inst, budget, tol=1e-9)
    assert sol.distortion <= budget + 1e-12
    assert sum(iterations) <= STALL_BUDGET


def test_warm_start_with_a_starved_output_certifies_in_one_solve(monkeypatch):
    # the lam = 1 law with output 1 of state 0, which holds 0.17 of the
    # lam = 4 optimum, starved to mass 1e-6: the update grows it back only
    # geometrically, and the Newton polish must step in at the first stalled
    # horizon whatever the certificate is, or the iteration exits flat
    pmf, d, _ = STALL_POINTS["cat0-6x2x6-t0.15"]
    pmf, d = np.array(pmf), np.array(d)
    w = pmf.sum(axis=0)
    cond = (pmf / w).T.copy()
    q = solver._lagrangian_solve(cond, w, d, 1.0).q
    q[0, 1] = 1e-6
    q /= q.sum(axis=1, keepdims=True)
    iterations = count_iterations(monkeypatch)
    sol = solver._lagrangian_solve(cond, w, d, 4.0, q0=q)
    assert len(iterations) == 1
    assert sol.gap <= 1e-12
    assert sol.q[0, 1] > 0.1


# the largest x with exp(-x) > 0 in double precision is about 745
EXP_UNDERFLOW = 745.0


@pytest.mark.parametrize("excess", [0.0, 1e-12, 1e-9, 1e-6])
def test_near_floor_solves_past_exp_underflow(excess, monkeypatch):
    # the probes near the floor reach slopes at which the row-shifted kernel
    # underflows to 0 off each row's nearest outputs
    inst = f.validate(f.JointSource(np.array(FLOOR_PMF)), f.DistortionSpec(FLOOR_D))
    spread = float(np.ptp(inst.dist.d, axis=1).max())
    slopes = []
    iterations = count_iterations(monkeypatch, slopes)
    tol = 1e-9
    sol = f.solve_crd(inst, inst.d_floor + excess, tol=tol)
    assert max(slopes) * spread > EXP_UNDERFLOW
    assert sum(iterations) <= STALL_BUDGET
    assert abs(sol.rate - sol.rate_lower) <= 10.0 * tol


# Newton subset solves allowed per solve_crd call: the polish enumerates
# subsets of the active outputs, which is exponential in their number
POLISH_SUBSET_BUDGET = 4096


@pytest.mark.parametrize("shape", [(10, 2, 10), (12, 1, 14), (16, 2, 16)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_polish_cost_on_large_alphabets(shape, monkeypatch):
    nx, ns, ny = shape
    rng = np.random.default_rng(0)
    pmf = rng.dirichlet(np.full(nx * ns, 2.0)).reshape(nx, ns)
    d = rng.uniform(0.0, 1.0, size=(nx, ny))
    inst = f.validate(f.JointSource(pmf), f.DistortionSpec(d))
    newton = solver._newton_support
    subsets = [0]

    def counted(*args):
        subsets[0] += 1
        return newton(*args)

    monkeypatch.setattr(solver, "_newton_support", counted)
    iterations = count_iterations(monkeypatch)
    for t in (0.15, 0.45, 0.75):
        iterations.clear()
        subsets[0] = 0
        budget = inst.d_floor + t * (inst.zero_rate_distortion - inst.d_floor)
        sol = f.solve_crd(inst, budget, tol=1e-9)
        assert sol.distortion <= budget + 1e-12
        assert sum(iterations) <= STALL_BUDGET
        assert subsets[0] <= POLISH_SUBSET_BUDGET

"""Integer primal/dual solvers, the paper's descent oracle, and gap reports."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from troplp import (IntDualResult, LpInstance, TropMatrix, TropVector,
                    ceil_frac, duality_gap, estimate_via_floor_b, floor_frac,
                    fr, greatest_subsolution, leq, solve_dual_integer,
                    solve_primal_integer, tdot, tmul, transpose)
from troplp.oracles import (Box, IntDualState, advance, brute_dual_integer,
                            brute_primal_integer, coverage,
                            descent_dual_integer, dual_box, initial_state,
                            primal_box)

REGRESSION = LpInstance(TropMatrix([[1, 2], [3, 4]]), TropVector([5.5, 6.25]),
                        TropVector([0, 0]))
WORKED = LpInstance(TropMatrix([[1, 2], [3, 4]]), TropVector([5, 6]),
                    TropVector([0, 0]))


class TestFractionalParts:
    def test_fr_basic(self):
        assert fr(3.25) == 0.25
        assert fr(-0.5) == 0.5
        assert fr(2.0 + 1e-12) == 0.0
        assert fr(2.0 - 1e-12) == 0.0
        assert fr(7.0) == 0.0

    def test_ceil_frac(self):
        assert ceil_frac(3.2, 0.5) == 3.5
        assert ceil_frac(3.5, 0.5) == 3.5
        assert ceil_frac(-0.3, 0.5) == 0.5
        assert ceil_frac(3.5 + 1e-12, 0.5) == 3.5
        assert ceil_frac(2.0, 0.0) == 2.0

    def test_floor_frac(self):
        assert floor_frac(3.25, 0.5) == 2.5
        assert floor_frac(3.25, 0.25) == 3.25
        assert floor_frac(0.5, 0.0) == 0.0
        assert floor_frac(2.5 - 1e-12, 0.5) == 2.5

    def test_ceil_frac_is_least_matching_value(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = float(rng.uniform(-20, 20))
            phase = fr(float(rng.uniform(0, 1)))
            u = ceil_frac(x, phase)
            assert u >= x - 1e-9
            assert fr(u) == pytest.approx(phase, abs=1e-9)
            assert u - 1 < x - 1e-9  # one grid step lower would violate x <= u

    def test_floor_frac_is_greatest_matching_value(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = float(rng.uniform(-20, 20))
            phase = fr(float(rng.uniform(0, 1)))
            u = floor_frac(x, phase)
            assert u <= x + 1e-9
            assert fr(u) == pytest.approx(phase, abs=1e-9)
            assert u + 1 > x + 1e-9  # one grid step higher would exceed x

    def test_ceil_floor_frac_agree_on_matching_points(self):
        assert ceil_frac(2.5, 0.5) == floor_frac(2.5, 0.5) == 2.5

    def test_helpers_are_elementwise(self):
        rng = np.random.default_rng(4)
        x = np.concatenate([rng.uniform(-20, 20, 300), rng.integers(-20, 21, 50) * 0.25,
                            [2.0 + 1e-12, 2.0 - 1e-12]])
        phase = fr(rng.uniform(0, 1, x.size))
        assert np.array_equal(fr(x), [fr(v) for v in x])
        assert np.array_equal(ceil_frac(x, phase),
                              [ceil_frac(v, p) for v, p in zip(x, phase)])
        assert np.array_equal(floor_frac(x, phase),
                              [floor_frac(v, p) for v, p in zip(x, phase)])
        # the scalar forms are the exact math.floor / math.ceil rules
        for v, p in zip(x.tolist(), phase.tolist()):
            f = v - math.floor(v)
            assert fr(v) == (0.0 if f <= 1e-9 or f >= 1.0 - 1e-9 else f)
            assert ceil_frac(v, p) == math.ceil(v - p - 1e-9) + p
            assert floor_frac(v, p) == math.floor(v - p + 1e-9) + p


class TestPrimalInteger:
    def test_fractional_witness_floors(self):
        res = solve_primal_integer(LpInstance(TropMatrix([[0.5]]),
                                              TropVector([1]), TropVector([0])))
        assert res.x_opt == TropVector([0])
        assert res.f_max_int == 0.0

    def test_integer_witness_unchanged(self):
        res = solve_primal_integer(WORKED)
        assert res.x_opt == TropVector([3, 2])
        assert res.f_max_int == 3.0

    def test_integer_data_attains_real_optimum(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            m, n = (int(v) for v in rng.integers(1, 5, 2))
            inst = util.integer_lp_instance(rng, m, n)
            res = solve_primal_integer(inst)
            assert res.f_max_int == tdot(inst.c, greatest_subsolution(inst.a, inst.b))


class TestDualIntegerDirect:
    """The closed form on integer b, where it is the paper's direct rule."""

    def test_scalar_example(self):
        inst = LpInstance(TropMatrix([[0.5]]), TropVector([1]), TropVector([0]))
        res = solve_dual_integer(inst)
        assert res.pi_opt == TropVector([0])
        assert res.phi_min_int == 1.0
        # brute force over integer pi in [-5, 5]
        _, phi = brute_dual_integer(inst, Box((-5,), (5,)))
        assert phi == res.phi_min_int

    def test_worked_example(self):
        res = solve_dual_integer(WORKED)
        assert res.pi_opt == TropVector([-2, -3])
        assert res.phi_min_int == 3.0


class TestDualIntegerGeneral:
    """The closed form against the paper's descent (oracles) on real b."""

    def test_single_candidate_stops_immediately(self):
        inst = LpInstance(TropMatrix([[0]]), TropVector([0.5]), TropVector([0]))
        pi, phi, iterations = descent_dual_integer(inst)
        assert (pi, phi, iterations) == (TropVector([0]), 0.5, 0)
        assert solve_dual_integer(inst) == IntDualResult(pi, phi)

    def test_regression_instance(self):
        res = solve_dual_integer(REGRESSION)
        assert res.phi_min_int == 3.25
        assert res.pi_opt == TropVector([-3, -3])
        assert descent_dual_integer(REGRESSION)[:2] == (res.pi_opt, 3.25)
        _, phi = brute_dual_integer(REGRESSION, dual_box(REGRESSION))
        assert phi == 3.25

    def test_integer_b_matches_direct(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            m, n = (int(v) for v in rng.integers(1, 5, 2))
            inst = LpInstance(util.finite_matrix(rng, m, n),
                              TropVector(rng.integers(-10, 11, m).astype(float)),
                              util.finite_vector(rng, n))
            res = solve_dual_integer(inst)
            assert descent_dual_integer(inst)[1] == res.phi_min_int
            assert leq(inst.c, tmul(transpose(inst.a), res.pi_opt))

    def test_literal_phase_ceiling_floor_overshoots(self):
        # Rebuilding the state with floors rounded UP to the phase (instead of
        # down) stops the descent one candidate too early on the regression
        # instance: 3.5 instead of the true optimum 3.25.
        state = initial_state(REGRESSION)
        m, n = state.normalized.shape
        matrix = state.candidate_matrix.copy()
        for i in range(m):
            matrix[i, n] = ceil_frac(state.lower_bound, float(state.phases[i]))
        literal = IntDualState(
            normalized=state.normalized,
            candidate_matrix=matrix,
            floors=matrix[:, n].copy(),
            phases=state.phases,
            sigma=matrix.max(axis=1),
            lower_bound=state.lower_bound,
            row_candidates=[sorted(set(row), reverse=True)
                            for row in matrix.tolist()],
            cursors=[0] * m,
        )
        while advance(literal):
            pass
        assert literal.sigma.max() == 3.5


class TestStateAndCoverage:
    def test_candidate_matrix_definition(self):
        state = initial_state(REGRESSION)
        m, n = state.normalized.shape
        for i in range(m):
            assert state.phases[i] == fr(REGRESSION.b[i])
            for j in range(n):
                assert state.candidate_matrix[i, j] == ceil_frac(
                    -state.normalized[i, j], float(state.phases[i]))
        # normalized matrix is a_ij - b_i - c_j
        expected = (REGRESSION.a.data - REGRESSION.b.data[:, None]
                    - REGRESSION.c.data[None, :])
        assert np.array_equal(state.normalized, expected)

    def test_initial_sigma_covers(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            m, n = (int(v) for v in rng.integers(1, 5, 2))
            state = initial_state(util.quarter_lp_instance(rng, m, n))
            covered, _ = coverage(state)
            assert covered

    def test_regression_final_sigma(self):
        state = initial_state(REGRESSION)
        while advance(state):
            pass
        assert state.sigma.tolist() == [2.5, 3.25]
        covered, sets = coverage(state)
        assert covered
        assert sets[1] == frozenset({0, 1})

    def test_uncovered_when_all_rows_drop(self):
        state = initial_state(LpInstance(TropMatrix([[0]]), TropVector([0.5]),
                                         TropVector([0])))
        state.sigma = np.array([-0.5])
        covered, sets = coverage(state)
        assert not covered
        assert sets[0] == frozenset()

    def test_descent_invariants(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            m, n = (int(v) for v in rng.integers(1, 5, 2))
            inst = util.quarter_lp_instance(rng, m, n)
            state = initial_state(inst)
            phi = float(state.sigma.max())
            prev_sigma = state.sigma.copy()
            while advance(state):
                new_phi = float(state.sigma.max())
                assert new_phi <= phi + 1e-12
                assert np.all(state.sigma <= prev_sigma + 1e-12)
                for i in range(m):
                    assert fr(float(state.sigma[i])) \
                        == pytest.approx(float(state.phases[i]), abs=1e-9)
                    assert float(state.sigma[i]) in state.row_candidates[i]
                phi, prev_sigma = new_phi, state.sigma.copy()
            assert state.iterations <= m * n


class TestOracleEquivalence:
    def test_quarter_grid_family(self):
        rng = np.random.default_rng(35)
        for _ in range(60):
            m, n = (int(v) for v in rng.integers(1, 4, 2))
            inst = util.quarter_lp_instance(rng, m, n)
            primal = solve_primal_integer(inst)
            bx, bf = brute_primal_integer(inst, primal_box(inst))
            assert primal.f_max_int == pytest.approx(bf, abs=1e-9)
            dual = solve_dual_integer(inst)
            bpi, bphi = brute_dual_integer(inst, dual_box(inst))
            assert dual.phi_min_int == pytest.approx(bphi, abs=1e-9)
            assert descent_dual_integer(inst)[1] == pytest.approx(bphi, abs=1e-9)
            # sandwich around the real optimum
            real = tdot(inst.c, greatest_subsolution(inst.a, inst.b))
            assert primal.f_max_int <= real + 1e-9
            assert real <= dual.phi_min_int + 1e-9

    def test_integer_data_collapses_the_gap(self):
        rng = np.random.default_rng(36)
        for _ in range(30):
            m, n = (int(v) for v in rng.integers(1, 5, 2))
            inst = util.integer_lp_instance(rng, m, n)
            real = tdot(inst.c, greatest_subsolution(inst.a, inst.b))
            assert solve_primal_integer(inst).f_max_int == real
            assert solve_dual_integer(inst).phi_min_int == real
            assert descent_dual_integer(inst)[1] == real


def _direct_rule(inst: LpInstance) -> IntDualResult:
    """The paper's rule for integer b: t = ceil(real optimum), pi_i = t - b_i."""
    t = float(math.ceil(tdot(inst.c, greatest_subsolution(inst.a, inst.b)) - 1e-9))
    return IntDualResult(TropVector(t - np.round(inst.b.data)), t)


class TestSolveDualInteger:
    def test_direct_rule_for_integer_b(self):
        assert solve_dual_integer(WORKED) == _direct_rule(WORKED)
        rng = np.random.default_rng(15)
        for _ in range(100):
            m, n = (int(v) for v in rng.integers(1, 7, 2))
            inst = LpInstance(util.finite_matrix(rng, m, n),
                              TropVector(rng.integers(-10, 11, m).astype(float)),
                              util.finite_vector(rng, n))
            assert solve_dual_integer(inst) == _direct_rule(inst)

    def test_descent_for_fractional_b(self):
        pi, phi, _ = descent_dual_integer(REGRESSION)
        assert solve_dual_integer(REGRESSION) == IntDualResult(pi, phi)

    def test_b_within_tol_of_an_integer_counts_as_integer(self):
        inst = LpInstance(WORKED.a, TropVector(WORKED.b.data + 1e-12), WORKED.c)
        res = solve_dual_integer(inst)
        assert res.pi_opt == _direct_rule(WORKED).pi_opt
        assert res.phi_min_int == pytest.approx(3.0, abs=1e-11)


@st.composite
def dyadic_instances(draw, max_dim=4):
    """LP instances on a 1/4 or 1/64 grid in [-5, 5]: shifts and sums are exact."""
    m, n = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    step = draw(st.sampled_from((4, 64)))

    def grid(size):
        ints = draw(st.lists(st.integers(-5 * step, 5 * step), min_size=size, max_size=size))
        return np.array(ints, dtype=float) / step

    return LpInstance(TropMatrix(grid(m * n).reshape(m, n)),
                      TropVector(grid(m)), TropVector(grid(n)))


class TestDualIntegerProperties:
    @settings(deadline=None)
    @given(dyadic_instances(), st.integers(-3, 3))
    def test_integer_shift_of_b_or_c(self, inst, k):
        res = solve_dual_integer(inst)
        shifted_b = solve_dual_integer(LpInstance(inst.a, TropVector(inst.b.data + k), inst.c))
        assert shifted_b == IntDualResult(res.pi_opt, res.phi_min_int + k)
        shifted_c = solve_dual_integer(LpInstance(inst.a, inst.b, TropVector(inst.c.data + k)))
        assert shifted_c.phi_min_int == res.phi_min_int + k

    @settings(deadline=None)
    @given(dyadic_instances(), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, inst, random):
        m, n = inst.a.shape
        rows, cols = random.sample(range(m), m), random.sample(range(n), n)
        permuted = LpInstance(TropMatrix(inst.a.data[np.ix_(rows, cols)]),
                              TropVector(inst.b.data[rows]), TropVector(inst.c.data[cols]))
        res = solve_dual_integer(inst)
        assert solve_dual_integer(permuted) == IntDualResult(
            TropVector(res.pi_opt.data[rows]), res.phi_min_int)

    @settings(max_examples=150, deadline=None)
    @given(dyadic_instances())
    def test_matches_descent_and_brute_force(self, inst):
        res = solve_dual_integer(inst)
        assert leq(inst.c, tmul(transpose(inst.a), res.pi_opt))
        assert np.array_equal(res.pi_opt.data, np.round(res.pi_opt.data))
        assert res.phi_min_int == float(np.max(res.pi_opt.data + inst.b.data))
        assert descent_dual_integer(inst)[1] == res.phi_min_int
        assert brute_dual_integer(inst, dual_box(inst))[1] == res.phi_min_int


class TestGapReport:
    def test_fractional_scalar(self):
        report = duality_gap(LpInstance(TropMatrix([[0.5]]), TropVector([1]),
                                        TropVector([0])))
        assert (report.lower, report.real_optimum, report.upper) == (0.0, 0.5, 1.0)

    def test_integer_worked_instance(self):
        report = duality_gap(WORKED)
        assert (report.lower, report.real_optimum, report.upper) == (3.0, 3.0, 3.0)

    def test_report_carries_both_integer_witnesses(self):
        report = duality_gap(REGRESSION)
        assert report.primal == solve_primal_integer(REGRESSION)
        assert report.dual == solve_dual_integer(REGRESSION)
        assert (report.lower, report.upper) == (report.primal.f_max_int,
                                                report.dual.phi_min_int)

    def test_interval_orders_and_width(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            m, n = (int(v) for v in rng.integers(1, 5, 2))
            inst = util.quarter_lp_instance(rng, m, n)
            report = duality_gap(inst)
            assert report.lower <= report.real_optimum + 1e-9
            assert report.real_optimum <= report.upper + 1e-9
            if all(fr(v) == 0.0 for v in inst.b.data):
                assert report.upper - report.lower < 2.0

    def test_integer_b_interval_width_below_two(self):
        # flooring inside loses < 1 and the outer ceiling adds < 1
        rng = np.random.default_rng(38)
        for _ in range(40):
            m, n = (int(v) for v in rng.integers(1, 5, 2))
            inst = LpInstance(util.finite_matrix(rng, m, n, -5, 5),
                              TropVector(rng.integers(-5, 6, m).astype(float)),
                              util.finite_vector(rng, n, -5, 5))
            report = duality_gap(inst)
            assert report.lower <= report.real_optimum + 1e-9
            assert report.real_optimum <= report.upper + 1e-9
            assert report.upper - report.lower < 2.0


class TestFloorBEstimate:
    def test_scalar_example(self):
        inst = LpInstance(TropMatrix([[0]]), TropVector([0.5]), TropVector([0]))
        estimate = estimate_via_floor_b(inst)
        assert estimate == 0.0
        true_value = solve_dual_integer(inst).phi_min_int
        assert abs(true_value - estimate) <= 1.0

    def test_integer_b_estimate_is_exact(self):
        estimate = estimate_via_floor_b(WORKED)
        assert estimate == solve_dual_integer(WORKED).phi_min_int

    def test_regression_instance(self):
        estimate = estimate_via_floor_b(REGRESSION)
        assert estimate == 3.0
        assert abs(solve_dual_integer(REGRESSION).phi_min_int - estimate) <= 1.0

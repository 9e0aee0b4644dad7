"""Two-sided programs: inequality and equation forms through the star."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from troplp import (DivergentStarError, LpInstance, TropMatrix, TropVector,
                    TwoSidedInstance, kleene_star, leq, solve_dual, solve_tslp,
                    solve_tslp2, subeigen_generate, tdot, tmul, transpose,
                    tslp_feasible)

TS1 = TwoSidedInstance(TropMatrix([[-1, -2], [-3, -1]]), TropVector([0, 0]),
                       TropVector([0, 0]))


class TestSolveTslp:
    def test_worked_example(self):
        res = solve_tslp(TS1)
        assert res.g_min == pytest.approx(0.0, abs=1e-12)
        assert tslp_feasible(TS1, res.y_opt)
        assert tdot(TS1.c, res.y_opt) == pytest.approx(res.g_min, abs=1e-12)
        assert res.feasibility_kind == "feasible"

    def test_scalar_example(self):
        inst = TwoSidedInstance(TropMatrix([[-1]]), TropVector([5]), TropVector([0]))
        res = solve_tslp(inst)
        # constraint reads y >= max(y - 1, 5), so the optimum is y = 5
        assert res.y_opt == TropVector([5])
        assert res.g_min == pytest.approx(5.0, abs=1e-12)

    def test_positive_cycle_mean_infeasible(self):
        inst = TwoSidedInstance(TropMatrix([[1]]), TropVector([0]), TropVector([0]))
        with pytest.raises(DivergentStarError) as exc:
            solve_tslp(inst)
        assert exc.value.lambda_ == pytest.approx(1.0)
        assert exc.value.witness_cycle == (0,)

    def test_agrees_with_substituted_dual(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            inst = util.tslp_instance(rng, n, margin=float(rng.uniform(0, 1)))
            res = solve_tslp(inst)
            star_t = transpose(kleene_star(inst.a))
            _, phi = solve_dual(LpInstance(star_t, tmul(star_t, inst.c), inst.d))
            assert res.g_min == pytest.approx(phi, abs=1e-9)

    def test_sampled_feasible_points_never_beat_optimum(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            inst = util.tslp_instance(rng, n)
            res = solve_tslp(inst)
            star = kleene_star(inst.a)
            # u above d keeps the image feasible; free u is filtered
            for _ in range(100):
                u = TropVector(np.maximum(inst.d.data,
                                          rng.uniform(-15, 15, n)))
                y = tmul(star, u)
                assert tslp_feasible(inst, y)
                assert tdot(inst.c, y) >= res.g_min - 1e-9


class TestSolveTslp2:
    def test_unique_fixed_point(self):
        inst = TwoSidedInstance(TropMatrix([[-1]]), TropVector([5]), TropVector([0]))
        res = solve_tslp2(inst)
        assert res.y_opt == TropVector([5])
        assert res.g_min == 5.0
        assert res.feasibility_kind == "unique-fixed-point"

    def test_worked_example(self):
        inst = TwoSidedInstance(TropMatrix([[-1, 0], [-3, -2]]),
                                TropVector([0, 0]), TropVector([0, 0]))
        res = solve_tslp2(inst)
        assert res.y_opt == TropVector([0, 0])
        assert res.g_min == 0.0

    def test_zero_loop_keeps_nontrivial_solutions(self):
        inst = TwoSidedInstance(TropMatrix([[0]]), TropVector([1]), TropVector([0]))
        res = solve_tslp2(inst)
        assert res.y_opt == TropVector([1])
        assert res.g_min == 1.0
        assert res.feasibility_kind == "feasible"

    def test_positive_cycle_mean_infeasible(self):
        with pytest.raises(DivergentStarError):
            solve_tslp2(TwoSidedInstance(TropMatrix([[0.5]]), TropVector([0]),
                                         TropVector([0])))

    def test_witness_satisfies_the_equation(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            inst = util.tslp_instance(rng, n, margin=float(rng.uniform(0, 1)))
            res = solve_tslp2(inst)
            lhs = np.maximum(tmul(inst.a, res.y_opt).data, inst.d.data)
            assert np.allclose(lhs, res.y_opt.data, rtol=0, atol=1e-9)

    def test_value_computed_both_ways(self):
        rng = np.random.default_rng(44)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            inst = util.tslp_instance(rng, n)
            res = solve_tslp2(inst)
            star = kleene_star(inst.a)
            assert res.g_min == tdot(inst.c, tmul(star, inst.d))
            # the other association order agrees within tolerance
            row = tmul(transpose(star), inst.c)
            assert tdot(row, inst.d) == pytest.approx(res.g_min, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=1, max_value=8),
       margin=st.sampled_from([0.0, 0.5, 1.0]))
def test_both_forms_return_the_least_feasible_point(seed, n, margin):
    # every feasible y is A* u for some u >= d (u = y itself, as y >= Ay), so
    # a y_opt below every such A* u is the least feasible point
    rng = np.random.default_rng(seed)
    inst = util.tslp_instance(rng, n, margin=margin)
    y = solve_tslp(inst).y_opt
    assert y == solve_tslp2(inst).y_opt
    star = kleene_star(inst.a)
    us = np.vstack([inst.d.data, np.maximum(inst.d.data, rng.uniform(-15, 15, (50, n)))])
    for u in us:
        assert leq(y, tmul(star, TropVector(u)))


class TestFeasibility:
    def test_worked_point(self):
        assert tslp_feasible(TS1, TropVector([0, 0]))

    def test_point_below_d_rejected(self):
        assert not tslp_feasible(TS1, TropVector(TS1.d.data - 1))

    def test_scaled_up_subeigenvector_is_feasible(self):
        # Subeigenvectors are closed under scalar shifts, so one shifted far
        # enough to dominate d is a feasible point.
        rng = np.random.default_rng(45)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            inst = util.tslp_instance(rng, n)
            base = subeigen_generate(inst.a, 0.0, util.finite_vector(rng, n))
            kappa = float(np.max(inst.d.data - base.data)) + 1.0
            assert tslp_feasible(inst, TropVector(base.data + kappa))

"""Two-sided programs: inequality and equation forms through the star."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import util
from troplp import (DimensionMismatchError, DivergentStarError, LpInstance, TropMatrix,
                    TropVector, TwoSidedInstance, closure, kleene_star, leq,
                    max_cycle_mean, solve_dual, solve_tslp, solve_tslp2, tdot, tmul,
                    transpose, tslp_feasible)

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


def _planted_near_a_bound(rng, tol=1e-9) -> TwoSidedInstance:
    """A with one planted cycle whose weight sits near a bound of tslp2's
    O(n^2) kind rules: -(4n + 1) tol (closure's rule), -2n tol, a weight of
    -tol, or a mean of -tol; scaled by 1 or 1 +- 1e-3.  The cycle's arcs but
    one are integers in [-3, 3] and every other arc is below -25, so every
    other cycle is far more negative."""
    n = int(rng.integers(1, 9))
    nodes = rng.permutation(n)[:int(rng.integers(1, n + 1))]
    k = len(nodes)
    weight = -tol * float(rng.choice([4 * n + 1, 2 * n, 1, k]))
    weight *= float(rng.choice([1 - 1e-3, 1.0, 1 + 1e-3]))
    a = rng.uniform(-30, -25, (n, n))
    arcs = rng.integers(-3, 4, k).astype(float)
    arcs[-1] = weight - arcs[:-1].sum()
    a[nodes, np.roll(nodes, -1)] = arcs
    return TwoSidedInstance(TropMatrix(a), util.finite_vector(rng, n),
                            util.finite_vector(rng, n))


def test_tslp2_kind_matches_karp(monkeypatch):
    """The kind tslp2 reads from the star in O(n^2), or from Karp inside the
    band, is Karp's lambda < -tol, over 600 random instances at margins from
    0 to 1 and 600 planted cycles near each bound of the star's rules."""
    rng = np.random.default_rng(71)
    karp_in_solve = util.count_calls(monkeypatch, closure.max_cycle_mean)
    instances = [util.tslp_instance(rng, int(rng.integers(1, 21)),
                                    margin=float(rng.choice([0.0, 1e-12, 1e-9, 0.5])
                                                 * rng.uniform(0, 2)))
                 for _ in range(600)]
    instances += [_planted_near_a_bound(rng) for _ in range(600)]
    kinds, karp_runs = [], 0
    for inst in instances:
        before = len(karp_in_solve)
        kind = solve_tslp2(inst).feasibility_kind
        karp_runs += len(karp_in_solve) > before
        unique = max_cycle_mean(inst.a).lambda_ < -1e-9
        assert kind == ("unique-fixed-point" if unique else "feasible")
        kinds.append(kind)
    assert 0 < kinds.count("feasible") < len(kinds)
    # the instances crowd the bounds, yet the star decided a good share
    assert 0 < karp_runs < len(kinds) / 2


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

    def test_wrong_length_y_rejected(self):
        with pytest.raises(DimensionMismatchError, match="y must have length 2"):
            tslp_feasible(TS1, TropVector([0, 0, 0]))

    def test_scaled_up_subeigenvector_is_feasible(self):
        # Subeigenvectors are closed under scalar shifts, so one shifted far
        # enough to dominate d is a feasible point.
        rng = np.random.default_rng(45)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            inst = util.tslp_instance(rng, n)
            base = tmul(kleene_star(inst.a), util.finite_vector(rng, n))
            kappa = float(np.max(inst.d.data - base.data)) + 1.0
            assert tslp_feasible(inst, TropVector(base.data + kappa))

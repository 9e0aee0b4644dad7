"""Two-sided programs: inequality and equation forms, through the star or,
for tslp on an A with no positive arc, by iteration."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact
import util
from troplp import (EPSILON, DimensionMismatchError, DivergentStarError, LpInstance,
                    TropMatrix, TropVector, TwoSidedInstance, approx_equal, certificates,
                    closure, core, kleene_star, leq, solve_dual,
                    solve_tslp, solve_tslp2, tdot, tmul, transpose, tslp_feasible,
                    twosided)
from troplp.io import parse_instance, solve_to_payload, verify_payload
from troplp.oracles import brute_cycle_mean, brute_star

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
    """A with one planted cycle whose weight sits near a bound of the star
    rule's O(n^2) tests: -(4n + 1) tol (certificates._strictly_negative's
    bound), -2n tol, a weight of -tol, or a mean of -tol; scaled by 1 or
    1 +- 1e-3.  The cycle's arcs but one are integers in [-3, 3] and every
    other arc is below -25, so every other cycle is far more negative."""
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


def test_tslp2_kind_matches_the_oracle(monkeypatch):
    """The kind tslp2 reads from Karp's lambda is the brute-force cycle
    mean's lambda < -tol, over 600 random instances at margins from 0 to 1
    and 600 planted cycles near -tol and near the star rule's bounds; every
    draw of at most 8 nodes is enumerated.  Where the oracle's lambda lies
    within 1e-15 of -tol, the two sums may round to either side: one draw
    does so, and no other may."""
    rng = np.random.default_rng(71)
    karp_in_solve = util.count_calls(monkeypatch, closure.max_cycle_mean)
    instances = [util.tslp_instance(rng, int(rng.integers(1, 21)),
                                    margin=float(rng.choice([0.0, 1e-12, 1e-9, 0.5])
                                                 * rng.uniform(0, 2)))
                 for _ in range(600)]
    instances += [_planted_near_a_bound(rng) for _ in range(600)]
    kinds, karp_runs, enumerated, rounded_across = [], set(), 0, 0
    for inst in instances:
        before = len(karp_in_solve)
        kinds.append(solve_tslp2(inst).feasibility_kind)
        karp_runs.add(len(karp_in_solve) - before)
        if inst.a.rows > 8:
            continue
        lam = brute_cycle_mean(inst.a)
        enumerated += 1
        if kinds[-1] != ("unique-fixed-point" if lam < -1e-9 else "feasible"):
            assert abs(lam + 1e-9) <= 1e-15
            rounded_across += 1
    assert 0 < kinds.count("feasible") < len(kinds)
    assert (enumerated, rounded_across) == (815, 1)
    # Karp decides every kind, and runs a second time only where the star's
    # own rule ran it
    assert karp_runs == {1, 2}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=1, max_value=8),
       margin=st.sampled_from([0.0, 0.5, 1.0]))
def test_both_forms_return_the_least_feasible_point(seed, n, margin):
    # every feasible y is A* u for some u >= d (u = y itself, as y >= Ay), so
    # a y_opt below every such A* u is the least feasible point; tslp takes
    # the star only when A has a positive arc, and its iterated y may differ
    # from tslp2's star in the last bits
    rng = np.random.default_rng(seed)
    inst = util.tslp_instance(rng, n, margin=margin)
    y, y2 = solve_tslp(inst).y_opt, solve_tslp2(inst).y_opt
    if (inst.a.data > 0).any():
        assert y == y2
    else:
        assert approx_equal(y, y2)
    star = kleene_star(inst.a)
    us = np.vstack([inst.d.data, np.maximum(inst.d.data, rng.uniform(-15, 15, (50, n)))])
    for u in us:
        image = tmul(star, TropVector(u))
        assert leq(y, image) and leq(y2, image)


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


# magnitudes of the entries of A and d, 10^0 to 10^300
MAGNITUDES = (1.0, 1e4, 1e8, 1e12, 1e16, 1e50, 1e100, 1e200, 1e300)


def _no_positive_arc(rng, family: str, n: int, scale: float) -> TropMatrix:
    """A square A whose finite entries are all <= 0, of one family."""
    arcs = -rng.uniform(0, scale, (n, n))
    if family == "sparse":
        arcs[rng.random((n, n)) < 0.8] = EPSILON
    elif family == "epsilon-heavy":
        arcs[rng.random((n, n)) < 0.97] = EPSILON
    elif family == "zero arcs":
        arcs = rng.choice([0.0, -0.0, EPSILON], (n, n))
    elif family == "zero diagonal":
        np.fill_diagonal(arcs, 0.0)
    elif family == "dag":
        arcs[np.tril_indices(n)] = EPSILON
    return TropMatrix(arcs)


def _within_rounding(y: TropVector, a: TropMatrix, d: TropVector) -> bool:
    """y and A* d agree within the rounding of sums of at most n arcs and d,
    (n + 1) spacings at (n + 1) times the largest finite magnitude."""
    n = a.rows
    scale = certificates._scale(a.data, d.data)
    slack = (n + 1) * np.spacing((n + 1) * scale)
    return approx_equal(y, tmul(kleene_star(a), d), slack)


class TestLeastFixedPoint:
    """tslp on an A with no positive arc: the least point by iteration."""

    @pytest.mark.parametrize("scale", MAGNITUDES, ids=lambda m: f"{m:.0e}")
    def test_fresh_answers_check_at_every_magnitude(self, scale):
        rng = np.random.default_rng([83, int(np.log10(scale))])
        for family in ("dense", "sparse", "epsilon-heavy", "zero arcs", "zero diagonal",
                       "dag"):
            for _ in range(5):
                n = int(rng.integers(1, 61))
                a = _no_positive_arc(rng, family, n, scale)
                d = TropVector(rng.uniform(-scale, scale, n))
                obj = {"problem": "tslp", "A": util.rows_obj(a), "d": d.data.tolist(),
                       "c": rng.uniform(-5, 5, n).tolist()}
                payload, code = solve_to_payload(parse_instance(json.dumps(obj)), 1e-9)
                assert code == 0
                assert verify_payload(json.loads(json.dumps(payload))) == []
                y = TropVector(payload["y"])
                inst = TwoSidedInstance(a, d, TropVector(obj["c"]))
                assert certificates.two_sided(inst, y, 0.0) == []
                assert _within_rounding(y, a, d)
                # fl(a + y_j) <= y_i, so the exact a + y_j - y_i is at most
                # half a spacing of that sum
                arcs = a.data > EPSILON
                sums = np.abs(a.data + y.data)[arcs]
                assert (exact.arcs(a.data, y.data)[arcs] <= np.spacing(sums) / 2).all()
                assert (exact.lower(d.data, y.data) <= 0).all()

    def test_agrees_with_the_power_sum_within_n_rounds(self, monkeypatch):
        rng = np.random.default_rng(84)
        products = util.count_calls(monkeypatch, core.tmul)
        for family in ("dense", "sparse", "zero arcs", "zero diagonal", "dag"):
            for _ in range(20):
                n = int(rng.integers(1, 9))
                a = _no_positive_arc(rng, family, n, 10.0)
                d = util.finite_vector(rng, n)
                products.clear()
                y = solve_tslp(TwoSidedInstance(a, d, d)).y_opt
                assert approx_equal(y, tmul(brute_star(a), d))
                # the rounds and the self-check's product
                assert len(products) <= n + 1

    def test_builds_no_star_without_a_positive_arc(self, monkeypatch):
        sweeps = util.count_calls(monkeypatch, closure._star_sweep)
        karp = util.count_calls(monkeypatch, closure.max_cycle_mean)
        rng = np.random.default_rng(85)
        for family in ("dense", "sparse", "zero arcs", "zero diagonal", "dag"):
            a = _no_positive_arc(rng, family, 12, 10.0)
            solve_tslp(TwoSidedInstance(a, util.finite_vector(rng, 12),
                                        util.finite_vector(rng, 12)))
        assert (sweeps, karp) == ([], [])
        # one positive arc on a cycle of mean -2 takes the star
        solve_tslp(TwoSidedInstance(TropMatrix([[-5, 1], [-5, -5]]), TropVector([0, 0]),
                                    TropVector([0, 0])))
        assert (len(sweeps), karp) == (1, [])

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_chain_takes_n_rounds(self, n, monkeypatch):
        # y_i >= y_{i+1} - 1 and d lifts only the last node: round k reaches
        # node n - 1 - k, and round n changes nothing
        a = np.full((n, n), EPSILON)
        a[np.arange(n - 1), np.arange(1, n)] = -1.0
        d = np.zeros(n)
        d[-1] = 2.0 * n
        products = util.count_calls(monkeypatch, core.tmul)
        y = twosided._least_fixed_point(TropMatrix(a), TropVector(d))
        assert len(products) == n
        assert y == TropVector(np.maximum(2.0 * n - np.arange(n)[::-1], 0.0))

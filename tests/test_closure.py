"""Cycle means and Kleene stars."""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import util
from troplp import (EPSILON, CycleMeanResult, DimensionMismatchError,
                    DivergentStarError, TropMatrix, TropVector,
                    TwoSidedInstance, approx_equal, identity, kleene_star,
                    max_cycle_mean, solve_tslp, solve_tslp2, subeigen_member,
                    tadd, tmul, transpose)
from troplp import certificates, closure
from troplp.closure import _diverges, _star_sweep
from troplp.io import (EXIT_OK, check_solution_text, parse_instance,
                       serialize_solution, solve_to_payload)
from troplp.oracles import brute_cycle_mean, brute_star

E = EPSILON


def cycle_mean_of(a: TropMatrix, cycle) -> float:
    total = 0.0
    for pos, node in enumerate(cycle):
        succ = cycle[(pos + 1) % len(cycle)]
        w = a.data[node, succ]
        assert w > E, "witness cycle uses a missing arc"
        total += w
    return total / len(cycle)


def assert_critical(a: TropMatrix, res, tol: float = 1e-9):
    """The witness is an elementary cycle of mean lambda, and the potential
    is a subeigenvector of A^T at lambda, which bounds every cycle mean."""
    cycle = res.witness_cycle
    assert len(set(cycle)) == len(cycle), "witness cycle is not elementary"
    assert cycle_mean_of(a, cycle) == pytest.approx(res.lambda_, abs=tol)
    assert subeigen_member(transpose(a), res.lambda_, res.potential, tol)


@st.composite
def small_graphs(draw):
    """Square matrices with n <= 7: real or integer weights (integer ones
    tie often), epsilon-dense masks, and acyclic relabelled triangles."""
    n = draw(st.integers(min_value=1, max_value=7))
    shape = draw(st.sampled_from(["real", "integer", "dag"]))
    if shape == "integer":
        elements = st.integers(min_value=-3, max_value=3).map(float)
    else:
        elements = st.floats(min_value=-10, max_value=10, allow_nan=False)
    data = draw(hnp.arrays(float, (n, n), elements=elements))
    eps = draw(hnp.arrays(bool, (n, n), elements=st.booleans()))
    data = np.where(eps, E, data)
    if shape == "dag":
        order = np.array(draw(st.permutations(range(n))))
        rank = np.empty(n, dtype=int)
        rank[order] = np.arange(n)
        data = np.where(rank[:, None] < rank[None, :], data, E)
    return TropMatrix(data)


def large_graph(rng, n: int, shape: str) -> TropMatrix:
    if shape == "dense":
        return util.finite_matrix(rng, n, n)
    if shape == "sparse":
        return util.sparse_square(rng, n, density=0.05)
    if shape == "ties":
        return TropMatrix(rng.integers(-2, 3, (n, n)).astype(float))
    if shape == "ring":
        # a Hamiltonian ring: its one cycle has n arcs, so no shorter walk
        # closes a cycle
        data = np.full((n, n), E)
        data[np.arange(n), (np.arange(n) + 1) % n] = rng.uniform(-10, 10, n)
        return TropMatrix(data)
    if shape == "planted":
        # sparse negative arcs and one cycle of positive arcs, of any length
        data = np.where(rng.random((n, n)) < 0.3, rng.uniform(-10, 0, (n, n)), E)
        nodes = rng.permutation(n)[:int(rng.integers(1, n + 1))]
        data[nodes, np.roll(nodes, -1)] = rng.uniform(0, 5, nodes.size)
        return TropMatrix(data)
    # DAG with one planted cycle
    data = np.where(np.triu(np.ones((n, n), dtype=bool), 1),
                    rng.uniform(-10, 10, (n, n)), E)
    nodes = rng.choice(n, size=3, replace=False)
    for pos, u in enumerate(nodes):
        data[u, nodes[(pos + 1) % 3]] = float(rng.uniform(-1, 1))
    return TropMatrix(data)


@pytest.fixture
def karp_calls(monkeypatch):
    return util.count_calls(monkeypatch, closure.max_cycle_mean)


class TestScc:
    """Graph shapes with several strongly connected components: the
    super-source Karp table must handle each shape whole, with the witness
    inside the critical component."""

    def test_acyclic_chain(self):
        a = TropMatrix([[E, 1, E], [E, E, 1], [E, E, E]])
        res = max_cycle_mean(a)
        assert res.lambda_ == E
        assert res.witness_cycle is None

    def test_two_cycle(self):
        a = TropMatrix([[E, 1], [1, E]])
        res = max_cycle_mean(a)
        assert res.lambda_ == pytest.approx(1.0, abs=1e-9)
        assert sorted(res.witness_cycle) == [0, 1]
        assert_critical(a, res)

    def test_mutual_arcs(self):
        # loops of mean 0 lose to the two-cycle of mean (3 - 1) / 2 = 1
        a = TropMatrix([[0, 3], [-1, 0]])
        res = max_cycle_mean(a)
        assert res.lambda_ == pytest.approx(1.0, abs=1e-9)
        assert sorted(res.witness_cycle) == [0, 1]
        assert_critical(a, res)

    def test_mixed_components(self):
        # 0 <-> 1 cycle (mean 2.5) feeding an isolated sink 2
        a = TropMatrix([[E, 2, 1], [3, E, E], [E, E, E]])
        res = max_cycle_mean(a)
        assert res.lambda_ == pytest.approx(2.5, abs=1e-9)
        assert sorted(res.witness_cycle) == [0, 1]
        assert_critical(a, res)


def _peel_shapes(rng, n):
    """An acyclic digraph (a random order's upper triangle, half its arcs),
    the same with one random arc added (a back arc or a loop closes a
    cycle), and a sparse random digraph."""
    order = rng.permutation(n)
    dag = np.where(np.triu(rng.random((n, n)) < 0.5, 1), rng.uniform(-10, 10, (n, n)), E)
    dag = dag[np.ix_(order, order)]
    yield dag
    u, v = rng.integers(0, n, 2)
    cyclic = dag.copy()
    cyclic[u, v] = float(rng.uniform(-10, 10))
    yield cyclic
    yield util.sparse_square(rng, n, density=float(rng.uniform(0.02, 0.3))).data


class TestAcyclicPeel:
    """max_cycle_mean answers an acyclic digraph by the O(n^2) peel and builds
    no walk table; the table it skips agrees."""

    def test_peel_agrees_with_the_walk_table(self):
        rng = np.random.default_rng(72)
        verdicts = set()
        for _ in range(150):
            n = int(rng.integers(1, 16))
            for data in _peel_shapes(rng, n):
                a = TropMatrix(data)
                # Karp's own verdict: no n-arc walk, so no cycle
                *_, walks = closure._walk_table(data)
                acyclic = not (walks[n] > E).any()
                assert certificates._acyclic(data > E) == acyclic
                # the peel's cycle: none when acyclic, else elementary, on arcs of A
                cycle = certificates._closed_cycle(data > E)
                assert (cycle is None) == acyclic
                if cycle is not None:
                    assert len(set(cycle)) == len(cycle)
                    assert cycle_mean_of(a, cycle) > E
                res = max_cycle_mean(a)
                if acyclic:
                    assert res == CycleMeanResult(E, None, None)
                else:
                    assert_critical(a, res)
                verdicts.add(acyclic)
        assert verdicts == {True, False}

    def test_acyclic_solve_builds_no_walk_table(self, monkeypatch):
        tables = util.count_calls(monkeypatch, closure._walk_table)
        payload, _ = solve_to_payload(
            parse_instance('{"problem":"mcm","A":[["-inf",1],["-inf","-inf"]]}'), 1e-9)
        assert payload["lambda"] == "-inf"
        assert tables == []
        solve_to_payload(parse_instance('{"problem":"mcm","A":[["-inf",1],[0,"-inf"]]}'),
                         1e-9)
        assert len(tables) == 1


def _full_table(a: TropMatrix) -> CycleMeanResult:
    """Karp's rule on all n + 1 rows, the answer without an early stop."""
    *_, walks = closure._walk_table(a.data)
    return closure._karp(a, walks)


def _spacing(a: TropMatrix, res) -> float:
    return np.spacing(certificates._scale(res.potential.data, res.lambda_, a.data))


MIXED_MAGNITUDE = TropMatrix([[E, 1, E], [-1, E, E], [-1e300, E, -1e280]])


class TestEarlyStop:
    """max_cycle_mean stops the walk table at the first level k = 2, 4, 8, ...
    whose candidate its own potential certifies.  The full n-level table, the
    path the stop replaces, cross-checks every answer."""

    @pytest.fixture
    def rules(self, monkeypatch):
        """Each call of Karp's rule, with the rows D_0..D_k it was given."""
        return util.count_calls(monkeypatch, closure._karp)

    @pytest.mark.parametrize("shape", ["dense", "sparse", "ties", "planted", "ring"])
    def test_agrees_with_the_full_table(self, rules, shape):
        rng = np.random.default_rng(24)
        for _ in range(25):
            n = int(rng.integers(2, 90))
            a = large_graph(rng, n, shape)
            rules.clear()
            res = max_cycle_mean(a)
            if res.lambda_ == E:  # a sparse draw can be acyclic
                assert certificates._acyclic(a.data > E) and rules == []
                continue
            level = len(rules[-1][1]) - 1
            # the table's rows, as each level yields them, are the products
            # D_k = A^T D_(k-1) from D_0 = 0, bit for bit
            reference = [np.zeros(n)]
            for _ in range(n):
                reference.append(tmul(transpose(a), TropVector(reference[-1])).data)
            levels = []
            for walks in closure._walk_table(a.data):
                levels.append(len(walks) - 1)
                assert walks.tobytes() == np.array(reference[:len(walks)]).tobytes()
            assert levels == [2 ** p for p in range(1, n.bit_length()) if 2 ** p < n] + [n]
            full = _full_table(a)
            # each potential bounds every cycle mean, the other's witness too
            assert full.lambda_ <= res.lambda_ + (level + 3) * _spacing(a, res)
            assert res.lambda_ <= full.lambda_ + (n + 3) * _spacing(a, full)
            assert_critical(a, res)
            assert certificates.potential(a, res.lambda_, res.potential, 1e-9)
            assert level == n or shape != "ring"

    def test_mixed_magnitude_keeps_its_maximum(self, rules):
        # the loop at node 2 has mean -1e280; the cycle 0 -> 1 has mean 0
        res = max_cycle_mean(MIXED_MAGNITUDE)
        assert [len(walks) - 1 for _, walks in rules] == [2]
        assert (res.lambda_, res.witness_cycle) == (0.0, (0, 1))
        full = _full_table(MIXED_MAGNITUDE)
        assert (full.lambda_, full.witness_cycle) == (0.0, (0, 1))
        assert_critical(MIXED_MAGNITUDE, res)

    def test_a_cycle_just_below_the_maximum_is_never_certified(self):
        # Karp's rule on the random draws never traced a non-critical cycle
        # below n, so the stop rule is given one by hand: a loop 1e-6 below
        # lambda, with the potential its rows give at each level
        a = large_graph(np.random.default_rng(27), 40, "dense")
        lam = max_cycle_mean(a).lambda_
        data = a.data.copy()
        data[5, 5] = lam - 1e-6
        a = TropMatrix(data)
        assert max_cycle_mean(a).lambda_ == lam
        *_, walks = closure._walk_table(data)
        for k in (2, 4, 8, 16, 32):
            x = (walks[:k + 1] - data[5, 5] * np.arange(k + 1)[:, np.newaxis]).max(axis=0)
            loop = CycleMeanResult(data[5, 5], (5,), TropVector(x))
            assert not closure._certifies(a, loop, k)

    def test_dominant_loop_stops_by_level_4(self, rules):
        data = np.random.default_rng(25).uniform(-10, 10, (160, 160))
        data[17, 17] = 50.0
        res = max_cycle_mean(TropMatrix(data))
        assert res.witness_cycle == (17,)
        assert len(rules[-1][1]) - 1 <= 4

    def test_ring_builds_all_n_levels(self, rules):
        res = max_cycle_mean(large_graph(np.random.default_rng(26), 160, "ring"))
        assert [len(walks) - 1 for _, walks in rules] == [2, 4, 8, 16, 32, 64, 128, 160]
        assert len(res.witness_cycle) == 160


def _mixed_magnitudes(rng, count: int, per_arc: bool = False):
    """Square matrices with n from 2 to 7 and half their entries epsilon;
    40 % of the others in [-10, 10], the rest up to +-10^k, with k < 300
    drawn once per matrix or, with per_arc, once per entry: small cycles
    beside arcs whose sums can absorb them."""
    for _ in range(count):
        n = int(rng.integers(2, 8))
        k = rng.integers(0, 300, (n, n)) if per_arc else int(rng.integers(0, 300))
        big = rng.uniform(-1, 1, (n, n)) * 10.0 ** k
        data = np.where(rng.random((n, n)) < 0.4, rng.uniform(-10, 10, (n, n)), big)
        yield np.where(rng.random((n, n)) < 0.5, E, data)


# Karp's lambda under the heaviest cycle, a negative one: the arc 0 -> 2 of
# 2.7e218, on no cycle, absorbs the cycle 1 -> 2 -> 1 of mean -0.72, whose
# arcs both exceed the table's lambda -9.42, so the rule names it; the arc
# 2 -> 1 of 9.3e187, out of the self-loop at 2 of -3.06, absorbs the cycle
# 0 -> 1 -> 0 of mean -0.60, whose arc -3.67 lies below -3.06
_ABSORBED_NEGATIVE_CYCLES = [
    [[E, -7.59578178904595, 2.7446303542739914e+218],
     [E, -9.424817658228612, 4.80687032119333], [E, -6.2545515933706675, E]],
    [[E, 2.4631305023708663, E], [-3.671169623858499, E, E],
     [E, 9.296547407400336e+187, -3.0591645806769296]],
]


class TestLowerBounds:
    """After the walk table, max_cycle_mean applies one lower-bound rule: a
    cycle's mean is at least its lightest arc.  While the arcs above a
    threshold, at first lambda, close a cycle, lambda rises to its mean if
    that is higher and the threshold to its lightest arc.  So no cycle's
    arcs all exceed the final lambda: not a self-loop, nor a cycle of
    positive arcs, which the table's sums can absorb beside far larger arcs.
    test_io_cli's TestAbsorbedCycle runs such cycles through the CLI."""

    @staticmethod
    def _below_brute(per_arc: bool):
        """The cyclic count of 1500 seed-2026 draws, and the (draw, matrix)
        pairs whose lambda falls below brute_cycle_mean."""
        rng = np.random.default_rng(2026)
        cyclic, below = 0, []
        for draw, data in enumerate(_mixed_magnitudes(rng, 1500, per_arc)):
            a = TropMatrix(data)
            brute = brute_cycle_mean(a)
            if brute == E:
                continue
            cyclic += 1
            lam = max_cycle_mean(a).lambda_
            if lam < brute - 1e-9 * max(1.0, abs(lam)):
                below.append((draw, data.tolist()))
        return cyclic, below

    def test_mixed_magnitudes_reach_the_brute_maximum(self):
        # 1444 of the draws are cyclic: the walk table alone falls below
        # brute_cycle_mean on 16, the rule leaves the 1 pinned below
        cyclic, below = self._below_brute(per_arc=False)
        assert cyclic == 1444
        assert [data for _, data in below] == _ABSORBED_NEGATIVE_CYCLES[1:]

    def test_per_arc_magnitudes_miss_only_the_pinned_draws(self):
        # one magnitude per arc: the table with the heaviest self-loop and a
        # cycle of positive arcs as its bounds missed 16 of 1428; the rule
        # leaves these 6, each with an arc at or below its lambda
        cyclic, below = self._below_brute(per_arc=True)
        assert cyclic == 1428
        assert [draw for draw, _ in below] == [109, 513, 635, 768, 1009, 1054]

    @pytest.mark.parametrize("per_arc", [False, True], ids=["per-matrix", "per-arc"])
    def test_no_cycle_above_lambda(self, per_arc):
        # the table with the heaviest self-loop and a cycle of positive arcs
        # as its bounds left a cycle above lambda on 1 per-matrix and 8
        # per-arc draws
        rng = np.random.default_rng(2026)
        for data in _mixed_magnitudes(rng, 1500, per_arc):
            lam = max_cycle_mean(TropMatrix(data)).lambda_
            if lam > E:
                assert certificates._closed_cycle(data > lam) is None, data.tolist()

    def test_planted_positive_cycle_gives_positive_lambda(self):
        # kleene_star calls on Karp when A's positive arcs close a cycle,
        # and relies on lambda > 0 there: arcs of 1e-12 to 1 on a planted
        # cycle, beside arcs up to 1e300
        rng = np.random.default_rng(2026)
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            big = rng.uniform(-1, 1, (n, n)) * 10.0 ** rng.integers(0, 301, (n, n))
            data = np.where(rng.random((n, n)) < 0.5, E, big)
            cycle = rng.permutation(n)[:int(rng.integers(1, n + 1))]
            data[cycle, np.roll(cycle, -1)] = 10.0 ** rng.uniform(-12, 0, len(cycle))
            assert max_cycle_mean(TropMatrix(data)).lambda_ > 0.0, data.tolist()

    def test_threshold_rises_to_the_lightest_arc_not_to_lambda(self):
        # numpy seed 13, draw 1012 of _mixed_magnitudes: the table's lambda is
        # the self-loop at 1, -2.96; the peel first finds 1 -> 0 -> 1, of
        # mean 3.63 and lightest arc -1.44, then 1 -> 2 -> 1, of mean 4.86,
        # whose arc 3.33 lies below 3.63: a threshold raised to lambda would
        # drop it
        data = [[E, 8.702262895478032, -7.98463019567397e+205, E],
                [-1.4403051047914843, -2.9551218880783114, 6.38331614430075, E],
                [E, 3.328901322209674, -5.572915131222171, E],
                [-7.019603252053304, E, 1.9769085168365042e+206, E]]
        res = max_cycle_mean(TropMatrix(data))
        assert (res.lambda_, res.witness_cycle) == (4.856108733255212, (2, 1))

    @pytest.mark.parametrize("data", [
        _ABSORBED_NEGATIVE_CYCLES[0],
        pytest.param(_ABSORBED_NEGATIVE_CYCLES[1], marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 13: the cycle 0 -> 1 -> 0 has the arc -3.67, below the "
            "walk table's lambda -3.06, so no threshold names it; it waits for "
            "the successor sweep")))], ids=["2.7e218", "9.3e187"])
    def test_absorbed_negative_cycle(self, data):
        a = TropMatrix(data)
        assert max_cycle_mean(a).lambda_ == brute_cycle_mean(a)


class TestMaxCycleMean:
    def test_worked_example(self):
        # cycles: loop 0 (mean 0), loop 1 (mean 0), two-cycle mean (3-1)/2 = 1
        res = max_cycle_mean(TropMatrix([[0, 3], [-1, 0]]))
        assert res.lambda_ == pytest.approx(1.0, abs=1e-9)
        assert cycle_mean_of(TropMatrix([[0, 3], [-1, 0]]), res.witness_cycle) \
            == pytest.approx(res.lambda_, abs=1e-9)
        # walk table rows D_0 = [0, 0], D_1 = [0, 3], D_2 = [2, 3]; x_v is the
        # largest D_k[v] - k
        assert res.potential == TropVector([0, 2])

    def test_acyclic_gives_eps(self):
        res = max_cycle_mean(TropMatrix([[E, 1], [E, E]]))
        assert res == CycleMeanResult(E, None, None)

    def test_negative_loop_dominates(self):
        # cycle means: -1, -2, (0-3)/2 = -1.5
        res = max_cycle_mean(TropMatrix([[-1, 0], [-3, -2]]))
        assert res.lambda_ == pytest.approx(-1.0, abs=1e-9)
        assert tuple(res.witness_cycle) == (0,)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            max_cycle_mean(TropMatrix([[1, 2]]))

    def test_matches_brute_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            a = util.sparse_square(rng, n)
            karp = max_cycle_mean(a)
            brute = brute_cycle_mean(a)
            if brute == E:
                assert karp.lambda_ == E
            else:
                assert karp.lambda_ == pytest.approx(brute, abs=1e-9)
                witness = karp.witness_cycle
                assert len(set(witness)) == len(witness)  # elementary
                assert cycle_mean_of(a, witness) \
                    == pytest.approx(karp.lambda_, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(small_graphs())
    def test_matches_brute_property(self, a):
        karp = max_cycle_mean(a)
        brute = brute_cycle_mean(a)
        if brute == E:
            assert karp.lambda_ == E
            assert karp.witness_cycle is None
        else:
            assert karp.lambda_ == pytest.approx(brute, abs=1e-9)
            assert_critical(a, karp)

    @pytest.mark.parametrize("n", [30, 77, 200])
    @pytest.mark.parametrize("shape", ["dense", "sparse", "ties", "dag"])
    def test_large_witness_realizes_lambda(self, n, shape):
        # no oracle at this size: the witness is a cycle of mean lambda, and
        # the sweep of A - lambda finds no closed walk of positive weight
        a = large_graph(np.random.default_rng(n), n, shape)
        res = max_cycle_mean(a)
        assert res.lambda_ > E
        assert_critical(a, res)
        assert np.diagonal(_star_sweep(a.data - res.lambda_)).max() <= 1e-9

    def test_invariant_under_diagonal_similarity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            a = util.sparse_square(rng, n)
            x = util.finite_vector(rng, n)
            # diag(-x) A diag(x): entry (i, j) is a_ij - x_i + x_j
            scaled = TropMatrix(a.data - x.data[:, np.newaxis] + x.data)
            lam = max_cycle_mean(a).lambda_
            lam_scaled = max_cycle_mean(scaled).lambda_
            if lam == E:
                assert lam_scaled == E
            else:
                assert lam_scaled == pytest.approx(lam, abs=1e-9)


class TestKleeneStar:
    def test_worked_example(self):
        star = kleene_star(TropMatrix([[-1, 0], [-3, -2]]))
        assert approx_equal(star, TropMatrix([[0, 0], [-3, 0]]))

    def test_eps_matrix_star_is_identity(self):
        a = TropMatrix(np.full((3, 3), E))
        assert kleene_star(a) == identity(3)

    def test_positive_loop_diverges(self):
        with pytest.raises(DivergentStarError) as exc:
            kleene_star(TropMatrix([[1]]))
        assert exc.value.lambda_ == pytest.approx(1.0)

    def test_divergence_names_karp_witness(self):
        a = util.positive_cycle_matrix(np.random.default_rng(14), 6)
        cm = max_cycle_mean(a)
        with pytest.raises(DivergentStarError) as exc:
            kleene_star(a)
        assert exc.value.lambda_ == cm.lambda_
        assert exc.value.witness_cycle == cm.witness_cycle

    def test_overflowing_divergence_is_detected(self):
        # the sweep doubles a positive cycle's sums until they overflow, and
        # the epsilon column turns the last diagonal entry into nan
        data = np.full((40, 40), 1e300)
        data[:, -1] = E
        with pytest.raises(DivergentStarError) as exc:
            kleene_star(TropMatrix(data))
        assert exc.value.lambda_ == pytest.approx(1e300)

    def test_lambda_within_tol_returns_star(self):
        # a two-cycle of mean 5e-10: positive, but inside tol = 1e-9; the
        # star is that of A - lambda, a fixed point of A within tol
        a = TropMatrix([[E, 1.0], [-1.0 + 1e-9, E]])
        lam = max_cycle_mean(a).lambda_
        assert 0 < lam <= 1e-9
        star = kleene_star(a, 1e-9)
        assert star == TropMatrix(_star_sweep(a.data - lam))
        assert approx_equal(tadd(tmul(a, star), identity(2)), star, tol=1e-9)
        with pytest.raises(DivergentStarError):
            kleene_star(a, 1e-10)

    def test_matches_power_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            a = util.nonpositive_cycle_matrix(rng, n, sparse=bool(rng.integers(2)))
            assert approx_equal(kleene_star(a), brute_star(a), tol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            star = kleene_star(util.nonpositive_cycle_matrix(rng, n))
            assert approx_equal(tmul(star, star), star)
            assert approx_equal(kleene_star(star), star)

    def test_fixed_point_identity(self):
        # A (A*) + I = A* whenever the star converges
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            a = util.nonpositive_cycle_matrix(rng, n, sparse=True)
            star = kleene_star(a)
            assert approx_equal(tadd(tmul(a, star), identity(n)), star)


class TestKarpCallCount:
    def test_convergent_star_skips_karp(self, karp_calls):
        rng = np.random.default_rng(15)
        for _ in range(10):
            n = int(rng.integers(1, 30))
            a = util.nonpositive_cycle_matrix(rng, n, margin=0.5)
            kleene_star(a)
        assert karp_calls == []

    def test_divergent_star_runs_karp_once(self, karp_calls):
        with pytest.raises(DivergentStarError):
            kleene_star(TropMatrix([[1]]))
        assert len(karp_calls) == 1

    @pytest.mark.parametrize("solve", [solve_tslp, solve_tslp2])
    def test_two_sided_runs_karp_once(self, solve, karp_calls):
        # both forms run Karp only when the sweep diverges: a zero-mean cycle
        # weighs 0 >= -tol, so tslp2 reads its kind from the star
        inst = util.tslp_instance(np.random.default_rng(16), 12)
        assert solve(inst).feasibility_kind == "feasible"
        assert karp_calls == []
        # 0.1 + 0.2 - 0.3 rounds to 5.6e-17: the sweep's diagonal turns
        # positive although lambda is within tol
        tight = TwoSidedInstance(TropMatrix([[-5, 0.1, -5], [-5, -5, 0.2],
                                             [-0.3, -5, -5]]),
                                 TropVector([0, 0, 0]), TropVector([0, 0, 0]))
        assert np.diagonal(_star_sweep(tight.a.data)).max() > 0
        solve(tight)
        assert len(karp_calls) == 1

    def test_tslp2_weighs_its_heaviest_cycle_once(self, monkeypatch):
        # the rounding gate holds but the cycle 0 -> 1 -> 0 of weight 0 fails
        # the bound: the kind is read from the max(A + S^T) the bound was given
        inst = TwoSidedInstance(TropMatrix([[-1, 0], [0, -1]]), TropVector([0, 0]),
                                TropVector([0, 0]))
        weighed = util.count_calls(monkeypatch, certificates._heaviest_cycle)
        assert solve_tslp2(inst).feasibility_kind == "feasible"
        assert len(weighed) == 1

    def test_star_sweeps_again_after_karp(self, monkeypatch):
        # a zero-mean cycle whose sweep rounds the diagonal up to 3.3e-16:
        # Karp's lambda is 0, so A - 0.0, which is A, is swept again and
        # gives the first sweep's bytes
        zero = TropMatrix([[-2.4, -0.4, 2.5], [-2.3, -1.6, -2.6], [-4.9, -0.2, -2.6]])
        first = _star_sweep(zero.data)
        assert np.diagonal(first).max() > 0 and max_cycle_mean(zero).lambda_ == 0.0
        # 0.1 + 0.2 - 0.3: lambda is 1.85e-17, within tol, so A - lambda is
        # swept again
        tight = TropMatrix([[-5, 0.1, -5], [-5, -5, 0.2], [-0.3, -5, -5]])
        lam = max_cycle_mean(tight).lambda_
        assert 0 < lam <= 1e-9
        sweeps = util.count_calls(monkeypatch, closure._star_sweep)
        assert kleene_star(zero).data.tobytes() == first.tobytes()
        assert [args[0].tobytes() for args in sweeps] == [zero.data.tobytes()] * 2
        sweeps.clear()
        assert kleene_star(tight).data.tobytes() == _star_sweep(tight.data - lam).tobytes()
        assert [args[0].tobytes() for args in sweeps] == [tight.data.tobytes(),
                                                          (tight.data - lam).tobytes()]

    def test_positive_arc_cycle_runs_karp_before_any_sweep(self, monkeypatch, karp_calls):
        # a cycle of positive arcs certifies lambda > 0 in O(n^2), so Karp's
        # lambda and witness come without a sweep of A; the other divergent
        # draws sweep A first, as convergent ones do
        sweeps = util.count_calls(monkeypatch, closure._star_sweep)
        rng = np.random.default_rng(19)
        draws = [TropMatrix([[1.0]])] + [util.positive_cycle_matrix(rng, n)
                                         for n in (1, 2, 3, 6, 12, 30)]
        closing = set()
        for a in draws:
            cm = max_cycle_mean(a)
            sweeps.clear()
            karp_calls.clear()
            with pytest.raises(DivergentStarError) as exc:
                kleene_star(a)
            assert (exc.value.lambda_, exc.value.witness_cycle) == (cm.lambda_,
                                                                    cm.witness_cycle)
            closes = not certificates._acyclic(a.data > 0)
            assert (len(sweeps), len(karp_calls)) == (0 if closes else 1, 1)
            closing.add(closes)
        assert closing == {True, False}

    def test_positive_arc_cycle_within_tol_sweeps_a_minus_lambda_once(self, monkeypatch):
        a = TropMatrix([[E, 4e-10], [4e-10, E]])
        lam = max_cycle_mean(a).lambda_
        assert 0 < lam <= 1e-9
        sweeps = util.count_calls(monkeypatch, closure._star_sweep)
        star = kleene_star(a)
        assert len(sweeps) == 1
        assert sweeps[0][0].tobytes() == (a.data - lam).tobytes()
        assert star.data.tobytes() == _star_sweep(a.data - lam).tobytes()


def _sweep_first(a: TropMatrix, tol: float = 1e-9):
    """kleene_star's rule with the sweep always first: the star's bytes, or
    the lambda and witness of the divergence it refuses."""
    swept = _star_sweep(a.data)
    if not _diverges(swept):
        return swept.tobytes()
    cm = max_cycle_mean(a)
    if cm.lambda_ > tol:
        return cm.lambda_, cm.witness_cycle
    return _star_sweep(a.data - max(cm.lambda_, 0.0)).tobytes()


def _star_shapes(rng, n):
    """Square matrices of each shape whose star order could matter: mixed
    signs, dense, sparse and acyclic; planted cycles of positive arcs, of
    arcs of 1e-10 (a mean inside tol) or of mixed arcs; lambda = 0 after
    normalizing; entries near 1e17 and 1e300."""
    mixed = rng.uniform(-10, 10, (n, n))
    yield mixed
    yield np.where(rng.random((n, n)) < 0.2, mixed, E)
    yield np.where(np.triu(np.ones((n, n), dtype=bool), 1), mixed, E)
    nodes = rng.permutation(n)[:int(rng.integers(1, n + 1))]
    for arcs in (rng.uniform(0.5, 3, nodes.size), np.full(nodes.size, 1e-10),
                 rng.uniform(-3, 3, nodes.size)):
        planted = rng.uniform(-10, -0.01, (n, n))
        planted[nodes, np.roll(nodes, -1)] = arcs
        yield planted
    yield util.nonpositive_cycle_matrix(rng, n, sparse=bool(rng.integers(2))).data
    for big in (1e17, 1e300):
        scaled = np.where(rng.random((n, n)) < 0.5, mixed * big / 10, mixed)
        yield np.where(rng.random((n, n)) < 0.3, E, scaled)


def test_star_matches_the_sweep_first_rule():
    # bit for bit, or the same refusal; the absorbed cycle, whose walk
    # table's lambda comes out 0.0, is refused by its cycle of positive arcs
    rng = np.random.default_rng(73)
    absorbed = np.array([[E, 1e17, E], [-1e17, E, 1.0], [E, 1.0, E]])
    cases = [absorbed] + [data for _ in range(60)
                          for data in _star_shapes(rng, int(rng.integers(1, 13)))]
    outcomes = set()
    for data in cases:
        a = TropMatrix(data)
        try:
            got = kleene_star(a).data.tobytes()
        except DivergentStarError as exc:
            got = exc.lambda_, exc.witness_cycle
        assert got == _sweep_first(a)
        outcomes.add((isinstance(got, bytes), certificates._acyclic(data > 0)))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_normalized_star_is_one_sweep_of_a_minus_lambda():
    # A - lambda(A), half its entries epsilon, leaves a normalized lambda
    # near 0: its first sweep converges, or Karp's lambda comes out in
    # (0, tol], or at most 0 beside a diagonal that rounding turned
    # positive.  Each star is the sweep of A - max(lambda, 0), and solve and
    # check agree on it.
    rng = np.random.default_rng(5)
    routes = Counter()
    for _ in range(600):
        n = int(rng.integers(3, 40))
        data = np.where(rng.random((n, n)) < 0.5, E, rng.uniform(-10, 10, (n, n)))
        lam = max_cycle_mean(TropMatrix(data)).lambda_
        if lam == E:
            continue
        a = TropMatrix(data - lam)
        lam = max_cycle_mean(a).lambda_
        star = kleene_star(a)
        assert star.data.tobytes() == _star_sweep(a.data - max(lam, 0.0)).tobytes()
        payload, code = solve_to_payload(
            parse_instance(json.dumps({"problem": "star", "A": util.rows_obj(a)})), 1e-9)
        assert code == EXIT_OK
        assert check_solution_text(serialize_solution(payload)) == []
        routes[_diverges(_star_sweep(a.data)), lam > 0.0] += 1
    assert routes == {(False, False): 518, (True, True): 81, (True, False): 1}

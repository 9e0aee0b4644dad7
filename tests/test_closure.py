"""Cycle means and Kleene stars."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import util
from troplp import (EPSILON, DimensionMismatchError, DivergentStarError,
                    TropMatrix, TropVector, TwoSidedInstance, approx_equal,
                    diag, identity, kleene_star, kleene_star_scaled,
                    max_cycle_mean, solve_tslp, solve_tslp2, tadd, tmul)
from troplp import closure
from troplp.closure import _star_sweep
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


def assert_critical(a: TropMatrix, cycle, lam: float, tol: float = 1e-9):
    assert len(set(cycle)) == len(cycle), "witness cycle is not elementary"
    assert cycle_mean_of(a, cycle) == pytest.approx(lam, abs=tol)


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
        assert_critical(a, res.witness_cycle, res.lambda_)

    def test_mutual_arcs(self):
        # loops of mean 0 lose to the two-cycle of mean (3 - 1) / 2 = 1
        a = TropMatrix([[0, 3], [-1, 0]])
        res = max_cycle_mean(a)
        assert res.lambda_ == pytest.approx(1.0, abs=1e-9)
        assert sorted(res.witness_cycle) == [0, 1]
        assert_critical(a, res.witness_cycle, res.lambda_)

    def test_mixed_components(self):
        # 0 <-> 1 cycle (mean 2.5) feeding an isolated sink 2
        a = TropMatrix([[E, 2, 1], [3, E, E], [E, E, E]])
        res = max_cycle_mean(a)
        assert res.lambda_ == pytest.approx(2.5, abs=1e-9)
        assert sorted(res.witness_cycle) == [0, 1]
        assert_critical(a, res.witness_cycle, res.lambda_)


class TestMaxCycleMean:
    def test_worked_example(self):
        # cycles: loop 0 (mean 0), loop 1 (mean 0), two-cycle mean (3-1)/2 = 1
        res = max_cycle_mean(TropMatrix([[0, 3], [-1, 0]]))
        assert res.lambda_ == pytest.approx(1.0, abs=1e-9)
        assert cycle_mean_of(TropMatrix([[0, 3], [-1, 0]]), res.witness_cycle) \
            == pytest.approx(res.lambda_, abs=1e-9)

    def test_acyclic_gives_eps(self):
        res = max_cycle_mean(TropMatrix([[E, 1], [E, E]]))
        assert res.lambda_ == E
        assert res.witness_cycle is None

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
            assert_critical(a, karp.witness_cycle, karp.lambda_)

    @pytest.mark.parametrize("n", [30, 77, 200])
    @pytest.mark.parametrize("shape", ["dense", "sparse", "ties", "dag"])
    def test_large_witness_realizes_lambda(self, n, shape):
        # no oracle at this size: the witness is a cycle of mean lambda, and
        # the sweep of A - lambda finds no closed walk of positive weight
        a = large_graph(np.random.default_rng(n), n, shape)
        res = max_cycle_mean(a)
        assert res.lambda_ > E
        assert_critical(a, res.witness_cycle, res.lambda_)
        assert np.diagonal(_star_sweep(a.data - res.lambda_)).max() <= 1e-9

    def test_invariant_under_diagonal_similarity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            a = util.sparse_square(rng, n)
            x = util.finite_vector(rng, n)
            scaled = tmul(tmul(diag(TropVector(-x.data)), a), diag(x))
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


class TestKleeneStarScaled:
    def test_loop_scaled_to_zero(self):
        assert kleene_star_scaled(TropMatrix([[1]]), 1.0) == TropMatrix([[0]])

    def test_worked_example(self):
        # star of [[-1, 2], [-2, -1]] frozen from the power-sum oracle
        star = kleene_star_scaled(TropMatrix([[0, 3], [-1, 0]]), 1.0)
        assert approx_equal(star, TropMatrix([[0, 2], [-2, 0]]))
        assert approx_equal(star, brute_star(TropMatrix([[-1, 2], [-2, -1]])))

    def test_shift_below_lambda_diverges(self):
        with pytest.raises(DivergentStarError) as exc:
            kleene_star_scaled(TropMatrix([[0, 3], [-1, 0]]), 0.5)
        assert exc.value.lambda_ == pytest.approx(1.0)
        assert exc.value.witness_cycle in ((0, 1), (1, 0))

    def test_shift_within_tol_below_lambda_returns_star(self):
        # lambda = 1 lies within tol above the shift: the star is that of
        # A - lambda, a fixed point of A - shift within tol
        a = TropMatrix([[0, 3], [-1, 0]])
        star = kleene_star_scaled(a, 1.0 - 5e-10, 1e-9)
        assert star == TropMatrix(_star_sweep(a.data - 1.0))
        shifted = TropMatrix(a.data - (1.0 - 5e-10))
        assert approx_equal(tadd(tmul(shifted, star), identity(2)), star, tol=1e-9)


class TestKarpCallCount:
    def test_convergent_star_skips_karp(self, karp_calls):
        rng = np.random.default_rng(15)
        for _ in range(10):
            n = int(rng.integers(1, 30))
            a = util.nonpositive_cycle_matrix(rng, n, margin=0.5)
            kleene_star(a)
            kleene_star_scaled(a, 0.0)
        assert karp_calls == []

    def test_divergent_star_runs_karp_once(self, karp_calls):
        with pytest.raises(DivergentStarError):
            kleene_star(TropMatrix([[1]]))
        assert len(karp_calls) == 1

    @pytest.mark.parametrize("solve", [solve_tslp, solve_tslp2])
    def test_two_sided_runs_karp_once(self, solve, karp_calls):
        inst = util.tslp_instance(np.random.default_rng(16), 12)
        solve(inst)
        assert len(karp_calls) == 1
        # 0.1 + 0.2 - 0.3 rounds to 5.6e-17: the sweep's diagonal turns
        # positive although lambda is within tol
        tight = TwoSidedInstance(TropMatrix([[-5, 0.1, -5], [-5, -5, 0.2],
                                             [-0.3, -5, -5]]),
                                 TropVector([0, 0, 0]), TropVector([0, 0, 0]))
        assert np.diagonal(_star_sweep(tight.a.data)).max() > 0
        solve(tight)
        assert len(karp_calls) == 2

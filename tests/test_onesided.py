"""One-sided systems: residuation, equality solvability, subeigenvectors."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import util
from troplp import (EPSILON, DimensionMismatchError, FiniteRequiredError,
                    TropMatrix, TropVector, greatest_subsolution, kleene_star,
                    leq, max_cycle_mean, solve_equality, subeigen_member, tmul)

E = EPSILON


class TestGreatestSubsolution:
    def test_worked_example(self):
        x = greatest_subsolution(TropMatrix([[1, 2], [3, 4]]), TropVector([5, 6]))
        # componentwise: (min(5-1, 6-3), min(5-2, 6-4)) = (3, 2)
        assert x == TropVector([3, 2])

    def test_near_identity_returns_b(self):
        a = TropMatrix([[0, -50], [-50, 0]])
        assert greatest_subsolution(a, TropVector([3, 4])) == TropVector([3, 4])

    def test_scalar(self):
        assert greatest_subsolution(TropMatrix([[0.5]]), TropVector([1])) \
            == TropVector([0.5])

    def test_matches_conjugate_min_product(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m, n = rng.integers(1, 6, 2)
            a = util.finite_matrix(rng, int(m), int(n))
            b = util.finite_vector(rng, int(m))
            # the min-plus product of the conjugate -A^T with b
            assert greatest_subsolution(a, b) \
                == TropVector((-a.data.T + b.data).min(axis=1))

    def test_eps_rejected(self):
        with pytest.raises(FiniteRequiredError):
            greatest_subsolution(TropMatrix([[E]]), TropVector([0]))
        with pytest.raises(FiniteRequiredError):
            greatest_subsolution(TropMatrix([[1]]), TropVector([E]))

    def test_eps_in_a_skipped_by_the_minimum(self):
        a = TropMatrix([[0, E], [1, 2]])
        # x = (min(3-0, 4-1), min(4-2)) = (3, 2); row 0 drops out for x_1
        x = greatest_subsolution(a, TropVector([3, 4]))
        assert x == TropVector([3, 2])
        res = solve_equality(a, TropVector([3, 4]))
        assert res.solvable_as_equality and res.residual == 0.0

    @pytest.mark.parametrize("rows,b,match", [
        ([[1, E], [2, E]], [0, 0], "column 1 is all -inf"),
        ([[1, 2], [E, E]], [0, 0], "row 1 is all -inf"),
        ([[1, 2], [3, 4]], [0, E], "finite b"),
    ])
    def test_unbounded_or_unattainable_rejected(self, rows, b, match):
        with pytest.raises(FiniteRequiredError, match=match):
            greatest_subsolution(TropMatrix(rows), TropVector(b))

    def test_eps_matches_large_negative_stand_in(self):
        # an epsilon entry acts like a weight too small to ever bind
        rng = np.random.default_rng(4)
        for _ in range(20):
            m, n = (int(v) for v in rng.integers(1, 6, 2))
            a = np.where(rng.random((m, n)) < 0.5, E, rng.uniform(-10, 10, (m, n)))
            # keep a finite entry in every row and column
            for i in range(max(m, n)):
                a[i % m, i % n] = 0.0
            b = util.finite_vector(rng, m)
            stand_in = np.where(a == E, -1e6, a)
            assert greatest_subsolution(TropMatrix(a), b) \
                == greatest_subsolution(TropMatrix(stand_in), b)


class TestSolveEquality:
    def test_solvable(self):
        res = solve_equality(TropMatrix([[0, -1], [-2, 0]]), TropVector([3, 4]))
        assert res.principal == TropVector([3, 4])
        assert res.solvable_as_equality
        assert res.residual == pytest.approx(0.0, abs=1e-12)

    def test_unsolvable(self):
        res = solve_equality(TropMatrix([[1, 2], [3, 4]]), TropVector([5, 6]))
        assert res.principal == TropVector([3, 2])
        assert not res.solvable_as_equality
        # A (A#b) = (4, 6), so the first component falls short by 1
        assert res.residual == pytest.approx(1.0, abs=1e-12)

    def test_scalar_solvable(self):
        res = solve_equality(TropMatrix([[0.0]]), TropVector([0.0]))
        assert res.solvable_as_equality
        assert res.principal == TropVector([0.0])


finite_entries = st.floats(min_value=-50, max_value=50, allow_nan=False)
dim = st.integers(min_value=1, max_value=6)


@st.composite
def system_triple(draw):
    m, n = draw(dim), draw(dim)
    a = draw(hnp.arrays(float, (m, n), elements=finite_entries))
    x = draw(hnp.arrays(float, (n,), elements=finite_entries))
    y = draw(hnp.arrays(float, (m,), elements=finite_entries))
    return TropMatrix(a), TropVector(x), TropVector(y)


class TestGaloisConnection:
    @given(system_triple())
    def test_forward_direction(self, axy):
        a, x, y = axy
        if leq(tmul(a, x), y, tol=0.0):
            assert leq(x, greatest_subsolution(a, y), tol=1e-9)

    @given(system_triple())
    def test_backward_direction(self, axy):
        a, x, y = axy
        if leq(x, greatest_subsolution(a, y), tol=0.0):
            assert leq(tmul(a, x), y, tol=1e-9)

    @given(system_triple())
    def test_closure_property(self, axy):
        a, _, y = axy
        assert leq(tmul(a, greatest_subsolution(a, y)), y, tol=1e-9)

    def test_maximality_of_principal(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m, n = (int(v) for v in rng.integers(1, 6, 2))
            a = util.finite_matrix(rng, m, n)
            b = util.finite_vector(rng, m)
            xhat = greatest_subsolution(a, b)
            x = TropVector(xhat.data + rng.uniform(-3, 3, n))
            if leq(tmul(a, x), b, tol=0.0):
                assert leq(x, xhat, tol=1e-9)


class TestSubeigenvectors:
    def test_member_examples(self):
        assert subeigen_member(TropMatrix([[-1, 0], [-3, -2]]), 0.0,
                               TropVector([0, 0]))
        assert not subeigen_member(TropMatrix([[1]]), 0.0, TropVector([0]))

    @pytest.mark.parametrize("rows,x", [
        ([[0, 0, 0], [0, 0, 0]], [0, 0, 0]),
        ([[0], [0]], [0]),
    ], ids=["2x3", "2x1"])
    def test_member_rejects_non_square(self, rows, x):
        with pytest.raises(DimensionMismatchError, match="not square"):
            subeigen_member(TropMatrix(rows), 0.0, TropVector(x))

    @pytest.mark.parametrize("x, error, match", [
        ([0, E], FiniteRequiredError, "requires finite x"),
        ([0, 0, 0], DimensionMismatchError, "A has 2 columns but x has length 3"),
    ], ids=["eps-x", "long-x"])
    def test_member_rejects_a_bad_x(self, x, error, match):
        with pytest.raises(error, match=match):
            subeigen_member(TropMatrix([[0, 0], [0, 0]]), 0.0, TropVector(x))

    def test_member_at_generous_lambda(self):
        a = TropMatrix([[0, 3], [-1, 0]])
        lam = max_cycle_mean(a).lambda_ + 10
        # at the zero vector the inequality reads: row maxima <= lambda
        assert subeigen_member(a, lam, TropVector([0, 0])) \
            == bool(np.all(a.data.max(axis=1) <= lam))

    def test_generated_points_are_members(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            a = util.finite_matrix(rng, n, n)
            lam = max_cycle_mean(a).lambda_ + float(rng.uniform(0, 2))
            u = util.finite_vector(rng, n)
            x = tmul(kleene_star(TropMatrix(a.data - lam)), u)
            assert subeigen_member(a, lam, x)

    def test_generated_points_are_fixed_by_the_star(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            a = util.finite_matrix(rng, n, n)
            lam = max_cycle_mean(a).lambda_ + float(rng.uniform(0, 2))
            star = kleene_star(TropMatrix(a.data - lam))
            x = tmul(star, util.finite_vector(rng, n))
            again = tmul(star, x)
            assert np.allclose(again.data, x.data, rtol=0, atol=1e-9)

"""Core max-plus algebra: construction invariants, operations, algebra laws."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from troplp import (EPSILON, DimensionMismatchError, FiniteRequiredError,
                    TropMatrix, TropVector, approx_equal, conjugate, diag,
                    identity, leq, tadd, tdot, tdot_min, tmul, tmul_min,
                    transpose)

E = EPSILON


class TestConstruction:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            TropMatrix([[float("nan")]])

    def test_plus_inf_rejected(self):
        with pytest.raises(ValueError):
            TropVector([1.0, float("inf")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TropMatrix([[]])
        with pytest.raises(ValueError):
            TropVector([])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            TropMatrix([[1, 2], [3]])

    def test_immutability(self):
        a = TropMatrix([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            a.data[0, 0] = 9.0

    def test_finiteness_flag(self):
        assert TropMatrix([[1, 2], [3, 4]]).is_finite()
        assert not TropMatrix([[1, E], [3, 4]]).is_finite()


class TestTadd:
    def test_entrywise_max(self):
        a = TropMatrix([[1, E], [0, 2]])
        b = TropMatrix([[0, 3], [E, 1]])
        assert tadd(a, b) == TropMatrix([[1, 3], [0, 2]])

    def test_idempotent(self):
        a = TropMatrix([[1, -2], [0.5, 2]])
        assert tadd(a, a) == a

    def test_eps_neutral(self):
        a = TropMatrix([[1, -2], [0.5, 2]])
        assert tadd(a, TropMatrix([[E, E], [E, E]])) == a

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            tadd(TropMatrix([[1]]), TropMatrix([[1, 2]]))


class TestTmul:
    def test_matrix_vector(self):
        a = TropMatrix([[1, 2], [3, 4]])
        # row 1: max(1+3, 2+2) = 4; row 2: max(3+3, 4+2) = 6
        assert tmul(a, TropVector([3, 2])) == TropVector([4, 6])

    def test_identity_neutral(self):
        a = TropMatrix([[1, E], [0, 2]])
        assert tmul(identity(2), a) == a
        assert tmul(a, identity(2)) == a

    def test_eps_absorbing(self):
        assert tmul(TropMatrix([[E, E]]), TropVector([0, 0])) == TropVector([E])

    def test_inner_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            tmul(TropMatrix([[1, 2]]), TropVector([1, 2, 3]))

    def test_matrix_matrix_matches_broadcast_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            m, k, n = (int(v) for v in rng.integers(1, 7, 3))
            x = np.where(rng.random((m, k)) < 0.3, E, rng.uniform(-9, 9, (m, k)))
            y = np.where(rng.random((k, n)) < 0.3, E, rng.uniform(-9, 9, (k, n)))
            expected = (x[:, :, np.newaxis] + y[np.newaxis, :, :]).max(axis=1)
            assert np.array_equal(tmul(TropMatrix(x), TropMatrix(y)).data, expected)


class TestTmulMin:
    def test_matrix_vector(self):
        a = TropMatrix([[-1, -2], [-3, -4]])
        # row 1: min(-1+5, -2+6) = 4; row 2: min(-3+5, -4+6) = 2
        assert tmul_min(a, TropVector([5, 6])) == TropVector([4, 2])

    def test_zero_diagonal_with_finite_matrix(self):
        # min-plus identity behaviour needs finite operands, so use 1x1
        assert tmul_min(TropMatrix([[0.0]]), TropVector([3.5])) == TropVector([3.5])

    def test_matrix_matrix_matches_broadcast_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            m, k, n = (int(v) for v in rng.integers(1, 7, 3))
            x = rng.uniform(-9, 9, (m, k))
            y = rng.uniform(-9, 9, (k, n))
            expected = (x[:, :, np.newaxis] + y[np.newaxis, :, :]).min(axis=1)
            assert np.array_equal(tmul_min(TropMatrix(x), TropMatrix(y)).data,
                                  expected)

    def test_eps_rejected(self):
        with pytest.raises(FiniteRequiredError):
            tmul_min(TropMatrix([[E]]), TropVector([0]))
        with pytest.raises(FiniteRequiredError):
            tmul_min(TropMatrix([[1]]), TropVector([E]))


class TestConjugate:
    def test_negated_transpose(self):
        a = TropMatrix([[1, 2], [3, 4]])
        assert conjugate(a) == TropMatrix([[-1, -3], [-2, -4]])

    def test_involution(self):
        a = TropMatrix([[1.5, -2], [0, 7]])
        assert conjugate(conjugate(a)) == a

    def test_vector_conjugate_dot_is_zero(self):
        u = TropVector([1, 2])
        assert tdot(conjugate(u), u) == 0.0

    def test_eps_rejected(self):
        with pytest.raises(FiniteRequiredError):
            conjugate(TropMatrix([[E, 1], [2, 3]]))


class TestDiag:
    def test_zero_diag_is_identity(self):
        assert diag(TropVector([0, 0])) == identity(2)

    def test_inverse(self):
        assert tmul(diag(TropVector([5, 6])), diag(TropVector([-5, -6]))) == identity(2)

    def test_scalar_case(self):
        assert tmul(diag(TropVector([1])), TropVector([3])) == TropVector([4])

    def test_eps_rejected(self):
        with pytest.raises(FiniteRequiredError):
            diag(TropVector([1, E]))


class TestLeq:
    def test_reflexive(self):
        a = TropMatrix([[1, 2], [3, 4]])
        assert leq(a, a)

    def test_eps_below_everything(self):
        assert leq(TropMatrix([[E, E], [E, E]]), TropMatrix([[-100, 0], [1, E]]))

    def test_strict_violation(self):
        assert not leq(TropMatrix([[0]]), TropMatrix([[-1]]))

    def test_tolerance(self):
        assert leq(TropMatrix([[1e-10]]), TropMatrix([[0]]), tol=1e-9)
        assert not leq(TropMatrix([[1e-8]]), TropMatrix([[0]]), tol=1e-9)


finite_entries = st.floats(min_value=-100, max_value=100, allow_nan=False)
small_dim = st.integers(min_value=1, max_value=4)


def matrices(rows, cols):
    return hnp.arrays(float, (rows, cols), elements=finite_entries).map(TropMatrix)


def vectors(n):
    return hnp.arrays(float, (n,), elements=finite_entries).map(TropVector)


@st.composite
def three_chained_matrices(draw):
    m, k, p, q = (draw(small_dim) for _ in range(4))
    return (draw(matrices(m, k)), draw(matrices(k, p)), draw(matrices(p, q)))


class TestAlgebraLaws:
    @given(three_chained_matrices())
    def test_associativity(self, abc):
        a, b, c = abc
        assert approx_equal(tmul(tmul(a, b), c), tmul(a, tmul(b, c)))

    @given(three_chained_matrices())
    def test_distributivity(self, abc):
        a, b, _ = abc
        c = TropMatrix(b.data + 1.0)
        left = tmul(a, tadd(b, c))
        right = tadd(tmul(a, b), tmul(a, c))
        assert approx_equal(left, right)

    @given(three_chained_matrices(), st.floats(min_value=0, max_value=50))
    def test_isotonicity(self, abc, bump):
        low, c, _ = abc
        high = TropMatrix(low.data + bump)
        assert leq(tmul(low, c), tmul(high, c))
        d = transpose(low)
        assert leq(tmul(d, low), tmul(d, high))

    @given(three_chained_matrices())
    def test_product_conjugate_swaps(self, abc):
        a, b, _ = abc
        left = conjugate(tmul(a, b))
        right = tmul_min(conjugate(b), conjugate(a))
        assert approx_equal(left, right)

    @given(three_chained_matrices())
    def test_min_product_conjugate_swaps(self, abc):
        a, b, _ = abc
        left = conjugate(tmul_min(a, b))
        right = tmul(conjugate(b), conjugate(a))
        assert approx_equal(left, right)

    @given(small_dim.flatmap(vectors))
    def test_conjugate_dot_identities(self, u):
        assert abs(tdot(conjugate(u), u)) <= 1e-9
        # the outer product u conjugate(u)' as a column times a row
        outer = tmul(TropMatrix(u.data[:, np.newaxis]),
                     TropMatrix(conjugate(u).data[np.newaxis, :]))
        assert leq(identity(len(u)), outer)


class TestDotProducts:
    def test_tdot(self):
        assert tdot(TropVector([1, 5, 2]), TropVector([2, 1, 3])) == 6.0

    def test_tdot_min(self):
        assert tdot_min(TropVector([1, 5, 2]), TropVector([2, 1, 3])) == 3.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            tdot(TropVector([1]), TropVector([1, 2]))

"""Max-plus (tropical) scalars, matrices and vectors.

The scalar carrier is R together with the bottom element epsilon = -inf.
Tropical addition is max (epsilon neutral), tropical multiplication is +
(epsilon absorbing).  IEEE -inf implements both laws natively, so entries are
stored in read-only float64 arrays; NaN and +inf are rejected at construction.

The dual min-plus pair (min, +) is defined over finite entries only; the
min-plus operations below reject any -inf input.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, FiniteRequiredError

EPSILON = float("-inf")
DEFAULT_TOL = 1e-9


def is_eps(x: float) -> bool:
    """True if x is the bottom element -inf."""
    return x == EPSILON


def _as_array(entries, ndim: int) -> np.ndarray:
    try:
        arr = np.array(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"could not build a numeric array: {exc}") from None
    if arr.ndim != ndim:
        raise ValueError(f"expected {ndim} dimensions, got shape {arr.shape}")
    if arr.size == 0 or min(arr.shape) == 0:
        raise ValueError("every dimension must be at least 1")
    if np.isnan(arr).any():
        raise ValueError("NaN entries are not allowed")
    if np.isposinf(arr).any():
        raise ValueError("+inf entries are not allowed")
    arr.setflags(write=False)
    return arr


class TropMatrix:
    """Dense rectangular matrix over the max-plus semiring.

    Immutable: the backing array is read-only and every operation returns a
    new value, so instances may be shared freely between threads.
    """

    __slots__ = ("_data",)

    def __init__(self, entries):
        self._data = _as_array(entries, 2)

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    def is_finite(self) -> bool:
        """True if no entry is epsilon."""
        return not np.isneginf(self._data).any()

    def to_lists(self) -> list[list[float]]:
        return [[float(x) for x in row] for row in self._data]

    def __getitem__(self, idx) -> float:
        return float(self._data[idx])

    def __eq__(self, other) -> bool:
        return (isinstance(other, TropMatrix)
                and self.shape == other.shape
                and bool(np.array_equal(self._data, other._data)))

    __hash__ = None

    def __repr__(self) -> str:
        return f"TropMatrix({self.to_lists()!r})"


class TropVector:
    """Column vector over the max-plus semiring.  Immutable."""

    __slots__ = ("_data",)

    def __init__(self, entries):
        self._data = _as_array(entries, 1)

    @property
    def data(self) -> np.ndarray:
        return self._data

    def is_finite(self) -> bool:
        return not np.isneginf(self._data).any()

    def to_list(self) -> list[float]:
        return [float(x) for x in self._data]

    def __len__(self) -> int:
        return self._data.shape[0]

    def __getitem__(self, idx) -> float:
        return float(self._data[idx])

    def __eq__(self, other) -> bool:
        return (isinstance(other, TropVector)
                and len(self) == len(other)
                and bool(np.array_equal(self._data, other._data)))

    __hash__ = None

    def __repr__(self) -> str:
        return f"TropVector({self.to_list()!r})"


def _require_same_shape(a, b):
    if type(a) is not type(b):
        raise DimensionMismatchError(
            f"mixed operand kinds: {type(a).__name__} and {type(b).__name__}")
    if a.data.shape != b.data.shape:
        raise DimensionMismatchError(
            f"shape mismatch: {a.data.shape} vs {b.data.shape}")


def _require_finite(*values):
    for v in values:
        if np.isneginf(v.data).any():
            raise FiniteRequiredError("operation requires finite entries, got -inf")


def tadd(a, b):
    """Entrywise tropical sum (max) of two matrices or two vectors."""
    _require_same_shape(a, b)
    return type(a)(np.maximum(a.data, b.data))


def _accumulate(op, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix product over (op, +), one rank-one update per inner index.

    Keeps the working set at one m x n buffer instead of the m x k x n
    broadcast temporary.
    """
    out = x[:, 0:1] + y[0:1, :]
    term = np.empty_like(out)
    for k in range(1, x.shape[1]):
        np.add(x[:, k:k + 1], y[k:k + 1, :], out=term)
        op(out, term, out=out)
    return out


def tmul(a: TropMatrix, b):
    """Max-plus product: matrix x matrix -> matrix, matrix x vector -> vector."""
    if isinstance(b, TropVector):
        if a.cols != len(b):
            raise DimensionMismatchError(
                f"inner dimensions disagree: {a.shape} x ({len(b)},)")
        return TropVector((a.data + b.data[np.newaxis, :]).max(axis=1))
    if a.cols != b.rows:
        raise DimensionMismatchError(
            f"inner dimensions disagree: {a.shape} x {b.shape}")
    return TropMatrix(_accumulate(np.maximum, a.data, b.data))


def tmul_min(a: TropMatrix, b):
    """Min-plus product; every entry of both operands must be finite."""
    _require_finite(a, b)
    if isinstance(b, TropVector):
        if a.cols != len(b):
            raise DimensionMismatchError(
                f"inner dimensions disagree: {a.shape} x ({len(b)},)")
        return TropVector((a.data + b.data[np.newaxis, :]).min(axis=1))
    if a.cols != b.rows:
        raise DimensionMismatchError(
            f"inner dimensions disagree: {a.shape} x {b.shape}")
    return TropMatrix(_accumulate(np.minimum, a.data, b.data))


def tdot(u: TropVector, v: TropVector) -> float:
    """Max-plus inner product max_i(u_i + v_i)."""
    if len(u) != len(v):
        raise DimensionMismatchError(f"length mismatch: {len(u)} vs {len(v)}")
    return float(np.max(u.data + v.data))


def tdot_min(u: TropVector, v: TropVector) -> float:
    """Min-plus inner product min_i(u_i + v_i); finite entries required."""
    _require_finite(u, v)
    if len(u) != len(v):
        raise DimensionMismatchError(f"length mismatch: {len(u)} vs {len(v)}")
    return float(np.min(u.data + v.data))


def touter(u: TropVector, v: TropVector) -> TropMatrix:
    """Max-plus outer product: entry (i, j) is u_i + v_j."""
    return TropMatrix(u.data[:, np.newaxis] + v.data[np.newaxis, :])


def transpose(a: TropMatrix) -> TropMatrix:
    return TropMatrix(a.data.T)


def conjugate(a):
    """Conjugate: negated transpose for matrices, negation for vectors.

    The conjugate links the max-plus and min-plus products and is defined for
    finite operands only.
    """
    _require_finite(a)
    if isinstance(a, TropVector):
        return TropVector(-a.data)
    return TropMatrix(-a.data.T)


def diag(x: TropVector) -> TropMatrix:
    """Diagonal matrix with x on the diagonal and epsilon elsewhere."""
    _require_finite(x)
    n = len(x)
    out = np.full((n, n), EPSILON)
    np.fill_diagonal(out, x.data)
    return TropMatrix(out)


def inverse_diag(x: TropVector) -> TropMatrix:
    """Inverse of diag(x), i.e. diag(-x)."""
    _require_finite(x)
    return diag(TropVector(-x.data))


def identity(n: int) -> TropMatrix:
    """Unit matrix: zeros on the diagonal, epsilon elsewhere."""
    return diag(TropVector(np.zeros(n)))


def eps_matrix(rows: int, cols: int) -> TropMatrix:
    return TropMatrix(np.full((rows, cols), EPSILON))


def eps_vector(n: int) -> TropVector:
    return TropVector(np.full(n, EPSILON))


def leq(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Entrywise a <= b within an absolute tolerance; -inf <= anything."""
    _require_same_shape(a, b)
    return bool(np.all(a.data <= b.data + tol))


def approx_equal(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Entrywise equality within an absolute tolerance; -inf matches -inf."""
    _require_same_shape(a, b)
    return bool(np.all(np.isclose(a.data, b.data, rtol=0.0, atol=tol)))

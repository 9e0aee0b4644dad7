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


class _TropArray:
    """Read-only float64 array of a fixed number of dimensions.

    Immutable: the backing array is read-only and every operation returns a
    new value, so instances may be shared freely between threads.  Values of
    different shapes, a matrix and a vector among them, are never equal.
    """

    __slots__ = ("_data",)
    _ndim: int

    def __init__(self, entries):
        self._data = _as_array(entries, self._ndim)

    @property
    def data(self) -> np.ndarray:
        return self._data

    def is_finite(self) -> bool:
        """True if no entry is epsilon."""
        return not np.isneginf(self._data).any()

    def __getitem__(self, idx) -> float:
        return float(self._data[idx])

    def __eq__(self, other) -> bool:
        return (isinstance(other, _TropArray)
                and bool(np.array_equal(self._data, other._data)))

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._data.tolist()!r})"


class TropMatrix(_TropArray):
    """Dense rectangular matrix over the max-plus semiring.  Immutable."""

    __slots__ = ()
    _ndim = 2

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    def to_lists(self) -> list[list[float]]:
        return [[float(x) for x in row] for row in self._data]


class TropVector(_TropArray):
    """Column vector over the max-plus semiring.  Immutable."""

    __slots__ = ()
    _ndim = 1

    def to_list(self) -> list[float]:
        return [float(x) for x in self._data]

    def __len__(self) -> int:
        return self._data.shape[0]


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


def _product(op, a: TropMatrix, b):
    """Product over (op, +): matrix x matrix -> matrix, matrix x vector -> vector."""
    if isinstance(b, TropVector):
        if a.cols != len(b):
            raise DimensionMismatchError(
                f"inner dimensions disagree: {a.shape} x ({len(b)},)")
        return TropVector(op.reduce(a.data + b.data[np.newaxis, :], axis=1))
    if a.cols != b.rows:
        raise DimensionMismatchError(
            f"inner dimensions disagree: {a.shape} x {b.shape}")
    return TropMatrix(_accumulate(op, a.data, b.data))


def tmul(a: TropMatrix, b):
    """Max-plus product: matrix x matrix -> matrix, matrix x vector -> vector."""
    return _product(np.maximum, a, b)


def tmul_min(a: TropMatrix, b):
    """Min-plus product; every entry of both operands must be finite."""
    _require_finite(a, b)
    return _product(np.minimum, a, b)


def _dot(op, u: TropVector, v: TropVector) -> float:
    """Inner product over (op, +): op-reduce of u_i + v_i."""
    if len(u) != len(v):
        raise DimensionMismatchError(f"length mismatch: {len(u)} vs {len(v)}")
    return float(op.reduce(u.data + v.data))


def tdot(u: TropVector, v: TropVector) -> float:
    """Max-plus inner product max_i(u_i + v_i)."""
    return _dot(np.maximum, u, v)


def tdot_min(u: TropVector, v: TropVector) -> float:
    """Min-plus inner product min_i(u_i + v_i); finite entries required."""
    _require_finite(u, v)
    return _dot(np.minimum, u, v)


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


def identity(n: int) -> TropMatrix:
    """Unit matrix: zeros on the diagonal, epsilon elsewhere."""
    return diag(TropVector(np.zeros(n)))


def excess(lhs, rhs, tol: float = DEFAULT_TOL) -> float | None:
    """The tolerance rule: lhs <= rhs holds when lhs <= rhs + tol entrywise.

    Operands are floats or float arrays that broadcast; -inf <= anything.
    None when the rule holds, else the largest lhs - rhs where it fails.
    Every certificate inequality of the solvers and of io's checks is decided
    here."""
    bad = np.asarray(lhs > rhs + tol)
    if not bad.any():
        return None
    lhs, rhs = np.broadcast_arrays(lhs, rhs)
    return float(np.max(lhs[bad] - rhs[bad]))


def mismatch(lhs, rhs, tol: float = DEFAULT_TOL) -> float | None:
    """lhs = rhs within tol: the rule of excess in both directions.  Returns
    None when both hold, else the largest |lhs - rhs| where one fails."""
    found = [e for e in (excess(lhs, rhs, tol), excess(rhs, lhs, tol)) if e is not None]
    return max(found, default=None)


def leq(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Entrywise a <= b within an absolute tolerance; -inf <= anything."""
    _require_same_shape(a, b)
    return excess(a.data, b.data, tol) is None


def approx_equal(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Entrywise equality within an absolute tolerance; -inf matches -inf."""
    _require_same_shape(a, b)
    return mismatch(a.data, b.data, tol) is None

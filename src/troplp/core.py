"""Max-plus (tropical) scalars, matrices and vectors.

The scalar carrier is R together with the bottom element epsilon = -inf.
Tropical addition is max (epsilon neutral), tropical multiplication is +
(epsilon absorbing).  IEEE -inf implements both laws natively, so entries are
stored in read-only float64 arrays; NaN and +inf are rejected at construction,
both found by one max reduction over the entries.
Only (max, +) operations are provided: residuation, the one place the min-plus
conjugate enters, is written out in onesided.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError

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
    # one reduction finds both: NaN propagates through the max, and +inf is
    # the max of any array without NaN that holds it
    top = arr.max()
    if np.isnan(top):
        raise ValueError("NaN entries are not allowed")
    if top == np.inf:
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
        """True if no entry is epsilon: construction rejects NaN and +inf and
        every dimension is at least 1, so the least entry decides."""
        return bool(self._data.min() > EPSILON)

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


class TropVector(_TropArray):
    """Column vector over the max-plus semiring.  Immutable."""

    __slots__ = ()
    _ndim = 1

    def __len__(self) -> int:
        return self._data.shape[0]


def _require_same_shape(a, b):
    if type(a) is not type(b):
        raise DimensionMismatchError(
            f"mixed operand kinds: {type(a).__name__} and {type(b).__name__}")
    if a.data.shape != b.data.shape:
        raise DimensionMismatchError(
            f"shape mismatch: {a.data.shape} vs {b.data.shape}")


def tadd(a, b):
    """Entrywise tropical sum (max) of two matrices or two vectors."""
    _require_same_shape(a, b)
    return type(a)(np.maximum(a.data, b.data))


def tmul(a: TropMatrix, b):
    """Max-plus product: matrix x matrix -> matrix, matrix x vector -> vector.

    The matrix product makes one rank-one update per inner index, which keeps
    the working set at one m x n buffer instead of the m x k x n broadcast
    temporary.
    """
    if isinstance(b, TropVector):
        if a.cols != len(b):
            raise DimensionMismatchError(
                f"inner dimensions disagree: {a.shape} x ({len(b)},)")
        return TropVector((a.data + b.data[np.newaxis, :]).max(axis=1))
    if a.cols != b.rows:
        raise DimensionMismatchError(
            f"inner dimensions disagree: {a.shape} x {b.shape}")
    x, y = a.data, b.data
    out = x[:, 0:1] + y[0:1, :]
    term = np.empty_like(out)
    for k in range(1, a.cols):
        np.add(x[:, k:k + 1], y[k:k + 1, :], out=term)
        np.maximum(out, term, out=out)
    return TropMatrix(out)


def tdot(u: TropVector, v: TropVector) -> float:
    """Max-plus inner product max_i(u_i + v_i)."""
    if len(u) != len(v):
        raise DimensionMismatchError(f"length mismatch: {len(u)} vs {len(v)}")
    return float((u.data + v.data).max())


def transpose(a: TropMatrix) -> TropMatrix:
    return TropMatrix(a.data.T)


def identity(n: int) -> TropMatrix:
    """Unit matrix: zeros on the diagonal, epsilon elsewhere."""
    out = np.full((n, n), EPSILON)
    np.fill_diagonal(out, 0.0)
    return TropMatrix(out)


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

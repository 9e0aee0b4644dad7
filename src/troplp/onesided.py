"""Residuation-based solvers for one-sided systems Ax <= b and Ax = b.

The max-plus product and the min-plus conjugate product form a Galois
connection: Ax <= y holds exactly when x is below the principal solution
built from the conjugate of A.  That principal solution is the greatest
subsolution, and the equality system is solvable exactly when substituting
it back reproduces b.  Subeigenvector machinery (finite x with Ax <= lam + x)
rides on the shifted Kleene star.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closure import kleene_star_scaled, max_cycle_mean
from .core import DEFAULT_TOL, EPSILON, TropMatrix, TropVector, excess, tmul
from .errors import DimensionMismatchError, FiniteRequiredError


@dataclass(frozen=True)
class OneSidedSolveResult:
    """Principal solution of Ax <= b plus the equality verdict.

    residual is the largest shortfall max_i(b_i - (A x)_i) at the principal
    solution; it is ~0 exactly when Ax = b is solvable.
    """

    principal: TropVector
    solvable_as_equality: bool
    residual: float


def _check_system(a: TropMatrix, b: TropVector):
    """Residuation needs a finite b and a finite entry in every row and column.

    An epsilon entry a_ij only drops row i from the minimum for x_j; an all
    epsilon column would leave x_j unbounded, and an all epsilon row would
    keep (A x)_i at epsilon, an infinite shortfall below b_i.
    """
    if not b.is_finite():
        raise FiniteRequiredError("one-sided solvers require a finite b")
    finite = a.data > EPSILON
    for axis, what in ((0, "column"), (1, "row")):
        empty = np.flatnonzero(~finite.any(axis=axis))
        if empty.size:
            raise FiniteRequiredError(
                f"one-sided solvers need a finite entry in every {what} of A; "
                f"{what} {int(empty[0])} is all -inf")
    if a.rows != len(b):
        raise DimensionMismatchError(
            f"A has {a.rows} rows but b has length {len(b)}")


def greatest_subsolution(a: TropMatrix, b: TropVector) -> TropVector:
    """Greatest x with A x <= b: componentwise x_j = min_i(b_i - a_ij).

    Epsilon entries of A are allowed; they give b_i - a_ij = +inf, which the
    minimum skips.
    """
    _check_system(a, b)
    return TropVector((b.data[:, np.newaxis] - a.data).min(axis=0))


def solve_equality(a: TropMatrix, b: TropVector,
                   tol: float = DEFAULT_TOL) -> OneSidedSolveResult:
    """Solve A x = b; the system is solvable iff the principal solution attains b."""
    x = greatest_subsolution(a, b)
    residual = shortfall(a, b, x)
    # the rule on max(b - Ax) <= 0, as check applies it to the stored residual
    return OneSidedSolveResult(x, excess(residual, 0.0, tol) is None, residual)


def shortfall(a: TropMatrix, b: TropVector, x: TropVector) -> float:
    """max(b - Ax): how far Ax falls short of b; at most 0 when Ax >= b."""
    return float(np.max(b.data - tmul(a, x).data))


def subeigen_nonempty(a: TropMatrix, lam: float, tol: float = DEFAULT_TOL) -> bool:
    """True iff some finite x satisfies A x <= lam + x, i.e. lam >= lambda(A)."""
    if not a.is_finite():
        raise FiniteRequiredError("subeigenvector test requires finite A")
    return lam >= max_cycle_mean(a).lambda_ - tol


def subeigen_generate(a: TropMatrix, lam: float, u: TropVector,
                      tol: float = DEFAULT_TOL) -> TropVector:
    """Map u into the subeigenvector set via the shifted star of A.

    Every image is a solution of A x <= lam + x, and every solution arises
    this way; diverges (error) when lam is below the maximum cycle mean.
    """
    if not a.is_finite() or not u.is_finite():
        raise FiniteRequiredError("subeigenvector generation requires finite inputs")
    if a.cols != len(u):
        raise DimensionMismatchError(
            f"A has {a.cols} columns but u has length {len(u)}")
    return tmul(kleene_star_scaled(a, lam, tol), u)


def subeigen_member(a: TropMatrix, lam: float, x: TropVector,
                    tol: float = DEFAULT_TOL) -> bool:
    """Check A x <= lam + x entrywise within tol."""
    if not x.is_finite():
        raise FiniteRequiredError("membership test requires finite x")
    if a.cols != len(x):
        raise DimensionMismatchError(
            f"A has {a.cols} columns but x has length {len(x)}")
    return excess(tmul(a, x).data, lam + x.data, tol) is None

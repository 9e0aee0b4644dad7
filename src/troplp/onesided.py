"""Residuation-based solvers for one-sided systems Ax <= b and Ax = b.

Residuation: Ax <= b holds exactly when x is below the principal solution
x_j = min_i(b_i - a_ij), the min-plus product of the conjugate -A^T with b,
written out as that one formula in certificates.residuate.  The principal
solution is the greatest subsolution, and the equality system is solvable
exactly when substituting it back reproduces b.  subeigen_member tests a
finite x against the subeigenvector inequality Ax <= lam + x.  These are
certificate rules; this module guards their input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import certificates
from .closure import _require_square
from .core import DEFAULT_TOL, EPSILON, TropMatrix, TropVector, tmul
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
    """The domain of residuation, the guard of the onesided kind and, through
    LpInstance, of the A-b-c kinds: a finite b as long as A has rows, and a
    finite entry in every row and column of A (a doubly R-astic A).

    An epsilon entry a_ij only drops row i from the minimum for x_j; an all
    epsilon column would leave x_j unbounded, and an all epsilon row would
    keep (A x)_i at epsilon, an infinite shortfall below b_i.  A finite A is
    told by one reduction; rows and columns are scanned only when it holds
    epsilon.
    """
    if not b.is_finite():
        raise FiniteRequiredError("residuation needs a finite b")
    if not a.is_finite():
        finite = a.data > EPSILON
        for axis, what in ((0, "column"), (1, "row")):
            empty = np.flatnonzero(~finite.any(axis=axis))
            if empty.size:
                raise FiniteRequiredError(
                    f"residuation needs a finite entry in every {what} of A; "
                    f"{what} {int(empty[0])} is all -inf")
    if a.rows != len(b):
        raise DimensionMismatchError(
            f"A has {a.rows} rows but b has length {len(b)}")


def greatest_subsolution(a: TropMatrix, b: TropVector) -> TropVector:
    """Greatest x with A x <= b: componentwise x_j = min_i(b_i - a_ij), over
    the finite a_ij."""
    _check_system(a, b)
    return certificates.residuate(a, b)


def solve_equality(a: TropMatrix, b: TropVector,
                   tol: float = DEFAULT_TOL) -> OneSidedSolveResult:
    """Solve A x = b; the system is solvable iff the principal solution attains b."""
    x = greatest_subsolution(a, b)
    residual, solvable = certificates.shortfall(tmul(a, x).data, b.data, tol)
    return OneSidedSolveResult(x, solvable, residual)


def subeigen_member(a: TropMatrix, lam: float, x: TropVector,
                    tol: float = DEFAULT_TOL) -> bool:
    """Check A x <= lam + x entrywise within tol; A must be square."""
    if not x.is_finite():
        raise FiniteRequiredError("membership test requires finite x")
    _require_square(a)
    if a.cols != len(x):
        raise DimensionMismatchError(
            f"A has {a.cols} columns but x has length {len(x)}")
    return certificates.subeigenvector(a, lam, x, tol)

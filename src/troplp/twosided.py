"""Special two-sided tropical programs solved through the Kleene star.

Both programs minimize c'y over n-vectors y constrained against A y and a
lower vector d:

  - inequality form:  A y + d <= y   (componentwise, + is the tropical sum)
  - equation form:    A y + d  = y

Feasible points exist exactly when the maximum cycle mean lambda of A is
nonpositive.  Every feasible y of either form has y >= d and y >= A y, hence
y >= A^k d for every k and so y >= A* d; and A* d satisfies the equation.
So A* d is the least feasible point of both forms, and since c'y is isotone
it is the optimum of both.  One cycle mean and one star sweep, both O(n^3),
do the work: closure's divergence rule, given the cycle mean, refuses a
lambda above tol and sweeps A - max(lambda, 0).  So a lambda in (0, tol]
counts as feasible, and A y + d stays within lambda of y; a sweep of A itself
would be inflated by about the cycle's length times lambda.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closure import max_cycle_mean, star_given_mean
from .core import DEFAULT_TOL, TropMatrix, TropVector, excess, mismatch, tdot, tmul
from .errors import (CertificateViolationError, DimensionMismatchError,
                     FiniteRequiredError)

FEASIBLE = "feasible"
UNIQUE_FIXED_POINT = "unique-fixed-point"


@dataclass(frozen=True)
class TwoSidedInstance:
    a: TropMatrix
    d: TropVector
    c: TropVector

    def __post_init__(self):
        if self.a.rows != self.a.cols:
            raise DimensionMismatchError(f"A is not square: {self.a.shape}")
        if not (self.a.is_finite() and self.d.is_finite() and self.c.is_finite()):
            raise FiniteRequiredError("two-sided instances must be finite")
        if len(self.d) != self.a.rows or len(self.c) != self.a.rows:
            raise DimensionMismatchError(
                f"d and c must have length {self.a.rows}")


@dataclass(frozen=True)
class TwoSidedResult:
    y_opt: TropVector
    g_min: float
    feasibility_kind: str


def two_sided_lhs(inst, y: TropVector) -> np.ndarray:
    """The left-hand side max(Ay, d) of both forms; inst is anything with
    square .a and .d."""
    return np.maximum(tmul(inst.a, y).data, inst.d.data)


def tslp_feasible(inst: TwoSidedInstance, y: TropVector,
                  tol: float = DEFAULT_TOL) -> bool:
    """Check A y + d <= y entrywise within tol."""
    if len(y) != inst.a.rows:
        raise DimensionMismatchError(f"y must have length {inst.a.rows}")
    return excess(two_sided_lhs(inst, y), y.data, tol) is None


def _least_point(inst: TwoSidedInstance, tol: float) -> tuple[TropVector, float]:
    """The least feasible point y = A* d of both forms, and lambda(A);
    DivergentStarError when lambda(A) > tol leaves no point feasible."""
    cm = max_cycle_mean(inst.a)
    return tmul(star_given_mean(inst.a, 0.0, cm, tol), inst.d), cm.lambda_


def solve_tslp(inst: TwoSidedInstance, tol: float = DEFAULT_TOL) -> TwoSidedResult:
    """Minimize c'y subject to A y + d <= y; the optimum is y = A* d."""
    y, _ = _least_point(inst, tol)
    if not tslp_feasible(inst, y, tol):
        raise CertificateViolationError("two-sided witness failed feasibility")
    return TwoSidedResult(y, tdot(inst.c, y), FEASIBLE)


def solve_tslp2(inst: TwoSidedInstance, tol: float = DEFAULT_TOL) -> TwoSidedResult:
    """Minimize c'y subject to A y + d = y; the optimum is y = A* d.

    When the maximum cycle mean is strictly negative the feasible set is the
    single point A* d, reported as the unique-fixed-point kind.
    """
    y, lam = _least_point(inst, tol)
    if mismatch(two_sided_lhs(inst, y), y.data, tol) is not None:
        raise CertificateViolationError("fixed-point witness violates the equation")
    kind = UNIQUE_FIXED_POINT if lam < -tol else FEASIBLE
    return TwoSidedResult(y, tdot(inst.c, y), kind)

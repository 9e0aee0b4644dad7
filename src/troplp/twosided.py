"""Special two-sided tropical programs solved through the Kleene star.

Both programs minimize c'y over n-vectors y constrained against A y and a
lower vector d:

  - inequality form:  A y + d <= y   (componentwise, + is the tropical sum)
  - equation form:    A y + d  = y

Feasible points exist exactly when the maximum cycle mean of A is
nonpositive.  The inequality form reduces, through y = A* u, to a one-sided
dual program on the transposed star; the equation form has the closed-form
optimum y = A* d.  Either way one cycle mean and one star sweep, both
O(n^3), dominate; the cycle mean already settles feasibility, so the sweep
runs without a second divergence test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closure import _star_sweep, max_cycle_mean
from .core import DEFAULT_TOL, TropMatrix, TropVector, tdot, tmul, transpose
from .errors import (CertificateViolationError, DimensionMismatchError,
                     FiniteRequiredError, InfeasibleLambdaError)
from .lp import LpInstance, solve_dual

FEASIBLE = "feasible"
UNIQUE_FIXED_POINT = "unique-fixed-point"
INFEASIBLE_LAMBDA = "infeasible-lambda-positive"


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
    u_opt: TropVector | None
    g_min: float
    feasibility_kind: str


def _checked_cycle_mean(inst: TwoSidedInstance, tol: float):
    cm = max_cycle_mean(inst.a)
    if cm.lambda_ > tol:
        raise InfeasibleLambdaError(
            f"no feasible point: maximum cycle mean {cm.lambda_} > 0",
            lambda_=cm.lambda_, witness_cycle=cm.witness_cycle)
    return cm


def tslp_feasible(inst: TwoSidedInstance, y: TropVector,
                  tol: float = DEFAULT_TOL) -> bool:
    """Check A y + d <= y entrywise within tol."""
    if len(y) != inst.a.rows:
        raise DimensionMismatchError(f"y must have length {inst.a.rows}")
    lhs = np.maximum(tmul(inst.a, y).data, inst.d.data)
    return bool(np.all(lhs <= y.data + tol))


def solve_tslp(inst: TwoSidedInstance, tol: float = DEFAULT_TOL) -> TwoSidedResult:
    """Minimize c'y subject to A y + d <= y.

    Via y = A* u the problem becomes the one-sided dual with matrix A*
    transposed, right-hand side A*' c and costs d; its closed-form optimal
    witness maps back to y = A* u.
    """
    _checked_cycle_mean(inst, tol)
    star = TropMatrix(_star_sweep(inst.a.data))
    star_t = transpose(star)
    sub = LpInstance(star_t, tmul(star_t, inst.c), inst.d)
    u, g_min = solve_dual(sub)
    y = tmul(star, u)
    if not tslp_feasible(inst, y, tol):
        raise CertificateViolationError("two-sided witness failed feasibility")
    if abs(tdot(inst.c, y) - g_min) > tol:
        raise CertificateViolationError("two-sided objective mismatch")
    return TwoSidedResult(y, u, g_min, FEASIBLE)


def solve_tslp2(inst: TwoSidedInstance, tol: float = DEFAULT_TOL) -> TwoSidedResult:
    """Minimize c'y subject to A y + d = y; the optimum is y = A* d.

    When the maximum cycle mean is strictly negative the feasible set is the
    single point A* d, reported as the unique-fixed-point kind.
    """
    cm = _checked_cycle_mean(inst, tol)
    star = TropMatrix(_star_sweep(inst.a.data))
    y = tmul(star, inst.d)
    lhs = np.maximum(tmul(inst.a, y).data, inst.d.data)
    if np.max(np.abs(lhs - y.data)) > tol:
        raise CertificateViolationError("fixed-point witness violates the equation")
    kind = UNIQUE_FIXED_POINT if cm.lambda_ < -tol else FEASIBLE
    return TwoSidedResult(y, None, tdot(inst.c, y), kind)

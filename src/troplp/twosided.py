"""Special two-sided tropical programs solved through the Kleene star.

Both programs minimize c'y over n-vectors y constrained against A y and a
lower vector d:

  - inequality form:  A y + d <= y   (componentwise, + is the tropical sum)
  - equation form:    A y + d  = y

Feasible points exist exactly when the maximum cycle mean lambda of A is
nonpositive.  Every feasible y of either form has y >= d and y >= A y, hence
y >= A^k d for every k and so y >= A* d; and A* d satisfies the equation.
So A* d is the least feasible point of both forms, and since c'y is isotone
it is the optimum of both.  The star, O(n^3), does the work, with closure's
divergence rule: it refuses a lambda above tol and re-sweeps A - lambda when
0 < lambda <= tol.  So a lambda in (0, tol] counts as feasible, and A y + d
stays within lambda of y.  Both forms run Karp's cycle mean when the sweep's
diagonal turns positive, as kleene_star does.  The equation form's solution
kind, lambda < -tol, is read from the star in O(n^2) where it can be, and
Karp runs for it only where it cannot.  Each solver checks its answer by
certificates.two_sided, the rule `check` applies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certificates import _heaviest_cycle, _strictly_negative, two_sided
from .closure import kleene_star, max_cycle_mean
from .core import DEFAULT_TOL, TropMatrix, TropVector, tdot, tmul
from .errors import DimensionMismatchError, FiniteRequiredError, require

FEASIBLE = "feasible"
UNIQUE_FIXED_POINT = "unique-fixed-point"


@dataclass(frozen=True)
class TwoSidedInstance:
    """Finite data (A, d, c) with A n-by-n and d, c of length n: the guard of
    the two-sided domain.  The solvers read only .a, .d and .c."""

    a: TropMatrix
    d: TropVector
    c: TropVector

    def __post_init__(self):
        if self.a.rows != self.a.cols:
            raise DimensionMismatchError(f"A is not square: {self.a.shape}")
        for key, value in (("A", self.a), ("d", self.d), ("c", self.c)):
            if not value.is_finite():
                raise FiniteRequiredError(
                    f"two-sided instances must be finite, but {key} holds -inf")
            if key != "A" and len(value) != self.a.rows:
                raise DimensionMismatchError(
                    f"A has {self.a.rows} rows but {key} has length {len(value)}")


@dataclass(frozen=True)
class TwoSidedResult:
    y_opt: TropVector
    g_min: float
    feasibility_kind: str


def tslp_feasible(inst: TwoSidedInstance, y: TropVector,
                  tol: float = DEFAULT_TOL) -> bool:
    """Check A y + d <= y entrywise within tol."""
    if len(y) != inst.a.rows:
        raise DimensionMismatchError(f"y must have length {inst.a.rows}")
    return not two_sided(inst, y, tol)


def solve_tslp(inst: TwoSidedInstance, tol: float = DEFAULT_TOL) -> TwoSidedResult:
    """Minimize c'y subject to A y + d <= y; the optimum is y = A* d.
    DivergentStarError when lambda(A) > tol leaves no point feasible."""
    y = tmul(kleene_star(inst.a, tol), inst.d)
    require(two_sided(inst, y, tol))
    return TwoSidedResult(y, tdot(inst.c, y), FEASIBLE)


def solve_tslp2(inst: TwoSidedInstance, tol: float = DEFAULT_TOL) -> TwoSidedResult:
    """Minimize c'y subject to A y + d = y; the optimum is y = A* d.

    When the maximum cycle mean is below -tol the feasible set is the single
    point A* d, reported as the unique-fixed-point kind.  The star S tells
    the kind in O(n^2) on either side of a band: _strictly_negative proves
    lambda < -tol, and the heaviest diagonal entry of A S, at least -tol, is
    the weight of a closed walk of A (S holds weights of walks of A, or of
    the lighter A - lambda), so one of its cycles has a mean of at least
    -tol.  Karp decides inside the band.
    """
    star = kleene_star(inst.a, tol)
    y = tmul(star, inst.d)
    require(two_sided(inst, y, tol, equation=True))
    heaviest = _heaviest_cycle(inst.a, star.data)
    if _strictly_negative(inst.a, star.data, heaviest, tol):
        unique = True
    elif heaviest >= -tol:
        unique = False
    else:
        unique = max_cycle_mean(inst.a).lambda_ < -tol
    return TwoSidedResult(y, tdot(inst.c, y), UNIQUE_FIXED_POINT if unique else FEASIBLE)

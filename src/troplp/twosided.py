"""Special two-sided tropical programs: the least point y = A* d.

Both programs minimize c'y over n-vectors y constrained against A y and a
lower vector d:

  - inequality form:  A y + d <= y   (componentwise, + is the tropical sum)
  - equation form:    A y + d  = y

Feasible points exist exactly when the maximum cycle mean lambda of A is
nonpositive.  Every feasible y of either form has y >= d and y >= A y, hence
y >= A^k d for every k and so y >= A* d; and A* d satisfies the equation.
So A* d is the least feasible point of both forms, and since c'y is isotone
it is the optimum of both.

The inequality form on an A with no positive arc (epsilon allowed) needs no
star: A* d is also the least fixed point of y -> A y + d, reached from
y = d by iterating it (Baccelli et al., Synchronization and Linearity, 1992,
Thm 3.17).  With every a_ij <= 0 rounding is monotone, fl(a + s) <= s, so
a walk's nested sum never gains from a cycle and the iteration settles, in
at most n rounds, on a y with max(A y, d) = y exactly in the floats that
`check` forms.  Every other solve takes the star, O(n^3), and is refused
or accepted by kleene_star's rule, so a lambda it accepts counts as
feasible.  The equation form always takes the star, and its solution kind,
lambda < -tol, is Karp's lambda.  Each solver checks its answer by
certificates.two_sided, the rule `check` applies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certificates import two_sided
from .closure import _require_square, kleene_star, max_cycle_mean
from .core import DEFAULT_TOL, TropMatrix, TropVector, tadd, tdot, tmul
from .errors import DimensionMismatchError, FiniteRequiredError, require

FEASIBLE = "feasible"
UNIQUE_FIXED_POINT = "unique-fixed-point"


@dataclass(frozen=True)
class TwoSidedInstance:
    """Data (A, d, c) with d and c finite of length n: the guard of the
    two-sided domain.  A is the star's, as closure._require_square states
    it: square, with epsilon allowed anywhere.  The solvers read only .a, .d
    and .c."""

    a: TropMatrix
    d: TropVector
    c: TropVector

    def __post_init__(self):
        _require_square(self.a)
        for key, value in (("d", self.d), ("c", self.c)):
            if not value.is_finite():
                raise FiniteRequiredError(f"two-sided instances need a finite {key}")
            if len(value) != self.a.rows:
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


def _least_fixed_point(a: TropMatrix, d: TropVector) -> TropVector:
    """The least y with max(A y, d) = y for an A with no positive arc: the
    rounds y <- max(A y, d) from y = d, each the product `check` forms,
    until one changes nothing.  Round k gives the heaviest nested sum over
    walks of at most k arcs ending in d; a cycle never raises one, as
    fl(a + s) <= s for a <= 0, so a chain of n nodes takes n rounds and no
    A takes more."""
    y = d
    while True:
        nxt = tadd(tmul(a, y), d)
        if nxt == y:
            return y
        y = nxt


def solve_tslp(inst: TwoSidedInstance, tol: float = DEFAULT_TOL) -> TwoSidedResult:
    """Minimize c'y subject to A y + d <= y; the optimum is y = A* d, by
    iteration when A has no positive arc and by the star otherwise.
    DivergentStarError when lambda(A) > tol leaves no point feasible."""
    if (inst.a.data > 0.0).any():
        y = tmul(kleene_star(inst.a, tol), inst.d)
    else:
        y = _least_fixed_point(inst.a, inst.d)
    require(two_sided(inst, y, tol))
    return TwoSidedResult(y, tdot(inst.c, y), FEASIBLE)


def solve_tslp2(inst: TwoSidedInstance, tol: float = DEFAULT_TOL) -> TwoSidedResult:
    """Minimize c'y subject to A y + d = y; the optimum is y = A* d.

    When the maximum cycle mean is below -tol the feasible set is the single
    point A* d, reported as the unique-fixed-point kind.  Karp's lambda
    decides it, and its cycle or potential witnesses that lambda.
    """
    star = kleene_star(inst.a, tol)
    y = tmul(star, inst.d)
    require(two_sided(inst, y, tol, equation=True))
    unique = max_cycle_mean(inst.a).lambda_ < -tol
    return TwoSidedResult(y, tdot(inst.c, y), UNIQUE_FIXED_POINT if unique else FEASIBLE)

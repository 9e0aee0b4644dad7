"""Tropical integer programs over the instance (A, b, c).

The integer primal (maximize c'x, Ax <= b, x integer) is solved directly by
flooring the real primal witness.  The integer dual (minimize pi'b,
pi'A >= c', pi integer) has a direct solution when b is integer; for general
real b the iterative descent below applies.  duality_gap() reports the
interval between the two integer optima around the real optimum.

The iterative dual solver works on the shifted variables sigma_i = pi_i + b_i,
which must keep the fractional part of b_i for pi to be integer.  Each row i
owns a finite candidate set: one phase-matching ceiling per column of the
normalized matrix plus a floor value derived from the real optimum.  Starting
from the row maxima, the solver repeatedly lowers every component currently
attaining the objective max to its next lower candidate, and stops when that
would uncover a column (some column would lose all rows satisfying its
threshold) or when all maximal components sit at their floors.

Floor rule: the floor is the greatest phase-matching value that does NOT
exceed the real lower bound.  Rounding the bound up to the phase instead can
pin a maximal component above the true optimum; rounding down is safe because
a floor below the bound can never bind at the objective max of a feasible
point (feasible objectives never drop below the bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, TropVector, tdot
from .errors import NonIntegerBError
from .lp import LpInstance
from .onesided import greatest_subsolution


def fr(x: float, tol: float = DEFAULT_TOL) -> float:
    """Fractional part x - floor(x), snapped to 0 within tol of an integer."""
    f = x - math.floor(x)
    if f <= tol or f >= 1.0 - tol:
        return 0.0
    return f


def ceil_frac(x: float, phase: float, tol: float = DEFAULT_TOL) -> float:
    """Least u >= x (within tol) whose fractional part equals phase."""
    k = math.ceil(x - phase - tol)
    return k + phase


def floor_frac(x: float, phase: float, tol: float = DEFAULT_TOL) -> float:
    """Greatest u <= x (within tol) whose fractional part equals phase."""
    k = math.floor(x - phase + tol)
    return k + phase


def snap_floor(x: float, tol: float = DEFAULT_TOL) -> float:
    """floor(x) that forgives values within tol below an integer."""
    return float(math.floor(x + tol))


def snap_ceil(x: float, tol: float = DEFAULT_TOL) -> float:
    """ceil(x) that forgives values within tol above an integer."""
    return float(math.ceil(x - tol))


@dataclass(frozen=True)
class IntPrimalResult:
    x_opt: TropVector
    f_max_int: float


@dataclass(frozen=True)
class IntDualResult:
    pi_opt: TropVector
    phi_min_int: float
    iterations: int
    method: str  # "direct-integer-b" or "iterative"


@dataclass(frozen=True)
class GapReport:
    """lower <= real_optimum <= upper; the integer gap is the open interval.

    primal and dual are the two integer optima that give lower and upper.
    """

    primal: IntPrimalResult
    dual: IntDualResult
    real_optimum: float

    @property
    def lower(self) -> float:
        return self.primal.f_max_int

    @property
    def upper(self) -> float:
        return self.dual.phi_min_int


@dataclass
class IntDualState:
    """Mutable state of the iterative integer-dual descent.

    candidate_matrix holds one phase-matching ceiling per column plus the
    floor column at index n; row_candidates are the distinct row values
    sorted descending, with cursors[i] pointing at sigma[i]'s position.
    """

    normalized: np.ndarray        # a_ij - b_i - c_j
    candidate_matrix: np.ndarray  # m x (n+1)
    floors: np.ndarray
    phases: np.ndarray
    sigma: np.ndarray
    lower_bound: float
    row_candidates: list[list[float]]
    cursors: list[int]
    active: tuple[int, ...] = ()
    iterations: int = 0


def solve_primal_integer(inst: LpInstance, tol: float = DEFAULT_TOL) -> IntPrimalResult:
    """Floor of the real primal witness; optimal for the integer primal."""
    xhat = greatest_subsolution(inst.a, inst.b)
    x = TropVector([snap_floor(v, tol) for v in xhat.data])
    return IntPrimalResult(x, tdot(inst.c, x))


def solve_dual_integer_direct(inst: LpInstance, tol: float = DEFAULT_TOL) -> IntDualResult:
    """Direct integer-dual solution, valid only for integer b.

    The optimum is t = ceil of the real optimal value, attained by the
    constant shifted vector, i.e. pi_i = t - b_i.
    """
    b = inst.b.data
    if any(fr(v, tol) != 0.0 for v in b):
        raise NonIntegerBError("direct integer-dual solution requires integer b")
    xhat = greatest_subsolution(inst.a, inst.b)
    t = snap_ceil(tdot(inst.c, xhat), tol)
    pi = TropVector(t - np.round(b))
    return IntDualResult(pi, t, 0, "direct-integer-b")


def initial_state(inst: LpInstance, tol: float = DEFAULT_TOL) -> IntDualState:
    a, b, c = inst.a.data, inst.b.data, inst.c.data
    m, n = a.shape
    xhat = (b[:, np.newaxis] - a).min(axis=0)
    lower_bound = float((c + xhat).max())

    phases = np.array([fr(v, tol) for v in b])
    thresholds = b[:, np.newaxis] + c[np.newaxis, :] - a  # negated normalized matrix
    candidate_matrix = np.empty((m, n + 1))
    for i in range(m):
        for j in range(n):
            candidate_matrix[i, j] = ceil_frac(thresholds[i, j], phases[i], tol)
        candidate_matrix[i, n] = floor_frac(lower_bound, phases[i], tol)

    # Candidates of one row share a phase, so distinct values differ by >= 1
    # and exact set() deduplication is safe.
    row_candidates = [sorted(set(row), reverse=True) for row in candidate_matrix.tolist()]
    sigma = candidate_matrix.max(axis=1)
    return IntDualState(
        normalized=a - b[:, np.newaxis] - c[np.newaxis, :],
        candidate_matrix=candidate_matrix,
        floors=candidate_matrix[:, n].copy(),
        phases=phases,
        sigma=sigma,
        lower_bound=lower_bound,
        row_candidates=row_candidates,
        cursors=[0] * m,
    )


def _covered(candidate_matrix: np.ndarray, sigma: np.ndarray, tol: float) -> bool:
    thresholds = candidate_matrix[:, :-1]
    return bool(np.all((sigma[:, np.newaxis] >= thresholds - tol).any(axis=0)))


def coverage(state: IntDualState, tol: float = DEFAULT_TOL
             ) -> tuple[bool, tuple[frozenset[int], ...]]:
    """Per-row sets of columns whose threshold sigma_i meets, and whether the
    union covers every column (the feasibility test for the shifted dual)."""
    thresholds = state.candidate_matrix[:, :-1]
    m, n = thresholds.shape
    sets = tuple(
        frozenset(j for j in range(n) if state.sigma[i] >= thresholds[i, j] - tol)
        for i in range(m))
    covered = frozenset().union(*sets) == frozenset(range(n))
    return covered, sets


def advance(state: IntDualState, tol: float = DEFAULT_TOL) -> bool:
    """One descent step.  Returns False (state unchanged) when stopped.

    Lowers every component at the objective max that is still above its floor
    to its next lower candidate, accepting the move only if every column stays
    covered.
    """
    sigma = state.sigma
    phi = float(sigma.max())
    # Row candidates sit on a unit grid, so half a grid step separates
    # "at the floor" from "above it" robustly.
    active = tuple(i for i in range(len(sigma))
                   if sigma[i] >= phi - tol and sigma[i] - state.floors[i] > 0.5)
    state.active = active
    if not active:
        return False

    proposed = sigma.copy()
    next_cursors = list(state.cursors)
    for i in active:
        nxt = state.cursors[i] + 1
        if nxt >= len(state.row_candidates[i]):
            return False
        proposed[i] = state.row_candidates[i][nxt]
        next_cursors[i] = nxt

    if not _covered(state.candidate_matrix, proposed, tol):
        return False
    state.sigma = proposed
    state.cursors = next_cursors
    state.iterations += 1
    return True


def solve_dual_integer_general(inst: LpInstance, tol: float = DEFAULT_TOL) -> IntDualResult:
    """Integer-dual solution for arbitrary real b via candidate descent."""
    state = initial_state(inst, tol)
    while advance(state, tol):
        pass
    b = inst.b.data
    pi = TropVector(np.round(state.sigma - b))
    phi = float((pi.data + b).max())
    return IntDualResult(pi, phi, state.iterations, "iterative")


def solve_dual_integer(inst: LpInstance, tol: float = DEFAULT_TOL) -> IntDualResult:
    """Integer-dual optimum: the direct rule for integer b, the descent otherwise."""
    if all(fr(v, tol) == 0.0 for v in inst.b.data):
        return solve_dual_integer_direct(inst, tol)
    return solve_dual_integer_general(inst, tol)


def duality_gap(inst: LpInstance, tol: float = DEFAULT_TOL) -> GapReport:
    """Both integer optima and the real optimum between them."""
    real_optimum = tdot(inst.c, greatest_subsolution(inst.a, inst.b))
    return GapReport(solve_primal_integer(inst, tol), solve_dual_integer(inst, tol),
                     real_optimum)


def estimate_via_floor_b(inst: LpInstance, tol: float = DEFAULT_TOL) -> float:
    """Integer-dual value of the instance with b floored componentwise.

    Differs from the true integer-dual optimum by at most 1, because shifting
    any integer pi's objective from b to floor(b) moves it by less than 1.
    """
    floored = TropVector([snap_floor(v, tol) for v in inst.b.data])
    return solve_dual_integer_direct(
        LpInstance(inst.a, floored, inst.c), tol).phi_min_int

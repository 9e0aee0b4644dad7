"""Slow reference implementations for the tests and for the tiny-instance
checks of bench/workloads.py, which keep this module in the package.

The brute-force searches are plain-Python enumeration.  Nothing is shared
with the production solvers beyond scalar max/+ arithmetic, so they serve as
independent ground truth at desk scale.  descent_dual_integer is the paper's
candidate descent for the integer dual; it shares the phase helpers fr,
ceil_frac and floor_frac with intlp's closed form, so brute force stays the
independent oracle for both.  Never call any of these from solvers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, EPSILON, TropMatrix, TropVector
from .errors import DimensionMismatchError, DivergentStarError, TropError
from .intlp import ceil_frac, floor_frac, fr
from .lp import LpInstance

_MAX_CYCLE_NODES = 8
DEFAULT_CAP = 10_000_000


class EnumerationCapExceededError(TropError):
    """A brute-force enumeration would exceed its configured size cap."""


class NoFeasiblePointError(TropError):
    """A brute-force search found no feasible point inside its box."""


@dataclass(frozen=True)
class Box:
    """Inclusive integer bounds per coordinate for exhaustive scans."""

    lowers: tuple[int, ...]
    uppers: tuple[int, ...]
    cap: int = DEFAULT_CAP

    def __post_init__(self):
        if len(self.lowers) != len(self.uppers):
            raise DimensionMismatchError("bound tuples differ in length")
        for lo, hi in zip(self.lowers, self.uppers):
            if lo > hi:
                raise ValueError(f"empty coordinate range [{lo}, {hi}]")

    @property
    def size(self) -> int:
        total = 1
        for lo, hi in zip(self.lowers, self.uppers):
            total *= hi - lo + 1
        return total

    def points(self):
        """Iterate all integer points in deterministic (row-major) order."""
        if self.size > self.cap:
            raise EnumerationCapExceededError(
                f"box holds {self.size} points, cap is {self.cap}")
        ranges = [range(lo, hi + 1) for lo, hi in zip(self.lowers, self.uppers)]
        return itertools.product(*ranges)


def brute_cycle_mean(a: TropMatrix) -> float:
    """Maximum cycle mean by depth-first enumeration of elementary cycles.

    Each cycle is visited once, anchored at its smallest node.  Returns
    epsilon for an acyclic digraph.
    """
    if a.rows != a.cols:
        raise DimensionMismatchError(f"matrix is not square: {a.shape}")
    n = a.rows
    if n > _MAX_CYCLE_NODES:
        raise EnumerationCapExceededError(
            f"cycle enumeration supports up to {_MAX_CYCLE_NODES} nodes, got {n}")

    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            w = a.data[i, j]
            if w > EPSILON:
                adj[i].append((j, float(w)))

    best = EPSILON
    on_path = [False] * n

    def extend(anchor: int, node: int, weight: float, length: int):
        nonlocal best
        for succ, w in adj[node]:
            if succ == anchor:
                mean = (weight + w) / (length + 1)
                if mean > best:
                    best = mean
            elif succ > anchor and not on_path[succ]:
                on_path[succ] = True
                extend(anchor, succ, weight + w, length + 1)
                on_path[succ] = False

    for anchor in range(n):
        extend(anchor, anchor, 0.0, 0)
    return best


def _mat_mul(x: list[list[float]], y: list[list[float]]) -> list[list[float]]:
    n = len(x)
    out = [[EPSILON] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            best = EPSILON
            for k in range(n):
                cand = x[i][k] + y[k][j]
                if cand > best:
                    best = cand
            out[i][j] = best
    return out


def brute_star(a: TropMatrix, tol: float = DEFAULT_TOL) -> TropMatrix:
    """Literal power sum I + A + A^2 + ... + A^(n-1)."""
    lam = brute_cycle_mean(a)
    if lam > tol:
        raise DivergentStarError(
            f"star series diverges: maximum cycle mean {lam} > 0", lambda_=lam)
    n = a.rows
    entries = a.data.tolist()
    total = [[0.0 if i == j else EPSILON for j in range(n)] for i in range(n)]
    power = entries
    for _ in range(n - 1):
        for i in range(n):
            for j in range(n):
                if power[i][j] > total[i][j]:
                    total[i][j] = power[i][j]
        power = _mat_mul(power, entries)
    return TropMatrix(total)


def brute_primal_integer(inst: LpInstance, box: Box,
                         tol: float = DEFAULT_TOL) -> tuple[TropVector, float]:
    """Exhaustively maximize c'x over integer x in the box with Ax <= b."""
    a, b, c = inst.a.data.tolist(), inst.b.data.tolist(), inst.c.data.tolist()
    m, n = inst.a.shape
    if len(box.lowers) != n:
        raise DimensionMismatchError(f"box must have {n} coordinates")
    best_x = None
    best_val = None
    for x in box.points():
        feasible = True
        for i in range(m):
            row_val = max(a[i][j] + x[j] for j in range(n))
            if row_val > b[i] + tol:
                feasible = False
                break
        if not feasible:
            continue
        val = max(c[j] + x[j] for j in range(n))
        if best_val is None or val > best_val:
            best_val = val
            best_x = x
    if best_x is None:
        raise NoFeasiblePointError("no feasible integer point in the box")
    return TropVector([float(v) for v in best_x]), best_val


def brute_dual_integer(inst: LpInstance, box: Box,
                       tol: float = DEFAULT_TOL) -> tuple[TropVector, float]:
    """Exhaustively minimize pi'b over integer pi in the box with pi'A >= c'."""
    a, b, c = inst.a.data.tolist(), inst.b.data.tolist(), inst.c.data.tolist()
    m, n = inst.a.shape
    if len(box.lowers) != m:
        raise DimensionMismatchError(f"box must have {m} coordinates")
    best_pi = None
    best_val = None
    for pi in box.points():
        feasible = True
        for j in range(n):
            col_val = max(pi[i] + a[i][j] for i in range(m))
            if col_val < c[j] - tol:
                feasible = False
                break
        if not feasible:
            continue
        val = max(pi[i] + b[i] for i in range(m))
        if best_val is None or val < best_val:
            best_val = val
            best_pi = pi
    if best_pi is None:
        raise NoFeasiblePointError("no feasible integer point in the box")
    return TropVector([float(v) for v in best_pi]), best_val


def primal_box(inst: LpInstance, below: int = 2, cap: int = DEFAULT_CAP) -> Box:
    """Box around the floored real primal witness, extended `below` downward
    and one integer upward.

    The integer of margin keeps every point that brute_primal_integer's
    test, feasible within tol, accepts: min_i(b_i - a_ij) can round to just
    below an integer that such a point reaches.
    """
    a, b = inst.a.data.tolist(), inst.b.data.tolist()
    m, n = inst.a.shape
    tops = [math.floor(min(b[i] - a[i][j] for i in range(m))) for j in range(n)]
    return Box(tuple(t - below for t in tops), tuple(t + 1 for t in tops), cap)


def dual_box(inst: LpInstance, margin: int = 1, cap: int = DEFAULT_CAP) -> Box:
    """Box bracketing every candidate integer-dual optimum.

    Bounded below by the real optimal value shifted by b, above by the value
    of the rounded-up real dual witness, then widened by `margin` on each
    side to absorb phase-rounding edge cases.
    """
    a, b, c = inst.a.data.tolist(), inst.b.data.tolist(), inst.c.data.tolist()
    m, n = inst.a.shape
    lower_value = max(
        c[j] + min(b[i] - a[i][j] for i in range(m)) for j in range(n))
    start = [math.ceil(lower_value - b[i]) for i in range(m)]
    upper_value = max(start[i] + b[i] for i in range(m))
    lowers = tuple(math.floor(lower_value - b[i]) - margin for i in range(m))
    uppers = tuple(math.ceil(upper_value - b[i]) + margin for i in range(m))
    return Box(lowers, uppers, cap)


@dataclass
class IntDualState:
    """Mutable state of the paper's integer-dual descent.

    The descent works on sigma_i = pi_i + b_i, which must keep the phase
    fr(b_i).  candidate_matrix holds one phase-matching ceiling per column
    plus the floor column at index n; row_candidates are the distinct row
    values sorted descending, with cursors[i] pointing at sigma[i]'s position.

    Floor rule: the floor is the greatest phase-matching value that does NOT
    exceed the real lower bound.  Rounding the bound up to the phase instead
    can pin a maximal component above the true optimum; rounding down is safe
    because a floor below the bound can never bind at the objective max of a
    feasible point (feasible objectives never drop below the bound).
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


def initial_state(inst: LpInstance, tol: float = DEFAULT_TOL) -> IntDualState:
    """Every sigma_i at its row maximum, the start of the descent."""
    a, b, c = inst.a.data, inst.b.data, inst.c.data
    xhat = (b[:, np.newaxis] - a).min(axis=0)
    lower_bound = float((c + xhat).max())

    phases = fr(b, tol)
    thresholds = b[:, np.newaxis] + c[np.newaxis, :] - a  # negated normalized matrix
    candidate_matrix = np.column_stack(
        [ceil_frac(thresholds, phases[:, np.newaxis], tol),
         floor_frac(lower_bound, phases, tol)])

    # Candidates of one row share a phase, so distinct values differ by >= 1
    # and exact set() deduplication is safe.
    row_candidates = [sorted(set(row), reverse=True) for row in candidate_matrix.tolist()]
    return IntDualState(
        normalized=a - b[:, np.newaxis] - c[np.newaxis, :],
        candidate_matrix=candidate_matrix,
        floors=candidate_matrix[:, -1].copy(),
        phases=phases,
        sigma=candidate_matrix.max(axis=1),
        lower_bound=lower_bound,
        row_candidates=row_candidates,
        cursors=[0] * len(b),
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


def descent_dual_integer(inst: LpInstance, tol: float = DEFAULT_TOL
                         ) -> tuple[TropVector, float, int]:
    """The paper's integer-dual descent for real b: (pi, phi, iterations).

    Starting from the row maxima, it lowers every component attaining the
    objective max to its next lower candidate, and stops when that would
    uncover a column or when all maximal components sit at their floors.
    """
    state = initial_state(inst, tol)
    while advance(state, tol):
        pass
    b = inst.b.data
    pi = np.round(state.sigma - b)
    return TropVector(pi), float((pi + b).max()), state.iterations

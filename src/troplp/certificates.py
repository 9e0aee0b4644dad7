"""The certificate rules, each stated once, and none calling a solver.

A rule reads an instance (anything with the .a, .b, .c or .d it uses), a
witness and tol, and returns the problem lines `troplp check` prints, none
when the certificate holds; the solvers' self-checks raise the first line.
"""

from __future__ import annotations

import numpy as np

from .core import EPSILON, TropMatrix, TropVector, excess, mismatch, tdot, tmul


def _problem(template: str, worst: float | None) -> list[str]:
    """The template filled in with the margin of a failed test, if any."""
    return [] if worst is None else [template.format(worst)]


def residuate(a: TropMatrix, b: TropVector) -> TropVector:
    """The greatest x with A x <= b: x_j = min_i(b_i - a_ij) over finite a_ij."""
    return TropVector((b.data[:, np.newaxis] - a.data).min(axis=0))


def _above_residuation(inst, x: TropVector, tol: float) -> float | None:
    """A x <= b decided on the residuated differences, x <= A#b within tol:
    x_j <= fl(b_i - a_ij) + tol over the finite a_ij.  The solvers build
    their witnesses from these same floats, and fl(b - a) is within half a
    spacing of b - a, so the rule proves a_ij + x_j <= b_i + tol +
    spacing(b_i - a_ij) / 2 at every magnitude.  The excess is by how much
    x tops it."""
    return excess(x.data, residuate(inst.a, inst.b).data, tol)


def primal(inst, x: TropVector, stored: float, tol: float, integral: bool = False,
           key: str = "objective") -> list[str]:
    """A x <= b, x integral if asked, and c'x is the value stored under key."""
    return (_problem("primal witness infeasible by {}", _above_residuation(inst, x, tol))
            + (_integral("x", x, tol) if integral else [])
            + value(key, stored, tdot(inst.c, x), tol))


def dual(inst, pi: TropVector, stored: float, tol: float, integral: bool = False,
         key: str = "objective") -> list[str]:
    """c' <= pi'A, pi integral if asked, and pi'b is the value stored under key.

    Column j's constraint, max_i(pi_i + a_ij) >= c_j, is decided on the
    residuated differences as primal's is: min over the finite a_ij of
    fl(c_j - a_ij) - pi_i is at most tol."""
    uncovered = (inst.c.data - inst.a.data - pi.data[:, np.newaxis]).min(axis=0)
    return (_problem("dual witness infeasible by {}", excess(uncovered, 0.0, tol))
            + (_integral("pi", pi, tol) if integral else [])
            + value(key, stored, tdot(pi, inst.b), tol))


def value(key: str, stored: float, recomputed: float, tol: float) -> list[str]:
    """The value stored under key is the one its witness gives."""
    if mismatch(stored, recomputed, tol) is None:
        return []
    return [f"{key}: stored {stored!r} but recomputed {recomputed!r}"]


def _integral(label: str, vec: TropVector, tol: float) -> list[str]:
    return _problem(label + ": components deviate from integers by {}",
                    mismatch(vec.data, np.round(vec.data), tol))


def gap(inst, lower: float, real: float, upper: float, tol: float) -> list[str]:
    """real is c'x at the principal solution x, and lower <= real <= upper."""
    problems = value("real_optimum", real, tdot(inst.c, residuate(inst.a, inst.b)), tol)
    if excess(lower, real, tol) is not None or excess(real, upper, tol) is not None:
        problems.append(f"gap interval broken: lower {lower}, real {real}, upper {upper}")
    return problems


def two_sided(inst, y: TropVector, tol: float, equation: bool = False) -> list[str]:
    """max(A y, d) <= y, or with equation max(A y, d) = y."""
    lhs = np.maximum(tmul(inst.a, y).data, inst.d.data)
    if equation:
        return _problem("fixed-point equation violated by {}", mismatch(lhs, y.data, tol))
    return _problem("two-sided witness infeasible by {}", excess(lhs, y.data, tol))


def star(a: TropMatrix, s: TropMatrix, tol: float) -> list[str]:
    """S is a fixed point of x -> Ax + I, and where _strictly_negative does
    not prove it unique (a cycle mean near or above -tol, or entries past the
    rounding gate), idempotent as well.  One product A S serves both tests:
    max(A S, I) raises only its diagonal, whose maximum is _heaviest_cycle's
    bound, formed from the same sums."""
    fixed = np.array(tmul(a, s).data)
    heaviest = float(fixed.diagonal().max())
    np.fill_diagonal(fixed, np.maximum(fixed.diagonal(), 0.0))
    problems = _problem("star is not a fixed point of x -> Ax + I ({})",
                        mismatch(fixed, s.data, tol))
    if problems or _strictly_negative(a, s.data, heaviest, tol):
        return problems
    return _problem("star is not idempotent ({})", mismatch(tmul(s, s).data, s.data, tol))


def witness_cycle(a: TropMatrix, cycle, lam: float, tol: float,
                  diverges: bool = False) -> list[str]:
    """The cycle's summed mean is lam; with diverges, also above tol."""
    mean = _cycle_mean(a, cycle)
    if mean == EPSILON:
        return ["witness cycle uses arcs absent from A"]
    problems = ([] if mismatch(mean, lam, tol) is None
                else [f"witness cycle mean {mean} != lambda {lam}"])
    if diverges and mean <= tol:
        problems.append(f"witness cycle mean {mean} does not certify divergence")
    return problems


def acyclic_claim(a: TropMatrix, cycle, x) -> list[str]:
    """lambda = epsilon: the digraph of A has no cycle, and neither a cycle
    nor a potential is named."""
    return (([] if cycle is None else ["acyclic result must not carry a witness cycle"])
            + ([] if x is None else ["acyclic result must not carry a potential"])
            + ([] if _acyclic(a.data > EPSILON)
               else ["lambda = -inf claimed but the digraph has a cycle"]))


def subeigenvector(a: TropMatrix, lam: float, x: TropVector, tol: float) -> bool:
    """A x <= lam + x entrywise."""
    return excess(tmul(a, x).data, lam + x.data, tol) is None


def potential(a: TropMatrix, lam: float, x: TropVector, tol: float) -> bool:
    """x_u + a_uv <= lam + x_v on every arc, which summed around any cycle
    bounds its mean by lam + tol.  A potential plus any constant is still
    one, so the rounding gate keeps a shifted one from hiding a gap in the
    rounding of these sums; an honest |x| is at most 2n max |a_uv|."""
    return (_resolves(tol, x.data, lam, a.data)
            and excess(_row_product(x, a), lam + x.data, tol) is None)


def shortfall(ax: np.ndarray, b: np.ndarray, tol: float) -> tuple[float, bool]:
    """max(b - Ax) from the product Ax, and whether a subsolution x solves A x = b."""
    residual = float(np.max(b - ax))
    return residual, excess(residual, 0.0, tol) is None


def one_sided(inst, p: TropVector, residual: float, solvable, tol: float) -> list[str]:
    """A p <= b, as primal decides it, and the stored residual and equality
    flag are those of p."""
    recomputed, holds = shortfall(tmul(inst.a, p).data, inst.b.data, tol)
    problems = _problem("principal exceeds b by {}", _above_residuation(inst, p, tol))
    problems += value("residual", residual, recomputed, tol)
    if solvable is not holds:
        problems.append("solvable_as_equality flag disagrees with residual")
    return problems


def _row_product(v: TropVector, a: TropMatrix) -> np.ndarray:
    """v'A, max_i(v_i + a_ij), without a transposed copy of A."""
    return np.max(a.data + v.data[:, np.newaxis], axis=0)


def _cycle_mean(a: TropMatrix, cycle) -> float:
    """Mean arc weight of the closed walk `cycle`; -inf if an arc is absent."""
    total = 0.0
    for node, succ in zip(cycle, cycle[1:] + cycle[:1]):
        total += a.data[node, succ]
    return float(total / len(cycle))


def _acyclic(arcs: np.ndarray) -> bool:
    """True when the digraph of the boolean arc matrix has no cycle: peeling
    the nodes without an incoming arc, layer by layer, removes them all
    (Kahn's algorithm, O(n^2)).  A node on a cycle, a self-loop included, is
    never peeled.  The arcs of A are a.data > EPSILON; kleene_star peels its
    positive arcs, a.data > 0."""
    indegree = arcs.sum(axis=0)
    left = np.ones(arcs.shape[0], dtype=bool)
    layer = np.flatnonzero(indegree == 0)
    while layer.size:
        left[layer] = False
        indegree -= arcs[layer].sum(axis=0)
        layer = np.flatnonzero(left & (indegree == 0))
    return not left.any()


def _resolves(tol: float, *parts) -> bool:
    """The rounding gate: True when twice the float64 spacing at the sum of
    the parts' largest finite magnitudes is at most tol (at the default tol,
    for a sum below 2^22).  A certificate test lhs <= rhs + tol whose two
    sides each add at most one entry of each part then rounds by at most tol
    in all: each of its three sums by half a spacing of that bound, or the
    one with tol by a whole spacing where it crosses a power of two.  Without
    the gate, stored numbers made large enough would let rounding absorb any
    gap."""
    return bool(2 * np.spacing(_scale(*parts)) <= tol)


def _scale(*parts) -> float:
    """The sum of the parts' largest finite magnitudes, which bounds every
    sum a certificate test forms from one entry of each part."""
    scale = 0.0
    for part in parts:
        part = np.asarray(part)
        scale += np.max(np.abs(part), where=part != EPSILON, initial=0.0)
    return scale


def _heaviest_cycle(a: TropMatrix, s: np.ndarray) -> float:
    """max(A + S^T), the largest diagonal entry of A S.  For S = A* it is the
    weight of the heaviest cycle of A, as every closed walk through i is an
    arc i -> v followed by a walk from v back to i."""
    return float(np.max(a.data + s.T))


def _strictly_negative(a: TropMatrix, s: np.ndarray, heaviest: float, tol: float) -> bool:
    """True when S, a fixed point of x -> A x + I within tol, proves that
    lambda(A) < -tol and that S is A* within 2n tol, given heaviest =
    _heaviest_cycle(A, S), the largest diagonal entry of A S; the test is
    O(n^2).

    Say max(A S, I) and S agree within t entrywise, so a_uv + S_vw <= S_uw + t
    and 0 <= S_ii + t.  Along a cycle i = i_0 -> i_1 -> ... -> i_k = i of
    k <= n arcs and weight W this gives
        (A S)_ii >= a_{i i_1} + S_{i_1 i} >= ... >= W + S_ii - (k - 1) t
                 >= W - k t,
    so W <= max(A + S^T) + k t.  If max(A + S^T) < -2n t, every elementary
    cycle has W + k t < 0 and W < -k t, a mean below -t.  Unrolling
    S <= max(A S, I) + t along a walk from i to j then closes each cycle at a
    loss, so S_ij <= A*_ij + n t; unrolling S >= max(A S, I) - t along the
    heaviest path from i to j gives S_ij >= A*_ij - n t.  S is the unique
    fixed point, up to n t.

    Under the rounding gate (_resolves on A and S) the rounded tests of the
    fixed point prove the exact ones with t = 2 tol, and the rounded maximum
    of A + S^T is off by less than tol; hence the bound -(4n + 1) tol.  The
    sweep's own star is such a fixed point up to its rounding, so the
    solvers apply the rule to it as it stands.
    """
    return (_resolves(tol, a.data, s)
            and heaviest < -(4 * a.rows + 1) * tol)

"""Graph-theoretic quantities of a square max-plus matrix.

A square matrix A induces a weighted digraph with an arc (i, j) of weight
a_ij for every entry above epsilon.  This module computes the maximum cycle
mean lambda(A) with Karp's dynamic program on one walk table and the Kleene
star A* = I + A + A^2 + ... via a Floyd-Warshall sweep.  Whether the digraph
is acyclic, the case lambda = epsilon, is told in O(n^2) by a topological
peel, before any walk table is built.  With lambda finite, the same table
gives in one more O(n^2) pass a potential x_v = max_k (D_k[v] - k lambda): a
subeigenvector of A^T, x_u + a_uv <= lambda + x_v on every arc, which bounds
every cycle mean by lambda and is checked in O(n^2).

That potential is also the table's stopping proof.  The table is built level
by level, and at the levels k = 2, 4, 8, ... below n Karp's rule runs on the
rows D_0..D_k: when the cycle it traces has a potential over those rows that
passes the rule check applies, with the rounding slack (k + 2) spacing(scale),
the table stops there, and lambda is that cycle's mean, the maximum to
within (k + 3) spacing(scale).  Otherwise the full table of n levels decides.

Karp's table uses a super-source with a zero-weight arc to every node, so
D_0 = 0 and D_k = max_u(D_{k-1}[u] + A[u, :]) is the heaviest walk of exactly
k arcs ending at each node.  No strongly connected decomposition is needed:
the source has no incoming arc and adds no cycle.  A table whose sums absorb
a small cycle beside far larger arcs can return lambda below that cycle's
mean, so one rule follows the table: lambda rises to a cycle's mean until no
cycle's arcs all exceed it, which the same O(n^2) peel tells.  The star is
finite iff lambda(A) <= 0; kleene_star states when it calls on Karp.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .certificates import _acyclic, _closed_cycle, _cycle_mean, _scale, potential
from .core import DEFAULT_TOL, EPSILON, TropMatrix, TropVector
from .errors import DimensionMismatchError, DivergentStarError


@dataclass(frozen=True)
class CycleMeanResult:
    """Maximum cycle mean and, when a cycle exists, one witness attaining it
    and a potential that bounds every cycle mean by it.

    lambda_ is epsilon exactly when the digraph is acyclic, and otherwise the
    witness's mean as _cycle_mean sums it.  The witness is an elementary cycle
    given as a node sequence without the closing repeat.  The potential x,
    None when acyclic, satisfies x_u + a_uv <= lambda_ + x_v on every arc up
    to rounding: summed around any cycle, these bound its mean by lambda_.
    """

    lambda_: float
    witness_cycle: tuple[int, ...] | None
    potential: TropVector | None = None


def _require_square(a: TropMatrix):
    if a.rows != a.cols:
        raise DimensionMismatchError(f"A is not square: {a.shape}")


def _walk_table(data: np.ndarray):
    """Rows D_0..D_k of Karp's walk table, yielded at the levels k = 2, 4,
    8, ... below n and at k = n; row k holds the heaviest weight of a k-arc
    walk ending at each node.  Each yield is a view of one table that grows
    in place, so every level is built once, from one n x n temporary."""
    n = data.shape[0]
    walks = np.empty((n + 1, n))
    walks[0] = 0.0
    level = 2
    for k in range(1, n + 1):
        walks[k] = (walks[k - 1][:, np.newaxis] + data).max(axis=0)
        if k == level or k == n:
            level *= 2
            yield walks[:k + 1]


def _critical_cycle(data: np.ndarray, walks: np.ndarray, end: int) -> tuple[int, ...] | None:
    """The elementary cycle at the first repeated node of the arg-max k-arc
    walk ending at `end`, traced back through the rows D_0..D_k; None when
    the walk visits k + 1 distinct nodes, which takes k < n.

    With k = n the walk visits n + 1 nodes, so it repeats one, and every
    cycle on it is critical: dropping a cycle of l arcs leaves a walk of
    n - l arcs, which weighs at most D_{n-l}[end], and Karp's minimum bounds
    that gap by l times the maximum cycle mean.  Below n the cycle is only a
    candidate, which max_cycle_mean keeps when its potential certifies it.
    """
    path = [end]
    v = end
    for row in walks[-2::-1]:
        v = int((row + data[:, v]).argmax())
        path.append(v)
    path.reverse()

    seen: dict[int, int] = {}
    for pos, v in enumerate(path):
        if v in seen:
            return tuple(path[seen[v]:pos])
        seen[v] = pos
    return None


def _karp(a: TropMatrix, walks: np.ndarray) -> CycleMeanResult | None:
    """Karp's rule on the rows D_0..D_k: the end v with D_k[v] finite that
    maximizes min over j < k with D_j[v] finite of (D_k[v] - D_j[v]) / (k - j),
    the cycle _critical_cycle traces from it, lambda as that cycle's summed
    mean, and the potential x = max over j <= k of (D_j - j lambda), finite
    as D_0 = 0.  None when the traced walk holds no cycle."""
    k = len(walks) - 1
    last = walks[k]
    # a cycle, walked round, leaves some k-arc walk finite at every k
    ends = np.flatnonzero(last > EPSILON)
    # D_0 = 0, so every column has a finite j; epsilon rows give +inf ratios
    # that the minimum skips
    ratios = (last[ends] - walks[:k, ends]) / (k - np.arange(k))[:, np.newaxis]
    cycle = _critical_cycle(a.data, walks, int(ends[np.argmax(ratios.min(axis=0))]))
    if cycle is None:
        return None
    lam = _cycle_mean(a, cycle)
    x = (walks - lam * np.arange(k + 1)[:, np.newaxis]).max(axis=0)
    return CycleMeanResult(lam, cycle, TropVector(x))


def _certifies(a: TropMatrix, found: CycleMeanResult, k: int) -> bool:
    """The stop rule at level k: found's potential passes the rule that check
    applies, certificates.potential, with the slack (k + 2) spacing(scale)
    that bounds the rounding of the k-level sums, at the scale _resolves
    sums.  Summed around any cycle, the rule bounds its mean by
    lambda + (k + 3) spacing(scale)."""
    x = found.potential
    slack = (k + 2) * np.spacing(_scale(x.data, found.lambda_, a.data))
    return potential(a, found.lambda_, x, slack)


def max_cycle_mean(a: TropMatrix) -> CycleMeanResult:
    """Maximum mean over all elementary cycles of the digraph of A.

    Karp's theorem on the walk table D_0..D_n:
    lambda = max over v with D_n[v] finite of
             min over k < n with D_k[v] finite of (D_n[v] - D_k[v]) / (n - k),
    and epsilon when the digraph is acyclic, which the O(n^2) peel of
    _acyclic tells before the table is built.  The maximizing v names the
    witness, and lambda is returned as the witness's summed mean rather than
    Karp's ratio, which rounds differently: a check recomputes that mean from
    the stored witness, so solve and check decide divergence with the same
    float.

    The potential x_v = max over k <= n of (D_k[v] - k lambda) is finite, as
    D_0 = 0.  An arc u -> v extends each k-walk ending at u to a (k+1)-walk
    ending at v, and a walk of n + 1 arcs holds a cycle, of mean at most
    lambda, whose removal leaves a shorter walk; so x_u + a_uv <= lambda + x_v.

    The table is built level by level and stops early (Hartmann and Orlin's
    termination of Karp, Networks 23, 1993).  At the levels k = 2, 4, 8, ...
    below n the same rule runs on the rows D_0..D_k, and its candidate is
    returned when its potential, taken over those rows, passes _certifies.
    The candidate is a real cycle, so its mean is at most the maximum, and
    the potential bounds every cycle mean by lambda + (k + 3) spacing(scale):
    lambda is the maximum to rounding, the accuracy of Karp's own rounded
    ratios.  Without an early stop, as on a ring of n arcs, the full table
    gives the answer above.  A stopped table's potential can differ from the
    full table's in its last bits.

    One lower-bound rule follows the table, as its sums can absorb a small
    cycle beside far larger arcs: a cycle's mean is at least its lightest
    arc.  While the arcs above a threshold, at first lambda, close a cycle
    (_closed_cycle's peel), lambda and the witness rise to that cycle's
    summed mean if it is higher, and the threshold to the cycle's lightest
    arc, so each round drops an arc and the rounds end.  The last cycle's
    lightest arc is the largest of any cycle's, and lambda is at least that
    cycle's mean, so every cycle has an arc at or below the final lambda: no
    self-loop exceeds it, and a cycle of positive arcs leaves it > 0.  Each
    round raises lambda to a real cycle's mean, so the potential still
    bounds every cycle mean by the new lambda wherever it bounded it by the
    old.
    """
    _require_square(a)
    if _acyclic(a.data > EPSILON):
        return CycleMeanResult(EPSILON, None)
    n = a.rows
    for walks in _walk_table(a.data):
        found = _karp(a, walks)
        if len(walks) <= n and found is not None and _certifies(a, found, len(walks) - 1):
            break
    threshold = found.lambda_
    while (cycle := _closed_cycle(a.data > threshold)) is not None:
        mean = _cycle_mean(a, cycle)
        if mean > found.lambda_:
            found = replace(found, lambda_=mean, witness_cycle=cycle)
        threshold = a.data[cycle, cycle[1:] + cycle[:1]].min()
    return found


def _star_sweep(data: np.ndarray) -> np.ndarray:
    n = data.shape[0]
    out = np.array(data)
    idx = np.arange(n)
    out[idx, idx] = np.maximum(out[idx, idx], 0.0)
    # A closed walk of positive weight doubles its sums at each step, so they
    # can overflow to +inf and, added to an epsilon entry, to nan; _diverges
    # reads either on the diagonal as divergence.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            np.maximum(out, out[:, k:k + 1] + out[k:k + 1, :], out=out)
    return out


def _diverges(swept: np.ndarray) -> bool:
    """True when the sweep saw a closed walk of positive weight: a diagonal
    entry that is positive, or +inf or nan from an overflowing one."""
    return not bool((np.diagonal(swept) <= 0.0).all())


def kleene_star(a: TropMatrix, tol: float = DEFAULT_TOL) -> TropMatrix:
    """Strong transitive closure A* = I + A + A^2 + ...

    The series is finite only when the maximum cycle mean is nonpositive, in
    which case it equals the partial sum up to exponent n-1 and is computed
    by a Floyd-Warshall sweep in O(n^3).  The sweep of A comes first unless
    the positive arcs of A close a cycle, which the O(n^2) peel tells, and
    it is the star when its diagonal stays nonpositive.  Otherwise Karp's
    lambda decides, by one rule: refuse when lambda > tol, else return the
    sweep of A - max(lambda, 0).  A sweep of A is inflated by about a
    positive cycle's length times its mean, so a lambda in (0, tol] is taken
    off first.  With lambda <= 0 the diagonal that the first sweep turned
    positive is rounding, and the sweep of A - 0.0, which is A bit for bit,
    is the star.

    A cycle of positive arcs has a positive mean, and it leaves a positive
    (or overflowed) diagonal entry in the sweep of A, whose sums only grow
    under rounding; so both orders call on Karp for the same matrices and
    return the same star.
    """
    _require_square(a)
    if _acyclic(a.data > 0.0):
        swept = _star_sweep(a.data)
        if not _diverges(swept):
            return TropMatrix(swept)
    cm = max_cycle_mean(a)
    if cm.lambda_ > tol:
        raise DivergentStarError(
            f"star diverges: maximum cycle mean {cm.lambda_} exceeds tol {tol}",
            lambda_=cm.lambda_, witness_cycle=cm.witness_cycle)
    return TropMatrix(_star_sweep(a.data - max(cm.lambda_, 0.0)))

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

Karp's table uses a super-source with a zero-weight arc to every node, so
D_0 = 0 and D_k = max_u(D_{k-1}[u] + A[u, :]) is the heaviest walk of exactly
k arcs ending at each node.  No strongly connected decomposition is needed:
the source has no incoming arc and adds no cycle.  The star is finite iff
lambda(A) <= 0, and a positive cycle through node i leaves a positive entry
(i, i) after the sweep, so the sweep's own diagonal tells convergence and the
cycle mean is computed only when it turns positive: to name the divergent
cycle, or to re-sweep A - lambda when 0 < lambda <= tol, since a sweep of A
is then inflated by about the cycle's length times lambda.  With lambda <= 0
the positive diagonal was rounding, and the first sweep is the star.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import _acyclic, _cycle_mean
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


def _walk_table(data: np.ndarray) -> np.ndarray:
    """Row k holds the heaviest weight of a k-arc walk ending at each node."""
    n = data.shape[0]
    walks = np.empty((n + 1, n))
    walks[0] = 0.0
    buf = np.empty_like(data)
    for k in range(1, n + 1):
        np.add(walks[k - 1][:, np.newaxis], data, out=buf)
        buf.max(axis=0, out=walks[k])
    return walks


def _critical_cycle(data: np.ndarray, walks: np.ndarray, end: int) -> tuple[int, ...]:
    """Extract an elementary cycle from the arg-max n-arc walk ending at `end`.

    The walk visits n + 1 nodes, so it repeats one; the segment up to the
    first repeat is an elementary cycle.  Every cycle on that walk is
    critical: dropping a cycle of l arcs leaves a walk of n - l arcs, which
    weighs at most D_{n-l}[end], and Karp's minimum bounds that gap by l
    times the maximum cycle mean.
    """
    n = data.shape[0]
    path = [end]
    v = end
    for k in range(n, 0, -1):
        v = int(np.argmax(walks[k - 1] + data[:, v]))
        path.append(v)
    path.reverse()

    seen: dict[int, int] = {}
    for pos, v in enumerate(path):
        if v in seen:
            return tuple(path[seen[v]:pos])
        seen[v] = pos
    raise AssertionError("walk of length n must repeat a node")


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
    """
    _require_square(a)
    if _acyclic(a):
        return CycleMeanResult(EPSILON, None)
    data = a.data
    n = a.rows
    walks = _walk_table(data)
    last = walks[n]
    # a cycle leaves some n-arc walk finite
    ends = np.flatnonzero(last > EPSILON)
    # D_0 = 0, so every column has a finite k; epsilon rows give +inf ratios
    # that the minimum skips
    ratios = (last[ends] - walks[:n, ends]) / (n - np.arange(n))[:, np.newaxis]
    per_end = ratios.min(axis=0)
    cycle = _critical_cycle(data, walks, int(ends[np.argmax(per_end)]))
    lam = _cycle_mean(a, cycle)
    potential = (walks - lam * np.arange(n + 1)[:, np.newaxis]).max(axis=0)
    return CycleMeanResult(lam, cycle, TropVector(potential))


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
    by a Floyd-Warshall sweep in O(n^3).  When the sweep's diagonal turns
    positive, Karp's lambda decides: refuse when lambda > tol, re-sweep
    A - lambda when 0 < lambda <= tol, else keep the sweep (rounding).
    """
    _require_square(a)
    swept = _star_sweep(a.data)
    if not _diverges(swept):
        return TropMatrix(swept)
    cm = max_cycle_mean(a)
    if cm.lambda_ > tol:
        raise DivergentStarError(
            f"star diverges: maximum cycle mean {cm.lambda_} exceeds tol {tol}",
            lambda_=cm.lambda_, witness_cycle=cm.witness_cycle)
    return TropMatrix(swept if cm.lambda_ <= 0.0 else _star_sweep(a.data - cm.lambda_))

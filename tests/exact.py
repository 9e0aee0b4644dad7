"""Exact excesses of the certificate inequalities, the reference for every
question of whether a float rule's rounding hides a gap.

math.fsum returns the correctly rounded value of the exact sum of its terms
(Shewchuk, "Adaptive precision floating-point arithmetic and fast robust
geometric predicates", DCG 18, 1997), so the sign of each excess below is
exact and its size is off by at most half a spacing of itself.  An epsilon
entry of A gives the excess of an absent arc: -inf where A's entry adds,
+inf where it is subtracted, as a minimum over rows then skips it.
"""

from __future__ import annotations

import math

import numpy as np


def _sums(*terms) -> np.ndarray:
    """fsum of the broadcast terms, entry by entry."""
    arrays = np.broadcast_arrays(*(np.asarray(t, dtype=float) for t in terms))
    stacked = np.stack(arrays, axis=-1)
    return np.array([math.fsum(row) for row in stacked.reshape(-1, len(terms))]
                    ).reshape(arrays[0].shape)


def primal(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_ij + x_j - b_i for A x <= b."""
    return _sums(a, x[np.newaxis, :], -b[:, np.newaxis])


def dual(a: np.ndarray, pi: np.ndarray, c: np.ndarray) -> np.ndarray:
    """c_j - a_ij - pi_i for c' <= pi'A: column j holds when some row's
    excess is at most 0."""
    return _sums(c[np.newaxis, :], -a, -pi[:, np.newaxis])


def arcs(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """a_ij + y_j - y_i for A y <= y."""
    return _sums(a, y[np.newaxis, :], -y[:, np.newaxis])


def lower(d: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d_i - y_i for d <= y."""
    return _sums(d, -y)

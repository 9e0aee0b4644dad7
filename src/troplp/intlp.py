"""Tropical integer programs over the instance (A, b, c).

The integer primal (maximize c'x, Ax <= b, x integer) is solved directly by
flooring the real primal witness.  duality_gap() reports the interval between
the two integer optima around the real optimum.

The integer dual (minimize pi'b, pi'A >= c', pi integer) has one closed form
for every real b.  Write sigma_i = pi_i + b_i: pi is integer exactly when
sigma_i keeps the phase fr(b_i), and the objective is max_i sigma_i.  By
residuation (Butkovic, Max-linear Systems, 2010, ch. 3) column j's constraint
max_i(pi_i + a_ij) >= c_j holds iff some row has sigma_i >= b_i + c_j - a_ij,
and the least value of row i's phase that does so is
u_ij = ceil_frac(b_i + c_j - a_ij, fr(b_i)).  A level t is therefore
attainable iff every column has some u_ij <= t: setting each sigma_i to
floor_frac(t, fr(b_i)), the greatest value of its phase not above t, then
meets every such u_ij and keeps max_i sigma_i <= t.  The optimum is the least
such t,

    phi_int = max_j min_i ceil_frac(b_i + c_j - a_ij, fr(b_i)),

attained by sigma_i = floor_frac(phi_int, fr(b_i)): the row that gives the
max-min has phi_int in its own phase, so its sigma equals phi_int.  This is
one O(mn) expression.  For integer b every phase is 0 and the formula is the
paper's direct rule: phi_int = ceil(max_j min_i(b_i + c_j - a_ij)), the
ceiling of the real optimum, with pi_i = phi_int - b_i.  The paper's candidate
descent for general real b reaches the same value; it is kept as a test
reference in oracles.descent_dual_integer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, TropVector, tdot
from .lp import LpInstance
from .onesided import greatest_subsolution


def fr(x, tol: float = DEFAULT_TOL):
    """Fractional part x - floor(x), snapped to 0 within tol of an integer.

    Elementwise over arrays; a scalar gives a scalar.
    """
    f = x - np.floor(x)
    return np.where((f <= tol) | (f >= 1.0 - tol), 0.0, f)[()]


def ceil_frac(x, phase, tol: float = DEFAULT_TOL):
    """Least u >= x (within tol) whose fractional part equals phase; elementwise."""
    return np.ceil(x - phase - tol) + phase


def floor_frac(x, phase, tol: float = DEFAULT_TOL):
    """Greatest u <= x (within tol) whose fractional part equals phase; elementwise."""
    return np.floor(x - phase + tol) + phase


@dataclass(frozen=True)
class IntPrimalResult:
    x_opt: TropVector
    f_max_int: float


@dataclass(frozen=True)
class IntDualResult:
    pi_opt: TropVector
    phi_min_int: float


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


def solve_primal_integer(inst: LpInstance, tol: float = DEFAULT_TOL) -> IntPrimalResult:
    """Floor of the real primal witness; optimal for the integer primal."""
    xhat = greatest_subsolution(inst.a, inst.b)
    x = TropVector(floor_frac(xhat.data, 0.0, tol))
    return IntPrimalResult(x, tdot(inst.c, x))


def solve_dual_integer(inst: LpInstance, tol: float = DEFAULT_TOL) -> IntDualResult:
    """Integer-dual optimum by the closed form in the module docstring."""
    a, b, c = inst.a.data, inst.b.data, inst.c.data
    phases = fr(b, tol)
    levels = ceil_frac(b[:, np.newaxis] + c[np.newaxis, :] - a, phases[:, np.newaxis], tol)
    phi_int = levels.min(axis=0).max()
    pi = np.round(floor_frac(phi_int, phases, tol) - b)
    return IntDualResult(TropVector(pi), float((pi + b).max()))


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
    floored = TropVector(floor_frac(inst.b.data, 0.0, tol))
    return solve_dual_integer(LpInstance(inst.a, floored, inst.c), tol).phi_min_int

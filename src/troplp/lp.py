"""Tropical linear programs with one-sided constraints.

Primal: maximize the max-plus form c'x subject to Ax <= b over real x.
Dual: minimize pi'b subject to pi'A >= c' over real pi.  Both have closed-form
optima with no duality gap; certify() bundles the two witnesses and checks
them by the rules of certificates: each witness feasible, as `check` tests
it, and the two values equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import certificates
from .core import DEFAULT_TOL, TropMatrix, TropVector, tdot
from .errors import DimensionMismatchError, FiniteRequiredError, require
from .onesided import greatest_subsolution


@dataclass(frozen=True)
class LpInstance:
    """Finite data (A, b, c) with A m-by-n, b of length m, c of length n.

    This is the guard of the A-b-c domain.  The solvers, like the rules of
    certificates, read only .a, .b and .c, so they take any instance that
    passed it."""

    a: TropMatrix
    b: TropVector
    c: TropVector

    def __post_init__(self):
        for key, value in (("A", self.a), ("b", self.b), ("c", self.c)):
            if not value.is_finite():
                raise FiniteRequiredError(f"LP instances must be finite, but {key} holds -inf")
        if self.a.rows != len(self.b):
            raise DimensionMismatchError(
                f"A has {self.a.rows} rows but b has length {len(self.b)}")
        if self.a.cols != len(self.c):
            raise DimensionMismatchError(
                f"A has {self.a.cols} columns but c has length {len(self.c)}")


@dataclass(frozen=True)
class DualityCertificate:
    x_opt: TropVector
    pi_opt: TropVector
    f_max: float
    phi_min: float


def solve_primal(inst: LpInstance) -> tuple[TropVector, float]:
    """Optimal primal witness (the greatest feasible point) and its value."""
    x = greatest_subsolution(inst.a, inst.b)
    return x, tdot(inst.c, x)


def _dual_witness(inst: LpInstance, t: float) -> tuple[TropVector, float]:
    """The dual witness pi_i = t - b_i of the optimal value t, and its value."""
    pi = TropVector(t - inst.b.data)
    return pi, tdot(pi, inst.b)


def solve_dual(inst: LpInstance) -> tuple[TropVector, float]:
    """Optimal dual witness pi_i = t - b_i with t the common optimal value."""
    return _dual_witness(inst, solve_primal(inst)[1])


def certify(inst: LpInstance, tol: float = DEFAULT_TOL) -> DualityCertificate:
    """Solve both sides and assert feasibility plus zero gap.

    A failure here signals an implementation bug, not bad input.
    """
    x, f_max = solve_primal(inst)
    pi, phi_min = _dual_witness(inst, f_max)
    require(certificates.primal(inst, x, f_max, tol) + certificates.dual(inst, pi, f_max, tol))
    return DualityCertificate(x, pi, f_max, phi_min)

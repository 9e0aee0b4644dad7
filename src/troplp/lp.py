"""Tropical linear programs with one-sided constraints.

Primal: maximize the max-plus form c'x subject to Ax <= b over real x.
Dual: minimize pi'b subject to pi'A >= c' over real pi.  Both have closed-form
optima with no duality gap; certify() bundles the two witnesses and verifies
feasibility and value agreement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (DEFAULT_TOL, TropMatrix, TropVector, excess, mismatch, tdot,
                   tmul, transpose)
from .errors import (CertificateViolationError, DimensionMismatchError,
                     FiniteRequiredError)
from .onesided import greatest_subsolution


@dataclass(frozen=True)
class LpInstance:
    """Finite data (A, b, c) with A m-by-n, b of length m, c of length n."""

    a: TropMatrix
    b: TropVector
    c: TropVector

    def __post_init__(self):
        if not (self.a.is_finite() and self.b.is_finite() and self.c.is_finite()):
            raise FiniteRequiredError("LP instances must be finite")
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


def primal_violation(inst, x: TropVector, tol: float = DEFAULT_TOL) -> float | None:
    """The rule of core.excess on Ax <= b: None when x is feasible, else the
    largest excess of Ax over b; inst is anything with .a and .b."""
    return excess(tmul(inst.a, x).data, inst.b.data, tol)


def dual_violation(inst, pi: TropVector, tol: float = DEFAULT_TOL) -> float | None:
    """The rule of core.excess on c' <= pi'A: None when pi is feasible, else
    the largest excess of c over pi'A; inst is anything with .a and .c."""
    return excess(inst.c.data, tmul(transpose(inst.a), pi).data, tol)


def certify(inst: LpInstance, tol: float = DEFAULT_TOL) -> DualityCertificate:
    """Solve both sides and assert feasibility plus zero gap.

    A failure here signals an implementation bug, not bad input.
    """
    x, f_max = solve_primal(inst)
    pi, phi_min = _dual_witness(inst, f_max)
    over = primal_violation(inst, x, tol)
    if over is not None:
        raise CertificateViolationError(f"primal witness infeasible by {over}")
    over = dual_violation(inst, pi, tol)
    if over is not None:
        raise CertificateViolationError(f"dual witness infeasible by {over}")
    gap = mismatch(f_max, phi_min, tol)
    if gap is not None:
        raise CertificateViolationError(f"duality gap {gap} exceeds tolerance")
    return DualityCertificate(x, pi, f_max, phi_min)

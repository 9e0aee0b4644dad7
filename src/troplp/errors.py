"""Exception types shared across the package."""

from __future__ import annotations


class TropError(Exception):
    """Base class for all troplp errors."""


class DimensionMismatchError(TropError):
    """Operands have incompatible shapes."""


class FiniteRequiredError(TropError):
    """An operation defined only for finite entries received -inf."""


class DivergentStarError(TropError):
    """The Kleene star series is unbounded (positive maximum cycle mean).

    lambda_ is the maximum cycle mean and witness_cycle a cycle attaining
    it.  InfeasibleLambdaError, raised by the two-sided solvers, is a
    DivergentStarError.
    """

    def __init__(self, message: str, lambda_: float | None = None,
                 witness_cycle: tuple[int, ...] | None = None):
        super().__init__(message)
        self.lambda_ = lambda_
        self.witness_cycle = witness_cycle


class InfeasibleLambdaError(DivergentStarError):
    """A two-sided program is infeasible: the maximum cycle mean is positive.

    It is a DivergentStarError because a two-sided program is infeasible
    exactly when the Kleene star of its A diverges; it carries the same
    lambda_ and witness_cycle.
    """


class CertificateViolationError(TropError):
    """A solver-produced witness failed its own certificate check.

    This signals an implementation bug, never bad input.
    """


class InstanceFormatError(TropError):
    """Instance or solution text failed parsing or validation."""

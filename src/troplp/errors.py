"""Exception types shared across the package."""

from __future__ import annotations


class TropError(Exception):
    """Base class for all troplp errors."""


class DimensionMismatchError(TropError):
    """Operands have incompatible shapes."""


class FiniteRequiredError(TropError):
    """An operation defined only for finite entries received -inf."""


class DivergentStarError(TropError):
    """The Kleene star series is unbounded (positive maximum cycle mean)."""

    def __init__(self, message: str, lambda_: float | None = None,
                 witness_cycle: tuple[int, ...] | None = None):
        super().__init__(message)
        self.lambda_ = lambda_
        self.witness_cycle = witness_cycle


class InfeasibleLambdaError(TropError):
    """A two-sided program is infeasible: the maximum cycle mean is positive."""

    def __init__(self, message: str, lambda_: float | None = None,
                 witness_cycle: tuple[int, ...] | None = None):
        super().__init__(message)
        self.lambda_ = lambda_
        self.witness_cycle = witness_cycle


class CertificateViolationError(TropError):
    """A solver-produced witness failed its own certificate check.

    This signals an implementation bug, never bad input.
    """


class EnumerationCapExceededError(TropError):
    """A brute-force enumeration would exceed its configured size cap."""


class NoFeasiblePointError(TropError):
    """A brute-force search found no feasible point inside its box."""


class InstanceFormatError(TropError):
    """Instance or solution text failed parsing or validation."""

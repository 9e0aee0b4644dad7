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
    it.  The two-sided solvers raise it too: a two-sided program is
    infeasible exactly when the star of its A diverges.
    """

    def __init__(self, message: str, lambda_: float | None = None,
                 witness_cycle: tuple[int, ...] | None = None):
        super().__init__(message)
        self.lambda_ = lambda_
        self.witness_cycle = witness_cycle


class CertificateViolationError(TropError):
    """A solver-produced witness failed its own certificate check.

    This signals an implementation bug, never bad input.
    """


class InstanceFormatError(TropError):
    """Instance or solution text failed parsing or validation."""


def require(problems: list[str]):
    """A solver's self-check: raise the first line a certificate rule gave."""
    if problems:
        raise CertificateViolationError(problems[0])

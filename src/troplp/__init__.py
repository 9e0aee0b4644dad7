"""troplp: max-plus linear algebra and tropical linear/integer programming.

The building blocks are immutable TropMatrix / TropVector values over the
semiring (R + {-inf}, max, +), and every public operation is max-plus.  On
top of them sit closed-form solvers for one-sided systems and the primal/dual
tropical LP pair, integer variants with their duality-gap report, and the
special two-sided programs.  The brute-force oracles of the tests and the
benchmark live in troplp.oracles, which this package does not import.
"""

from ._version import __version__
from .closure import CycleMeanResult, kleene_star, max_cycle_mean
from .core import (DEFAULT_TOL, EPSILON, TropMatrix, TropVector, approx_equal,
                   identity, leq, tadd, tdot, tmul, transpose)
from .errors import (CertificateViolationError, DimensionMismatchError,
                     DivergentStarError, FiniteRequiredError,
                     InstanceFormatError, TropError)
from .intlp import (GapReport, IntDualResult, IntPrimalResult, ceil_frac,
                    duality_gap, estimate_via_floor_b, floor_frac, fr,
                    solve_dual_integer, solve_primal_integer)
from .lp import (DualityCertificate, LpInstance, certify, solve_dual,
                 solve_primal)
from .onesided import (OneSidedSolveResult, greatest_subsolution,
                       solve_equality, subeigen_member)
from .twosided import (TwoSidedInstance, TwoSidedResult, solve_tslp,
                       solve_tslp2, tslp_feasible)

__all__ = [
    "__version__",
    # core
    "EPSILON", "DEFAULT_TOL", "TropMatrix", "TropVector",
    "tadd", "tmul", "tdot", "transpose", "identity", "leq", "approx_equal",
    # closure
    "CycleMeanResult", "max_cycle_mean", "kleene_star",
    # one-sided systems
    "OneSidedSolveResult", "greatest_subsolution", "solve_equality",
    "subeigen_member",
    # LP duality
    "LpInstance", "DualityCertificate", "solve_primal", "solve_dual",
    "certify",
    # integer programs
    "IntPrimalResult", "IntDualResult", "GapReport",
    "fr", "ceil_frac", "floor_frac",
    "solve_primal_integer", "solve_dual_integer", "duality_gap",
    "estimate_via_floor_b",
    # two-sided programs
    "TwoSidedInstance", "TwoSidedResult", "solve_tslp", "solve_tslp2",
    "tslp_feasible",
    # errors
    "TropError", "DimensionMismatchError", "FiniteRequiredError",
    "DivergentStarError", "CertificateViolationError", "InstanceFormatError",
]

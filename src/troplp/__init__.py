"""troplp: max-plus linear algebra and tropical linear/integer programming.

The building blocks are immutable TropMatrix / TropVector values over the
semiring (R + {-inf}, max, +).  On top of them sit closed-form solvers for
one-sided systems and the primal/dual tropical LP pair, integer variants with
their duality-gap report, the special two-sided programs, and brute-force
reference oracles used by the test suite.
"""

from ._version import __version__
from .closure import (CycleMeanResult, kleene_star, kleene_star_scaled,
                      max_cycle_mean)
from .core import (DEFAULT_TOL, EPSILON, TropMatrix, TropVector, approx_equal,
                   conjugate, diag, eps_matrix, eps_vector, identity,
                   inverse_diag, is_eps, leq, tadd, tdot, tdot_min, tmul,
                   tmul_min, touter, transpose)
from .errors import (CertificateViolationError, DimensionMismatchError,
                     DivergentStarError, EnumerationCapExceededError,
                     FiniteRequiredError, InfeasibleLambdaError,
                     InstanceFormatError, NoFeasiblePointError, TropError)
from .intlp import (GapReport, IntDualResult, IntPrimalResult, ceil_frac,
                    duality_gap, estimate_via_floor_b, floor_frac, fr,
                    snap_floor, solve_dual_integer, solve_primal_integer)
from .lp import (DualityCertificate, LpInstance, certify, solve_dual,
                 solve_primal)
from .onesided import (OneSidedSolveResult, greatest_subsolution,
                       solve_equality, subeigen_generate, subeigen_member,
                       subeigen_nonempty)
from .oracles import (Box, brute_cycle_mean, brute_dual_integer,
                      brute_primal_integer, brute_star, dual_box, primal_box)
from .twosided import (TwoSidedInstance, TwoSidedResult, solve_tslp,
                       solve_tslp2, tslp_feasible)

__all__ = [
    "__version__",
    # core
    "EPSILON", "DEFAULT_TOL", "TropMatrix", "TropVector", "is_eps",
    "tadd", "tmul", "tmul_min", "tdot", "tdot_min", "touter", "transpose",
    "conjugate", "diag", "inverse_diag", "identity", "eps_matrix",
    "eps_vector", "leq", "approx_equal",
    # closure
    "CycleMeanResult", "max_cycle_mean", "kleene_star", "kleene_star_scaled",
    # one-sided systems
    "OneSidedSolveResult", "greatest_subsolution", "solve_equality",
    "subeigen_nonempty", "subeigen_generate", "subeigen_member",
    # LP duality
    "LpInstance", "DualityCertificate", "solve_primal", "solve_dual",
    "certify",
    # integer programs
    "IntPrimalResult", "IntDualResult", "GapReport",
    "fr", "ceil_frac", "floor_frac", "snap_floor",
    "solve_primal_integer", "solve_dual_integer", "duality_gap",
    "estimate_via_floor_b",
    # two-sided programs
    "TwoSidedInstance", "TwoSidedResult", "solve_tslp", "solve_tslp2",
    "tslp_feasible",
    # oracles
    "Box", "brute_cycle_mean", "brute_star", "brute_primal_integer",
    "brute_dual_integer", "primal_box", "dual_box",
    # errors
    "TropError", "DimensionMismatchError", "FiniteRequiredError",
    "DivergentStarError", "InfeasibleLambdaError",
    "CertificateViolationError", "EnumerationCapExceededError",
    "NoFeasiblePointError", "InstanceFormatError",
]

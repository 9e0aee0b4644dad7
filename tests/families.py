"""Seeded graph instance families, and the one outcome the property reads.

Each family is a fixed list of instance objects, drawn the same way on every
run; never re-seed or narrow one to hide a failure.

- magnitude_ladder(kind, e): numpy seed [2026, e], M = 10^e, LADDER_DRAWS
  instances with n from 2 to 7 and A = round(U[-1, 1] M, 1), 30 % of its
  entries epsilon.  A is shifted by -M for star, tslp and tslp2, so their
  cycles are mostly negative; d is drawn in [-5, 5] and c = 0.  Every kind
  draws the same A at one M.
- near_tol_cycles(): numpy seed 3, NEAR_TOL_DRAWS matrices with n from 3 to
  8, arcs in [-200, -100] and one planted cycle of k in [2, n] nodes, its
  arcs drawn in [-3, 3] and shifted to the mean f tol, f cycling through
  NEAR_TOL_FACTORS.

solve_and_check runs an instance through solve and its answer through
check, as `troplp solve` and `troplp check` do.
"""

from __future__ import annotations

import json

import numpy as np

from troplp import DEFAULT_TOL, CertificateViolationError
from troplp.io import (EXIT_CERTIFICATE, EXIT_OK, check_solution_text, parse_instance,
                       serialize_solution, solve_to_payload)

GRAPH_KINDS = ("mcm", "star", "tslp", "tslp2")
LADDER_EXPONENTS = (4, 7, 10, 16, 50, 200)
LADDER_DRAWS = 40
NEAR_TOL_DRAWS = 300
NEAR_TOL_FACTORS = (0.5, 1.0, 1 + 1e-6, 1 - 1e-6, -1.0)


def _instance(kind: str, a: np.ndarray, d: np.ndarray) -> dict:
    obj = {"problem": kind,
           "A": np.where(a == -np.inf, "-inf", a.astype(object)).tolist()}
    if kind in ("tslp", "tslp2"):
        obj.update(d=d.tolist(), c=[0.0] * len(d))
    return obj


def magnitude_ladder(kind: str, e: int) -> list[dict]:
    rng = np.random.default_rng([2026, e])
    scale = 10.0**e
    family = []
    for _ in range(LADDER_DRAWS):
        n = int(rng.integers(2, 8))
        a = np.round(rng.uniform(-1, 1, (n, n)) * scale, 1)
        eps = rng.random((n, n)) < 0.3
        d = np.round(rng.uniform(-5, 5, n), 1)
        if kind != "mcm":
            a -= scale
        family.append(_instance(kind, np.where(eps, -np.inf, a), d))
    return family


def near_tol_cycles() -> list[np.ndarray]:
    rng = np.random.default_rng(3)
    family = []
    for draw in range(NEAR_TOL_DRAWS):
        n = int(rng.integers(3, 9))
        a = rng.uniform(-200, -100, (n, n))
        nodes = rng.permutation(n)[:int(rng.integers(2, n + 1))]
        arcs = rng.uniform(-3, 3, len(nodes))
        a[nodes, np.roll(nodes, -1)] = (
            arcs - arcs.mean() + NEAR_TOL_FACTORS[draw % len(NEAR_TOL_FACTORS)] * DEFAULT_TOL)
        family.append(a)
    return family


def near_tol_instances(kind: str) -> list[dict]:
    """near_tol_cycles as instances of kind, with d = c = 0 for tslp and tslp2."""
    return [_instance(kind, a, np.zeros(len(a))) for a in near_tol_cycles()]


def solve_and_check(obj: dict) -> tuple[int, list[str]]:
    """solve's exit code (3 for a refused self-check) and, after exit 0, the
    problems that check finds in the written answer."""
    try:
        payload, code = solve_to_payload(parse_instance(json.dumps(obj)))
    except CertificateViolationError:
        return EXIT_CERTIFICATE, []
    if code != EXIT_OK:
        return code, []
    return code, check_solution_text(serialize_solution(payload))

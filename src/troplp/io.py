"""Instance and solution file formats plus certificate re-validation.

Instances are single JSON objects with a "problem" kind, the matrices and
vectors that kind requires, and an optional "tol".  Epsilon entries are
written as the string "-inf" and are accepted only where the kind permits
them.  Solutions embed the instance they were computed from, so a solution
file alone is enough to re-check its certificate.  A solution payload is the
JSON document itself, epsilon spelled "-inf" in memory as on disk: one reader
(_read_array) turns its arrays into floats and one writer (_json) back.

A problem kind is one entry of the `_KINDS` table: its instance fields,
whether epsilon and a non-square A are allowed, the statuses its solutions
carry, its solver and its certificate check.  A solution stores only what
the check reads: the witnesses, the values and statuses they certify, and
the instance.  The check shares one copy of each certificate formula with
the solvers' self-checks, and reads every stored field through the same
typed readers that parse instances.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np

from ._version import __version__
from .closure import _diverges, _star_sweep, kleene_star, max_cycle_mean
from .core import (DEFAULT_TOL, EPSILON, TropMatrix, TropVector, excess,
                   identity, mismatch, tadd, tdot, tmul)
from .errors import DivergentStarError, FiniteRequiredError, InstanceFormatError
from .intlp import duality_gap, solve_dual_integer, solve_primal_integer
from .lp import (LpInstance, dual_violation, primal_violation, solve_dual,
                 solve_primal)
from .onesided import _check_system, shortfall, solve_equality
from .twosided import (FEASIBLE, UNIQUE_FIXED_POINT, TwoSidedInstance,
                       solve_tslp, solve_tslp2, two_sided_lhs)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_CERTIFICATE = 3


@dataclass(frozen=True)
class InstanceFile:
    problem: str
    a: TropMatrix
    b: TropVector | None = None
    c: TropVector | None = None
    d: TropVector | None = None
    tol: float | None = None


def _reject_constant(token: str):
    raise InstanceFormatError(f"literal {token} is not allowed")


def check_tol(value) -> float:
    """The tolerance rule for instances, solutions and --tol: a finite number >= 0."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 <= value <= sys.float_info.max):
        raise InstanceFormatError(f"tol must be a finite nonnegative number, got {value!r}")
    return float(value)


def _number(value, allow_eps: bool, where: str) -> float:
    if type(value) is bool:
        raise InstanceFormatError(f"{where}: booleans are not numbers")
    if value == "-inf":
        if not allow_eps:
            raise InstanceFormatError(f'{where}: "-inf" not permitted here')
        return EPSILON
    if type(value) not in (int, float):
        raise InstanceFormatError(f"{where}: expected a number, got {value!r}")
    if type(value) is int and abs(value) >= _INT_OVERFLOW:
        raise InstanceFormatError(f"{where}: integer out of float range")
    x = float(value)
    if not math.isfinite(x):
        raise InstanceFormatError(f"{where}: non-finite number {value!r}")
    return x


_type_of = np.frompyfunc(type, 1, 1)
_INT_OVERFLOW = 2**1024 - 2**970  # the least integer float() cannot convert


def _read_array(value, ndim: int, allow_eps: bool, where: str) -> np.ndarray:
    """A list of numbers (ndim 1) or of equal-length rows (ndim 2) as a float
    array, its entries checked a whole array at a time.  The error is the one
    _number gives for the first bad entry, or the malformed row before it."""
    if not isinstance(value, list) or not value:
        raise InstanceFormatError(
            f"{where}: expected a non-empty list of {'numbers' if ndim == 1 else 'rows'}")
    rows = [value] if ndim == 1 else value
    width = len(rows[0]) if isinstance(rows[0], list) else 0
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row or len(row) != width:
            if i:  # a bad entry in an earlier row is reported first
                _read_array(rows[:i], 2, allow_eps, where)
            raise InstanceFormatError(f"{where}: row {i} " + (
                f"has length {len(row)}, expected {width}" if isinstance(row, list) and row
                else "is not a non-empty list"))
    cells = np.fromiter(chain.from_iterable(rows), dtype=object, count=len(rows) * width)
    kinds = _type_of(cells)
    ints = kinds == int
    real = (kinds == float) | ints
    real[ints] = np.abs(cells[ints]) < _INT_OVERFLOW
    values = np.where(real, cells, EPSILON).astype(float)
    good = np.isfinite(values)
    if allow_eps:
        good[~real] = cells[~real] == "-inf"
    if not good.all():
        i, j = divmod(int(np.argmin(good)), width)
        _number(cells[i * width + j], allow_eps,
                f"{where}[{j}]" if ndim == 1 else f"{where}[{i}][{j}]")
    return values if ndim == 1 else values.reshape(len(rows), width)


def _spec(kind) -> _Kind:
    spec = _KINDS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise InstanceFormatError(
            f"unknown problem kind {kind!r}; expected one of {', '.join(KINDS)}")
    return spec


# The largest magnitude of a finite instance entry.  The solvers and checks
# add at most 2n + 2 entries, and such a sum stays finite in float64 for every
# n below 8e7.
_MAX_ENTRY = 1e300
# The largest magnitude of a finite number stored in a solution.  An honest
# one is a sum of at most n instance entries, so it stays below this bound
# for any n that fits in memory.  A certificate sum in a check adds at most
# two stored numbers and one entry, which stays finite; the sweep of the mcm
# check, which can overflow on a tampered lambda, reads that as divergence.
_MAX_STORED = 1e307


def _check_magnitude(key: str, values: np.ndarray, bound: float = _MAX_ENTRY):
    big = (np.abs(values) > bound) & (values != EPSILON)
    if big.any():
        raise InstanceFormatError(f"{key}: finite entries must not exceed {bound:.0e} "
                                  f"in magnitude, got {float(values[big][0])!r}")


def _instance_from_obj(obj, default_problem: str | None = None) -> InstanceFile:
    if not isinstance(obj, dict):
        raise InstanceFormatError("instance must be a JSON object")
    problem = obj.get("problem", default_problem)
    if problem is None:
        raise InstanceFormatError('missing required field "problem"')
    spec = _spec(problem)

    required = spec.fields
    allowed = set(required) | {"problem", "tol"}
    for key in obj:
        if key not in allowed:
            raise InstanceFormatError(f"unexpected field {key!r} for kind {problem!r}")
    for key in required:
        if key not in obj:
            raise InstanceFormatError(f'missing required field "{key}" for kind {problem!r}')

    a = TropMatrix(_read_array(obj["A"], 2, spec.eps, "A"))
    if spec.square and a.rows != a.cols:
        raise InstanceFormatError(f"A must be square for kind {problem!r}, got {a.shape}")
    _check_magnitude("A", a.data)

    vectors = {}
    for key, length, axis in (("b", a.rows, "rows"), ("c", a.cols, "columns"),
                              ("d", a.rows, "rows")):
        if key in required:
            vec = TropVector(_read_array(obj[key], 1, spec.eps, key))
            if len(vec) != length:
                raise InstanceFormatError(
                    f"{key} has length {len(vec)} but A has {length} {axis}")
            _check_magnitude(key, vec.data)
            vectors[key] = vec

    tol = check_tol(obj["tol"]) if "tol" in obj else None
    return InstanceFile(problem, a, tol=tol, **vectors)


def _load_json(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # e.g. an integer literal past the digit limit
        raise InstanceFormatError(f"invalid JSON: {exc}") from None


def parse_instance(text: str, default_problem: str | None = None) -> InstanceFile:
    """Parse and validate one instance from JSON text."""
    return _instance_from_obj(_load_json(text), default_problem)


def _json(value):
    """JSON form of a float or float array: numbers and lists, epsilon as "-inf"."""
    values = np.asarray(value, dtype=float)
    eps = np.isneginf(values)
    if eps.any():
        values = values.astype(object)
        values[eps] = "-inf"
    return values.tolist()


def instance_to_obj(inst: InstanceFile) -> dict:
    obj: dict = {"problem": inst.problem, "A": _json(inst.a.data)}
    for key, vec in (("b", inst.b), ("c", inst.c), ("d", inst.d)):
        if vec is not None:
            obj[key] = _json(vec.data)
    if inst.tol is not None:
        obj["tol"] = inst.tol
    return obj


# Without indent the stdlib encodes through its C accelerator; indent=2 would
# select the pure-Python encoder and put every number on its own line.
_encode = json.JSONEncoder(allow_nan=False).encode


def _layout(value, pad: str) -> str:
    inner = pad + "  "
    if isinstance(value, dict) and value:
        return ("{\n" + ",\n".join(f"{inner}{_encode(key)}: {_layout(item, inner)}"
                                   for key, item in value.items()) + f"\n{pad}}}")
    if isinstance(value, list) and value and all(isinstance(row, list) for row in value):
        return "[\n" + ",\n".join(inner + _encode(row) for row in value) + f"\n{pad}]"
    return _encode(value)


def serialize_solution(payload: dict) -> str:
    """Canonical JSON text of a str-keyed document: one key per line, one
    matrix row per line, every other value (a row, a vector, a scalar) on one
    line; fixed key order, and floats via shortest round-tripping repr so
    parsing reproduces them bit-exactly.  The payload already spells epsilon
    "-inf"; allow_nan=False rejects a float -inf that slipped in."""
    return _layout(payload, "") + "\n"


def parse_solution(text: str) -> dict:
    """The solution document in text, unchanged: epsilon stays "-inf".
    verify_payload checks its fields."""
    obj = _load_json(text)
    if not isinstance(obj, dict):
        raise InstanceFormatError("solution must be a JSON object")
    return obj


def render_text(payload: dict) -> str:
    """Human-oriented plain-text rendering; not round-trip safe."""
    lines: list[str] = []

    def emit(key, value, indent):
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k, v in value.items():
                emit(k, v, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], list):
            lines.append(f"{pad}{key}:")
            for row in value:
                lines.append(f"{pad}  " + "  ".join(str(v) for v in row))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: " + "  ".join(str(v) for v in value))
        else:
            lines.append(f"{pad}{key}: {value}")

    for k, v in payload.items():
        emit(k, v, 0)
    return "\n".join(lines) + "\n"


# Certificate formulas of the star and mcm kinds; those of the other kinds
# live next to their solvers (lp, onesided, twosided), which share them.
# core.excess decides each inequality, core.mismatch each equality.

def _cycle_mean(a: TropMatrix, cycle: list[int]) -> float:
    """Mean arc weight of the closed walk `cycle`; -inf if an arc is absent."""
    total = 0.0
    for node, succ in zip(cycle, cycle[1:] + cycle[:1]):
        total += a.data[node, succ]
    return float(total / len(cycle))


# Typed readers for stored solution fields; a malformed field raises
# InstanceFormatError, which verify_payload reports as a problem.

def _read_number(payload: dict, key: str, allow_eps: bool = False) -> float:
    value = _number(payload.get(key), allow_eps, key)
    _check_magnitude(key, np.float64(value), _MAX_STORED)
    return value


def _read_vector(payload: dict, key: str, length: int) -> TropVector:
    values = _read_array(payload.get(key), 1, False, key)
    if len(values) != length:
        raise InstanceFormatError(f"{key}: has length {len(values)}, expected {length}")
    _check_magnitude(key, values, _MAX_STORED)
    return TropVector(values)


def _read_cycle(payload: dict, nodes: int) -> list[int]:
    cycle = payload.get("witness_cycle")
    if (not isinstance(cycle, list) or not cycle
            or not all(type(v) is int and 0 <= v < nodes for v in cycle)):
        raise InstanceFormatError(
            f"witness_cycle: expected a non-empty list of node indices below {nodes}, "
            f"got {cycle!r}")
    return cycle


def _check_value(problems: list[str], payload: dict, key: str,
                 recomputed: float, tol: float) -> float:
    stored = _read_number(payload, key)
    if mismatch(stored, recomputed, tol) is not None:
        problems.append(f"{key}: stored {stored!r} but recomputed {recomputed!r}")
    return stored


def _check_integral(problems: list[str], label: str, vec: TropVector, tol: float):
    worst = mismatch(vec.data, np.round(vec.data), tol)
    if worst is not None:
        problems.append(f"{label}: components deviate from integers by {worst}")


def _check_cycle(a: TropMatrix, lam: float, payload: dict, tol: float,
                 problems: list[str]) -> float | None:
    """Check that the stored witness cycle has mean lam; return its mean."""
    mean = _cycle_mean(a, _read_cycle(payload, a.rows))
    if mean == EPSILON:
        problems.append("witness cycle uses arcs absent from A")
        return None
    if mismatch(mean, lam, tol) is not None:
        problems.append(f"witness cycle mean {mean} != lambda {lam}")
    return mean


# Per-kind solvers (instance -> solution body) and checks.

def _x_body(objective: float, x: TropVector) -> dict:
    return {"objective": _json(objective), "x": _json(x.data)}


def _pi_body(objective: float, pi: TropVector) -> dict:
    return {"objective": _json(objective), "pi": _json(pi.data)}


def _check_x(inst: InstanceFile, payload: dict, tol: float, problems: list[str],
             integral: bool = False, key: str = "objective") -> float:
    x = _read_vector(payload, "x", inst.a.cols)
    over = primal_violation(inst, x, tol)
    if over is not None:
        problems.append(f"primal witness infeasible by {over}")
    if integral:
        _check_integral(problems, "x", x, tol)
    return _check_value(problems, payload, key, tdot(inst.c, x), tol)


def _check_pi(inst: InstanceFile, payload: dict, tol: float, problems: list[str],
              integral: bool = False, key: str = "objective") -> float:
    pi = _read_vector(payload, "pi", inst.a.rows)
    over = dual_violation(inst, pi, tol)
    if over is not None:
        problems.append(f"dual witness infeasible by {over}")
    if integral:
        _check_integral(problems, "pi", pi, tol)
    return _check_value(problems, payload, key, tdot(pi, inst.b), tol)


def _solve_primal(inst: InstanceFile, tol: float) -> dict:
    x, f = solve_primal(LpInstance(inst.a, inst.b, inst.c))
    return _x_body(f, x)


def _solve_dual(inst: InstanceFile, tol: float) -> dict:
    pi, phi = solve_dual(LpInstance(inst.a, inst.b, inst.c))
    return _pi_body(phi, pi)


def _solve_primal_integer(inst: InstanceFile, tol: float) -> dict:
    res = solve_primal_integer(LpInstance(inst.a, inst.b, inst.c), tol)
    return _x_body(res.f_max_int, res.x_opt)


def _solve_dual_integer(inst: InstanceFile, tol: float) -> dict:
    res = solve_dual_integer(LpInstance(inst.a, inst.b, inst.c), tol)
    return _pi_body(res.phi_min_int, res.pi_opt)


def _solve_gap(inst: InstanceFile, tol: float) -> dict:
    report = duality_gap(LpInstance(inst.a, inst.b, inst.c), tol)
    x, pi = report.primal.x_opt, report.dual.pi_opt
    return {"lower": _json(report.lower), "real_optimum": _json(report.real_optimum),
            "upper": _json(report.upper), "x": _json(x.data), "pi": _json(pi.data)}


def _verify_gap(inst: InstanceFile, payload: dict, tol: float, problems: list[str]):
    lower = _check_x(inst, payload, tol, problems, integral=True, key="lower")
    upper = _check_pi(inst, payload, tol, problems, integral=True, key="upper")
    real = _check_value(problems, payload, "real_optimum",
                        solve_primal(LpInstance(inst.a, inst.b, inst.c))[1], tol)
    if excess(lower, real, tol) is not None or excess(real, upper, tol) is not None:
        problems.append(
            f"gap interval broken: lower {lower}, real {real}, upper {upper}")


def _solve_tslp(inst: InstanceFile, tol: float) -> dict:
    res = solve_tslp(TwoSidedInstance(inst.a, inst.d, inst.c), tol)
    return {"objective": _json(res.g_min), "y": _json(res.y_opt.data)}


def _solve_tslp2(inst: InstanceFile, tol: float) -> dict:
    res = solve_tslp2(TwoSidedInstance(inst.a, inst.d, inst.c), tol)
    return {"objective": _json(res.g_min), "y": _json(res.y_opt.data),
            "solution_kind": res.feasibility_kind}


def _check_y(inst: InstanceFile, payload: dict, tol: float,
             problems: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Check the stored objective of y; return max(Ay, d) and y."""
    y = _read_vector(payload, "y", inst.a.rows)
    _check_value(problems, payload, "objective", tdot(inst.c, y), tol)
    return two_sided_lhs(inst, y), y.data


def _verify_tslp(inst: InstanceFile, payload: dict, tol: float, problems: list[str]):
    worst = excess(*_check_y(inst, payload, tol, problems), tol)
    if worst is not None:
        problems.append(f"two-sided witness infeasible by {worst}")


def _verify_tslp2(inst: InstanceFile, payload: dict, tol: float, problems: list[str]):
    worst = mismatch(*_check_y(inst, payload, tol, problems), tol)
    if worst is not None:
        problems.append(f"fixed-point equation violated by {worst}")
    if payload.get("solution_kind") not in (FEASIBLE, UNIQUE_FIXED_POINT):
        problems.append("unknown tslp2 solution kind")


def _solve_star(inst: InstanceFile, tol: float) -> dict:
    star = kleene_star(inst.a, tol)
    return {"star": _json(star.data)}


def _verify_star(inst: InstanceFile, payload: dict, tol: float, problems: list[str]):
    star = TropMatrix(_read_array(payload.get("star"), 2, True, "star"))
    if star.shape != inst.a.shape:
        raise InstanceFormatError(f"star has shape {star.shape}, expected {inst.a.shape}")
    _check_magnitude("star", star.data, _MAX_STORED)
    fixed_point = tadd(tmul(inst.a, star), identity(inst.a.rows))
    worst = mismatch(fixed_point.data, star.data, tol)
    if worst is not None:
        problems.append(f"star is not a fixed point of x -> Ax + I ({worst})")
    worst = mismatch(tmul(star, star).data, star.data, tol)
    if worst is not None:
        problems.append(f"star is not idempotent ({worst})")


def _solve_mcm(inst: InstanceFile, tol: float) -> dict:
    cm = max_cycle_mean(inst.a)
    cycle = None if cm.witness_cycle is None else list(cm.witness_cycle)
    return {"lambda": _json(cm.lambda_), "witness_cycle": cycle}


def _verify_mcm(inst: InstanceFile, payload: dict, tol: float, problems: list[str]):
    lam = _read_number(payload, "lambda", allow_eps=True)
    if lam != EPSILON:
        _check_cycle(inst.a, lam, payload, tol, problems)
        # A cycle of mean above lam + tol closes a positive walk in A - (lam + tol).
        if _diverges(_star_sweep(inst.a.data - (lam + tol))):
            problems.append("lambda below the maximum cycle mean")
        return
    if payload.get("witness_cycle") is not None:
        problems.append("acyclic result must not carry a witness cycle")
    if max_cycle_mean(inst.a).lambda_ != EPSILON:
        problems.append("lambda = -inf claimed but the digraph has a cycle")


def _verify_divergence(inst: InstanceFile, payload: dict, tol: float,
                       problems: list[str]):
    """Check of the two failure statuses: a witness cycle of positive mean."""
    mean = _check_cycle(inst.a, _read_number(payload, "lambda"), payload, tol, problems)
    if mean is not None and mean <= tol:
        problems.append(f"witness cycle mean {mean} does not certify divergence")


def _solve_onesided(inst: InstanceFile, tol: float) -> dict:
    res = solve_equality(inst.a, inst.b, tol)
    return {"principal": _json(res.principal.data),
            "solvable_as_equality": res.solvable_as_equality,
            "residual": _json(res.residual)}


def _verify_onesided(inst: InstanceFile, payload: dict, tol: float,
                     problems: list[str]):
    p = _read_vector(payload, "principal", inst.a.cols)
    _check_system(inst.a, inst.b)
    over = primal_violation(inst, p, tol)
    if over is not None:
        problems.append(f"principal exceeds b by {over}")
    residual = shortfall(inst.a, inst.b, p)
    _check_value(problems, payload, "residual", residual, tol)
    if payload.get("solvable_as_equality") is not (excess(residual, 0.0, tol) is None):
        problems.append("solvable_as_equality flag disagrees with residual")


class _Kind(NamedTuple):
    """One problem kind.  A NamedTuple rather than a dataclass: it is just as
    immutable and takes less import time, which every CLI start pays.

    statuses[0] is the status of a solved instance; statuses[1], present
    only for kinds whose solver can raise DivergentStarError, is written when
    it does.
    """

    fields: tuple[str, ...]
    solve: Callable[[InstanceFile, float], dict]
    verify: Callable[[InstanceFile, dict, float, list], None]
    statuses: tuple[str, ...] = ("optimal",)
    eps: bool = False
    square: bool = False


_ABC = ("A", "b", "c")
_OPTIMAL_OR_INFEASIBLE = ("optimal", "infeasible-lambda-positive")

# The entries call solvers through this module's names, looked up at call
# time, so a caller that rebinds a solver name here is honoured.
_KINDS = {
    "primal": _Kind(_ABC, _solve_primal, _check_x),
    "dual": _Kind(_ABC, _solve_dual, _check_pi),
    "primal-integer": _Kind(_ABC, _solve_primal_integer,
                            partial(_check_x, integral=True)),
    "dual-integer": _Kind(_ABC, _solve_dual_integer,
                          partial(_check_pi, integral=True)),
    "gap": _Kind(_ABC, _solve_gap, _verify_gap),
    "tslp": _Kind(("A", "d", "c"), _solve_tslp, _verify_tslp,
                  _OPTIMAL_OR_INFEASIBLE, square=True),
    "tslp2": _Kind(("A", "d", "c"), _solve_tslp2, _verify_tslp2,
                   _OPTIMAL_OR_INFEASIBLE, square=True),
    "star": _Kind(("A",), _solve_star, _verify_star, ("ok", "divergent-star"),
                  eps=True, square=True),
    "mcm": _Kind(("A",), _solve_mcm, _verify_mcm, ("ok",), eps=True, square=True),
    "onesided": _Kind(("A", "b"), _solve_onesided, _verify_onesided, ("ok",), eps=True),
}

KINDS = tuple(_KINDS)


def _head(problem: str, tol: float, status: str) -> dict:
    return {"tool": "troplp", "version": __version__,
            "problem": problem, "tol": tol, "status": status}


def solve_to_payload(inst: InstanceFile, tol: float) -> tuple[dict, int]:
    """Dispatch on the instance kind; returns (solution payload, exit code)."""
    spec = _spec(inst.problem)
    try:
        body = spec.solve(inst, tol)
        status, code = spec.statuses[0], EXIT_OK
    except DivergentStarError as exc:
        status = spec.statuses[1]
        cycle = None if exc.witness_cycle is None else list(exc.witness_cycle)
        body, code = {"lambda": _json(exc.lambda_), "witness_cycle": cycle}, EXIT_INFEASIBLE
    payload = _head(inst.problem, tol, status)
    payload.update(body)
    payload["instance"] = instance_to_obj(inst)
    return payload, code


def verify_payload(payload: dict, tol_override: float | None = None) -> list[str]:
    """Re-validate a solution payload against its embedded instance.

    Returns a list of human-readable violations; empty means the certificate
    holds.  A missing problem or instance field, an unknown kind, a damaged
    instance or a bad tolerance raises InstanceFormatError instead; a missing
    status reads as the kind's solved status.  The check recomputes every
    residual from the stored witnesses and the instance.  Fields it does not
    read are ignored: tool, version, and the certificate block, method,
    iterations and u that older files carry.
    """
    for key in ("problem", "instance"):
        if key not in payload:
            raise InstanceFormatError(f'solution is missing the "{key}" field')
    kind = payload["problem"]
    spec = _spec(kind)
    inst = _instance_from_obj(payload["instance"], default_problem=kind)
    if inst.problem != kind:
        raise InstanceFormatError("instance kind disagrees with solution kind")
    tol = check_tol(tol_override if tol_override is not None
                    else payload.get("tol", DEFAULT_TOL))
    status = payload.get("status", spec.statuses[0])
    if status not in spec.statuses:
        return [f"status {status!r} is not one that kind {kind!r} writes"]
    verify = spec.verify if status == spec.statuses[0] else _verify_divergence
    problems: list[str] = []
    try:
        verify(inst, payload, tol, problems)
    except (InstanceFormatError, FiniteRequiredError) as exc:
        problems.append(str(exc))
    return problems


def check_solution_text(text: str, tol_override: float | None = None) -> list[str]:
    """Parse a solution file and re-validate its certificate."""
    return verify_payload(parse_solution(text), tol_override)


__all__ = [
    "KINDS", "InstanceFile", "parse_instance", "instance_to_obj",
    "serialize_solution", "parse_solution", "render_text", "solve_to_payload",
    "verify_payload", "check_solution_text", "check_tol",
    "EXIT_OK", "EXIT_INFEASIBLE", "EXIT_INPUT", "EXIT_CERTIFICATE",
]

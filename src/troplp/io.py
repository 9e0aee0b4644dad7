"""Instance and solution file formats plus certificate re-validation.

Instances are single JSON objects with a "problem" kind, the matrices and
vectors that kind requires, and an optional "tol".  Epsilon entries are
written as the string "-inf" and are accepted only where the kind permits
them.  Solutions embed the instance they were computed from, so a solution
file alone is enough to re-check its certificate.
"""

from __future__ import annotations

import json
import math

from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .closure import CycleMeanResult, kleene_star, max_cycle_mean
from .core import (DEFAULT_TOL, EPSILON, TropMatrix, TropVector, identity,
                   tadd, tmul, transpose)
from .errors import (DivergentStarError, FiniteRequiredError,
                     InfeasibleLambdaError, InstanceFormatError)
from .intlp import (duality_gap, fr, solve_dual_integer_direct,
                    solve_dual_integer_general, solve_primal_integer)
from .lp import LpInstance, solve_dual, solve_primal
from .onesided import _check_system, solve_equality
from .twosided import TwoSidedInstance, solve_tslp, solve_tslp2

KINDS = ("primal", "dual", "primal-integer", "dual-integer", "gap",
         "tslp", "tslp2", "star", "mcm", "onesided")

_FIELDS = {
    "primal": ("A", "b", "c"),
    "dual": ("A", "b", "c"),
    "primal-integer": ("A", "b", "c"),
    "dual-integer": ("A", "b", "c"),
    "gap": ("A", "b", "c"),
    "tslp": ("A", "d", "c"),
    "tslp2": ("A", "d", "c"),
    "star": ("A",),
    "mcm": ("A",),
    "onesided": ("A", "b"),
}

_EPS_ALLOWED = {"star", "mcm", "onesided"}
_SQUARE = {"tslp", "tslp2", "star", "mcm"}

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


def _number(value, allow_eps: bool, where: str) -> float:
    if isinstance(value, bool):
        raise InstanceFormatError(f"{where}: booleans are not numbers")
    if value == "-inf" or (isinstance(value, float) and value == EPSILON):
        # string form in files, float form in decoded/in-memory objects
        if not allow_eps:
            raise InstanceFormatError(f'{where}: "-inf" not permitted here')
        return EPSILON
    if isinstance(value, (int, float)):
        x = float(value)
        if math.isnan(x) or math.isinf(x):
            raise InstanceFormatError(f"{where}: non-finite number {value!r}")
        return x
    raise InstanceFormatError(f"{where}: expected a number, got {value!r}")


def _parse_matrix(value, allow_eps: bool, where: str) -> TropMatrix:
    if not isinstance(value, list) or not value:
        raise InstanceFormatError(f"{where}: expected a non-empty list of rows")
    rows = []
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise InstanceFormatError(f"{where}: row {i} is not a non-empty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InstanceFormatError(
                f"{where}: row {i} has length {len(row)}, expected {width}")
        rows.append([_number(v, allow_eps, f"{where}[{i}][{j}]")
                     for j, v in enumerate(row)])
    return TropMatrix(rows)


def _parse_vector(value, allow_eps: bool, where: str) -> TropVector:
    if not isinstance(value, list) or not value:
        raise InstanceFormatError(f"{where}: expected a non-empty list of numbers")
    return TropVector([_number(v, allow_eps, f"{where}[{i}]")
                       for i, v in enumerate(value)])


def _instance_from_obj(obj, default_problem: str | None = None) -> InstanceFile:
    if not isinstance(obj, dict):
        raise InstanceFormatError("instance must be a JSON object")
    problem = obj.get("problem", default_problem)
    if problem is None:
        raise InstanceFormatError('missing required field "problem"')
    if problem not in KINDS:
        raise InstanceFormatError(
            f"unknown problem kind {problem!r}; expected one of {', '.join(KINDS)}")

    required = _FIELDS[problem]
    allowed = set(required) | {"problem", "tol"}
    for key in obj:
        if key not in allowed:
            raise InstanceFormatError(f"unexpected field {key!r} for kind {problem!r}")
    for key in required:
        if key not in obj:
            raise InstanceFormatError(f'missing required field "{key}" for kind {problem!r}')

    allow_eps = problem in _EPS_ALLOWED
    a = _parse_matrix(obj["A"], allow_eps, "A")
    if problem in _SQUARE and a.rows != a.cols:
        raise InstanceFormatError(f"A must be square for kind {problem!r}, got {a.shape}")

    b = c = d = None
    if "b" in required:
        b = _parse_vector(obj["b"], allow_eps, "b")
        if len(b) != a.rows:
            raise InstanceFormatError(
                f"b has length {len(b)} but A has {a.rows} rows")
    if "c" in required:
        c = _parse_vector(obj["c"], False, "c")
        if len(c) != a.cols:
            raise InstanceFormatError(
                f"c has length {len(c)} but A has {a.cols} columns")
    if "d" in required:
        d = _parse_vector(obj["d"], False, "d")
        if len(d) != a.rows:
            raise InstanceFormatError(
                f"d has length {len(d)} but A has {a.rows} rows")

    tol = None
    if "tol" in obj:
        if isinstance(obj["tol"], bool) or not isinstance(obj["tol"], (int, float)):
            raise InstanceFormatError("tol must be a number")
        tol = float(obj["tol"])
        if math.isnan(tol) or math.isinf(tol) or tol < 0:
            raise InstanceFormatError("tol must be finite and nonnegative")

    return InstanceFile(problem, a, b, c, d, tol)


def parse_instance(text: str, default_problem: str | None = None) -> InstanceFile:
    """Parse and validate one instance from JSON text."""
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    return _instance_from_obj(obj, default_problem)


def _encode(value):
    if isinstance(value, float):
        return "-inf" if value == EPSILON else value
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def _decode(value):
    if value == "-inf":
        return EPSILON
    if isinstance(value, list):
        return [_decode(v) for v in value]
    if isinstance(value, dict):
        return {k: _decode(v) for k, v in value.items()}
    return value


def instance_to_obj(inst: InstanceFile) -> dict:
    obj: dict = {"problem": inst.problem, "A": inst.a.to_lists()}
    if inst.b is not None:
        obj["b"] = inst.b.to_list()
    if inst.c is not None:
        obj["c"] = inst.c.to_list()
    if inst.d is not None:
        obj["d"] = inst.d.to_list()
    if inst.tol is not None:
        obj["tol"] = inst.tol
    return obj


def serialize_solution(payload: dict) -> str:
    """Canonical JSON text: fixed key order, epsilon as "-inf", floats via
    shortest round-tripping repr so parsing reproduces them bit-exactly."""
    return json.dumps(_encode(payload), indent=2, allow_nan=False) + "\n"


def parse_solution(text: str) -> dict:
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise InstanceFormatError("solution must be a JSON object")
    decoded = _decode(obj)
    for key in ("problem", "instance"):
        if key not in decoded:
            raise InstanceFormatError(f'solution is missing the "{key}" field')
    return decoded


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
                lines.append(f"{pad}  " + "  ".join(str(_encode(v)) for v in row))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: " + "  ".join(str(_encode(v)) for v in value))
        else:
            lines.append(f"{pad}{key}: {_encode(value)}")

    for k, v in payload.items():
        emit(k, v, 0)
    return "\n".join(lines) + "\n"


def _head(problem: str, tol: float, status: str) -> dict:
    return {"tool": "troplp", "version": __version__,
            "problem": problem, "tol": tol, "status": status}


def _lp_instance(inst: InstanceFile) -> LpInstance:
    return LpInstance(inst.a, inst.b, inst.c)


def _infeasible_payload(inst: InstanceFile, tol: float, status: str,
                        exc) -> dict:
    payload = _head(inst.problem, tol, status)
    payload["lambda"] = exc.lambda_
    payload["witness_cycle"] = (list(exc.witness_cycle)
                                if exc.witness_cycle is not None else None)
    payload["instance"] = instance_to_obj(inst)
    return payload


def solve_to_payload(inst: InstanceFile, tol: float) -> tuple[dict, int]:
    """Dispatch on the instance kind; returns (solution payload, exit code)."""
    kind = inst.problem
    try:
        if kind == "primal":
            x, f = solve_primal(_lp_instance(inst))
            payload = _head(kind, tol, "optimal")
            payload.update(objective=f, x=x.to_list())
            payload["certificate"] = {
                "primal_residual": float(np.max(tmul(inst.a, x).data - inst.b.data))}
        elif kind == "dual":
            pi, phi = solve_dual(_lp_instance(inst))
            payload = _head(kind, tol, "optimal")
            payload.update(objective=phi, pi=pi.to_list())
            payload["certificate"] = {
                "dual_slack": float(np.min(tmul(transpose(inst.a), pi).data
                                           - inst.c.data))}
        elif kind == "primal-integer":
            res = solve_primal_integer(_lp_instance(inst), tol)
            payload = _head(kind, tol, "optimal")
            payload.update(objective=res.f_max_int, x=res.x_opt.to_list())
            payload["certificate"] = {
                "primal_residual": float(np.max(tmul(inst.a, res.x_opt).data
                                                - inst.b.data))}
        elif kind == "dual-integer":
            lp = _lp_instance(inst)
            if all(fr(v, tol) == 0.0 for v in inst.b.data):
                res = solve_dual_integer_direct(lp, tol)
            else:
                res = solve_dual_integer_general(lp, tol)
            payload = _head(kind, tol, "optimal")
            payload.update(objective=res.phi_min_int, pi=res.pi_opt.to_list(),
                           method=res.method, iterations=res.iterations)
            payload["certificate"] = {
                "dual_slack": float(np.min(tmul(transpose(inst.a), res.pi_opt).data
                                           - inst.c.data))}
        elif kind == "gap":
            lp = _lp_instance(inst)
            primal = solve_primal_integer(lp, tol)
            if all(fr(v, tol) == 0.0 for v in inst.b.data):
                dual = solve_dual_integer_direct(lp, tol)
            else:
                dual = solve_dual_integer_general(lp, tol)
            report = duality_gap(lp, tol)
            payload = _head(kind, tol, "optimal")
            payload.update(lower=report.lower, real_optimum=report.real_optimum,
                           upper=report.upper, method=dual.method,
                           x=primal.x_opt.to_list(), pi=dual.pi_opt.to_list())
            payload["certificate"] = {
                "primal_residual": float(np.max(tmul(inst.a, primal.x_opt).data
                                                - inst.b.data)),
                "dual_slack": float(np.min(tmul(transpose(inst.a), dual.pi_opt).data
                                           - inst.c.data)),
                "width": report.upper - report.lower}
        elif kind == "tslp":
            res = solve_tslp(TwoSidedInstance(inst.a, inst.d, inst.c), tol)
            payload = _head(kind, tol, "optimal")
            payload.update(objective=res.g_min, y=res.y_opt.to_list(),
                           u=res.u_opt.to_list())
            lhs = np.maximum(tmul(inst.a, res.y_opt).data, inst.d.data)
            payload["certificate"] = {
                "feasibility_residual": float(np.max(lhs - res.y_opt.data))}
        elif kind == "tslp2":
            res = solve_tslp2(TwoSidedInstance(inst.a, inst.d, inst.c), tol)
            payload = _head(kind, tol, "optimal")
            payload.update(objective=res.g_min, y=res.y_opt.to_list(),
                           solution_kind=res.feasibility_kind)
            lhs = np.maximum(tmul(inst.a, res.y_opt).data, inst.d.data)
            payload["certificate"] = {
                "equation_residual": float(np.max(np.abs(lhs - res.y_opt.data)))}
        elif kind == "star":
            star = kleene_star(inst.a, tol)
            payload = _head(kind, tol, "ok")
            payload["star"] = star.to_lists()
            fixed_point = tadd(tmul(inst.a, star), identity(inst.a.rows))
            payload["certificate"] = {
                "fixed_point_residual": _residual_eps_aware(fixed_point.data,
                                                            star.data)}
        elif kind == "mcm":
            cm = max_cycle_mean(inst.a)
            payload = _head(kind, tol, "ok")
            payload["lambda"] = cm.lambda_
            payload["witness_cycle"] = (list(cm.witness_cycle)
                                        if cm.witness_cycle is not None else None)
            payload["certificate"] = {
                "witness_mean_error": (_cycle_mean_error(inst.a, cm)
                                       if cm.witness_cycle is not None else None)}
        elif kind == "onesided":
            res = solve_equality(inst.a, inst.b, tol)
            payload = _head(kind, tol, "ok")
            payload.update(principal=res.principal.to_list(),
                           solvable_as_equality=res.solvable_as_equality,
                           residual=res.residual)
            payload["certificate"] = {
                "subsolution_residual": float(np.max(tmul(inst.a, res.principal).data
                                                     - inst.b.data))}
        else:  # pragma: no cover - parse_instance guards the kind
            raise InstanceFormatError(f"unknown kind {kind!r}")
    except InfeasibleLambdaError as exc:
        return _infeasible_payload(inst, tol, "infeasible-lambda-positive", exc), EXIT_INFEASIBLE
    except DivergentStarError as exc:
        return _infeasible_payload(inst, tol, "divergent-star", exc), EXIT_INFEASIBLE

    payload["instance"] = instance_to_obj(inst)
    return payload, EXIT_OK


def _residual_eps_aware(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Largest absolute difference, counting matching -inf entries as 0."""
    both_eps = np.isneginf(lhs) & np.isneginf(rhs)
    with np.errstate(invalid="ignore"):
        diff = np.where(both_eps, 0.0, np.abs(lhs - rhs))
    return float(np.max(diff))


def _cycle_weight(a: TropMatrix, cycle: list[int]) -> float | None:
    total = 0.0
    for pos, node in enumerate(cycle):
        succ = cycle[(pos + 1) % len(cycle)]
        if not (0 <= node < a.rows) or a.data[node, succ] == EPSILON:
            return None
        total += a.data[node, succ]
    return total


def _cycle_mean_error(a: TropMatrix, cm: CycleMeanResult) -> float:
    weight = _cycle_weight(a, list(cm.witness_cycle))
    if weight is None:
        return math.inf
    return abs(weight / len(cm.witness_cycle) - cm.lambda_)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_vector(payload: dict, key: str, length: int, problems: list[str]) -> TropVector | None:
    value = payload.get(key)
    ok = (isinstance(value, list) and len(value) == length
          and all(_is_number(v) and math.isfinite(v) for v in value))
    if not ok:
        problems.append(f"field {key!r} is not a finite vector of length {length}")
        return None
    return TropVector([float(v) for v in value])


def _check_close(problems: list[str], label: str, actual: float,
                 expected: float, tol: float):
    if not math.isclose(actual, expected, rel_tol=0.0, abs_tol=tol):
        problems.append(f"{label}: stored {actual!r} but recomputed {expected!r}")


def _check_integral(problems: list[str], label: str, vec: TropVector, tol: float):
    worst = float(np.max(np.abs(vec.data - np.round(vec.data))))
    if worst > tol:
        problems.append(f"{label}: components deviate from integers by {worst}")


def _verify_lp_witnesses(inst: InstanceFile, payload: dict, tol: float,
                         problems: list[str], want_x: bool, want_pi: bool,
                         integral: bool):
    x = pi = None
    if want_x:
        x = _as_vector(payload, "x", inst.a.cols, problems)
        if x is not None:
            slack = float(np.max(tmul(inst.a, x).data - inst.b.data))
            if slack > tol:
                problems.append(f"primal witness infeasible by {slack}")
            if integral:
                _check_integral(problems, "x", x, tol)
    if want_pi:
        pi = _as_vector(payload, "pi", inst.a.rows, problems)
        if pi is not None:
            slack = float(np.min(tmul(transpose(inst.a), pi).data - inst.c.data))
            if slack < -tol:
                problems.append(f"dual witness infeasible by {-slack}")
            if integral:
                _check_integral(problems, "pi", pi, tol)
    return x, pi


def verify_payload(payload: dict, tol_override: float | None = None) -> list[str]:
    """Re-validate a solution payload against its embedded instance.

    Returns a list of human-readable violations; empty means the certificate
    holds.  Structural damage raises InstanceFormatError instead.
    """
    kind = payload.get("problem")
    if kind not in KINDS:
        raise InstanceFormatError(f"unknown problem kind {kind!r}")
    inst = _instance_from_obj(payload["instance"], default_problem=kind)
    if inst.problem != kind:
        raise InstanceFormatError("instance kind disagrees with solution kind")
    tol = tol_override if tol_override is not None else payload.get("tol", DEFAULT_TOL)
    if (isinstance(tol, bool) or not isinstance(tol, (int, float))
            or math.isnan(tol) or tol < 0):
        raise InstanceFormatError("tol must be a nonnegative number")
    tol = float(tol)
    status = payload.get("status")
    problems: list[str] = []

    if status in ("infeasible-lambda-positive", "divergent-star"):
        lam = payload.get("lambda")
        cycle = payload.get("witness_cycle")
        if not _is_number(lam) or not isinstance(cycle, list):
            problems.append("infeasibility certificate needs lambda and witness_cycle")
            return problems
        weight = _cycle_weight(inst.a, [int(v) for v in cycle])
        if weight is None:
            problems.append("witness cycle uses arcs absent from A")
        else:
            mean = weight / len(cycle)
            if abs(mean - lam) > tol:
                problems.append(f"witness cycle mean {mean} != stored lambda {lam}")
            if mean <= tol:
                problems.append(f"witness cycle mean {mean} does not certify divergence")
        return problems

    if kind == "primal":
        x, _ = _verify_lp_witnesses(inst, payload, tol, problems,
                                    want_x=True, want_pi=False, integral=False)
        if x is not None:
            _check_close(problems, "objective", payload.get("objective", math.nan),
                         float(np.max(inst.c.data + x.data)), tol)
    elif kind == "dual":
        _, pi = _verify_lp_witnesses(inst, payload, tol, problems,
                                     want_x=False, want_pi=True, integral=False)
        if pi is not None:
            _check_close(problems, "objective", payload.get("objective", math.nan),
                         float(np.max(pi.data + inst.b.data)), tol)
    elif kind == "primal-integer":
        x, _ = _verify_lp_witnesses(inst, payload, tol, problems,
                                    want_x=True, want_pi=False, integral=True)
        if x is not None:
            _check_close(problems, "objective", payload.get("objective", math.nan),
                         float(np.max(inst.c.data + x.data)), tol)
    elif kind == "dual-integer":
        _, pi = _verify_lp_witnesses(inst, payload, tol, problems,
                                     want_x=False, want_pi=True, integral=True)
        if pi is not None:
            _check_close(problems, "objective", payload.get("objective", math.nan),
                         float(np.max(pi.data + inst.b.data)), tol)
        if payload.get("method") not in ("direct-integer-b", "iterative"):
            problems.append("unknown dual-integer method tag")
    elif kind == "gap":
        x, pi = _verify_lp_witnesses(inst, payload, tol, problems,
                                     want_x=True, want_pi=True, integral=True)
        lower = payload.get("lower", math.nan)
        upper = payload.get("upper", math.nan)
        real = payload.get("real_optimum", math.nan)
        if x is not None:
            _check_close(problems, "lower", lower,
                         float(np.max(inst.c.data + x.data)), tol)
        if pi is not None:
            _check_close(problems, "upper", upper,
                         float(np.max(pi.data + inst.b.data)), tol)
        if not (lower - tol <= real <= upper + tol):
            problems.append(
                f"gap interval broken: lower {lower}, real {real}, upper {upper}")
    elif kind == "tslp":
        y = _as_vector(payload, "y", inst.a.rows, problems)
        _as_vector(payload, "u", inst.a.rows, problems)
        if y is not None:
            lhs = np.maximum(tmul(inst.a, y).data, inst.d.data)
            worst = float(np.max(lhs - y.data))
            if worst > tol:
                problems.append(f"two-sided witness infeasible by {worst}")
            _check_close(problems, "objective", payload.get("objective", math.nan),
                         float(np.max(inst.c.data + y.data)), tol)
    elif kind == "tslp2":
        y = _as_vector(payload, "y", inst.a.rows, problems)
        if y is not None:
            lhs = np.maximum(tmul(inst.a, y).data, inst.d.data)
            worst = float(np.max(np.abs(lhs - y.data)))
            if worst > tol:
                problems.append(f"fixed-point equation violated by {worst}")
            _check_close(problems, "objective", payload.get("objective", math.nan),
                         float(np.max(inst.c.data + y.data)), tol)
        if payload.get("solution_kind") not in ("feasible", "unique-fixed-point"):
            problems.append("unknown tslp2 solution kind")
    elif kind == "star":
        rows = payload.get("star")
        try:
            star = _parse_matrix(_encode(rows), True, "star")
        except InstanceFormatError as exc:
            problems.append(str(exc))
            return problems
        if star.shape != inst.a.shape:
            problems.append(f"star has shape {star.shape}, expected {inst.a.shape}")
            return problems
        fixed_point = tadd(tmul(inst.a, star), identity(inst.a.rows))
        worst = _residual_eps_aware(fixed_point.data, star.data)
        if worst > tol:
            problems.append(f"star is not a fixed point of x -> Ax + I ({worst})")
        worst = _residual_eps_aware(tmul(star, star).data, star.data)
        if worst > tol:
            problems.append(f"star is not idempotent ({worst})")
    elif kind == "mcm":
        lam = payload.get("lambda")
        cycle = payload.get("witness_cycle")
        if lam == EPSILON:
            if cycle is not None:
                problems.append("acyclic result must not carry a witness cycle")
            if max_cycle_mean(inst.a).lambda_ != EPSILON:
                problems.append("lambda = -inf claimed but the digraph has a cycle")
        else:
            if not _is_number(lam):
                problems.append("lambda must be a number")
            elif not isinstance(cycle, list) or not cycle:
                problems.append("missing witness cycle")
            else:
                weight = _cycle_weight(inst.a, [int(v) for v in cycle])
                if weight is None:
                    problems.append("witness cycle uses arcs absent from A")
                elif abs(weight / len(cycle) - lam) > tol:
                    problems.append(
                        f"witness cycle mean {weight / len(cycle)} != lambda {lam}")
    elif kind == "onesided":
        p = _as_vector(payload, "principal", inst.a.cols, problems)
        if p is not None:
            try:
                _check_system(inst.a, inst.b)
            except FiniteRequiredError as exc:
                problems.append(str(exc))
                return problems
            image = tmul(inst.a, p).data
            over = float(np.max(image - inst.b.data))
            if over > tol:
                problems.append(f"principal exceeds b by {over}")
            residual = float(np.max(inst.b.data - image))
            _check_close(problems, "residual", payload.get("residual", math.nan),
                         residual, tol)
            solvable = payload.get("solvable_as_equality")
            if not isinstance(solvable, bool) or solvable != (residual <= tol):
                problems.append("solvable_as_equality flag disagrees with residual")
    return problems


def check_solution_text(text: str, tol_override: float | None = None) -> list[str]:
    """Parse a solution file and re-validate its certificate."""
    return verify_payload(parse_solution(text), tol_override)


__all__ = [
    "KINDS", "InstanceFile", "parse_instance", "instance_to_obj",
    "serialize_solution", "parse_solution", "render_text", "solve_to_payload",
    "verify_payload", "check_solution_text",
    "EXIT_OK", "EXIT_INFEASIBLE", "EXIT_INPUT", "EXIT_CERTIFICATE",
]

"""Instance and solution file formats plus certificate re-validation.

Instances are single JSON objects with a "problem" kind, the matrices and
vectors that kind requires, and an optional "tol".  Epsilon entries are
written as the string "-inf".  Parsing checks the format alone: the fields,
their JSON types and their magnitudes, with "-inf" allowed in every array.
Each kind's domain (where epsilon may stand, a square A, the vectors'
lengths) is decided by the library guard its solver states it in, which
solve_to_payload and verify_payload run before the solver or the check.
Solutions embed the instance they were computed from, so a solution file
alone is enough to re-check its certificate.  A solution payload is the JSON
document itself, epsilon spelled "-inf" in memory as on disk: one reader
(_read_array) turns its arrays into floats and one writer (_json) back.  The
reader lists its entries' types once, which settles an all-float array
(every epsilon-free array troplp writes) in one count, and converts only the
numbers of an array with epsilon; it reads a valid array in C-level passes
and walks entries only to name a bad one.  An input's A is the exception
both ways.  parse_instance tests A's bytes first (_row_texts): a canonically
spelled A holds only floats and "-inf", is converted from its decoded rows
without _read_array, and keeps those rows with their texts, so the payload
embeds them instead of a second list from _json and the layout copies the
texts instead of formatting every float again.  Any other spelling takes
_read_array with its messages.  A star's rows are written from its distinct
values, each formatted once (_distinct_value_rows).  The bytes are the same
either way.

A problem kind is one entry of the `_KINDS` table: its instance fields, the
guard of its domain, its solver, its certificate check and the statuses its
solutions carry.  A solution stores only what the check reads: the
witnesses, the values and statuses they certify, and the instance.  A kind's
check reads the stored fields through the same typed readers that parse
instances and passes them to the rules of certificates, which the solvers'
self-checks call too; it calls no solver.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress
from typing import Callable, NamedTuple

import numpy as np

from . import certificates
from ._version import __version__
from .closure import (_diverges, _require_square, _star_sweep, kleene_star,
                      max_cycle_mean)
from .core import DEFAULT_TOL, EPSILON, TropMatrix, TropVector, tdot
from .errors import DivergentStarError, InstanceFormatError
from .intlp import duality_gap, solve_dual_integer, solve_primal_integer
from .lp import LpInstance, solve_dual, solve_primal
from .onesided import _check_system, solve_equality
from .twosided import (FEASIBLE, UNIQUE_FIXED_POINT, TwoSidedInstance,
                       solve_tslp, solve_tslp2)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INPUT = 2
EXIT_CERTIFICATE = 3


@dataclass(frozen=True)
class InstanceFile:
    """A parsed instance: well-formed fields, not yet inside the kind's
    domain, which solve_to_payload and verify_payload check.  The solvers and
    certificate rules read its a, b, c and d as they read an LpInstance or a
    TwoSidedInstance."""

    problem: str
    a: TropMatrix
    b: TropVector | None = None
    c: TropVector | None = None
    d: TropVector | None = None
    tol: float | None = None
    # A as the JSON rows parse_instance decoded, carrying the row texts it
    # cut from a canonically spelled input (see _row_texts), else None.  Every
    # payload made from this instance embeds this one list, so a caller that
    # edits a payload's A replaces the list and never its entries.  Not an
    # init field, so dataclasses.replace drops the rows rather than pair them
    # with another A.
    a_rows: _Rows | None = field(default=None, init=False, compare=False, repr=False)


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


_INT_OVERFLOW = 2**1024 - 2**970  # the least integer float() cannot convert


def _read_array(value, ndim: int, allow_eps: bool, where: str, bound: float) -> np.ndarray:
    """A list of numbers (ndim 1) or of equal-length rows (ndim 2) as a float
    array, its finite entries at most bound in magnitude: _MAX_ENTRY in an
    instance, _MAX_STORED in a solution.  The error is the one _number gives
    for the first bad entry, or the malformed row before it; with no such
    error, _check_magnitude's.  A valid array is read in C-level
    passes: a list of its entries' exact types, which settles an all-float
    array by one count (only other arrays build the set of their types) and
    an epsilon array's strings by another; one float conversion, of the
    numbers alone into an epsilon-filled array when there is epsilon; and a
    count of the values within bound, which fails on epsilon, +inf and nan,
    so the rest must be epsilon.  Only a failed pass walks the entries."""
    if not isinstance(value, list) or not value:
        raise InstanceFormatError(
            f"{where}: expected a non-empty list of {'numbers' if ndim == 1 else 'rows'}")
    rows = [value] if ndim == 1 else value
    width = len(rows[0]) if isinstance(rows[0], list) else 0
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row or len(row) != width:
            if i:  # a bad entry in an earlier row is reported first, magnitude last
                _read_array(rows[:i], 2, allow_eps, where, sys.float_info.max)
            raise InstanceFormatError(f"{where}: row {i} " + (
                f"has length {len(row)}, expected {width}" if isinstance(row, list) and row
                else "is not a non-empty list"))
    cells = list(chain.from_iterable(rows))
    types = list(map(type, cells))
    kinds = {float} if types.count(float) == len(cells) else set(types)
    values, eps = None, 0
    try:
        if kinds <= {int, float}:
            values = np.fromiter(cells, float, len(cells))
        elif allow_eps and kinds <= {int, float, str}:
            objects = np.fromiter(cells, object, len(cells))
            is_eps = objects == "-inf"
            eps = np.count_nonzero(is_eps)
            if types.count(str) == eps:  # every string is "-inf"
                numbers = ~is_eps  # converted alone: sparse graphs are mostly epsilon
                values = np.full(len(cells), EPSILON)
                values[numbers] = objects[numbers].astype(float)
    except OverflowError:  # an integer past float range, which the walk names
        pass
    if values is None or np.count_nonzero(np.abs(values) <= bound) != len(cells) - eps:
        values = np.array([_number(cell, allow_eps, f"{where}[{k}]" if ndim == 1
                                   else f"{where}[{k // width}][{k % width}]")
                           for k, cell in enumerate(cells)])
        _check_magnitude(where, values, bound)
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
# one is a sum of at most 2n instance entries (the mcm potential, a walk
# weight minus k lambda, is the longest), so it stays below this bound for any
# n that fits in memory.  A certificate sum in a check adds at most two stored
# numbers and one entry, which stays finite: with |x| <= 1e307 and
# |a| <= 1e300, the potential's sums x_u + a_uv and lambda + x_v stay below
# 2.1e307.  The sweep of the mcm check, which can overflow on a tampered
# lambda, reads that as divergence.
_MAX_STORED = 1e307


def _check_magnitude(key: str, values: np.ndarray, bound: float):
    big = (np.abs(values) > bound) & (values != EPSILON)
    if big.any():
        raise InstanceFormatError(f"{key}: finite entries must not exceed {bound:.0e} "
                                  f"in magnitude, got {float(values[big][0])!r}")


def _instance_from_obj(obj, default_problem: str | None = None,
                       eps: np.ndarray | None = None) -> InstanceFile:
    """The instance in a decoded JSON object, read for its format alone: its
    fields, their JSON types and their magnitudes, "-inf" allowed in every
    array.  eps is A's mask from _row_texts, which spares A _read_array."""
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

    a = TropMatrix(_read_array(obj["A"], 2, True, "A", _MAX_ENTRY) if eps is None
                   else _read_canonical(obj["A"], eps))
    vectors = {key: TropVector(_read_array(obj[key], 1, True, key, _MAX_ENTRY))
               for key in required[1:]}
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
    except RecursionError:
        raise InstanceFormatError("invalid JSON: nested too deeply") from None


def _row_texts(text: str) -> tuple[tuple[str, ...], np.ndarray] | None:
    """A's row texts and epsilon mask (a flag per entry, row by row) cut from
    the instance text, or None.  The test reads bytes alone, runs before A is
    read, and decides both how A is read and whether the writer copies these
    texts.  It passes when the text spells A as the canonical layout writes
    it: ', ' between entries, '], [' between rows, and each entry "-inf" or a
    number with one '.', no exponent, at most 15 digits (which round-trip
    through float64, so no shorter spelling does) and no trailing zero but
    that of '.0'.  The decoded entries are then floats below 1e15 in
    magnitude and "-inf".  Repr's one rule that needs a value, an exponent
    for a nonzero magnitude below 1e-4, parse_instance checks on the floats.

    The text is trusted only with no backslash in it, so that "A" is spelled
    plainly, and with one "A", so that it is the key parsed.  The test runs
    in C-level passes: counts over the region's bytes, and comparisons on the
    index arrays of its commas and tokens.
    """
    key = text.find('"A"')
    first = key + 6  # the '[' of row 0; the region runs to the ']' of the last row
    if key < 0 or not text.startswith('"A": [[', key) or "\\" in text:
        return None
    # row 0 alone refuses an integer-spelled A: its numbers need one '.' each
    row = text[first:text.find("]", first)]
    n = row.count(",") + 1
    if row.count(".") != n - row.count('"') // 2:
        return None
    last = text.rfind("]]") + 1
    # a second "A" inside the region would fail the byte counts below
    if last <= first or text.find('"A"', last) >= 0:
        return None
    region = np.frombuffer(text[first:last].encode("ascii", "replace"), np.uint8)
    commas = np.flatnonzero(region == ord(","))
    m = (len(commas) + 1) // n  # a ragged A fails the count of brackets below
    between = commas[n - 1::n]  # the comma of each '], ['
    if not ((region[commas + 1] == ord(" ")).all()
            and np.count_nonzero(region == ord(" ")) == len(commas)
            and (region[between - 1] == ord("]")).all()
            and (region[between + 2] == ord("[")).all()):
        return None
    row_end = np.zeros(len(commas), dtype=bool)
    row_end[n - 1::n] = True
    starts = np.concatenate(([1], commas + 2 + row_end))  # token k is region[starts[k]:ends[k]]
    ends = np.concatenate((commas - row_end, [len(region) - 1]))
    head = region[starts]
    eps, minus = head == ord('"'), head == ord("-")
    n_eps = np.count_nonzero(eps)
    dots = np.count_nonzero(region == ord("."))
    # JSON allows one '.' per number, so one for each means no integer token.
    # Every byte but the digits is then accounted for: below '0' the
    # separators, the dots, the signs and the '"', '-' of each "-inf"; above
    # '9' the brackets and the 'inf' of each "-inf".
    if (dots != eps.size - n_eps
            or np.count_nonzero(region < ord("0"))
            != 2 * len(commas) + dots + np.count_nonzero(minus) + 3 * n_eps
            or np.count_nonzero(region > ord("9")) != 2 * m + 3 * n_eps
            or not (ends[eps] - starts[eps] == 6).all()
            or not (region[starts[eps][:, np.newaxis] + np.arange(6)] == _EPS_BYTES).all()):
        return None
    if not ((ends - starts - minus <= 16)  # 15 digits and the '.'
            & ((region[ends - 1] != ord("0")) | (region[ends - 2] == ord(".")))).all():
        return None
    return tuple(text[first + i:first + j] for i, j in
                 zip([0, *(between + 2).tolist()], [*between.tolist(), len(region)])), eps


_EPS_BYTES = np.frombuffer(b'"-inf"', np.uint8)


def _read_canonical(rows: list, eps: np.ndarray) -> np.ndarray | list:
    """A canonically spelled A from its decoded rows: the rows themselves, or
    with epsilon an epsilon-filled array that takes the rows' floats."""
    if not eps.any():
        return rows
    values = np.full(eps.size, EPSILON)
    values[~eps] = np.fromiter(compress(chain.from_iterable(rows), (~eps).tobytes()),
                               float, eps.size - np.count_nonzero(eps))
    return values.reshape(len(rows), -1)


def parse_instance(text: str, default_problem: str | None = None) -> InstanceFile:
    """Parse one instance from JSON text and check its format: the fields,
    their JSON types and their magnitudes.  The kind's domain is left to
    solve_to_payload.  A canonically spelled A (_row_texts) is read from its
    decoded rows, floats and "-inf" as _json would build them, and kept with
    their texts for the writer unless repr spells an entry below 1e-4 with an
    exponent."""
    obj = _load_json(text)
    texts, eps = _row_texts(text) or (None, None)
    inst = _instance_from_obj(obj, default_problem, eps)
    if texts is not None and not ((inst.a.data != 0) & (np.abs(inst.a.data) < 1e-4)).any():
        object.__setattr__(inst, "a_rows", _Rows(obj["A"], texts))
    return inst


def _json(value):
    """JSON form of a float or float array: numbers and lists, epsilon as "-inf"."""
    values = np.asarray(value, dtype=float)
    eps = np.isneginf(values)
    if eps.any():
        values = values.astype(object)
        values[eps] = "-inf"
    return values.tolist()


class _Rows(list):
    """A matrix as a list of JSON rows that also carries each row's canonical
    text, which _layout writes in place of encoding the row again.  Every
    other reader sees the plain list.  The texts describe the rows it was
    made with, and the payloads made from one parsed instance share its A's
    row lists: to change a payload's A, replace the list, never its entries."""

    __slots__ = ("texts",)

    def __init__(self, rows: list, texts: tuple[str, ...]):
        super().__init__(rows)
        self.texts = texts


def _distinct_value_rows(values: np.ndarray) -> _Rows:
    """A matrix as _Rows whose texts format each distinct value once, the
    same bytes as encoding each row: a star holds many repeats of a few sums,
    and repr takes most of the encoder's time on the 17 digits of each.
    Values are told apart by their bits, so that -0.0 keeps its sign."""
    distinct, index = np.unique(values.view(np.int64), return_inverse=True)
    distinct = distinct.view(float)
    words = np.array(list(map(repr, distinct.tolist())), dtype=object)
    words[np.isneginf(distinct)] = '"-inf"'
    table = words[index].reshape(values.shape).tolist()
    return _Rows(_json(values), tuple(f"[{', '.join(row)}]" for row in table))


def instance_to_obj(inst: InstanceFile) -> dict:
    obj: dict = {"problem": inst.problem,
                 "A": _json(inst.a.data) if inst.a_rows is None else inst.a_rows}
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
        rows = value.texts if isinstance(value, _Rows) else map(_encode, value)
        return "[\n" + ",\n".join(inner + row for row in rows) + f"\n{pad}]"
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


# Typed readers for stored solution fields; a malformed field raises
# InstanceFormatError, which verify_payload reports as a problem.

def _read_number(payload: dict, key: str, allow_eps: bool = False) -> float:
    value = _number(payload.get(key), allow_eps, key)
    _check_magnitude(key, np.float64(value), _MAX_STORED)
    return value


def _read_vector(payload: dict, key: str, length: int) -> TropVector:
    values = _read_array(payload.get(key), 1, False, key, _MAX_STORED)
    if len(values) != length:
        raise InstanceFormatError(f"{key}: has length {len(values)}, expected {length}")
    return TropVector(values)


def _read_cycle(payload: dict, nodes: int) -> list[int]:
    cycle = payload.get("witness_cycle")
    if (not isinstance(cycle, list) or not cycle
            or not all(type(v) is int and 0 <= v < nodes for v in cycle)):
        raise InstanceFormatError(
            f"witness_cycle: expected a non-empty list of node indices below {nodes}, "
            f"got {cycle!r}")
    return cycle


# Per-kind solvers (instance -> solution body) and checks.

def _x_body(objective: float, x: TropVector) -> dict:
    return {"objective": _json(objective), "x": _json(x.data)}


def _pi_body(objective: float, pi: TropVector) -> dict:
    return {"objective": _json(objective), "pi": _json(pi.data)}


def _verify_x(inst: InstanceFile, payload: dict, tol: float,
              integral: bool = False) -> list[str]:
    x = _read_vector(payload, "x", inst.a.cols)
    return certificates.primal(inst, x, _read_number(payload, "objective"), tol, integral)


def _verify_pi(inst: InstanceFile, payload: dict, tol: float,
               integral: bool = False) -> list[str]:
    pi = _read_vector(payload, "pi", inst.a.rows)
    return certificates.dual(inst, pi, _read_number(payload, "objective"), tol, integral)


def _solve_primal(inst: InstanceFile, tol: float) -> dict:
    x, f = solve_primal(inst)
    return _x_body(f, x)


def _solve_dual(inst: InstanceFile, tol: float) -> dict:
    pi, phi = solve_dual(inst)
    return _pi_body(phi, pi)


def _solve_primal_integer(inst: InstanceFile, tol: float) -> dict:
    res = solve_primal_integer(inst, tol)
    return _x_body(res.f_max_int, res.x_opt)


def _solve_dual_integer(inst: InstanceFile, tol: float) -> dict:
    res = solve_dual_integer(inst, tol)
    return _pi_body(res.phi_min_int, res.pi_opt)


def _solve_gap(inst: InstanceFile, tol: float) -> dict:
    report = duality_gap(inst, tol)
    x, pi = report.primal.x_opt, report.dual.pi_opt
    return {"lower": _json(report.lower), "real_optimum": _json(report.real_optimum),
            "upper": _json(report.upper), "x": _json(x.data), "pi": _json(pi.data)}


def _verify_gap(inst: InstanceFile, payload: dict, tol: float) -> list[str]:
    x, pi = _read_vector(payload, "x", inst.a.cols), _read_vector(payload, "pi", inst.a.rows)
    lower, real, upper = (_read_number(payload, key)
                          for key in ("lower", "real_optimum", "upper"))
    return (certificates.primal(inst, x, lower, tol, integral=True, key="lower")
            + certificates.dual(inst, pi, upper, tol, integral=True, key="upper")
            + certificates.gap(inst, lower, real, upper, tol))


def _solve_tslp(inst: InstanceFile, tol: float) -> dict:
    res = solve_tslp(inst, tol)
    return {"objective": _json(res.g_min), "y": _json(res.y_opt.data)}


def _solve_tslp2(inst: InstanceFile, tol: float) -> dict:
    res = solve_tslp2(inst, tol)
    return {"objective": _json(res.g_min), "y": _json(res.y_opt.data),
            "solution_kind": res.feasibility_kind}


def _verify_tslp(inst: InstanceFile, payload: dict, tol: float,
                 equation: bool = False) -> list[str]:
    y = _read_vector(payload, "y", inst.a.rows)
    problems = (certificates.value("objective", _read_number(payload, "objective"),
                                   tdot(inst.c, y), tol)
                + certificates.two_sided(inst, y, tol, equation))
    if equation and payload.get("solution_kind") not in (FEASIBLE, UNIQUE_FIXED_POINT):
        problems.append("unknown tslp2 solution kind")
    return problems


def _solve_star(inst: InstanceFile, tol: float) -> dict:
    return {"star": _distinct_value_rows(kleene_star(inst.a, tol).data)}


def _verify_star(inst: InstanceFile, payload: dict, tol: float) -> list[str]:
    star = TropMatrix(_read_array(payload.get("star"), 2, True, "star", _MAX_STORED))
    if star.shape != inst.a.shape:
        raise InstanceFormatError(f"star has shape {star.shape}, expected {inst.a.shape}")
    return certificates.star(inst.a, star, tol)


def _solve_mcm(inst: InstanceFile, tol: float) -> dict:
    cm = max_cycle_mean(inst.a)
    if cm.witness_cycle is None:
        return {"lambda": _json(cm.lambda_), "witness_cycle": None}
    return {"lambda": _json(cm.lambda_), "witness_cycle": list(cm.witness_cycle),
            "potential": _json(cm.potential.data)}


def _verify_mcm(inst: InstanceFile, payload: dict, tol: float) -> list[str]:
    """The witness cycle bounds lambda from below; the stored potential
    bounds it from above in O(n^2).  Where the potential is absent (older
    files), too large for its test to resolve tol, or fails, the O(n^3) sweep
    decides."""
    lam = _read_number(payload, "lambda", allow_eps=True)
    if lam == EPSILON:
        return certificates.acyclic_claim(inst.a, payload.get("witness_cycle"))
    cycle = _read_cycle(payload, inst.a.rows)
    x = _read_vector(payload, "potential", inst.a.rows) if "potential" in payload else None
    problems = certificates.witness_cycle(inst.a, cycle, lam, tol)
    # A cycle of mean above lam + tol closes a positive walk in A - (lam + tol).
    if ((x is None or not certificates.potential(inst.a, lam, x, tol))
            and _diverges(_star_sweep(inst.a.data - (lam + tol)))):
        problems.append("lambda below the maximum cycle mean")
    return problems


def _verify_divergence(inst: InstanceFile, payload: dict, tol: float) -> list[str]:
    """Check of the two failure statuses: a witness cycle of positive mean."""
    lam = _read_number(payload, "lambda")
    return certificates.witness_cycle(inst.a, _read_cycle(payload, inst.a.rows), lam,
                                      tol, diverges=True)


def _solve_onesided(inst: InstanceFile, tol: float) -> dict:
    res = solve_equality(inst.a, inst.b, tol)
    return {"principal": _json(res.principal.data),
            "solvable_as_equality": res.solvable_as_equality,
            "residual": _json(res.residual)}


def _verify_onesided(inst: InstanceFile, payload: dict, tol: float) -> list[str]:
    p = _read_vector(payload, "principal", inst.a.cols)
    return certificates.one_sided(inst, p, _read_number(payload, "residual"),
                                  payload.get("solvable_as_equality"), tol)


class _Kind(NamedTuple):
    """One problem kind.  A NamedTuple rather than a dataclass: it is just as
    immutable and takes less import time, which every CLI start pays.

    domain is the library guard that states the kind's rule on its instance
    (where epsilon may stand, whether A is square, the vectors' lengths),
    called as domain(A, *vectors in field order); it raises
    FiniteRequiredError or DimensionMismatchError.  statuses[0] is the status
    of a solved instance; statuses[1], present only for kinds whose solver
    can raise DivergentStarError, is written when it does.
    """

    fields: tuple[str, ...]
    domain: Callable[..., object]
    solve: Callable[[InstanceFile, float], dict]
    verify: Callable[[InstanceFile, dict, float], list[str]]
    statuses: tuple[str, ...] = ("optimal",)


_ABC, _ADC = ("A", "b", "c"), ("A", "d", "c")
_OPTIMAL_OR_INFEASIBLE = ("optimal", "infeasible-lambda-positive")

# The entries call solvers through this module's names, looked up at call
# time, so a caller that rebinds a solver name here is honoured.
_KINDS = {
    "primal": _Kind(_ABC, LpInstance, _solve_primal, _verify_x),
    "dual": _Kind(_ABC, LpInstance, _solve_dual, _verify_pi),
    "primal-integer": _Kind(_ABC, LpInstance, _solve_primal_integer,
                            partial(_verify_x, integral=True)),
    "dual-integer": _Kind(_ABC, LpInstance, _solve_dual_integer,
                          partial(_verify_pi, integral=True)),
    "gap": _Kind(_ABC, LpInstance, _solve_gap, _verify_gap),
    "tslp": _Kind(_ADC, TwoSidedInstance, _solve_tslp, _verify_tslp, _OPTIMAL_OR_INFEASIBLE),
    "tslp2": _Kind(_ADC, TwoSidedInstance, _solve_tslp2, partial(_verify_tslp, equation=True),
                   _OPTIMAL_OR_INFEASIBLE),
    "star": _Kind(("A",), _require_square, _solve_star, _verify_star, ("ok", "divergent-star")),
    "mcm": _Kind(("A",), _require_square, _solve_mcm, _verify_mcm, ("ok",)),
    "onesided": _Kind(("A", "b"), _check_system, _solve_onesided, _verify_onesided, ("ok",)),
}

KINDS = tuple(_KINDS)


def _head(problem: str, tol: float, status: str) -> dict:
    return {"tool": "troplp", "version": __version__,
            "problem": problem, "tol": tol, "status": status}


def solve_to_payload(inst: InstanceFile, tol: float) -> tuple[dict, int]:
    """Dispatch on the instance kind; returns (solution payload, exit code).

    The kind's domain guard runs first: an instance outside the domain raises
    its FiniteRequiredError or DimensionMismatchError, which the CLI reports
    as an input error (exit 2)."""
    spec = _spec(inst.problem)
    spec.domain(inst.a, *(getattr(inst, key) for key in spec.fields[1:]))
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

    Returns a list of human-readable violations, a malformed stored field
    among them; empty means the certificate holds.  A missing problem or
    instance field, an unknown kind, a malformed instance or a bad tolerance
    raises InstanceFormatError instead, and an instance outside the kind's
    domain the guard's FiniteRequiredError or DimensionMismatchError, the
    same error solve_to_payload raises: the CLI exits 2 on each.  A
    missing status reads as the kind's solved status.  The check recomputes
    every residual from the stored witnesses and the instance.  Fields it
    does not read are ignored: tool, version, and the certificate block,
    method, iterations and u that older files carry.
    """
    for key in ("problem", "instance"):
        if key not in payload:
            raise InstanceFormatError(f'solution is missing the "{key}" field')
    kind = payload["problem"]
    spec = _spec(kind)
    inst = _instance_from_obj(payload["instance"], default_problem=kind)
    if inst.problem != kind:
        raise InstanceFormatError("instance kind disagrees with solution kind")
    spec.domain(inst.a, *(getattr(inst, key) for key in spec.fields[1:]))
    tol = check_tol(tol_override if tol_override is not None
                    else payload.get("tol", DEFAULT_TOL))
    status = payload.get("status", spec.statuses[0])
    if status not in spec.statuses:
        return [f"status {status!r} is not one that kind {kind!r} writes"]
    verify = spec.verify if status == spec.statuses[0] else _verify_divergence
    try:
        return verify(inst, payload, tol)
    except InstanceFormatError as exc:
        return [str(exc)]


def check_solution_text(text: str, tol_override: float | None = None) -> list[str]:
    """Parse a solution file and re-validate its certificate."""
    return verify_payload(parse_solution(text), tol_override)


__all__ = [
    "KINDS", "InstanceFile", "parse_instance", "instance_to_obj",
    "serialize_solution", "parse_solution", "render_text", "solve_to_payload",
    "verify_payload", "check_solution_text", "check_tol",
    "EXIT_OK", "EXIT_INFEASIBLE", "EXIT_INPUT", "EXIT_CERTIFICATE",
]

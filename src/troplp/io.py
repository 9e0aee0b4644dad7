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
reader fills an epsilon array with the numbers alone in C-level passes,
walking entries only to name a bad one.  It takes the epsilon mask from the
entries' types, or from a test of the bytes (_row_texts) for an input's A
that the test proves canonically spelled, floats and "-inf" alone.  Such an
A also keeps its decoded rows with their texts: the payload embeds them, and
the layout copies the texts instead of formatting every float again.  A
star's rows are written from its distinct values, each formatted once
(_distinct_value_rows).  The bytes are the same either way.

A problem kind is one entry of the `_KINDS` table: its instance fields, the
guard of its domain, its solver, its certificate check, the fields its
solutions store and the statuses they carry.  A solution stores only what
the check reads: the status, the instance and the fields of `_Kind.stored`,
which the README kinds table's `stored` column lists.  Each stored field is
named there once, with its reader, and required (an acyclic mcm's cycle
and potential are null); verify_payload reads every one in one loop, through
the same _number and _read_array that parse instances, and passes the values
to the kind's check, which applies the rules of certificates that the
solvers' self-checks call too; it calls no solver.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from . import certificates
from ._version import __version__
from .closure import (_diverges, _require_square, _star_sweep, kleene_star,
                      max_cycle_mean)
from .core import DEFAULT_TOL, EPSILON, TropMatrix, TropVector, tdot
from .errors import DivergentStarError, InstanceFormatError
from .intlp import (bounded_instance, duality_gap, solve_dual_integer,
                    solve_primal_integer)
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


def _read_array(value, ndim: int, allow_eps: bool, where: str, bound: float,
                eps: np.ndarray | None = None) -> np.ndarray:
    """A list of numbers (ndim 1) or of equal-length rows (ndim 2) as a float
    array, its finite entries at most bound in magnitude: _MAX_ENTRY in an
    instance, _MAX_STORED in a solution.  The error is the one _number gives
    for the first bad entry, or the malformed row before it; with no such
    error, _check_magnitude's.  eps flags the epsilon entries, row by row:
    _row_texts gives it for a canonically spelled A, whose entries its byte
    test proved floats below 1e15 in magnitude or "-inf", and the entries'
    types give it otherwise.  A valid array is read in C-level passes: one
    float conversion, of the numbers alone, and a count of the values within
    bound, which fails on epsilon, +inf and nan.  Only a failed pass walks
    the entries."""
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
    cells = chain.from_iterable(rows)
    if eps is None:  # a list of the entries' exact types; one count settles all-float
        cells = list(cells)
        types = list(map(type, cells))
        kinds = {float} if types.count(float) == len(cells) else set(types)
        if kinds <= {int, float}:
            eps = np.zeros(len(cells), dtype=bool)
        elif allow_eps and kinds <= {int, float, str}:
            eps = np.fromiter(cells, object, len(cells)) == "-inf"
            if types.count(str) != np.count_nonzero(eps):  # a string other than "-inf"
                eps = None
    values = None
    if eps is not None:
        numbers = ~eps
        count = np.count_nonzero(numbers)
        try:
            if count == eps.size:
                values = np.fromiter(cells, float, count)
            else:  # the numbers alone: sparse graphs are mostly epsilon
                values = np.full(eps.size, EPSILON)
                values[numbers] = np.fromiter(compress(cells, numbers.tobytes()), float, count)
        except OverflowError:  # an integer past float range, which the walk names
            values = None
    if values is None or np.count_nonzero(np.abs(values) <= bound) != count:
        values = np.array([_number(cell, allow_eps, f"{where}[{k}]" if ndim == 1
                                   else f"{where}[{k // width}][{k % width}]")
                           for k, cell in enumerate(chain.from_iterable(rows))])
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


def _instance_from_obj(obj, eps: np.ndarray | None = None) -> InstanceFile:
    """The instance in a decoded JSON object, read for its format alone: its
    fields, their JSON types and their magnitudes, "-inf" allowed in every
    array.  eps is A's epsilon mask from _row_texts, if it gave one."""
    if not isinstance(obj, dict):
        raise InstanceFormatError("instance must be a JSON object")
    problem = obj.get("problem")
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

    a = TropMatrix(_read_array(obj["A"], 2, True, "A", _MAX_ENTRY, eps))
    vectors = {key: TropVector(_read_array(obj[key], 1, True, key, _MAX_ENTRY))
               for key in required[1:]}
    tol = check_tol(obj["tol"]) if "tol" in obj else None
    return InstanceFile(problem, a, tol=tol, **vectors)


_decode = json.JSONDecoder(parse_constant=_reject_constant).decode  # built once, as _encode


def _load_json(text: str):
    try:
        if text.startswith("\ufeff"):  # json.loads' one test before it decodes
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _decode(text)
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
    read, and decides both whether A is read with this mask and whether the
    writer copies these texts.  It passes when the text spells A as the canonical layout writes
    it: ', ' between entries, '], [' between rows, and each entry "-inf" or a
    number with one '.', no exponent, at most 15 digits (which round-trip
    through float64, so no shorter spelling does) and no trailing zero but
    that of '.0'.  The decoded entries are then floats below 1e15 in
    magnitude and "-inf".  Repr's one rule that needs a value, an exponent
    for a nonzero magnitude below 1e-4, parse_instance checks on the floats.

    The text is trusted only with no backslash in it, so that "A" is spelled
    plainly, and with one "A", so that it is the key parsed.  The test runs
    in C-level passes over the whole region: counts over its bytes, and
    comparisons on the index arrays of its commas and tokens.  An integer
    anywhere in A fails the count of dots, one per number.
    """
    key = text.find('"A"')
    first = key + 6  # the '[' of row 0; the region runs to the ']' of the last row
    if key < 0 or not text.startswith('"A": [[', key) or "\\" in text:
        return None
    n = text.count(",", first, text.find("]", first)) + 1  # row 0's width
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


def parse_instance(text: str) -> InstanceFile:
    """Parse one instance from JSON text and check its format: the fields,
    their JSON types and their magnitudes.  The kind's domain is left to
    solve_to_payload.  A canonically spelled A (_row_texts) is read with its
    epsilon mask, and its decoded rows, floats and "-inf" as _json would
    build them, are kept with their texts for the writer unless repr spells
    an entry below 1e-4 with an exponent."""
    obj = _load_json(text)
    texts, eps = _row_texts(text) or (None, None)
    inst = _instance_from_obj(obj, eps)
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


# Readers of the stored fields that _Kind.stored lists.  Each takes the
# field's JSON value, its key and the instance, and returns what the kind's
# check takes; a malformed value raises InstanceFormatError naming the key,
# which verify_payload reports as a problem.

def _read_number(value, key: str, inst: InstanceFile, allow_eps: bool = False) -> float:
    number = _number(value, allow_eps, key)
    _check_magnitude(key, np.float64(number), _MAX_STORED)
    return number


def _read_vector(value, key: str, inst: InstanceFile, axis: int,
                 nullable: bool = False) -> TropVector | None:
    """A vector as long as A has rows (axis 0) or columns (axis 1); if nullable, null is None."""
    if value is None and nullable:
        return None
    values = _read_array(value, 1, False, key, _MAX_STORED)
    if len(values) != inst.a.shape[axis]:
        raise InstanceFormatError(
            f"{key}: has length {len(values)}, expected {inst.a.shape[axis]}")
    return TropVector(values)


def _read_cycle(value, key: str, inst: InstanceFile, nullable: bool = False) -> list[int] | None:
    """A witness cycle of node indices, or with nullable also None for null."""
    if not (value is None and nullable or isinstance(value, list) and value
            and all(type(v) is int and 0 <= v < inst.a.rows for v in value)):
        raise InstanceFormatError(f"{key}: expected a non-empty list of node indices "
                                  f"below {inst.a.rows}, got {value!r}")
    return value


def _read_star(value, key: str, inst: InstanceFile) -> TropMatrix:
    star = TropMatrix(_read_array(value, 2, True, key, _MAX_STORED))
    if star.shape != inst.a.shape:
        raise InstanceFormatError(f"{key} has shape {star.shape}, expected {inst.a.shape}")
    return star


def _read_flag(value, key: str, inst: InstanceFile):
    """onesided's flag as stored: its rule compares it with the residual's verdict."""
    return value


def _read_solution_kind(value, key: str, inst: InstanceFile) -> str:
    if value not in (FEASIBLE, UNIQUE_FIXED_POINT):
        raise InstanceFormatError("unknown tslp2 solution kind")
    return value


_read_m_vector = partial(_read_vector, axis=0)
_read_n_vector = partial(_read_vector, axis=1)


def _stored_json(value):
    """JSON form of a value a solver stores: a number or vector by _json, a
    star's rows by _distinct_value_rows, a cycle as a list, and a flag, a
    name or None as it is."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, TropMatrix):
        return _distinct_value_rows(value.data)
    return _json(value.data if isinstance(value, TropVector) else value)


def _check_mcm(inst: InstanceFile, tol: float, lam: float, cycle, x) -> list[str]:
    """The witness cycle bounds lambda from below; the stored potential
    bounds it from above in O(n^2).  Where the potential is too large for its
    test to resolve tol, or fails, the O(n^3) sweep decides."""
    if lam == EPSILON:
        return certificates.acyclic_claim(inst.a, cycle, x)
    if cycle is None or x is None:
        return ["a finite lambda needs a witness cycle and a potential"]
    problems = certificates.witness_cycle(inst.a, cycle, lam, tol)
    # A cycle of mean above lam + tol closes a positive walk in A - (lam + tol).
    if (not certificates.potential(inst.a, lam, x, tol)
            and _diverges(_star_sweep(inst.a.data - (lam + tol)))):
        problems.append("lambda below the maximum cycle mean")
    return problems


def _check_divergence(inst: InstanceFile, tol: float, lam: float, cycle) -> list[str]:
    """Check of the two failure statuses: a witness cycle of positive mean."""
    return certificates.witness_cycle(inst.a, cycle, lam, tol, diverges=True)


class _Kind(NamedTuple):
    """One problem kind.  A NamedTuple rather than a dataclass: it is just as
    immutable and takes less import time, which every CLI start pays.

    domain is the library guard that states the kind's rule on its instance
    (where epsilon may stand, whether A is square, the vectors' lengths, the
    2^50 bound), called as domain(A, *vectors in field order); it raises
    FiniteRequiredError, DimensionMismatchError or InstanceFormatError.
    stored lists the fields a solution stores, in the order solve_to_payload
    writes them, each with its reader.  solve(inst, tol) returns their values
    in that order, and check(inst, tol, *values) applies the rules of
    certificates to the values read back.  statuses[0] is the status of a
    solved instance; statuses[1], present only for kinds whose solver can
    raise DivergentStarError, is written when it does, with the fields of
    _DIVERGENT.
    """

    fields: tuple[str, ...]
    domain: Callable[..., object]
    solve: Callable[[InstanceFile, float], tuple]
    check: Callable[..., list[str]]
    stored: tuple[tuple[str, Callable], ...]
    statuses: tuple[str, ...] = ("optimal",)


_ABC, _ADC = ("A", "b", "c"), ("A", "d", "c")
_OPTIMAL_OR_INFEASIBLE = ("optimal", "infeasible-lambda-positive")

# The solve entries call solvers through this module's names, looked up at
# call time, so a caller that rebinds a solver name here is honoured.
_KINDS = {
    "primal": _Kind(_ABC, LpInstance, lambda inst, tol: solve_primal(inst)[::-1],
                    lambda inst, tol, f, x: certificates.primal(inst, x, f, tol),
                    (("objective", _read_number), ("x", _read_n_vector))),
    "dual": _Kind(_ABC, bounded_instance, lambda inst, tol: solve_dual(inst)[::-1],
                  lambda inst, tol, phi, pi: certificates.dual(inst, pi, phi, tol),
                  (("objective", _read_number), ("pi", _read_m_vector))),
    "primal-integer": _Kind(
        _ABC, bounded_instance,
        lambda inst, tol: attrgetter("f_max_int", "x_opt")(solve_primal_integer(inst, tol)),
        lambda inst, tol, f, x: certificates.primal(inst, x, f, tol, integral=True),
        (("objective", _read_number), ("x", _read_n_vector))),
    "dual-integer": _Kind(
        _ABC, bounded_instance,
        lambda inst, tol: attrgetter("phi_min_int", "pi_opt")(solve_dual_integer(inst, tol)),
        lambda inst, tol, phi, pi: certificates.dual(inst, pi, phi, tol, integral=True),
        (("objective", _read_number), ("pi", _read_m_vector))),
    "gap": _Kind(
        _ABC, bounded_instance,
        lambda inst, tol: attrgetter("lower", "real_optimum", "upper", "primal.x_opt",
                                     "dual.pi_opt")(duality_gap(inst, tol)),
        lambda inst, tol, lower, real, upper, x, pi: (
            certificates.primal(inst, x, lower, tol, integral=True, key="lower")
            + certificates.dual(inst, pi, upper, tol, integral=True, key="upper")
            + certificates.gap(inst, lower, real, upper, tol)),
        (("lower", _read_number), ("real_optimum", _read_number), ("upper", _read_number),
         ("x", _read_n_vector), ("pi", _read_m_vector))),
    "tslp": _Kind(
        _ADC, TwoSidedInstance,
        lambda inst, tol: attrgetter("g_min", "y_opt")(solve_tslp(inst, tol)),
        lambda inst, tol, g, y: (certificates.value("objective", g, tdot(inst.c, y), tol)
                                 + certificates.two_sided(inst, y, tol)),
        (("objective", _read_number), ("y", _read_m_vector)), _OPTIMAL_OR_INFEASIBLE),
    "tslp2": _Kind(
        _ADC, TwoSidedInstance,
        lambda inst, tol: attrgetter("g_min", "y_opt", "feasibility_kind")(
            solve_tslp2(inst, tol)),
        lambda inst, tol, g, y, _kind: (certificates.value("objective", g, tdot(inst.c, y), tol)
                                        + certificates.two_sided(inst, y, tol, equation=True)),
        (("objective", _read_number), ("y", _read_m_vector),
         ("solution_kind", _read_solution_kind)), _OPTIMAL_OR_INFEASIBLE),
    "star": _Kind(("A",), _require_square, lambda inst, tol: (kleene_star(inst.a, tol),),
                  lambda inst, tol, star: certificates.star(inst.a, star, tol),
                  (("star", _read_star),), ("ok", "divergent-star")),
    "mcm": _Kind(
        ("A",), _require_square,
        lambda inst, tol: attrgetter("lambda_", "witness_cycle", "potential")(
            max_cycle_mean(inst.a)), _check_mcm,
        (("lambda", partial(_read_number, allow_eps=True)),
         ("witness_cycle", partial(_read_cycle, nullable=True)),
         ("potential", partial(_read_vector, axis=0, nullable=True))), ("ok",)),
    "onesided": _Kind(
        ("A", "b"), _check_system,
        lambda inst, tol: attrgetter("principal", "solvable_as_equality", "residual")(
            solve_equality(inst.a, inst.b, tol)),
        lambda inst, tol, p, solvable, residual: certificates.one_sided(
            inst, p, residual, solvable, tol),
        (("principal", _read_n_vector), ("solvable_as_equality", _read_flag),
         ("residual", _read_number)), ("ok",)),
}

# The fields of both failure statuses, which _check_divergence reads.
_DIVERGENT = (("lambda", _read_number), ("witness_cycle", _read_cycle))

KINDS = tuple(_KINDS)


def solve_to_payload(inst: InstanceFile, tol_override: float | None = None) -> tuple[dict, int]:
    """Dispatch on the instance kind; returns (solution payload, exit code).

    The tolerance, checked first, is tol_override (the CLI's --tol), else the
    instance's tol, else DEFAULT_TOL.  Then the kind's domain guard runs: an
    instance outside it raises FiniteRequiredError, DimensionMismatchError or
    InstanceFormatError, which the CLI reports as an input error (exit 2)."""
    tol = check_tol(tol_override if tol_override is not None
                    else DEFAULT_TOL if inst.tol is None else inst.tol)
    spec = _spec(inst.problem)
    spec.domain(inst.a, *(getattr(inst, key) for key in spec.fields[1:]))
    try:
        stored, values = spec.stored, spec.solve(inst, tol)
        status, code = spec.statuses[0], EXIT_OK
    except DivergentStarError as exc:
        stored, values = _DIVERGENT, (exc.lambda_, exc.witness_cycle)
        status, code = spec.statuses[1], EXIT_INFEASIBLE
    payload = {"tool": "troplp", "version": __version__,
               "problem": inst.problem, "tol": tol, "status": status}
    payload.update((key, _stored_json(value)) for (key, _), value in zip(stored, values))
    payload["instance"] = instance_to_obj(inst)
    return payload, code


def verify_payload(payload: dict, tol_override: float | None = None) -> list[str]:
    """Re-validate a solution payload against its embedded instance.

    Returns a list of human-readable violations, a missing or malformed stored
    field among them; empty means the certificate holds.  A missing problem or
    instance field, an unknown kind, a malformed instance or a bad tolerance,
    stored or tol_override, raises InstanceFormatError instead, and an
    instance outside the kind's domain the guard's error, the same error
    solve_to_payload raises: the CLI exits 2 on each.  A missing status reads
    as the kind's solved status.  Every field the status stores (_Kind.stored,
    or _DIVERGENT) is required and read in order, and the first one missing or
    malformed is the one problem (so an mcm file without a potential is one);
    the check then recomputes every residual from the stored witnesses and the
    instance, at tol_override (the CLI's --tol), else the stored tol, else
    DEFAULT_TOL.  Fields it does not read are ignored: tool, version, and the
    certificate block, method, iterations and u that older files carry.
    """
    for key in ("problem", "instance"):
        if key not in payload:
            raise InstanceFormatError(f'solution is missing the "{key}" field')
    kind = payload["problem"]
    spec = _spec(kind)
    inst = _instance_from_obj(payload["instance"])
    if inst.problem != kind:
        raise InstanceFormatError("instance kind disagrees with solution kind")
    spec.domain(inst.a, *(getattr(inst, key) for key in spec.fields[1:]))
    tol = check_tol(payload.get("tol", DEFAULT_TOL))  # checked even when overridden
    tol = tol if tol_override is None else check_tol(tol_override)
    status = payload.get("status", spec.statuses[0])
    if status not in spec.statuses:
        return [f"status {status!r} is not one that kind {kind!r} writes"]
    stored, check = ((spec.stored, spec.check) if status == spec.statuses[0]
                     else (_DIVERGENT, _check_divergence))
    values = []
    try:
        for key, read in stored:
            if key not in payload:
                return [f"{key}: missing from the solution"]
            values.append(read(payload[key], key, inst))
    except InstanceFormatError as exc:
        return [str(exc)]
    return check(inst, tol, *values)


def check_solution_text(text: str, tol_override: float | None = None) -> list[str]:
    """Parse a solution file and re-validate its certificate."""
    return verify_payload(parse_solution(text), tol_override)


__all__ = [
    "KINDS", "InstanceFile", "parse_instance", "instance_to_obj",
    "serialize_solution", "parse_solution", "solve_to_payload",
    "verify_payload", "check_solution_text", "check_tol",
    "EXIT_OK", "EXIT_INFEASIBLE", "EXIT_INPUT", "EXIT_CERTIFICATE",
]

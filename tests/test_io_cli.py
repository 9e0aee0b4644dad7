"""File formats, certificate re-validation, and the command-line front end."""

import argparse
import dataclasses
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import util
from troplp import (EPSILON, CertificateViolationError, DimensionMismatchError,
                    FiniteRequiredError, InstanceFormatError, TropMatrix, TropVector,
                    certificates, closure, core, intlp, lp, onesided, twosided)
from troplp.cli import main
from troplp.io import (_DIVERGENT, _INT_OVERFLOW, _KINDS, _MAX_ENTRY, _MAX_STORED,
                       EXIT_CERTIFICATE, EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK, KINDS,
                       _distinct_value_rows, _encode, _json, _number, _read_array,
                       _row_texts, check_tol, parse_instance, parse_solution,
                       serialize_solution, solve_to_payload, verify_payload)
from troplp.oracles import (brute_dual_integer, brute_primal_integer, brute_star, dual_box,
                            primal_box)

E = EPSILON


class TestParseInstance:
    def test_valid_primal(self):
        inst = parse_instance(
            '{"problem":"primal","A":[[1,2],[3,4]],"b":[5,6],"c":[0,0]}')
        assert inst.problem == "primal"
        assert inst.a.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert inst.b.data.tolist() == [5.0, 6.0]

    def test_mcm_accepts_eps(self):
        inst = parse_instance(
            '{"problem":"mcm","A":[["-inf",1],["-inf","-inf"]]}')
        assert inst.a[0, 0] == E

    # parsing reads the format alone; solve runs the kind's domain guard,
    # which takes epsilon in A where residuation does and refuses it in c
    def test_eps_in_finite_only_field(self):
        text = '{"problem":"dual","A":[[1,"-inf"],["-inf",2]],"b":[0,1],"c":[0,%s]}'
        assert solve_to_payload(parse_instance(text % "0"), 1e-9)[1] == EXIT_OK
        inst = parse_instance(text % '"-inf"')
        with pytest.raises(FiniteRequiredError, match="LP instances need a finite c"):
            solve_to_payload(inst, 1e-9)

    def test_nan_and_infinity_literals_rejected(self):
        with pytest.raises(InstanceFormatError):
            parse_instance('{"problem":"primal","A":[[NaN]],"b":[0],"c":[0]}')
        with pytest.raises(InstanceFormatError):
            parse_instance('{"problem":"primal","A":[[Infinity]],"b":[0],"c":[0]}')
        with pytest.raises(InstanceFormatError):
            parse_instance('{"problem":"mcm","A":[[-Infinity]]}')

    def test_missing_field(self):
        with pytest.raises(InstanceFormatError, match='"c"'):
            parse_instance('{"problem":"primal","A":[[1]],"b":[0]}')

    def test_unknown_kind(self):
        with pytest.raises(InstanceFormatError, match="unknown problem kind"):
            parse_instance('{"problem":"nope","A":[[1]]}')

    def test_unexpected_field(self):
        with pytest.raises(InstanceFormatError, match="unexpected"):
            parse_instance('{"problem":"mcm","A":[[1]],"b":[0]}')

    def test_ragged_rows(self):
        with pytest.raises(InstanceFormatError, match="row 1"):
            parse_instance('{"problem":"mcm","A":[[1,2],[3]]}')

    def test_dimension_mismatch(self):
        inst = parse_instance('{"problem":"primal","A":[[1,2]],"b":[0,0],"c":[0,0]}')
        with pytest.raises(DimensionMismatchError, match="b has length 2"):
            solve_to_payload(inst, 1e-9)

    def test_square_required_for_star(self):
        inst = parse_instance('{"problem":"star","A":[[1,2]]}')
        with pytest.raises(DimensionMismatchError, match="A is not square"):
            solve_to_payload(inst, 1e-9)

    def test_bad_tol(self):
        with pytest.raises(InstanceFormatError, match="tol"):
            parse_instance('{"problem":"mcm","A":[[1]],"tol":-1}')
        with pytest.raises(InstanceFormatError, match="tol"):
            parse_instance('{"problem":"mcm","A":[[1]],"tol":"big"}')

    def test_syntax_error_reports_position(self):
        with pytest.raises(InstanceFormatError, match="line 1"):
            parse_instance('{"problem":')

    def test_boolean_entry_rejected(self):
        with pytest.raises(InstanceFormatError, match="boolean"):
            parse_instance('{"problem":"mcm","A":[[true]]}')

    def test_default_problem_for_utility_commands(self):
        inst = parse_instance('{"A":[[1]]}', default_problem="star")
        assert inst.problem == "star"

    def test_missing_problem_without_default(self):
        with pytest.raises(InstanceFormatError, match='missing required field "problem"'):
            parse_instance('{"A":[[1]]}')


def _reference_read(value, ndim, allow_eps, where, bound):
    """Entry-by-entry reader with the wording _read_array must reproduce:
    type and structure errors in row order, then the first finite entry past
    bound."""
    if not isinstance(value, list) or not value:
        noun = "numbers" if ndim == 1 else "rows"
        raise InstanceFormatError(f"{where}: expected a non-empty list of {noun}")
    if ndim == 1:
        values = np.array([_number(v, allow_eps, f"{where}[{i}]") for i, v in enumerate(value)])
    else:
        rows = []
        for i, row in enumerate(value):
            if not isinstance(row, list) or not row:
                raise InstanceFormatError(f"{where}: row {i} is not a non-empty list")
            if len(row) != len(value[0]):
                raise InstanceFormatError(
                    f"{where}: row {i} has length {len(row)}, expected {len(value[0])}")
            rows.append([_number(v, allow_eps, f"{where}[{i}][{j}]")
                         for j, v in enumerate(row)])
        values = np.array(rows)
    big = [x for x in values.ravel().tolist() if x != E and abs(x) > bound]
    if big:
        raise InstanceFormatError(f"{where}: finite entries must not exceed {bound:.0e} "
                                  f"in magnitude, got {big[0]!r}")
    return values


def _outcome(read, *args):
    try:
        values = read(*args)
    except InstanceFormatError as exc:
        return str(exc)
    return values.shape, values.dtype, values.tobytes()


_GOOD_CELL = st.one_of(st.integers(-10**6, 10**6),
                       st.floats(-1e6, 1e6, allow_nan=False), st.just("-inf"))
_BAD_CELL = st.one_of(
    st.booleans(), st.none(),
    st.sampled_from(["1.5", " -inf", "-Infinity", "inf", "x", "", np.float64(1.0),
                     float("nan"), float("inf"), float("-inf"), 10**400, -10**400,
                     _INT_OVERFLOW, _INT_OVERFLOW - 1, 1 - _INT_OVERFLOW]),
    st.floats(), st.lists(_GOOD_CELL, max_size=2))
_CELL = st.one_of(_GOOD_CELL, _GOOD_CELL, _GOOD_CELL, _BAD_CELL)
_ROW = st.one_of(st.lists(_CELL, min_size=3, max_size=3), st.lists(_CELL, max_size=4), _CELL)


class TestReadArray:
    """The vectorized reader agrees with an entry-by-entry reference."""

    @settings(max_examples=400, deadline=None)
    @given(value=st.one_of(st.lists(_CELL, max_size=5), st.lists(_ROW, max_size=4), _CELL),
           ndim=st.sampled_from([1, 2]), allow_eps=st.booleans(),
           bound=st.sampled_from([_MAX_ENTRY, _MAX_STORED, 1e3]))
    # a float -inf counts as non-finite next to the "-inf" strings
    @example(value=[["-inf", -1e400], [1, "-inf"]], ndim=2, allow_eps=True, bound=_MAX_ENTRY)
    # the reader's type list: a float array with one entry of another type,
    # a string that is not "-inf" beside one that is, and ε alone
    @example(value=[[1.5, 2.5], [True, 0.5]], ndim=2, allow_eps=True, bound=_MAX_ENTRY)
    @example(value=[[1.5, 2.5], [3, 0.5]], ndim=2, allow_eps=False, bound=_MAX_ENTRY)
    @example(value=["-inf", "1.5"], ndim=1, allow_eps=True, bound=_MAX_ENTRY)
    @example(value=[["-inf", "-inf"], ["-inf", "-inf"]], ndim=2, allow_eps=True,
             bound=_MAX_ENTRY)
    # the bound: a float and an integer past it, the latter beside epsilon,
    # and a huge entry before a type error or a ragged row, which come first
    @example(value=[[0.5, 1e301], [2.5, -1e302]], ndim=2, allow_eps=False, bound=_MAX_ENTRY)
    @example(value=["-inf", -10**301], ndim=1, allow_eps=True, bound=_MAX_ENTRY)
    @example(value=[[1e308, "x"]], ndim=2, allow_eps=True, bound=_MAX_STORED)
    @example(value=[[-1e308], [1, 2]], ndim=2, allow_eps=True, bound=_MAX_STORED)
    def test_matches_entry_by_entry_reference(self, value, ndim, allow_eps, bound):
        args = (value, ndim, allow_eps, "A", bound)
        assert _outcome(_read_array, *args) == _outcome(_reference_read, *args)

    def test_valid_arrays_skip_the_entry_walk(self, monkeypatch):
        def walked(*args):
            raise AssertionError("a valid array took the entry-by-entry walk")

        monkeypatch.setattr("troplp.io._number", walked)
        monkeypatch.setattr("troplp.io._check_magnitude", walked)
        rng = np.random.default_rng(11)
        reals = rng.uniform(-1000, 1000, (64, 64))
        half = np.where(rng.random((64, 64)) < 0.5, E, reals)
        for a, allow_eps in [(reals, False), (half, True), (np.full((64, 64), E), True)]:
            read = _read_array(util.rows_obj(TropMatrix(a)), 2, allow_eps, "A", _MAX_ENTRY)
            assert read.tobytes() == a.tobytes()
        ints = rng.integers(-10**6, 10**6, 64)
        read = _read_array(ints.tolist(), 1, False, "b", _MAX_ENTRY)
        assert read.tobytes() == ints.astype(float).tobytes()

    @pytest.mark.parametrize("finite", [1.0, 0.5, 0.05])
    def test_mask_read_matches_the_census(self, finite):
        # canonical A texts, mixed-sign, with tokens of up to 15 digits,
        # integer-valued floats such as 3.0 and -0.0: the byte test's mask
        # gives the bits the type census gives
        rng = np.random.default_rng([28, round(100 * finite)])
        for _ in range(25):
            m, n = (int(v) for v in rng.integers(1, 40, 2))
            values = np.array([round(x, d) for x, d in zip(rng.uniform(-1000, 1000, m * n),
                                                           rng.integers(0, 13, m * n).tolist())])
            values = values.reshape(m, n)
            values[rng.random((m, n)) < 0.05] = -0.0
            values[rng.random((m, n)) >= finite] = E
            text = json.dumps({"problem": "mcm", "A": _json(values)})
            _, eps = _row_texts(text)
            rows = json.loads(text)["A"]
            masked = _read_array(rows, 2, True, "A", _MAX_ENTRY, eps)
            census = _read_array(rows, 2, True, "A", _MAX_ENTRY)
            assert (masked.view(np.int64).tolist() == census.view(np.int64).tolist()
                    == values.view(np.int64).tolist())
        assert any(len(repr(v).lstrip("-")) == 16 for v in values.ravel().tolist())

    @pytest.mark.parametrize("value,ndim,message", [
        ([[1, "x"]], 2, "A[0][1]: expected a number, got 'x'"),
        ([[True], [1, 2]], 2, "A[0][0]: booleans are not numbers"),
        ([[1], [1, 2]], 2, "A: row 1 has length 2, expected 1"),
        ([1, 10**400], 1, "A[1]: integer out of float range"),
        ([float("-inf")], 1, "A[0]: non-finite number -inf"),
        (["-inf", -2e300], 1, "A: finite entries must not exceed 1e+300 in magnitude, "
                              "got -2e+300"),
    ])
    def test_messages(self, value, ndim, message):
        with pytest.raises(InstanceFormatError) as info:
            _read_array(value, ndim, True, "A", _MAX_ENTRY)
        assert str(info.value) == message


class TestHugeNumbers:
    """Literals and entries past float64's range are input errors (exit 2)."""

    HUGE = "1" + "0" * 400

    @pytest.mark.parametrize("text,message", [
        ('{"problem":"primal","A":[[%s]],"b":[0],"c":[0]}' % HUGE,
         "A[0][0]: integer out of float range"),
        ('{"problem":"mcm","A":[[1]],"tol":%s}' % HUGE, "tol must be"),
        ('{"problem":"mcm","A":[[1%s]]}' % ("0" * 5000), "invalid JSON: Exceeds the limit"),
        ('{"problem":"primal","A":[[-1e308]],"b":[1e308],"c":[0]}',
         "A: finite entries must not exceed 1e+300 in magnitude, got -1e+308"),
        ('{"problem":"star","A":[[-1e308,1e308],[1e308,-1e308]]}', "A: finite entries"),
        ('{"problem":"mcm","A":[[1e308,1e308],[1e308,1e308]]}', "A: finite entries"),
        ('{"problem":"primal","A":[[1]],"b":[0],"c":[-2e300]}', "c: finite entries"),
    ])
    def test_solve_input_error(self, text, message, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(text)
        assert main(["solve", "--input", str(inst)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("troplp: input error: ") and message in err

    def test_bound_is_inclusive(self):
        obj = {"problem": "mcm", "A": [[-_MAX_ENTRY, "-inf"], [_MAX_ENTRY, -_MAX_ENTRY]]}
        payload, code = solve_to_payload(parse_instance(json.dumps(obj)), 1e-9)
        assert code == EXIT_OK and verify_payload(payload) == []

    def test_check_huge_literals(self, tmp_path, capsys):
        text = serialize_solution(_fresh_solution("primal", tmp_path))
        path = tmp_path / "sol.json"
        path.write_text(text.replace('"tol": 1e-09', '"tol": 1' + "0" * 5000, 1))
        assert main(["check", "--input", str(path)]) == EXIT_INPUT
        doc = json.loads(text)
        doc["x"][0] = 10**400
        assert _check(doc, tmp_path) == EXIT_CERTIFICATE
        assert "x[0]: integer out of float range" in capsys.readouterr().err


class TestStoredMagnitude:
    """check reports a stored number above 1e307 in magnitude as a violation
    (exit 3), so that no certificate sum it forms overflows."""

    def test_overflowing_witness(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text('{"problem":"primal","A":[[1e300]],"b":[0],"c":[1e300]}')
        sol = tmp_path / "sol.json"
        assert main(["solve", "--input", str(inst), "--output", str(sol)]) == EXIT_OK
        doc = json.loads(sol.read_text())
        doc["x"] = [1.7976931348623157e308]
        assert _check(doc, tmp_path) == EXIT_CERTIFICATE
        assert ("x: finite entries must not exceed 1e+307 in magnitude, "
                "got 1.7976931348623157e+308") in capsys.readouterr().err

    @pytest.mark.parametrize("name,field,value", [
        ("mcm", "lambda", -1.7e308),
        ("divergent-star", "lambda", 1.7e308),
        ("primal", "objective", 2e307),
        ("dual", "pi", [-2e307, 0]),
        ("gap", "upper", -1.1e307),
        ("tslp", "y", [1.7e308, 0]),
        ("onesided", "principal", [0, -1.7e308]),
        ("onesided", "residual", 1.7e308),
        ("star", "star", [[0, 0], [1.7e308, 0]]),
        ("mcm", "potential", [0, 0, 1.7e308]),
    ])
    def test_reported_as_problem(self, name, field, value, tmp_path, capsys):
        doc = _fresh_solution(name, tmp_path)
        doc[field] = value
        assert _check(doc, tmp_path) == EXIT_CERTIFICATE
        assert (f"troplp: certificate violation: {field}: finite entries must not "
                "exceed 1e+307") in capsys.readouterr().err

    def test_bound_is_inclusive(self):
        inst = parse_instance('{"problem":"star","A":[["-inf",-1e300],[-1e300,0]]}')
        payload, code = solve_to_payload(inst, 1e-9)
        assert code == EXIT_OK and verify_payload(payload) == []
        stored = [[0.0, 1e307], [-1e307, 0.0]]
        problems = verify_payload(dict(payload, star=stored))
        assert problems and not any("must not exceed" in p for p in problems)

    def test_tampered_lambda_with_overflowing_sweep(self, tmp_path, capsys):
        # lambda is the mean of its witness self-loop, but the cycles of mean
        # 0 make the check's sweep overflow on its way to divergence
        a = [[0.0] * 40 for _ in range(40)]
        a[0][0] = -1e300
        for row in a:
            row[-1] = "-inf"
        payload, _ = solve_to_payload(parse_instance(json.dumps(
            {"problem": "mcm", "A": a})), 1e-9)
        doc = dict(payload, **{"lambda": -1e300, "witness_cycle": [0]})
        assert _check(doc, tmp_path) == EXIT_CERTIFICATE
        assert "lambda below the maximum cycle mean" in capsys.readouterr().err


_NUMBERS = st.one_of(st.integers(-10**20, 10**20),
                    st.floats(allow_nan=False, allow_infinity=False), st.just("-inf"))
_MATRICES = st.lists(st.lists(_NUMBERS, max_size=4), min_size=1, max_size=4)
_LEAVES = st.one_of(_NUMBERS, st.booleans(), st.none(), st.text(max_size=4),
                    st.lists(_NUMBERS, max_size=4), _MATRICES, st.just({}))
_DOCS = st.dictionaries(st.text(max_size=4), st.recursive(
    _LEAVES, lambda inner: st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12), max_size=5)


def _walk(value):
    """Every dict and list inside value, value included."""
    yield value
    for item in value.values() if isinstance(value, dict) else value:
        if isinstance(item, (dict, list)):
            yield from _walk(item)


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(_DOCS)
    def test_round_trip_and_layout(self, doc):
        text = serialize_solution(doc)
        assert json.loads(text) == doc
        assert serialize_solution(json.loads(text)) == text
        lines = {line.strip().rstrip(",") for line in text.splitlines()}
        for matrix in _walk(doc):
            if isinstance(matrix, list) and matrix and all(
                    isinstance(row, list) for row in matrix):
                assert all(json.dumps(row) in lines for row in matrix)

    @settings(max_examples=200, deadline=None)
    @given(_DOCS, st.sampled_from([float("nan"), float("inf"), -float("inf")]),
           st.data())
    def test_non_finite_float_rejected(self, doc, bad, data):
        target = data.draw(st.sampled_from(list(_walk(doc))))
        if isinstance(target, dict):
            target["bad"] = bad
        else:
            target.insert(data.draw(st.integers(0, len(target))), bad)
        with pytest.raises(ValueError, match="not JSON compliant"):
            serialize_solution(doc)

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                      elements=st.sampled_from(
                          [0.0, -0.0, E, 1e-05, 1e16, 1e300, -1.5,
                           0.1 + 0.2, -0.12300000000000001, 2.5e-300])
                      | st.floats(allow_nan=False, allow_infinity=False)
                      | st.just(E)))
    def test_distinct_value_rows_match_the_encoder(self, values):
        rows = _distinct_value_rows(values)
        assert rows == _json(values)
        assert rows.texts == tuple(map(_encode, _json(values)))

    def test_layout(self):
        doc = {"problem": "mcm", "lambda": 1.0, "witness_cycle": [0, 1],
               "empty": {}, "instance": {"A": [[0.5, "-inf"], [1, 2]]}}
        assert serialize_solution(doc) == (
            '{\n'
            '  "problem": "mcm",\n'
            '  "lambda": 1.0,\n'
            '  "witness_cycle": [0, 1],\n'
            '  "empty": {},\n'
            '  "instance": {\n'
            '    "A": [\n'
            '      [0.5, "-inf"],\n'
            '      [1, 2]\n'
            '    ]\n'
            '  }\n'
            '}\n')


class TestRoundTrip:
    def test_bit_exact_floats_and_eps(self):
        payload = {"problem": "mcm", "values": [0.1, 1e-17, -1e300, 3.0, "-inf"],
                   "nested": {"lambda": "-inf"}, "count": 3,
                   "instance": {"A": [[0.1 + 0.2]]}}
        again = parse_solution(serialize_solution(payload))
        assert again == payload

    def test_float_eps_rejected(self):
        with pytest.raises(ValueError, match="not JSON compliant"):
            serialize_solution({"problem": "mcm", "lambda": E, "instance": {}})

    def test_parse_solution_returns_the_document(self):
        text = '{"problem": "mcm", "lambda": "-inf", "instance": {"A": [["-inf"]]}}'
        assert parse_solution(text) == json.loads(text)

    def test_parse_solution_rejects_a_non_object(self):
        with pytest.raises(InstanceFormatError, match="solution must be a JSON object"):
            parse_solution("[]")

    def test_every_kind_round_trips(self):
        rng = np.random.default_rng(61)
        for kind in KINDS:
            inst = parse_instance(json.dumps(util.golden_instance_obj(rng, kind)))
            payload, code = solve_to_payload(inst, 1e-9)
            assert code == EXIT_OK
            assert parse_solution(serialize_solution(payload)) == payload


def _plain_a(payload):
    """payload with the embedded A as plain lists, which the writer formats."""
    rows = [list(row) for row in payload["instance"]["A"]]
    return dict(payload, instance=dict(payload["instance"], A=rows))


def _floats(rows):
    """JSON rows as a float array, "-inf" read as epsilon."""
    return np.array([[E if v == "-inf" else v for v in row] for row in rows], dtype=float)


_ROUND3 = {"problem": "mcm",
           "A": np.random.default_rng(63).uniform(-10, 10, (4, 4)).round(3).tolist()}
_WITH_EPS = {"problem": "mcm", "A": [["-inf", 1.5, 0.25], [2.0, "-inf", -3.5],
                                     [0.125, -1.0, "-inf"]]}
_INTEGERS = {"problem": "mcm", "A": np.round(_ROUND3["A"]).astype(int).tolist()}


class TestRowCopy:
    """parse_instance tests A's bytes before reading it.  A canonically
    spelled A is read from its decoded rows, and the writer copies its row
    texts; any other spelling goes through _read_array and is formatted from
    the floats.  Either way A and the solution bytes are the same."""

    @pytest.mark.parametrize("text, census, copied", [
        ('{"problem": "mcm", "A": [[1, 2], [3, 4]]}', 1, False),
        ('{"problem": "mcm", "A": [[1, 2.5], [3.5, 4.0]]}', 1, False),
        ('{"problem": "onesided", "A": [[1e2, 1.5]], "b": [1.0]}', 1, False),
        ('{"problem": "onesided", "A": [[1.50, 2.0]], "b": [1.0]}', 1, False),
        ('{"problem": "onesided", "A": [[-0.0, 0.0, 0.0001, 2.5]], "b": [1.0]}', 0, True),
        ('{"problem": "onesided", "A": [[0.00001, 1.0]], "b": [1.0]}', 0, False),
        (json.dumps({"problem": "onesided", "A": [[0.1 + 0.2, 1.0]], "b": [1.0]}), 1, False),
        (json.dumps({"problem": "onesided", "A": [[123456789012345.0, 1.0]], "b": [1.0]}),
         1, False),
        (json.dumps({"problem": "onesided", "A": [[99999999999999.0, 1.0]], "b": [1.0]}),
         0, True),
        (json.dumps(_WITH_EPS), 0, True),
        (json.dumps(_WITH_EPS, separators=(",", ":")), 1, False),
        (json.dumps(_WITH_EPS, indent=1), 1, False),
        ('{"problem": "onesided", "b": [1.0, 2.0], "A": [[1.5, 2.5], [0.5, -1.0]]}', 0, True),
        ('{"problem": "onesided", "A": [[1.5,2.5], [0.5, -1.0]], "b": [1.0, 2.0]}', 1, False),
        ('{"problem": "onesided", "A": [[1.5, 2.5],[0.5, -1.0]], "b": [1.0, 2.0]}', 1, False),
        ('{"problem": "mcm", "\\u0041": [[1.5]]}', 1, False),
        ('{"problem": "mcm", "A": [[1.5]], "\\u0041": [[2.5]]}', 1, False),
        ('{"problem": "onesided", "A": [[1.5, -2.0, 0.25]], "b": [2.0]}', 0, True),
        ('{"problem": "onesided", "A": [[1.5], [0.25], [-3.0]], "b": [1.0, 2.0, 3.0]}', 0, True),
        ('{"problem": "onesided", "A": [[-0.0, "-inf"], ["-inf", -3.0]], "b": [1.0, 2.0]}',
         0, True),
    ], ids=["int", "int-in-row-0", "exponent", "trailing-zero", "zeros-and-1e-4", "below-1e-4",
            "17-digits", "16-digits", "15-digits", "eps", "compact", "indent",
            "A-last", "comma-without-space", "rows-without-space", "escaped-A",
            "escaped-A-duplicate", "single-row", "single-column", "negative-zero-and-eps"])
    def test_copy_writes_the_formatter_bytes(self, text, census, copied, monkeypatch):
        calls = util.count_calls(monkeypatch, _read_array)
        inst = parse_instance(text)
        # A's one read takes the type census unless the byte test gave its mask
        assert [args[5] is None for args in calls if args[3] == "A"] == [bool(census)]
        assert (inst.a_rows is not None) == copied
        # the byte read gives the floats _read_array gives, -0.0 included
        obj = json.loads(text)
        general = _read_array(obj["A"], 2, True, "A", _MAX_ENTRY)
        assert inst.a.data.tobytes() == general.tobytes()
        payload, _ = solve_to_payload(inst, 1e-9)
        assert serialize_solution(payload) == serialize_solution(_plain_a(payload))
        assert payload["instance"]["A"] == obj["A"]
        # the copied rows are the parsed lists: the same types and bits as
        # formatting the floats, -0.0 included
        a, formatted = payload["instance"]["A"], _json(inst.a.data)
        assert [list(map(type, row)) for row in a] == [list(map(type, row)) for row in formatted]
        assert _floats(a).tobytes() == _floats(formatted).tobytes()

    @pytest.mark.parametrize("a, message", [
        ('[[0.5, "-inf"], [-1.5, "-inf"]], "c": [0.0, 0.0]',
         "residuation needs a finite entry in every column of A; column 1 is all -inf"),
        ('[[0.5, 2.5], [-1.5, "1.5"]]', "A[1][1]: expected a number, got '1.5'"),
        ('[[0.5, 2.5], [-1.5, "-inF"]]', "A[1][1]: expected a number, got '-inF'"),
        ('[[0.5, 2.5], [-1.5, "1.50"]]', "A[1][1]: expected a number, got '1.50'"),
        ("[[0.5, 2.5], [-1.5, true]]", "A[1][1]: booleans are not numbers"),
        ("[[0.5, 2.5], [-1.5, null]]", "A[1][1]: expected a number, got None"),
        ("[[0.5, 2.5], [-1.5]]", "A: row 1 has length 1, expected 2"),
        ("[[1, 2], [-1.5]]", "A: row 1 has length 1, expected 2"),
        ('[[0.5, 2.5], [-1.5, 1.0]], "A": [1.5, 2.5]', "A: row 0 is not a non-empty list"),
    ], ids=["eps-in-primal", "string", "eps-misspelled", "string-trailing-zero", "true",
            "null", "ragged", "integer-ragged", "duplicate-A"])
    def test_other_input_falls_back_with_the_message(self, a, message, monkeypatch):
        # canonical bytes around one thing the byte read does not take, or,
        # for primal, an all-epsilon column it takes in any kind and the
        # kind's guard refuses
        problem = "primal" if '"c"' in a else "onesided"
        text = f'{{"problem": "{problem}", "b": [1.0, 2.0], "A": {a}}}'
        calls = util.count_calls(monkeypatch, _read_array)
        with pytest.raises((InstanceFormatError, FiniteRequiredError)) as info:
            solve_to_payload(parse_instance(text), 1e-9)
        assert str(info.value) == message
        # A is read first, with the byte test's mask only where it is canonical
        assert [(args[3], args[5] is not None) for args in calls[:1]] == [
            ("A", problem == "primal")]

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                      elements=st.tuples(st.floats(-1e6, 1e6), st.integers(0, 6))
                      .map(lambda pair: round(*pair))
                      | st.sampled_from([E, 0.0, -0.0, 1e-5, 1e-4, 1e16,
                                         99999999999999.0, 999999999999999.0])
                      | st.floats(-1e6, 1e6)))
    @example(np.array([[-0.0, E], [E, 1.5]]))
    def test_byte_read_matches_the_general_read(self, values):
        rows = _json(values)
        obj = {"problem": "onesided", "A": rows, "b": [0.0] * len(rows)}
        inst = parse_instance(json.dumps(obj))
        general = parse_instance(json.dumps(obj, indent=1))  # never canonical
        assert general.a_rows is None
        assert inst.a.data.tobytes() == general.a.data.tobytes() == values.tobytes()
        # repr's spelling is copied when it has no exponent and 15 digits at most
        plain = all(cell == "-inf" or ("e" not in repr(cell)
                                       and len(repr(cell).lstrip("-")) <= 16)
                    for row in rows for cell in row)
        assert (None if inst.a_rows is None else inst.a_rows.texts) == (
            tuple(map(json.dumps, rows)) if plain else None)
        assert inst.a_rows is None or inst.a_rows == rows

    @pytest.mark.parametrize("obj, copied", [(_ROUND3, True), (_WITH_EPS, True),
                                             (_INTEGERS, False)],
                             ids=["round3", "eps", "integers"])
    def test_copy_runs_on_canonical_input(self, obj, copied):
        # every byte test passes with the copy switched off; this one does not
        rows = tuple(json.dumps(row) for row in obj["A"]) if copied else None
        a_rows = parse_instance(json.dumps(obj)).a_rows
        assert (None if a_rows is None else a_rows.texts) == rows

    @pytest.mark.parametrize("obj", [_ROUND3, _WITH_EPS], ids=["round3", "eps"])
    def test_solve_formats_no_matrix(self, obj, monkeypatch):
        # the embedded A is the list parse_instance decoded, not formatted again
        inst = parse_instance(json.dumps(obj))
        calls = util.count_calls(monkeypatch, _json)
        payload, _ = solve_to_payload(inst, 1e-9)
        assert calls and [args for args in calls if np.ndim(args[0]) == 2] == []
        assert payload["instance"]["A"] is inst.a_rows

    def test_replacing_a_field_drops_the_texts(self):
        inst = parse_instance(json.dumps(_ROUND3))
        assert inst.a_rows is not None
        assert dataclasses.replace(inst, a=TropMatrix([[0.5]])).a_rows is None
        assert inst == dataclasses.replace(inst)

    def test_payload_stays_a_plain_document(self):
        payload, _ = solve_to_payload(parse_instance(json.dumps(_WITH_EPS)), 1e-9)
        text = serialize_solution(payload)
        assert json.loads(text) == payload
        assert json.loads(json.dumps(payload)) == payload


class TestSolveToPayload:
    def test_primal_payload(self):
        inst = parse_instance(
            '{"problem":"primal","A":[[1,2],[3,4]],"b":[5,6],"c":[0,0]}')
        payload, code = solve_to_payload(inst, 1e-9)
        assert code == EXIT_OK
        assert payload["objective"] == 3.0
        assert payload["x"] == [3.0, 2.0]
        assert verify_payload(payload) == []

    def test_infeasible_tslp(self):
        inst = parse_instance(
            '{"problem":"tslp","A":[[1]],"d":[0],"c":[0]}')
        payload, code = solve_to_payload(inst, 1e-9)
        assert code == EXIT_INFEASIBLE
        assert payload["status"] == "infeasible-lambda-positive"
        assert payload["lambda"] == 1.0
        assert verify_payload(payload) == []

    def test_divergent_star(self):
        inst = parse_instance('{"problem":"star","A":[[0.25]]}')
        payload, code = solve_to_payload(inst, 1e-9)
        assert code == EXIT_INFEASIBLE
        assert payload["status"] == "divergent-star"
        assert verify_payload(payload) == []

    def test_gap_payload_fields(self):
        inst = parse_instance(
            '{"problem":"gap","A":[[0.5]],"b":[1],"c":[0]}')
        payload, code = solve_to_payload(inst, 1e-9)
        assert code == EXIT_OK
        assert (payload["lower"], payload["real_optimum"], payload["upper"]) \
            == (0.0, 0.5, 1.0)
        assert payload["x"] == [0.0]
        assert payload["pi"] == [0.0]
        assert verify_payload(payload) == []

    def test_gap_solves_each_integer_program_once(self, monkeypatch):
        inst = parse_instance('{"problem":"gap","A":[[1,2],[3,4]],'
                              '"b":[5.5,6.25],"c":[0,0]}')
        dual = util.count_calls(monkeypatch, intlp.solve_dual_integer)
        primal = util.count_calls(monkeypatch, intlp.solve_primal_integer)
        payload, code = solve_to_payload(inst, 1e-9)
        assert code == EXIT_OK
        assert (len(dual), len(primal)) == (1, 1)
        assert verify_payload(payload) == []

    @pytest.mark.parametrize("kind, solver", [
        ("primal", lp.solve_primal), ("dual", lp.solve_dual),
        ("primal-integer", intlp.solve_primal_integer),
        ("dual-integer", intlp.solve_dual_integer), ("gap", intlp.duality_gap),
        ("tslp", twosided.solve_tslp), ("tslp2", twosided.solve_tslp2),
        ("star", closure.kleene_star), ("mcm", closure.max_cycle_mean),
        ("onesided", onesided.solve_equality)])
    def test_solver_is_looked_up_at_call_time(self, kind, solver, monkeypatch):
        # the table calls the solver through io's name, so a caller that
        # rebinds that name sees every solve
        inst = parse_instance((GOLDEN / f"{kind}.instance.json").read_text())
        calls = util.count_calls(monkeypatch, solver)
        assert solve_to_payload(inst, 1e-9)[1] == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["primal", "dual", "primal-integer", "dual-integer",
                                      "gap"])
    def test_abc_solve_decides_the_domain_once(self, kind, monkeypatch):
        # LpInstance decides what residuation needs by onesided's guard, and
        # the solvers do not run it again
        inst = parse_instance((GOLDEN / f"{kind}.instance.json").read_text())
        guards = util.count_calls(monkeypatch, onesided._check_system)
        assert solve_to_payload(inst, 1e-9)[1] == EXIT_OK
        assert len(guards) == 1

    @pytest.mark.parametrize("kind", ["tslp", "tslp2"])
    def test_two_sided_residual_computed_once(self, kind, monkeypatch):
        # the solver's own self-check is the only residual solve computes
        inst = parse_instance(json.dumps(util.golden_instance_obj(
            np.random.default_rng(66), kind)))
        calls = util.count_calls(monkeypatch, certificates.two_sided)
        payload, code = solve_to_payload(inst, 1e-9)
        assert code == EXIT_OK
        assert len(calls) == 1


class TestVerifyPayload:
    @pytest.mark.parametrize("kind,field", [
        ("primal", "objective"), ("dual", "objective"),
        ("primal-integer", "objective"), ("dual-integer", "objective"),
        ("gap", "upper"), ("tslp", "objective"), ("tslp2", "objective"),
        ("onesided", "residual"), ("mcm", "lambda"),
    ])
    def test_tampered_value_detected(self, kind, field):
        rng = np.random.default_rng(63)
        inst = parse_instance(json.dumps(util.golden_instance_obj(rng, kind)))
        payload, code = solve_to_payload(inst, 1e-9)
        assert code == EXIT_OK
        assert verify_payload(payload) == []
        tampered = dict(payload)
        if payload[field] == "-inf":  # an acyclic mcm draw: tamper to a number
            tampered[field] = 1.0
        else:
            tampered[field] = payload[field] + 0.25
        assert verify_payload(tampered) != []

    def test_tampered_star_entry_detected(self):
        rng = np.random.default_rng(64)
        inst = parse_instance(json.dumps(util.golden_instance_obj(rng, "star")))
        payload, _ = solve_to_payload(inst, 1e-9)
        tampered = parse_solution(serialize_solution(payload))
        tampered["star"][0][0] = 0.5  # the diagonal of a converging star is 0
        assert verify_payload(tampered) != []

    @pytest.mark.xfail(strict=True, reason=(
        "with a zero-mean cycle in A the fixed-point and idempotency identities "
        "do not prove that the star is the least solution"))
    def test_non_least_star_detected(self):
        inst = parse_instance('{"problem":"star","A":[[0,"-inf"],["-inf",0]]}')
        payload, _ = solve_to_payload(inst, 1e-9)
        assert payload["star"] == [[0.0, "-inf"], ["-inf", 0.0]]  # A* = I
        # S = [[0, 7], [-inf, 0]] is a fixed point of x -> Ax + I and S S = S
        tampered = dict(payload, star=[[0.0, 7.0], ["-inf", 0.0]])
        assert verify_payload(tampered) != []

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: check reads tslp2's solution_kind as one of two names "
        "and has no certificate of it"))
    def test_swapped_tslp2_solution_kind_detected(self):
        payload = parse_solution((GOLDEN / "tslp2.solution.json").read_text())
        assert verify_payload(dict(payload, solution_kind="feasible")) != []

    def test_tampered_witness_detected(self):
        inst = parse_instance(
            '{"problem":"primal","A":[[1,2],[3,4]],"b":[5,6],"c":[0,0]}')
        payload, _ = solve_to_payload(inst, 1e-9)
        tampered = dict(payload)
        tampered["x"] = [4.0, 2.0]  # infeasible: exceeds the principal solution
        assert any("infeasible" in p for p in verify_payload(tampered))

    @pytest.mark.parametrize("rows,ok", [
        ([["-inf", 1], ["-inf", "-inf"]], True),
        ([["-inf", 1], [-1, "-inf"]], False),
    ])
    def test_acyclic_mcm_claim_checked(self, rows, ok):
        payload = {"problem": "mcm", "lambda": "-inf", "witness_cycle": None,
                   "potential": None, "instance": {"problem": "mcm", "A": rows}}
        problems = verify_payload(payload)
        assert (problems == []) == ok
        if not ok:
            assert problems == ["lambda = -inf claimed but the digraph has a cycle"]

    @pytest.mark.parametrize("back_arc", [(3, 3), (4, 2)])
    def test_acyclic_mcm_claim_rejects_a_hidden_cycle(self, back_arc):
        # an upper-triangular A is acyclic; one back arc closes a 1-arc
        # or a 3-arc cycle (2 -> 3 -> 4 -> 2)
        a = np.where(np.triu(np.ones((6, 6), dtype=bool), 1), 1.0, E)
        payload = {"problem": "mcm", "lambda": "-inf", "witness_cycle": None,
                   "potential": None,
                   "instance": {"problem": "mcm", "A": util.rows_obj(TropMatrix(a))}}
        assert verify_payload(payload) == []
        a[back_arc] = -1.0
        payload["instance"]["A"] = util.rows_obj(TropMatrix(a))
        assert verify_payload(payload) == ["lambda = -inf claimed but the digraph has a cycle"]

    def test_gap_real_optimum_below_lower_rejected(self):
        inst = parse_instance('{"problem":"gap","A":[[0.5]],"b":[1],"c":[0]}')
        payload, _ = solve_to_payload(inst, 1e-9)
        assert (payload["lower"], payload["real_optimum"]) == (0.0, 0.5)
        problems = verify_payload(dict(payload, real_optimum=-1.0))
        assert "gap interval broken: lower 0.0, real -1.0, upper 1.0" in problems

    def test_mcm_witness_across_an_absent_arc_rejected(self):
        inst = parse_instance('{"problem":"mcm","A":[[-1.0, 0.0],["-inf", -1.0]]}')
        payload, _ = solve_to_payload(inst, 1e-9)
        assert payload["lambda"] == -1.0 and verify_payload(payload) == []
        tampered = dict(payload, witness_cycle=[0, 1])  # the arc 1 -> 0 is -inf
        assert verify_payload(tampered) == ["witness cycle uses arcs absent from A"]

    def test_divergent_star_with_a_negative_cycle_rejected(self):
        payload = {"problem": "star", "status": "divergent-star", "lambda": -1.0,
                   "witness_cycle": [0], "instance": {"problem": "star", "A": [[-1.0]]}}
        assert verify_payload(payload) == [
            "witness cycle mean -1.0 does not certify divergence"]

    def test_star_of_another_shape_is_a_violation(self, tmp_path):
        inst = parse_instance('{"problem":"star","A":[[-1.0, 0.0],["-inf", -1.0]]}')
        payload, _ = solve_to_payload(inst, 1e-9)
        tampered = dict(payload, star=[[0.0]])
        assert verify_payload(tampered) == ["star has shape (1, 1), expected (2, 2)"]
        assert _check(tampered, tmp_path) == EXIT_CERTIFICATE

    def test_solution_kind_differs_from_its_instance(self, tmp_path, capsys):
        payload, _ = solve_to_payload(parse_instance('{"problem":"mcm","A":[[0.0]]}'), 1e-9)
        mixed = dict(payload, instance={"problem": "star", "A": [[0.0]]})
        with pytest.raises(InstanceFormatError, match="instance kind disagrees"):
            verify_payload(mixed)
        assert _check(mixed, tmp_path) == EXIT_INPUT
        assert "instance kind disagrees with solution kind" in capsys.readouterr().err

    def test_mcm_lambda_below_the_maximum_rejected(self):
        inst = parse_instance('{"problem":"mcm","A":[[1,"-inf"],["-inf",2]]}')
        payload, _ = solve_to_payload(inst, 1e-9)
        assert (payload["lambda"], payload["witness_cycle"]) == (2.0, [1])
        tampered = dict(payload, **{"lambda": 1.0, "witness_cycle": [0]})
        assert verify_payload(tampered) == ["lambda below the maximum cycle mean"]

    @pytest.mark.parametrize("density", [1.0, 0.05])
    def test_honest_mcm_passes_the_maximum_check(self, density):
        rng = np.random.default_rng(65)
        for _ in range(10):
            a = util.sparse_square(rng, 40, density=density)
            payload, _ = solve_to_payload(
                parse_instance(json.dumps({"problem": "mcm", "A": util.rows_obj(a)})), 1e-9)
            assert verify_payload(payload) == []

    def test_gap_real_optimum_recomputed(self):
        inst = parse_instance('{"problem":"gap","A":[[0.5]],"b":[1],"c":[0]}')
        payload, _ = solve_to_payload(inst, 1e-9)
        problems = verify_payload(dict(payload, real_optimum=0.9))
        assert problems == ["real_optimum: stored 0.9 but recomputed 0.5"]

    @pytest.mark.parametrize("name,extra", [
        ("dual-integer", {"method": "iterative", "iterations": 2}),
        ("gap", {"method": "direct-integer-b"}),
        ("tslp", {"u": [50, 50]}),
    ])
    def test_fields_of_older_files_are_ignored(self, name, extra, tmp_path, capsys):
        fresh = _fresh_solution(name, tmp_path)
        assert not set(extra) & set(fresh)
        assert _check(dict(fresh, **extra), tmp_path) == EXIT_OK

    @pytest.mark.parametrize("name", KINDS)
    def test_certificate_block_of_older_files_is_ignored(self, name, tmp_path, capsys):
        # older files carry an unverified certificate block before the instance
        fresh = _fresh_solution(name, tmp_path)
        instance = fresh.pop("instance")
        older = dict(fresh, certificate={"primal_residual": 1e6, "width": -7.5,
                                         "witness_mean_error": None},
                     instance=instance)
        assert _check(older, tmp_path) == EXIT_OK

    def test_structurally_broken_solution_raises(self):
        with pytest.raises(InstanceFormatError):
            verify_payload({"problem": "primal", "instance": {"A": [[1]]}})

    def test_missing_instance_raises_format_error(self):
        with pytest.raises(InstanceFormatError,
                           match='solution is missing the "instance" field'):
            verify_payload({"problem": "mcm"})


_ABC_OPTIMUM = {"A": [[0, 1], [2, -1]], "b": [3, 4.5], "c": [0.5, 0]}


def _shifted(field, by, objective):
    """A fresh payload with every entry of `field` moved by `by` and the
    objective the moved witness attains."""
    return lambda p: dict(p, **{field: [v + by for v in p[field]], "objective": objective})


def _lowered_principal(p):
    """onesided's principal - 1, a smaller subsolution, with its residual and
    equality flag recomputed."""
    x = TropVector([v - 1.0 for v in p["principal"]])
    ax = core.tmul(TropMatrix(_ABC_OPTIMUM["A"]), x).data
    residual, solvable = certificates.shortfall(ax, np.array(_ABC_OPTIMUM["b"]), 1e-9)
    return dict(p, principal=x.data.tolist(), residual=residual,
                solvable_as_equality=solvable)


def _optimality(item, what):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"ROADMAP item {item}: check proves {what}")


_ITEM_1 = _optimality(1, "the witness feasible, not optimal")
_ITEM_2 = _optimality(2, "y feasible, not optimal")
_ONESIDED = {"problem": "onesided", "A": _ABC_OPTIMUM["A"], "b": _ABC_OPTIMUM["b"]}

# (instance, field, fresh value, tamper): each tamper stores a feasible but
# worse witness with a consistent objective
_WORSE_WITNESSES = [
    pytest.param(dict(_ABC_OPTIMUM, problem="primal"), "objective", 3.0,
                 _shifted("x", -1.0, 2.0), marks=_ITEM_1, id="primal"),
    pytest.param(dict(_ABC_OPTIMUM, problem="primal-integer"), "objective", 2.5,
                 _shifted("x", -1.0, 1.5), marks=_ITEM_1, id="primal-integer"),
    pytest.param(dict(_ABC_OPTIMUM, problem="dual"), "objective", 3.0,
                 _shifted("pi", 1.0, 4.0), marks=_ITEM_1, id="dual"),
    pytest.param(dict(_ABC_OPTIMUM, problem="dual-integer"), "objective", 3.5,
                 _shifted("pi", 1.0, 4.5), marks=_ITEM_1, id="dual-integer"),
    pytest.param(_ONESIDED, "residual", 0.0, _lowered_principal,
                 marks=_optimality(1, "principal a subsolution, not the greatest"),
                 id="onesided"),
    pytest.param({"problem": "tslp", "A": [[-1, -2], [-3, -1]], "d": [0, 0], "c": [0, 0]},
                 "objective", 0.0, _shifted("y", 1.0, 1.0), marks=_ITEM_2, id="tslp"),
    pytest.param({"problem": "tslp2", "A": [[0, -5], [-5, -1]], "d": [0, 0], "c": [0, 0]},
                 "objective", 0.0, lambda p: dict(p, y=[3.0, 0.0], objective=3.0),
                 marks=_ITEM_2, id="tslp2"),
]


class TestWorseWitness:
    """Optimality is not certified yet: a feasible but worse witness, stored
    with an objective (or residual) that matches it, passes verify_payload.
    Each reproducer is a strict xfail that names the ROADMAP item whose
    certificate will reject it; test_fresh_answer pins the optimum that the
    tamper moves away from."""

    @pytest.mark.parametrize("obj, field, fresh, tamper", [
        pytest.param(*case.values, id=case.id) for case in _WORSE_WITNESSES])
    def test_fresh_answer(self, obj, field, fresh, tamper):
        payload, code = solve_to_payload(parse_instance(json.dumps(obj)), 1e-9)
        assert (code, payload[field], verify_payload(payload)) == (EXIT_OK, fresh, [])
        assert tamper(payload)[field] != fresh

    @pytest.mark.parametrize("obj, field, fresh, tamper", _WORSE_WITNESSES)
    def test_worse_witness_detected(self, obj, field, fresh, tamper):
        payload, _ = solve_to_payload(parse_instance(json.dumps(obj)), 1e-9)
        assert verify_payload(tamper(payload)) != []


# tests/golden/mcm.solution.json as solve wrote it before solutions carried
# a potential
_MCM_WITHOUT_POTENTIAL = """{
  "tool": "troplp",
  "version": "0.1.0",
  "problem": "mcm",
  "tol": 1e-09,
  "status": "ok",
  "lambda": 1.0,
  "witness_cycle": [0, 1, 2],
  "instance": {
    "problem": "mcm",
    "A": [
      ["-inf", 1.0, "-inf"],
      ["-inf", 0.5, 2.0],
      [0.0, "-inf", "-inf"]
    ]
  }
}
"""


class TestCheckPasses:
    """check's O(n^3) passes on fresh payloads, counted per kind as (star
    sweeps, Karp walk tables, matrix products)."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = [util.count_calls(monkeypatch, fn)
                 for fn in (closure._star_sweep, closure._walk_table, core.tmul)]

        def check(payload):
            for made in calls:
                made.clear()
            problems = verify_payload(payload)
            sweeps, tables, products = calls
            return problems, (len(sweeps), len(tables),
                              sum(isinstance(args[1], TropMatrix) for args in products))
        return check

    @pytest.mark.parametrize("kind", KINDS)
    def test_fresh_payload(self, kind, passes):
        payload, code = solve_to_payload(
            parse_instance((GOLDEN / f"{kind}.instance.json").read_text()), 1e-9)
        assert code == EXIT_OK
        # the star check's fixed point takes one product; every cycle of the
        # golden A is strictly negative, so idempotency is not checked
        assert passes(payload) == ([], (0, 0, 1 if kind == "star" else 0))

    def test_star_with_a_zero_weight_loop_checks_idempotency(self, passes):
        # with a cycle of mean 0 >= -tol a fixed point need not be A*, and
        # the idempotency product runs as well
        payload, _ = solve_to_payload(
            parse_instance('{"problem":"star","A":[[0,-1],[-2,-0.5]]}'), 1e-9)
        assert passes(payload) == ([], (0, 0, 2))

    @pytest.mark.parametrize("raise_", ["entry", "column"])
    def test_raised_star_rejected_after_one_product(self, passes, raise_):
        # a column raised by c is still a fixed point off the diagonal; its
        # diagonal entry c, where max((A S)_jj, 0) = 0, gives it away
        payload, _ = solve_to_payload(
            parse_instance((GOLDEN / "star.instance.json").read_text()), 1e-9)
        star = np.array(payload["star"], dtype=float)
        if raise_ == "entry":
            star[0, 1] += 2e-9
        else:
            star[:, 1] += 2e-9
        problems, counts = passes(dict(payload, star=star.tolist()))
        assert problems and "fixed point" in problems[0]
        assert counts == (0, 0, 1)

    def test_acyclic_mcm(self, passes):
        payload, _ = solve_to_payload(
            parse_instance('{"problem":"mcm","A":[["-inf",1],["-inf","-inf"]]}'), 1e-9)
        assert (payload["lambda"], payload["witness_cycle"], payload["potential"]) == (
            "-inf", None, None)
        assert passes(payload) == ([], (0, 0, 0))

    @pytest.mark.parametrize("field, value, line", [
        ("potential", [5.0, 7.0], "acyclic result must not carry a potential"),
        ("witness_cycle", [0, 1], "acyclic result must not carry a witness cycle")])
    def test_acyclic_mcm_carries_no_certificate(self, passes, tmp_path, capsys,
                                                 field, value, line):
        payload, _ = solve_to_payload(
            parse_instance('{"problem":"mcm","A":[["-inf",1],["-inf","-inf"]]}'), 1e-9)
        tampered = dict(payload, **{field: value})
        assert passes(tampered) == ([line], (0, 0, 0))
        path = tmp_path / "acyclic.json"
        path.write_text(json.dumps(tampered))
        assert main(["check", "--input", str(path)]) == EXIT_CERTIFICATE
        assert capsys.readouterr().err == f"troplp: certificate violation: {line}\n"

    def test_lowered_lambda_runs_one_sweep(self, passes):
        inst = parse_instance('{"problem":"mcm","A":[[1,"-inf"],["-inf",2]]}')
        payload, _ = solve_to_payload(inst, 1e-9)
        tampered = dict(payload, **{"lambda": 1.0, "witness_cycle": [0]})
        assert passes(tampered) == (["lambda below the maximum cycle mean"], (1, 0, 0))

    @pytest.mark.parametrize("shift", [1e20, 1e300])
    def test_shifted_potential_runs_the_sweep(self, passes, shift):
        # a constant shift keeps a potential valid, and at this size the
        # rounding of x_u + a_uv would hide the loop of mean 1000 above lambda
        payload = {"problem": "mcm", "tol": 1e-9, "status": "ok", "lambda": 0.0,
                   "witness_cycle": [0], "potential": [shift, shift],
                   "instance": {"problem": "mcm", "A": [[0, "-inf"], ["-inf", 1000]]}}
        assert passes(payload) == (["lambda below the maximum cycle mean"], (1, 0, 0))

    @pytest.mark.parametrize("potential", ["honest", "shifted", "zeros"])
    def test_mixed_magnitude_lambda_tamper_runs_the_sweep(self, passes, potential):
        # the loop at node 2 (mean -1e280) is no maximum: the cycle 0 -> 1
        # has mean 0.  A slack scaled by the largest entry, about 1.8e285,
        # would let the shifted potential pass (ROADMAP item 3)
        payload, _ = solve_to_payload(parse_instance(json.dumps(
            {"problem": "mcm", "A": [["-inf", 1, "-inf"], [-1, "-inf", "-inf"],
                                     [-1e300, "-inf", -1e280]]})), 1e-9)
        assert (payload["lambda"], payload["witness_cycle"]) == (0.0, [0, 1])
        kept = {"honest": payload["potential"], "shifted": [1e295, 1e295, 0.0],
                "zeros": [0.0] * 3}[potential]
        tampered = dict(payload, **{"lambda": -1e280, "witness_cycle": [2],
                                    "potential": kept})
        assert passes(tampered) == (["lambda below the maximum cycle mean"], (1, 0, 0))

    def test_older_mcm_file_is_refused_without_a_sweep(self, passes, tmp_path, capsys):
        # a file without its certificate field is a violation, as for every kind
        assert passes(json.loads(_MCM_WITHOUT_POTENTIAL)) == (
            ["potential: missing from the solution"], (0, 0, 0))
        path = tmp_path / "older.json"
        path.write_text(_MCM_WITHOUT_POTENTIAL)
        assert main(["check", "--input", str(path)]) == EXIT_CERTIFICATE
        assert capsys.readouterr().err == (
            "troplp: certificate violation: potential: missing from the solution\n")

    def test_finite_lambda_with_a_null_potential_is_refused_without_a_sweep(self, passes):
        payload = parse_solution((GOLDEN / "mcm.solution.json").read_text())
        assert passes(dict(payload, potential=None)) == (
            ["a finite lambda needs a witness cycle and a potential"], (0, 0, 0))


def _mcm_matrix(rng, pattern, n, scale, decimals):
    """A square matrix with entries of magnitude up to scale, integers or
    with 3 decimals: "dense", "sparse" (10 % of arcs), "dag" (acyclic), or
    "zero", where every arc weighs at most p_u - p_v for a random p and the
    arcs of one planted cycle weigh exactly that, so its mean is the
    maximum, 0."""
    def draw(size, bound):
        if decimals:
            return np.round(rng.uniform(-bound, bound, size), 3)
        return rng.integers(-int(bound), int(bound) + 1, size).astype(float)

    spell = (lambda v: np.round(v, 3)) if decimals else (lambda v: v)
    if pattern == "zero":
        p = draw(n, scale / 4)
        unit = 0.001 if decimals else 1.0
        a = spell(p[:, np.newaxis] - p - np.abs(draw((n, n), scale / 2)) - unit)
        cycle = rng.permutation(n)[:int(rng.integers(1, n + 1))]
        succ = np.roll(cycle, -1)
        a[cycle, succ] = spell(p[cycle] - p[succ])
        return a
    a = draw((n, n), scale)
    if pattern == "sparse":
        a[rng.random((n, n)) >= 0.1] = E
    elif pattern == "dag":
        order = rng.permutation(n)
        upper = np.triu(rng.random((n, n)) < 0.5, 1)
        a = np.where(upper, a, E)[np.ix_(order, order)]
    return a


def test_honest_mcm_potential_and_lambda_tamper(monkeypatch):
    """Every fresh mcm payload checks, through its potential alone (no sweep)
    while |entries| <= 1e4; beyond that |x| ~ n * scale is too large for the
    potential's test to resolve the absolute tol, and the sweep decides.  A lambda lowered by
    0.25 is rejected with the potential kept, zeroed or shifted by 1e20, and
    with the potential removed the file is refused for the missing field."""
    rng = np.random.default_rng(67)
    sweeps = util.count_calls(monkeypatch, closure._star_sweep)
    for pattern, decimals, power in itertools.product(
            ("dense", "sparse", "dag", "zero"), (False, True), range(7)):
        for _ in range(5):
            n = int(rng.integers(2, 101))
            a = _mcm_matrix(rng, pattern, n, 10.0 ** power, decimals)
            payload, code = solve_to_payload(parse_instance(json.dumps(
                {"problem": "mcm", "A": util.rows_obj(TropMatrix(a))})), 1e-9)
            assert code == EXIT_OK
            sweeps.clear()
            assert verify_payload(payload) == []
            assert power > 4 or sweeps == []
            assert pattern != "dag" or payload["lambda"] == "-inf"
            if payload["lambda"] == "-inf":
                continue
            lowered = dict(payload, **{"lambda": payload["lambda"] - 0.25})
            shifted = [v + 1e20 for v in payload["potential"]]
            for tampered in (lowered, dict(lowered, potential=[0.0] * n),
                             dict(lowered, potential=shifted)):
                assert "lambda below the maximum cycle mean" in verify_payload(tampered)
            removed = {k: v for k, v in lowered.items() if k != "potential"}
            assert verify_payload(removed) == ["potential: missing from the solution"]


class TestCliMain(object):
    def _write(self, path, obj):
        path.write_text(json.dumps(obj), encoding="utf-8")

    def test_solve_and_check_loop(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        sol = tmp_path / "sol.json"
        self._write(inst, {"problem": "primal", "A": [[1, 2], [3, 4]],
                           "b": [5, 6], "c": [0, 0]})
        assert main(["solve", "--input", str(inst), "--output", str(sol)]) == EXIT_OK
        payload = parse_solution(sol.read_text())
        assert payload["objective"] == 3.0
        assert main(["check", "--input", str(sol)]) == EXIT_OK

    def test_check_tampered_objective(self, tmp_path):
        inst = tmp_path / "inst.json"
        sol = tmp_path / "sol.json"
        self._write(inst, {"problem": "dual", "A": [[1, 2], [3, 4]],
                           "b": [5, 6], "c": [0, 0]})
        main(["solve", "--input", str(inst), "--output", str(sol)])
        doc = json.loads(sol.read_text())
        doc["objective"] += 1.0
        sol.write_text(json.dumps(doc))
        assert main(["check", "--input", str(sol)]) == EXIT_CERTIFICATE

    def test_solve_writes_stdout_by_default(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        self._write(inst, {"problem": "mcm", "A": [[1]]})
        assert main(["solve", "--input", str(inst)]) == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out)["lambda"] == 1.0

    def test_star_command_defaults_problem(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        self._write(inst, {"A": [[-1, 0], [-3, -2]]})
        assert main(["star", "--input", str(inst)]) == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out)["star"] == [[0.0, 0.0], [-3.0, 0.0]]

    def test_mcm_command_rejects_other_kind(self, tmp_path):
        inst = tmp_path / "inst.json"
        self._write(inst, {"problem": "star", "A": [[0]]})
        assert main(["mcm", "--input", str(inst)]) == EXIT_INPUT

    def test_infeasible_exit_code(self, tmp_path):
        inst = tmp_path / "inst.json"
        self._write(inst, {"problem": "tslp", "A": [[1]], "d": [0], "c": [0]})
        assert main(["solve", "--input", str(inst)]) == EXIT_INFEASIBLE

    def test_missing_file(self, tmp_path):
        assert main(["solve", "--input", str(tmp_path / "nope.json")]) == EXIT_INPUT

    def test_parser_is_built_at_import(self, tmp_path, monkeypatch):
        built = []

        class Counting(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(argparse, "ArgumentParser", Counting)
        inst = tmp_path / "inst.json"
        sol = tmp_path / "sol.json"
        self._write(inst, {"problem": "mcm", "A": [[1]]})
        assert main(["solve", "--input", str(inst), "--output", str(sol)]) == EXIT_OK
        assert main(["check", "--input", str(sol)]) == EXIT_OK
        assert built == []

    def test_readme_command_forms(self, tmp_path, capsys):
        paths = {name: tmp_path / f"{name}.json" for name in
                 ("inst", "sol", "matrix", "divergent", "tampered", "missing")}
        self._write(paths["inst"], {"problem": "tslp", "A": [[-1, -2], [-3, -1]],
                                    "d": [0, 0], "c": [0, 0]})
        self._write(paths["matrix"], {"A": [[-1, 0], [-3, -2]]})
        self._write(paths["divergent"], {"problem": "star", "A": [[1]]})
        forms = [  # in order: check and the tampered copy read the solution
            ("solve --input {inst} --output {sol} --tol 1e-9", EXIT_OK),
            ("solve --input {inst}", EXIT_OK),
            ("check --input {sol}", EXIT_OK),
            ("star --input {matrix}", EXIT_OK),
            ("mcm --input {matrix}", EXIT_OK),
            ("solve --input {divergent}", EXIT_INFEASIBLE),
            ("check --input {tampered}", EXIT_CERTIFICATE),
            ("solve --input {missing}", EXIT_INPUT),
        ]
        printed = {}
        for form, code in forms:
            if "{tampered}" in form:
                doc = json.loads(paths["sol"].read_text())
                doc["objective"] += 1.0
                paths["tampered"].write_text(json.dumps(doc))
            argv = form.format(**{k: str(v) for k, v in paths.items()}).split()
            assert main(argv) == code, form
            out = capsys.readouterr().out
            if out:  # every printed answer is one JSON document
                printed[form] = json.loads(out)
        assert printed["solve --input {inst}"]["objective"] == 0.0
        assert printed["check --input {sol}"] == {"status": "passed", "problems": []}
        assert printed["mcm --input {matrix}"]["lambda"] == -1.0

    @pytest.mark.parametrize("argv", [["frobnicate", "--input", "inst.json"],
                                      ["solve"], ["check", "--output", "out.json"], [],
                                      ["mcm", "--input", "inst.json", "--format", "text"]])
    def test_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("usage: troplp")
        assert "error: " in err

    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_input_not_utf8(self, command, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_bytes(b'\xff\xfe{"problem": "mcm", "A": [[1]]}')
        assert main([command, "--input", str(inst)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"troplp: cannot read {inst}: ")

    def test_output_in_missing_directory(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        self._write(inst, {"problem": "mcm", "A": [[1]]})
        out = tmp_path / "missing" / "sol.json"
        assert main(["solve", "--input", str(inst), "--output", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"troplp: cannot write {out}: ")

    def test_bad_json(self, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text("{")
        assert main(["solve", "--input", str(inst)]) == EXIT_INPUT

    @pytest.mark.parametrize("text, message", [
        ('\ufeff{"problem": "mcm", "A": [[1]]}',
         "invalid JSON at line 1 column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ('{"problem": "mcm", "A": [[NaN]]}', "literal NaN is not allowed"),
        ('{"problem": "mcm", "A": [[1]]} x', "invalid JSON at line 1 column 32: Extra data"),
    ], ids=["bom", "nan", "extra-data"])
    def test_json_messages(self, text, message, tmp_path, capsys):
        # the one decoder built at import words each error as json.loads does
        inst = tmp_path / "inst.json"
        inst.write_text(text, encoding="utf-8")
        assert main(["solve", "--input", str(inst)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"troplp: input error: {message}\n"

    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_deeply_nested_json(self, command, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text('{"A": ' + "[" * 200_000)
        assert main([command, "--input", str(inst)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == "troplp: input error: invalid JSON: nested too deeply\n"

    def test_eps_in_onesided_is_input_error(self, tmp_path):
        # the parser permits "-inf" for this kind, but an all -inf column
        # leaves the greatest subsolution unbounded
        inst = tmp_path / "inst.json"
        self._write(inst, {"problem": "onesided", "A": [["-inf"]], "b": [0]})
        assert main(["solve", "--input", str(inst)]) == EXIT_INPUT

    def test_eps_in_onesided_solves_and_checks(self, tmp_path):
        inst = tmp_path / "inst.json"
        sol = tmp_path / "sol.json"
        self._write(inst, {"problem": "onesided", "A": [[0, "-inf"], [1, 2]],
                           "b": [3, 4]})
        assert main(["solve", "--input", str(inst), "--output", str(sol)]) == EXIT_OK
        payload = parse_solution(sol.read_text())
        assert payload["principal"] == [3.0, 2.0]
        assert payload["solvable_as_equality"] is True
        assert main(["check", "--input", str(sol)]) == EXIT_OK

    def test_damaged_onesided_check_is_input_error(self, tmp_path, capsys):
        # a damaged embedded instance is exit 2 for every kind, in check as in
        # solve, even before a stored field that is malformed too
        sol = tmp_path / "sol.json"
        for instance, message in [
                ({"problem": "onesided", "A": [[0]], "b": ["-inf"]},
                 "residuation needs a finite b"),
                ({"problem": "onesided", "A": [["-inf"], [0]], "b": [0, 0]},
                 "row 0 is all -inf")]:
            self._write(sol, instance)
            assert main(["solve", "--input", str(sol)]) == EXIT_INPUT
            payload = {"problem": "onesided", "principal": [0.0],
                       "solvable_as_equality": False, "residual": 0.0,
                       "instance": instance}
            for stored in (payload, dict(payload, principal="abc")):
                with pytest.raises(FiniteRequiredError, match=message):
                    verify_payload(parse_solution(json.dumps(stored)))
                self._write(sol, stored)
                assert main(["check", "--input", str(sol)]) == EXIT_INPUT
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["tslp", "tslp2", "star", "mcm"])
    def test_solve_runs_karp_at_most_once(self, kind, monkeypatch):
        rng = np.random.default_rng(65)
        inst = parse_instance(json.dumps(util.golden_instance_obj(rng, kind)))
        calls = util.count_calls(monkeypatch, closure.max_cycle_mean)
        solve_to_payload(inst, 1e-9)
        assert len(calls) <= 1

    def test_tol_flag_loosens_divergence(self, tmp_path):
        inst = tmp_path / "inst.json"
        self._write(inst, {"problem": "star", "A": [[1e-12]]})
        assert main(["solve", "--input", str(inst), "--tol", "1e-9"]) == EXIT_OK
        assert main(["solve", "--input", str(inst), "--tol", "1e-15"]) == EXIT_INFEASIBLE

    def test_instance_tol_respected(self, tmp_path):
        inst = tmp_path / "inst.json"
        self._write(inst, {"problem": "star", "A": [[1e-12]], "tol": 1e-15})
        assert main(["solve", "--input", str(inst)]) == EXIT_INFEASIBLE


# A three-cycle of mean 8e-10: positive, but within the default tol 1e-9.
WITHIN_TOL = [[-5, 1, -5], [-5, -5, 1], [-1.9999999976, -5, -5]]


@st.composite
def planted_cycles(draw, max_mean=0.999e-9):
    """(A, d, c) with one planted cycle of mean in [1e-12, max_mean] in A.
    Its arcs but one are integers in [-3, 3], so a segment of it weighs at
    most 22, and every arc off it is below -25: every other cycle is negative.
    The default mean stays 1e-12 below tol = 1e-9, far above the rounding of
    sums of this size; at a mean of exactly tol see test_mean_equal_to_tol."""
    n = draw(st.integers(min_value=1, max_value=8))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    a = rng.uniform(-30, -25, (n, n))
    nodes = rng.permutation(n)[:draw(st.integers(min_value=1, max_value=n))]
    weights = rng.integers(-3, 4, len(nodes)).astype(float)
    mean = draw(st.floats(min_value=1e-12, max_value=max_mean))
    weights[-1] = len(nodes) * mean - weights[:-1].sum()
    a[nodes, np.roll(nodes, -1)] = weights
    return a.tolist(), rng.uniform(-10, 10, n).tolist(), rng.uniform(-10, 10, n).tolist()


class TestCycleMeanWithinTol:
    """A maximum cycle mean in (0, tol] is accepted as feasible, and the
    answer is swept from A - lambda, so its own certificate holds."""

    @staticmethod
    def _objs(a, d, c):
        return [{"problem": "tslp", "A": a, "d": d, "c": c},
                {"problem": "tslp2", "A": a, "d": d, "c": c},
                {"problem": "star", "A": a}]

    @pytest.mark.parametrize("obj", _objs(WITHIN_TOL, [0, 0, 0], [0, 0, 0]),
                             ids=lambda obj: obj["problem"])
    def test_reproducer_solves_and_checks(self, obj, tmp_path, capsys):
        inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
        inst.write_text(json.dumps(obj))
        assert main(["solve", "--input", str(inst), "--output", str(sol)]) == EXIT_OK
        assert main(["check", "--input", str(sol)]) == EXIT_OK

    @settings(max_examples=150, deadline=None)
    @given(planted_cycles())
    def test_planted_cycle_solves_and_checks(self, acd):
        lam = closure.max_cycle_mean(TropMatrix(acd[0])).lambda_
        assert 0 < lam <= 1e-9
        for obj in self._objs(*acd):
            payload, code = solve_to_payload(parse_instance(json.dumps(obj)), 1e-9)
            assert code == EXIT_OK
            assert verify_payload(payload) == []

    @pytest.mark.parametrize("kind", ["tslp", "tslp2"])
    def test_mean_equal_to_tol(self, kind):
        obj = {"problem": kind, "A": [[1e-9]], "d": [-9.180529521276107], "c": [0]}
        payload, code = solve_to_payload(parse_instance(json.dumps(obj)), 1e-9)
        assert code == EXIT_OK
        assert verify_payload(payload) == []

    @pytest.mark.parametrize("kind", ["tslp", "tslp2"])
    @settings(max_examples=150, deadline=None)
    @given(planted_cycles(max_mean=1e-9))
    @example(([[1e-9]], [-9.180529521276107], [0.0]))
    def test_solve_never_writes_what_check_rejects(self, kind, acd):
        # solve and check decide each certificate by the same rule on the
        # same floats, so an answer solve writes with exit 0 always checks
        a, d, c = acd
        inst = parse_instance(json.dumps({"problem": kind, "A": a, "d": d, "c": c}))
        try:
            payload, code = solve_to_payload(inst, 1e-9)
        except CertificateViolationError:
            return
        assert code != EXIT_OK or verify_payload(payload) == []


def _near_tol_cycles(count, seed):
    """(A, d, c) with arcs in [-200, -100] and one planted cycle of mean
    1e-9 times 1, 1 + 1e-6 or 1 - 1e-6, its arcs drawn in [-50, 50]: Karp's
    ratio and the witness's summed mean round to either side of tol = 1e-9."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(3, 9))
        a = rng.uniform(-200, -100, (n, n))
        nodes = rng.permutation(n)[:int(rng.integers(1, n + 1))]
        weights = rng.uniform(-50, 50, len(nodes))
        weights[-1] = len(nodes) * 1e-9 * (1, 1 + 1e-6, 1 - 1e-6)[k % 3] - weights[:-1].sum()
        a[nodes, np.roll(nodes, -1)] = weights
        yield a.tolist(), rng.uniform(-10, 10, n).tolist(), rng.uniform(-10, 10, n).tolist()


def test_divergent_payloads_near_tol_check():
    # solve decides divergence with the lambda it stores, the witness's summed
    # mean, which is the float check recomputes; with Karp's ratio instead,
    # 4 payloads of each kind here were rejected by their own check
    rejected = []
    for a, d, c in _near_tol_cycles(300, 0):
        for obj in TestCycleMeanWithinTol._objs(a, d, c):
            try:
                payload, code = solve_to_payload(parse_instance(json.dumps(obj)), 1e-9)
            except CertificateViolationError:
                continue  # the absolute tol of near-tol sums, not divergence
            if code == EXIT_INFEASIBLE and verify_payload(payload):
                rejected.append(obj)
    assert rejected == []


GOLDEN = util.TESTS / "golden"
# the golden files of the two failure statuses
FAILURES = ("infeasible-lambda-positive", "divergent-star")


def _fresh_solution(name, tmp_path):
    """Solve the committed golden instance `name`; return the solution as JSON."""
    out = tmp_path / "fresh.json"
    main(["solve", "--input", str(GOLDEN / f"{name}.instance.json"),
          "--output", str(out)])
    return json.loads(out.read_text())


def _check(doc, tmp_path, *flags):
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    return main(["check", "--input", str(path), *flags])


class TestTolRule:
    @pytest.mark.parametrize("value", [-1, -1e-12, float("nan"), float("inf"),
                                       True, "1e-9", None, [1e-9]])
    def test_rejected(self, value):
        with pytest.raises(InstanceFormatError, match="tol must be"):
            check_tol(value)

    @pytest.mark.parametrize("value", [0, 0.0, 1e-9, 2])
    def test_accepted(self, value):
        assert check_tol(value) == float(value)

    def test_instance_tol_uses_the_rule(self):
        with pytest.raises(InstanceFormatError, match="tol must be"):
            parse_instance('{"problem":"mcm","A":[[1]],"tol":1e400}')

    def test_payload_tol_and_override_use_the_rule(self):
        inst = parse_instance('{"problem":"mcm","A":[[1]]}')
        payload, _ = solve_to_payload(inst, 1e-9)
        for tol, override in ((float("inf"), None), (1e-9, float("inf")),
                              (1e-9, float("nan")), (1e-9, -1.0)):
            with pytest.raises(InstanceFormatError, match="tol must be"):
                verify_payload(dict(payload, tol=tol), override)

    def test_check_tol_flag_cannot_forgive_tampering(self, tmp_path, capsys):
        doc = _fresh_solution("dual", tmp_path)
        doc["objective"] += 5
        doc["pi"] = [100, 100]
        assert _check(doc, tmp_path) == EXIT_CERTIFICATE
        for flag in ("inf", "nan", "-inf", "-1"):
            assert _check(doc, tmp_path, f"--tol={flag}") == EXIT_INPUT
        assert "tol must be" in capsys.readouterr().err

    def test_solve_tol_precedence(self):
        # --tol, else the instance's tol, else the default, as check's order
        inst = parse_instance('{"problem":"mcm","A":[[1]],"tol":0.5}')
        assert solve_to_payload(inst)[0]["tol"] == 0.5
        assert solve_to_payload(inst, 0.25)[0]["tol"] == 0.25
        assert solve_to_payload(parse_instance('{"problem":"mcm","A":[[1]]}'))[0]["tol"] == 1e-9

    def test_solve_checks_tol_after_parsing_and_before_the_domain(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        for text, message in [('{"problem": "star", "A": [[1, 2]', "invalid JSON"),
                              ('{"problem": "star", "A": [[1, 2]]}', "tol must be")]:
            inst.write_text(text)
            assert main(["solve", "--input", str(inst), "--tol=nan"]) == EXIT_INPUT
            assert message in capsys.readouterr().err

    def test_stored_tol_decides_unless_overridden(self, tmp_path, capsys):
        # a file's tol is part of what it claims: check decides at it unless
        # --tol is given
        doc = json.loads((GOLDEN / "mcm.solution.json").read_text())
        doc["lambda"] += 5
        doc["tol"] = 1e300
        assert _check(doc, tmp_path) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert _check(doc, tmp_path, "--tol", "1e-9") == EXIT_CERTIFICATE
        assert capsys.readouterr().err == (
            "troplp: certificate violation: witness cycle mean 1.0 != lambda 6.0\n")

    @pytest.mark.parametrize("obj", [
        {"problem": "star", "A": [[1]]},
        {"problem": "gap", "A": [[0.5]], "b": [1.5], "c": [0]},
    ])
    @pytest.mark.parametrize("flag", ["nan", "inf", "-inf", "-1"])
    def test_solve_tol_flag(self, obj, flag, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(obj))
        assert main(["solve", "--input", str(inst), f"--tol={flag}"]) == EXIT_INPUT
        assert "tol must be" in capsys.readouterr().err


class TestAbsoluteTolAtLargeEntries:
    """Answers whose entries are large check, as the A-b-c kinds decide
    feasibility on the residuated differences the solvers take.  dual and
    the integer kinds refuse an instance past 2^50 (exit 2): past 2^52 the
    integer lattice cannot be represented at all, and the roundings of the
    dual witness put it off its rule."""

    @pytest.mark.parametrize("obj, code", [
        pytest.param({"problem": "primal",
                      "A": [[47699910.1, 60537069.1], [-50629076.5, 9539710.1],
                            [-40342746.8, 39560781.1]],
                      "b": [1.6, 2.2, 3.1], "c": [3.0, 1.0]}, EXIT_OK,
                     id="primal-5e7"),
        pytest.param({"problem": "dual", "A": [[-937663.17], [-51128151.35], [64801275.73]],
                      "b": [4.0, 2.0, 0.0], "c": [-1.6]}, EXIT_OK,
                     id="dual-6e7"),
        pytest.param({"problem": "dual-integer", "A": [[-4503599627370496, 0]], "b": [0.5],
                      "c": [0, -3]}, EXIT_INPUT,
                     id="dual-integer-2^52"),
        pytest.param({"problem": "dual", "A": [[-4503599627370496, 0]], "b": [0.5],
                      "c": [0, -3]}, EXIT_INPUT,
                     id="dual-2^52"),
        pytest.param({"problem": "primal-integer", "A": [[35958365.6]], "b": [-0.4],
                      "c": [-1.3]}, EXIT_OK,
                     id="primal-integer-3.6e7"),
        pytest.param({"problem": "dual-integer", "A": [[41269077.9]], "b": [-4.0],
                      "c": [-0.1]}, EXIT_OK,
                     id="dual-integer-4.1e7"),
        pytest.param({"problem": "gap", "A": [[45126766.2]], "b": [2.2], "c": [-4.6]},
                     EXIT_OK, id="gap-4.5e7"),
    ])
    def test_fresh_answer_checks(self, obj, code, tmp_path, capsys):
        inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
        inst.write_text(json.dumps(obj))
        assert main(["solve", "--input", str(inst), "--output", str(sol)]) == code
        if code == EXIT_INPUT:
            assert capsys.readouterr().err == (
                "troplp: input error: the largest finite |b_i - a_ij| plus the largest "
                "|c_j| must be at most 2^50, got 4503599627370499.0\n")
        else:
            assert main(["check", "--input", str(sol)]) == EXIT_OK


class TestCheckMalformedFields:
    """check answers every malformed stored field with exit 2 or 3."""

    @pytest.mark.parametrize("name,field,value", [
        ("mcm", "witness_cycle", ["a"]),
        ("mcm", "witness_cycle", [0.7]),
        ("mcm", "witness_cycle", [True, 1, 2]),
        ("mcm", "witness_cycle", [0, 1, 3]),
        ("infeasible-lambda-positive", "witness_cycle", []),
        ("divergent-star", "witness_cycle", []),
        ("primal", "objective", "abc"),
        ("gap", "lower", "abc"),
        ("primal", "status", "divergent-star"),
        ("star", "status", "infeasible-lambda-positive"),
        ("tslp", "status", "ok"),
        ("mcm", "potential", [0.0, 1.0]),
        ("mcm", "potential", [0.0, "-inf", 1.0]),
    ])
    def test_reported_as_problem(self, name, field, value, tmp_path, capsys):
        doc = _fresh_solution(name, tmp_path)
        doc[field] = value
        assert _check(doc, tmp_path) == EXIT_CERTIFICATE
        assert "troplp: certificate violation:" in capsys.readouterr().err

    @pytest.mark.parametrize("name, key", [
        pytest.param(name, key, id=f"{name}-{key}")
        for name in KINDS + FAILURES
        for key, _ in (_DIVERGENT if name in FAILURES else _KINDS[name].stored)])
    def test_each_missing_stored_field(self, name, key, tmp_path, capsys):
        fresh = _fresh_solution(name, tmp_path)
        del fresh[key]
        assert _check(fresh, tmp_path) == EXIT_CERTIFICATE
        assert capsys.readouterr().err == (
            f"troplp: certificate violation: {key}: missing from the solution\n")

    def test_fractional_cycle_node_not_truncated(self):
        payload, _ = solve_to_payload(parse_instance('{"problem":"mcm","A":[[1]]}'), 1e-9)
        assert payload["witness_cycle"] == [0] and verify_payload(payload) == []
        problems = verify_payload(dict(payload, witness_cycle=[0.7]))
        assert len(problems) == 1 and problems[0].startswith("witness_cycle:")

    # check does not read these: they are metadata
    UNREAD = ("tool", "version")
    WRONG = ("abc", True, None, ["a"], [0.7], {"a": 1})

    @pytest.mark.parametrize("name", KINDS + FAILURES)
    def test_every_read_field_rejects_wrong_types(self, name, tmp_path, capsys):
        fresh = _fresh_solution(name, tmp_path)
        assert _check(fresh, tmp_path) == EXIT_OK
        accepted = []
        for field in fresh:
            if field in self.UNREAD:
                continue
            for value in self.WRONG:
                if value == fresh[field]:
                    continue
                code = _check(dict(fresh, **{field: value}), tmp_path)
                if code not in (EXIT_INPUT, EXIT_CERTIFICATE):
                    accepted.append((field, value, code))
        assert accepted == []


# A valid instance of every kind draws its fields from here; every cycle mean
# of A is negative, so the two-sided kinds are feasible.
_DOMAIN_BASE = {"A": [[-1.0, -0.5], [-0.25, -2.0]], "b": [1.0, 2.0],
                "c": [0.0, 0.5], "d": [0.0, 1.0]}
_SQUARE_KINDS = ("tslp", "tslp2", "star", "mcm")


def _domain_damages():
    """(kind, what the message names, damaged instance): "-inf" in each
    vector, an all "-inf" column and row of A where residuation needs a
    finite entry in each, a non-square A where the star needs a square one
    (also as an all "-inf" column too many), and each vector one entry
    short."""
    for kind, spec in _KINDS.items():
        base = {"problem": kind, **{key: _DOMAIN_BASE[key] for key in spec.fields}}
        for key in spec.fields[1:]:
            value = list(base[key])
            value[1] = "-inf"
            yield pytest.param(kind, key, dict(base, **{key: value}), id=f"{kind}-eps-{key}")
        if kind in _SQUARE_KINDS:
            for eps, id_ in (("-inf", "eps-A"), (0.0, "non-square")):
                yield pytest.param(kind, "A", dict(base, A=[row + [eps] for row in base["A"]]),
                                   id=f"{kind}-{id_}")
        else:
            yield pytest.param(kind, "A; column 1", dict(base, A=[[-1.0, "-inf"],
                                                                   [-0.25, "-inf"]]),
                               id=f"{kind}-eps-A")
            yield pytest.param(kind, "A; row 1", dict(base, A=[[-1.0, -0.5], ["-inf", "-inf"]]),
                               id=f"{kind}-eps-row-A")
        for key in spec.fields[1:]:
            yield pytest.param(kind, key, dict(base, **{key: base[key][:-1]}),
                               id=f"{kind}-short-{key}")


def _r_astic(rng, m, n, decimals, high):
    """An m-by-n A, integer or one-decimal in [-5, high], with at least 30 %
    epsilon and a finite entry in every row and column (doubly R-astic)."""
    while True:
        a = np.round(rng.uniform(-5.0, high, (m, n)), decimals)
        a[rng.random((m, n)) < 0.45] = E
        finite = a > E
        if finite.any(axis=0).all() and finite.any(axis=1).all() and (~finite).mean() >= 0.3:
            return a


def _solve_and_check(obj, tmp_path) -> dict:
    """The solution troplp solve writes for obj, after both commands exit 0."""
    inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    inst.write_text(json.dumps(obj))
    assert main(["solve", "--input", str(inst), "--output", str(sol)]) == EXIT_OK
    assert main(["check", "--input", str(sol)]) == EXIT_OK
    return json.loads(sol.read_text())


class TestDomain:
    """Parsing reads the format; solve and check run the kind's domain guard
    and exit 2 on an instance outside it, with the same message.  Inside it,
    epsilon in A included, both exit 0 with the oracles' answers."""

    def test_eps_where_the_closed_forms_hold(self, tmp_path):
        # residuation needs a finite entry in every row and column of A, the
        # star a square A: epsilon elsewhere solves and checks, and the
        # answers are the oracles'
        rng = np.random.default_rng(22)
        for decimals, _ in itertools.product((0, 1), range(30)):
            m, n = (int(v) for v in rng.integers(2, 5, 2))
            a = TropMatrix(_r_astic(rng, m, n, decimals, 5.0))
            b, c, d = (np.round(rng.uniform(-5.0, 5.0, k), decimals) for k in (m, n, n))
            abc = {"A": util.rows_obj(a), "b": b.tolist(), "c": c.tolist()}
            got = {kind: _solve_and_check(dict(abc, problem=kind), tmp_path)
                   for kind in ("primal", "dual", "primal-integer", "dual-integer", "gap")}
            assert got["primal"]["objective"] == pytest.approx(got["dual"]["objective"],
                                                               abs=1e-9)
            inst = lp.LpInstance(a, TropVector(b), TropVector(c))
            lower = brute_primal_integer(inst, primal_box(inst))[1]
            upper = brute_dual_integer(inst, dual_box(inst))[1]
            assert [got["primal-integer"]["objective"], got["gap"]["lower"]] == pytest.approx(
                [lower] * 2, abs=1e-9)
            assert [got["dual-integer"]["objective"], got["gap"]["upper"]] == pytest.approx(
                [upper] * 2, abs=1e-9)
            square = TropMatrix(_r_astic(rng, n, n, decimals, 0.0))
            y = core.tmul(brute_star(square), TropVector(d)).data
            for kind in ("tslp", "tslp2"):
                solved = _solve_and_check({"problem": kind, "A": util.rows_obj(square),
                                           "d": d.tolist(), "c": c.tolist()}, tmp_path)
                np.testing.assert_allclose(solved["y"], y, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("kind, key, damaged", list(_domain_damages()))
    def test_damaged_instance_is_input_error(self, kind, key, damaged, tmp_path, capsys):
        named = re.compile(rf"^troplp: input error: .*\b{key}\b.*\n$")
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(damaged))
        assert main(["solve", "--input", str(path)]) == EXIT_INPUT
        solve_err = capsys.readouterr().err
        assert named.match(solve_err), solve_err
        base = {key: _DOMAIN_BASE[key] for key in _KINDS[kind].fields}
        payload, code = solve_to_payload(parse_instance(json.dumps(dict(base, problem=kind))),
                                         1e-9)
        assert code == EXIT_OK and verify_payload(payload) == []
        assert _check(dict(payload, instance=damaged), tmp_path) == EXIT_INPUT
        assert capsys.readouterr().err == solve_err


def _stored_names(stored) -> str:
    return " ".join(key for key, _ in stored)


class TestKindTable:
    README = (util.TESTS.parent / "README.md").read_text(encoding="utf-8")

    def test_readme_lists_every_kind_and_its_fields(self):
        rows = re.findall(r"^\| `([a-z0-9-]+)` +\| `([A-Za-z ]+)` +\|", self.README, re.M)
        assert dict(rows) == {kind: " ".join(spec.fields)
                              for kind, spec in _KINDS.items()}
        assert len(rows) == len(KINDS)

    def test_readme_lists_every_kind_and_its_stored_fields(self):
        rows = re.findall(r"^\| `([a-z0-9-]+)` +\| `[A-Za-z ]+` +\| `([a-z_ ]+)` +\|",
                          self.README, re.M)
        assert dict(rows) == {kind: _stored_names(spec.stored) for kind, spec in _KINDS.items()}
        assert len(rows) == len(KINDS)
        failures = re.findall(r"The failure statuses \(.*?\) store `([a-z_ ]+)`\.",
                              " ".join(self.README.split()))
        assert failures == [_stored_names(_DIVERGENT)]


def _solve_then_check(obj, tmp_path) -> tuple[int, int | None]:
    """solve's exit for obj, and check's on the solution it wrote, if any."""
    inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    inst.write_text(json.dumps(obj))
    sol.unlink(missing_ok=True)
    solved = main(["solve", "--input", str(inst), "--output", str(sol)])
    return solved, main(["check", "--input", str(sol)]) if sol.exists() else None


# the cycle 1 -> 2 -> 1 has mean 1, and the arcs 0 -> 1 -> 0 weigh +-1e17
_ABSORBED = {"A": [[E, 1e17, E], [-1e17, E, 1.0], [E, 1.0, E]],
             "d": [0.0] * 3, "c": [0.0] * 3}
# the self-loops are the only cycles, node 2's of weight 9.37 the heaviest,
# and the arcs 1 -> 2 and 2 -> 0 weigh about 5e240
_HEAVY_LOOP = {"A": [[-5.575147500136568, E, E],
                     [-7.001624713688663, -6.501019054290809, 5.245235341413295e+240],
                     [5.402802652180068e+240, E, 9.373040652953213]],
               "d": [0.0] * 3, "c": [0.0] * 3}
# the cycle 1 -> 2 -> 1 has mean -0.72, and the arc 0 -> 2, on no cycle,
# weighs 2.7e218
_NEGATIVE_CYCLE = {"A": [[E, -7.59578178904595, 2.7446303542739914e+218],
                         [E, -9.424817658228612, 4.80687032119333],
                         [E, -6.2545515933706675, E]]}
_DIVERGENT_CASES = [(_ABSORBED, 1.0, [2, 1]), (_HEAVY_LOOP, 9.373040652953213, [2])]
_DIVERGENT_IDS = ["positive-arc-cycle", "self-loop"]


class TestAbsorbedCycle:
    """A small cycle beside far larger arcs, whose sums absorb it in Karp's
    walk table: the table's lambda is 0.0 beside the cycle of positive arcs
    1 -> 2 -> 1, below the self-loop of weight 9.37, and, at -9.42, below
    the cycle 1 -> 2 -> 1 of mean -0.72.  max_cycle_mean's lower-bound rule
    names each cycle, so mcm stores its mean and the other graph kinds
    refuse the first two, and every check passes."""

    @pytest.mark.parametrize("case, lam, cycle", _DIVERGENT_CASES + [
        (_NEGATIVE_CYCLE, -0.7238406360886689, [2, 1])],
        ids=_DIVERGENT_IDS + ["negative-cycle"])
    def test_mcm_finds_the_cycle(self, case, lam, cycle, tmp_path):
        obj = {"problem": "mcm", "A": util.rows_obj(TropMatrix(case["A"]))}
        assert _solve_then_check(obj, tmp_path) == (EXIT_OK, EXIT_OK)
        solved = json.loads((tmp_path / "sol.json").read_text())
        assert (solved["lambda"], solved["witness_cycle"]) == (lam, cycle)

    @pytest.mark.parametrize("case, lam, cycle", _DIVERGENT_CASES, ids=_DIVERGENT_IDS)
    @pytest.mark.parametrize("kind", ["star", "tslp", "tslp2"])
    def test_star_kinds_refuse(self, kind, case, lam, cycle, tmp_path):
        obj = {key: case[key] for key in _KINDS[kind].fields}
        obj = dict(obj, problem=kind, A=util.rows_obj(TropMatrix(case["A"])))
        assert _solve_then_check(obj, tmp_path) == (EXIT_INFEASIBLE, EXIT_OK)
        solved = json.loads((tmp_path / "sol.json").read_text())
        assert (solved["lambda"], solved["witness_cycle"]) == (lam, cycle)


def test_tslp2_kind_past_the_rounding_gate(tmp_path):
    # the exact lambda is -1.8e272, on the cycle 0 -> 2 -> 1 -> 0, yet the
    # heaviest diagonal entry of A A*, at 1e288, rounds to -tol or above;
    # past the rounding gate Karp decides the kind
    a = [[E, -3.679596494418056e+288, 6.043005560881908e+288],
         [-3.679596494418056e+288, E, -3.679596494418056e+288],
         [E, -2.3634090664638527e+288, E]]
    obj = {"problem": "tslp2", "A": util.rows_obj(TropMatrix(a)), "d": [0.0] * 3,
           "c": [0.0] * 3}
    assert _solve_then_check(obj, tmp_path) == (EXIT_OK, EXIT_OK)
    solved = json.loads((tmp_path / "sol.json").read_text())
    assert solved["solution_kind"] == "unique-fixed-point"


_EDGE_VALUES = (0.0, -0.0, 1e-10, -1e-10, 5e-10, 0.1, -0.1, 0.2, -0.3, 1.0, -1.0,
                3.5, 1e15, 2.0 ** 52, 1e300, -1e300)


def test_graph_kinds_never_raise(tmp_path, capsys):
    # square, epsilon-heavy A with n <= 6 from values at the edges of tol,
    # of the float spacing and of the input bound: every solve and check
    # returns a documented exit code
    rng = np.random.default_rng(75)
    codes = set()
    for i in range(600):
        kind = ("star", "mcm", "tslp", "tslp2")[i % 4]
        n = int(rng.integers(1, 7))
        eps = rng.random((n, n)) < rng.uniform(0.3, 0.9)
        a = np.where(eps, E, rng.choice(_EDGE_VALUES, (n, n)))
        obj = {"problem": kind, "A": util.rows_obj(TropMatrix(a))}
        if kind in ("tslp", "tslp2"):
            obj.update(d=rng.choice(_EDGE_VALUES, n).tolist(),
                       c=rng.choice(_EDGE_VALUES, n).tolist())
        solved, checked = _solve_then_check(obj, tmp_path)
        assert solved in (0, 1, 2, 3) and checked in (None, 0, 1, 2, 3), obj
        codes.add((kind, solved, checked))
    capsys.readouterr()
    assert {(kind, 0, 0) for kind in ("star", "mcm", "tslp", "tslp2")} <= codes
    assert {(kind, 1, 0) for kind in ("star", "tslp", "tslp2")} <= codes

"""File formats, certificate re-validation, and the command-line front end."""

import argparse
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import util
from troplp import (EPSILON, CertificateViolationError, InstanceFormatError,
                    TropMatrix, closure, intlp, twosided)
from troplp.cli import main
from troplp.io import (_KINDS, _MAX_ENTRY, EXIT_CERTIFICATE, EXIT_INFEASIBLE,
                       EXIT_INPUT, EXIT_OK, KINDS, _number, _read_array,
                       check_tol, parse_instance, parse_solution, render_text,
                       serialize_solution, solve_to_payload, verify_payload)

E = EPSILON


class TestParseInstance:
    def test_valid_primal(self):
        inst = parse_instance(
            '{"problem":"primal","A":[[1,2],[3,4]],"b":[5,6],"c":[0,0]}')
        assert inst.problem == "primal"
        assert inst.a.to_lists() == [[1.0, 2.0], [3.0, 4.0]]
        assert inst.b.to_list() == [5.0, 6.0]

    def test_mcm_accepts_eps(self):
        inst = parse_instance(
            '{"problem":"mcm","A":[["-inf",1],["-inf","-inf"]]}')
        assert inst.a[0, 0] == E

    def test_eps_in_finite_only_field(self):
        with pytest.raises(InstanceFormatError, match="-inf"):
            parse_instance('{"problem":"dual","A":[[1,"-inf"]],"b":[0],"c":[0,0]}')

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
        with pytest.raises(InstanceFormatError, match="length"):
            parse_instance('{"problem":"primal","A":[[1,2]],"b":[0,0],"c":[0,0]}')

    def test_square_required_for_star(self):
        with pytest.raises(InstanceFormatError, match="square"):
            parse_instance('{"problem":"star","A":[[1,2]]}')

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


def _reference_read(value, ndim, allow_eps, where):
    """Entry-by-entry reader with the wording _read_array must reproduce."""
    if not isinstance(value, list) or not value:
        noun = "numbers" if ndim == 1 else "rows"
        raise InstanceFormatError(f"{where}: expected a non-empty list of {noun}")
    if ndim == 1:
        return np.array([_number(v, allow_eps, f"{where}[{i}]") for i, v in enumerate(value)])
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise InstanceFormatError(f"{where}: row {i} is not a non-empty list")
        if len(row) != len(value[0]):
            raise InstanceFormatError(
                f"{where}: row {i} has length {len(row)}, expected {len(value[0])}")
        rows.append([_number(v, allow_eps, f"{where}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(rows)


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
    st.sampled_from(["1.5", " -inf", "-Infinity", "x", "",
                     float("nan"), float("inf"), float("-inf"),
                     10**400, -10**400, 2**1024 - 2**970, 1 - 2**1024 + 2**970]),
    st.floats(), st.lists(_GOOD_CELL, max_size=2))
_CELL = st.one_of(_GOOD_CELL, _GOOD_CELL, _GOOD_CELL, _BAD_CELL)
_ROW = st.one_of(st.lists(_CELL, min_size=3, max_size=3), st.lists(_CELL, max_size=4), _CELL)


class TestReadArray:
    """The vectorized reader agrees with an entry-by-entry reference."""

    @settings(max_examples=400, deadline=None)
    @given(value=st.one_of(st.lists(_CELL, max_size=5), st.lists(_ROW, max_size=4), _CELL),
           ndim=st.sampled_from([1, 2]), allow_eps=st.booleans())
    def test_matches_entry_by_entry_reference(self, value, ndim, allow_eps):
        args = (value, ndim, allow_eps, "A")
        assert _outcome(_read_array, *args) == _outcome(_reference_read, *args)

    @pytest.mark.parametrize("value,ndim,message", [
        ([[1, "x"]], 2, "A[0][1]: expected a number, got 'x'"),
        ([[True], [1, 2]], 2, "A[0][0]: booleans are not numbers"),
        ([[1], [1, 2]], 2, "A: row 1 has length 2, expected 1"),
        ([1, 10**400], 1, "A[1]: integer out of float range"),
        ([float("-inf")], 1, "A[0]: non-finite number -inf"),
    ])
    def test_messages(self, value, ndim, message):
        with pytest.raises(InstanceFormatError) as info:
            _read_array(value, ndim, True, "A")
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

    def test_every_kind_round_trips(self):
        rng = np.random.default_rng(61)
        for kind in KINDS:
            inst = parse_instance(json.dumps(util.golden_instance_obj(rng, kind)))
            payload, code = solve_to_payload(inst, 1e-9)
            assert code == EXIT_OK
            assert parse_solution(serialize_solution(payload)) == payload

    def test_render_text_smoke(self):
        rng = np.random.default_rng(62)
        inst = parse_instance(json.dumps(util.golden_instance_obj(rng, "mcm")))
        payload, _ = solve_to_payload(inst, 1e-9)
        text = render_text(payload)
        assert "lambda" in text and "problem: mcm" in text


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

    @pytest.mark.parametrize("kind", ["tslp", "tslp2"])
    def test_two_sided_residual_computed_once(self, kind, monkeypatch):
        # the solver's own self-check is the only residual solve computes
        inst = parse_instance(json.dumps(util.golden_instance_obj(
            np.random.default_rng(66), kind)))
        calls = util.count_calls(monkeypatch, twosided.two_sided_lhs)
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
                   "instance": {"problem": "mcm", "A": rows}}
        problems = verify_payload(payload)
        assert (problems == []) == ok
        if not ok:
            assert problems == ["lambda = -inf claimed but the digraph has a cycle"]

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
            ("solve --input {inst} --output {sol} --tol 1e-9 --format json", EXIT_OK),
            ("solve --input {inst} --format text", EXIT_OK),
            ("check --input {sol}", EXIT_OK),
            ("check --input {sol} --format text", EXIT_OK),
            ("star --input {matrix}", EXIT_OK),
            ("mcm --input {matrix} --format text", EXIT_OK),
            ("solve --input {divergent}", EXIT_INFEASIBLE),
            ("check --input {tampered}", EXIT_CERTIFICATE),
            ("solve --input {missing}", EXIT_INPUT),
        ]
        for form, code in forms:
            if "{tampered}" in form:
                doc = json.loads(paths["sol"].read_text())
                doc["objective"] += 1.0
                paths["tampered"].write_text(json.dumps(doc))
            argv = form.format(**{k: str(v) for k, v in paths.items()}).split()
            assert main(argv) == code, form
        out = capsys.readouterr().out
        assert "objective: 0.0" in out and "status: passed" in out
        assert "lambda: -1.0" in out

    @pytest.mark.parametrize("argv", [["frobnicate", "--input", "inst.json"],
                                      ["solve"], ["check", "--output", "out.json"], []])
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

    def test_eps_b_onesided_check_reports_problem(self):
        payload = {"problem": "onesided", "principal": [0.0],
                   "solvable_as_equality": False, "residual": 0.0,
                   "instance": {"problem": "onesided", "A": [[0]], "b": ["-inf"]}}
        assert verify_payload(parse_solution(json.dumps(payload))) \
            == ["one-sided solvers require a finite b"]

    @pytest.mark.parametrize("kind", ["tslp", "tslp2", "star", "mcm"])
    def test_solve_runs_karp_at_most_once(self, kind, monkeypatch):
        rng = np.random.default_rng(65)
        inst = parse_instance(json.dumps(util.golden_instance_obj(rng, kind)))
        calls = util.count_calls(monkeypatch, closure.max_cycle_mean)
        solve_to_payload(inst, 1e-9)
        assert len(calls) <= 1

    def test_text_format(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        self._write(inst, {"problem": "mcm", "A": [[1]]})
        assert main(["solve", "--input", str(inst), "--format", "text"]) == EXIT_OK
        assert "lambda: 1.0" in capsys.readouterr().out

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


GOLDEN = util.TESTS / "golden"


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
    ])
    def test_reported_as_problem(self, name, field, value, tmp_path, capsys):
        doc = _fresh_solution(name, tmp_path)
        doc[field] = value
        assert _check(doc, tmp_path) == EXIT_CERTIFICATE
        assert "troplp: certificate violation:" in capsys.readouterr().err

    def test_fractional_cycle_node_not_truncated(self):
        payload, _ = solve_to_payload(parse_instance('{"problem":"mcm","A":[[1]]}'), 1e-9)
        assert payload["witness_cycle"] == [0] and verify_payload(payload) == []
        problems = verify_payload(dict(payload, witness_cycle=[0.7]))
        assert len(problems) == 1 and problems[0].startswith("witness_cycle:")

    # check does not read these: they are metadata
    UNREAD = ("tool", "version")
    WRONG = ("abc", True, None, ["a"], [0.7], {"a": 1})

    @pytest.mark.parametrize("name", KINDS + ("infeasible-lambda-positive",
                                              "divergent-star"))
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


class TestKindTable:
    def test_readme_lists_every_kind_and_its_fields(self):
        readme = (util.TESTS.parent / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `([a-z0-9-]+)` +\| `([A-Za-z ]+)` +\|", readme, re.M)
        assert dict(rows) == {kind: " ".join(spec.fields)
                              for kind, spec in _KINDS.items()}
        assert len(rows) == len(KINDS)

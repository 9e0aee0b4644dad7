"""File formats, certificate re-validation, and the command-line front end."""

import json
import re

import numpy as np
import pytest

import util
from troplp import EPSILON, InstanceFormatError, closure, intlp
from troplp.cli import main
from troplp.io import (_KINDS, EXIT_CERTIFICATE, EXIT_INFEASIBLE, EXIT_INPUT,
                       EXIT_OK, KINDS, check_tol, parse_instance,
                       parse_solution, render_text, serialize_solution,
                       solve_to_payload, verify_payload)

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


class TestRoundTrip:
    def test_bit_exact_floats_and_eps(self):
        payload = {"problem": "mcm", "values": [0.1, 1e-17, -1e300, 3.0, E],
                   "nested": {"lambda": E}, "count": 3,
                   "instance": {"A": [[0.1 + 0.2]]}}
        again = parse_solution(serialize_solution(payload))
        assert again == payload

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
        assert payload["certificate"]["primal_residual"] <= 0.0

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
        assert payload["certificate"]["width"] == 1.0
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
        if payload[field] == E:  # an acyclic mcm draw: tamper to a number
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

    def test_tampered_witness_detected(self):
        inst = parse_instance(
            '{"problem":"primal","A":[[1,2],[3,4]],"b":[5,6],"c":[0,0]}')
        payload, _ = solve_to_payload(inst, 1e-9)
        tampered = dict(payload)
        tampered["x"] = [4.0, 2.0]  # infeasible: exceeds the principal solution
        assert any("infeasible" in p for p in verify_payload(tampered))

    @pytest.mark.parametrize("rows,ok", [
        ([[E, 1], [E, E]], True),
        ([[E, 1], [-1, E]], False),
    ])
    def test_acyclic_mcm_claim_checked(self, rows, ok):
        payload = {"problem": "mcm", "lambda": E, "witness_cycle": None,
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

    def test_structurally_broken_solution_raises(self):
        with pytest.raises(InstanceFormatError):
            verify_payload({"problem": "primal", "instance": {"A": [[1]]}})


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

    # check does not read these: they are metadata or recomputed residuals
    UNREAD = ("tool", "version", "certificate")
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

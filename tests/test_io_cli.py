"""File formats, certificate re-validation, and the command-line front end."""

import json

import numpy as np
import pytest

import util
from troplp import EPSILON, InstanceFormatError, closure
from troplp.cli import main
from troplp.io import (EXIT_CERTIFICATE, EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK,
                       KINDS, parse_instance, parse_solution, render_text,
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

    def test_dual_integer_picks_method_by_b(self):
        integer_b = parse_instance(
            '{"problem":"dual-integer","A":[[1,2],[3,4]],"b":[5,6],"c":[0,0]}')
        payload, _ = solve_to_payload(integer_b, 1e-9)
        assert payload["method"] == "direct-integer-b"
        fractional_b = parse_instance(
            '{"problem":"dual-integer","A":[[1,2],[3,4]],"b":[5.5,6.25],"c":[0,0]}')
        payload, _ = solve_to_payload(fractional_b, 1e-9)
        assert payload["method"] == "iterative"
        assert payload["objective"] == 3.25


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

"""The certificate rules: `check` applies them without solving, and the
solvers' self-checks raise the line a rule gives."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import util
from troplp import (CertificateViolationError, TropMatrix, TropVector, certificates, core,
                    duality_gap, greatest_subsolution, kleene_star,
                    max_cycle_mean, solve_dual, solve_dual_integer, solve_equality,
                    solve_primal, solve_primal_integer, solve_tslp, solve_tslp2,
                    twosided)
from troplp.cli import main
from troplp.io import (EXIT_CERTIFICATE, KINDS, parse_instance, solve_to_payload,
                       verify_payload)

GOLDEN = util.TESTS / "golden"
NAMES = KINDS + ("infeasible-lambda-positive", "divergent-star")
SOLVERS = (solve_primal, solve_dual, greatest_subsolution, solve_equality,
           solve_primal_integer, solve_dual_integer, duality_gap, solve_tslp,
           solve_tslp2, kleene_star, max_cycle_mean)


@pytest.mark.parametrize("fresh", [True, False], ids=["fresh", "committed"])
@pytest.mark.parametrize("name", NAMES)
def test_check_calls_no_solver(name, fresh, monkeypatch):
    if fresh:
        payload, _ = solve_to_payload(
            parse_instance((GOLDEN / f"{name}.instance.json").read_text()), 1e-9)
    else:
        payload = json.loads((GOLDEN / f"{name}.solution.json").read_text())
    calls = [util.count_calls(monkeypatch, solver) for solver in SOLVERS]
    assert verify_payload(payload) == []
    assert {solver.__name__: len(made) for solver, made in zip(SOLVERS, calls)
            if made} == {}


def test_onesided_check_forms_ap_once(monkeypatch):
    # one product A p gives both the excess over b and the shortfall below it
    payload = json.loads((GOLDEN / "onesided.solution.json").read_text())
    products = util.count_calls(monkeypatch, core.tmul)
    assert verify_payload(payload) == []
    assert sum(isinstance(args[1], TropVector) for args in products) == 1


@pytest.mark.parametrize("name", ["dual", "dual-integer", "mcm"])
def test_row_products_form_no_matrix_product(name, monkeypatch):
    # pi'A and the potential's x'A are read off A itself: no transposed copy
    payload = json.loads((GOLDEN / f"{name}.solution.json").read_text())
    products = util.count_calls(monkeypatch, core.tmul)
    assert verify_payload(payload) == []
    assert products == []


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=st.floats(-1e6, 1e6) | st.just(core.EPSILON)), st.data())
def test_row_product_is_the_transposed_product(a, data):
    v = TropVector(data.draw(hnp.arrays(float, a.shape[0], elements=st.floats(-1e6, 1e6))))
    expected = core.tmul(core.transpose(TropMatrix(a)), v).data
    # the same sums and maxima; only the sign of a zero may come out otherwise
    assert np.array_equal(certificates._row_product(v, TropMatrix(a)), expected)


@pytest.mark.parametrize("kind,line", [
    ("tslp", "two-sided witness infeasible by 1.0"),
    ("tslp2", "fixed-point equation violated by 1.0"),
], ids=["tslp", "tslp2"])
def test_self_check_raises_the_rule_line(kind, line, monkeypatch, tmp_path, capsys):
    # a star lowered by 1 gives y = A* d - 1, which d exceeds by 1
    monkeypatch.setattr(twosided, "kleene_star",
                        lambda a, tol: TropMatrix(kleene_star(a, tol).data - 1))
    solver = solve_tslp if kind == "tslp" else solve_tslp2
    inst = twosided.TwoSidedInstance(TropMatrix([[-5]]), TropVector([0]), TropVector([0]))
    with pytest.raises(CertificateViolationError, match=f"^{line}$"):
        solver(inst)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"problem": kind, "A": [[-5]], "d": [0], "c": [0]}))
    assert main(["solve", "--input", str(path)]) == EXIT_CERTIFICATE
    assert capsys.readouterr().err == f"troplp: internal certificate violation: {line}\n"

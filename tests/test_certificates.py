"""The certificate rules: `check` applies them without solving, and the
solvers' self-checks raise the line a rule gives."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import exact
import util
from troplp import (CertificateViolationError, TropMatrix, TropVector, certificates, core,
                    duality_gap, greatest_subsolution, kleene_star,
                    max_cycle_mean, solve_dual, solve_dual_integer, solve_equality,
                    solve_primal, solve_primal_integer, solve_tslp, solve_tslp2,
                    twosided)
from troplp.cli import main
from troplp.errors import InstanceFormatError
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


@pytest.mark.parametrize("kind,a,solver,line", [
    ("tslp", [[-5, 1], [-5, -5]], "kleene_star", "two-sided witness infeasible by 1.0"),
    ("tslp", [[-5]], "_least_fixed_point", "two-sided witness infeasible by 1.0"),
    ("tslp2", [[-5]], "kleene_star", "fixed-point equation violated by 1.0"),
], ids=["tslp", "tslp-iterated", "tslp2"])
def test_self_check_raises_the_rule_line(kind, a, solver, line, monkeypatch, tmp_path,
                                         capsys):
    # a star or an iterated point lowered by 1 gives y = A* d - 1, which d
    # exceeds by 1; tslp takes the star only when A has a positive arc
    original = getattr(twosided, solver)

    def lowered(*args):
        found = original(*args)
        return type(found)(found.data - 1)

    monkeypatch.setattr(twosided, solver, lowered)
    solve = solve_tslp if kind == "tslp" else solve_tslp2
    d = [0] * len(a)
    inst = twosided.TwoSidedInstance(TropMatrix(a), TropVector(d), TropVector(d))
    with pytest.raises(CertificateViolationError, match=f"^{line}$"):
        solve(inst)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"problem": kind, "A": a, "d": d, "c": d}))
    assert main(["solve", "--input", str(path)]) == EXIT_CERTIFICATE
    assert capsys.readouterr().err == f"troplp: internal certificate violation: {line}\n"


_WITNESSES = {"primal": ("x",), "primal-integer": ("x",), "gap": ("x", "pi"),
              "dual": ("pi",), "dual-integer": ("pi",), "onesided": ("principal",)}
# the kinds that write a dual or an integer witness: past 2^52 the three
# roundings that build pi = fl(fl(c + fl(b - a)) - b) put it off its rule by
# up to a spacing, and the integer lattice cannot be represented
_BOUNDED = ("dual", "primal-integer", "dual-integer", "gap")


@pytest.mark.parametrize("scale", [1.0, 1e4, 2.0**24, 2.0**26, 1e8, 2.0**40, 1e15,
                                   2.0**56, 1e20, 1e50, 1e100, 1e200, 1e300],
                         ids=lambda m: f"{m:.2e}")
def test_fresh_abc_answers_check_at_every_magnitude(scale):
    # each witness exceeds its rule, computed exactly, by at most tol plus
    # half a spacing of the residuated difference; at small magnitude a real
    # witness, tight at some row, moved by 2 tol against its rule fails; past
    # 2^50 the kinds of _BOUNDED refuse the instance (exit 2)
    rng = np.random.default_rng([2026, int(np.log2(scale))])
    tol = 1e-9
    for _ in range(30):
        m, n = (int(v) for v in rng.integers(1, 4, 2))
        a = np.round(rng.uniform(-scale, scale, (m, n)), 1)
        b, c = np.round(rng.uniform(-5, 5, m), 1), np.round(rng.uniform(-5, 5, n), 1)
        for kind, witnesses in _WITNESSES.items():
            obj = {"problem": kind, "A": a.tolist(), "b": b.tolist(), "c": c.tolist()}
            if kind == "onesided":
                del obj["c"]
            inst = parse_instance(json.dumps(obj))
            if scale > 2.0**50 and kind in _BOUNDED:
                with pytest.raises(InstanceFormatError, match=r"at most 2\^50, got "):
                    solve_to_payload(inst, tol)
                continue
            payload, code = solve_to_payload(inst, tol)
            assert code == 0
            assert verify_payload(json.loads(json.dumps(payload))) == []
            for key in witnesses:
                w = np.array(payload[key], dtype=float)
                if key == "pi":
                    over = exact.dual(a, w, c) - np.spacing(np.abs(c - a)) / 2
                    assert (over.min(axis=0) <= tol).all()
                    moved, line = w - 2 * tol, "dual witness infeasible by"
                else:
                    over = exact.primal(a, w, b) - np.spacing(np.abs(b[:, None] - a)) / 2
                    assert (over <= tol).all()
                    moved, line = w.copy(), ("principal exceeds b by" if kind == "onesided"
                                             else "primal witness infeasible by")
                    moved[0] += 2 * tol
                if scale <= 1e4 and kind in ("primal", "dual", "onesided"):
                    tampered = dict(payload, **{key: moved.tolist()})
                    assert any(p.startswith(line) for p in verify_payload(tampered))

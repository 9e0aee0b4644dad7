"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with -s to
see them live).  Tolerances are pinned here and nowhere else.
"""

import json
import time

import numpy as np
import pytest

import util
from troplp import (EPSILON, CertificateViolationError, DivergentStarError,
                    LpInstance, TropMatrix, TropVector, approx_equal, certify,
                    estimate_via_floor_b, greatest_subsolution, kleene_star,
                    leq, max_cycle_mean, solve_dual, solve_dual_integer,
                    solve_primal, solve_primal_integer, solve_tslp,
                    solve_tslp2, tdot, tmul, transpose, tslp_feasible)
from troplp.cli import main
from troplp.io import parse_solution, serialize_solution
from troplp.oracles import (brute_cycle_mean, brute_dual_integer,
                            brute_primal_integer, brute_star,
                            descent_dual_integer, dual_box, primal_box)

TOL = 1e-9


def _report(num: int, description: str, violations: list, elapsed: float | None = None):
    status = "PASS" if not violations else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"{status} criterion {num:2d}: {description}{timing}")
    assert not violations, f"criterion {num}: {violations[:5]}"


def test_criterion_01_strong_duality():
    rng = np.random.default_rng(101)
    violations = []
    start = time.perf_counter()
    for k in range(1000):
        m, n = (int(v) for v in rng.integers(1, 9, 2))
        inst = util.lp_instance(rng, m, n)
        try:
            cert = certify(inst, TOL)
        except CertificateViolationError as exc:
            violations.append(f"instance {k}: {exc}")
            continue
        if abs(cert.f_max - cert.phi_min) > TOL:
            violations.append(f"instance {k}: gap {cert.f_max - cert.phi_min}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        violations.append(f"runtime {elapsed:.2f}s >= 5s")
    _report(1, "strong duality on 1000 random instances, both witnesses feasible",
            violations, elapsed)


def test_criterion_02_weak_duality():
    rng = np.random.default_rng(102)
    violations = []
    for k in range(100):
        m, n = (int(v) for v in rng.integers(1, 9, 2))
        inst = util.lp_instance(rng, m, n)
        x_opt, _ = solve_primal(inst)
        pi_opt, _ = solve_dual(inst)
        xs = x_opt.data[None, :] - np.abs(rng.uniform(0, 4, (100, n)))
        pis = pi_opt.data[None, :] + np.abs(rng.uniform(0, 4, (100, m)))
        f_vals = (inst.c.data[None, :] + xs).max(axis=1)
        phi_vals = (pis + inst.b.data[None, :]).max(axis=1)
        worst = float(np.max(f_vals - phi_vals))
        if worst > TOL:
            violations.append(f"instance {k}: violation {worst}")
    _report(2, "weak duality on 100x100 sampled feasible pairs", violations)


def test_criterion_03_max_cycle_mean_oracle():
    rng = np.random.default_rng(103)
    violations = []
    start = time.perf_counter()
    for k in range(200):
        n = int(rng.integers(1, 7))
        a = util.sparse_square(rng, n, density=0.7)
        karp = max_cycle_mean(a).lambda_
        brute = brute_cycle_mean(a)
        if brute == EPSILON:
            if karp != EPSILON:
                violations.append(f"matrix {k}: karp {karp}, brute eps")
        elif abs(karp - brute) > TOL:
            violations.append(f"matrix {k}: karp {karp}, brute {brute}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        violations.append(f"runtime {elapsed:.2f}s >= 5s")
    _report(3, "Karp equals brute cycle enumeration on 200 matrices",
            violations, elapsed)


def test_criterion_04_kleene_star_oracle():
    rng = np.random.default_rng(104)
    violations = []
    for k in range(200):
        n = int(rng.integers(1, 7))
        a = util.nonpositive_cycle_matrix(rng, n, sparse=bool(rng.integers(2)))
        star = kleene_star(a, TOL)
        if not approx_equal(star, brute_star(a), TOL):
            violations.append(f"matrix {k}: star differs from power sum")
        if not approx_equal(tmul(star, star), star, TOL):
            violations.append(f"matrix {k}: star not idempotent")
    for k in range(50):
        n = int(rng.integers(1, 7))
        a = util.positive_cycle_matrix(rng, n, excess=float(rng.uniform(0.1, 3)))
        try:
            kleene_star(a, TOL)
            violations.append(f"positive matrix {k}: no divergence error")
        except DivergentStarError:
            pass
    _report(4, "star equals power sum on 200 matrices, diverges on 50 positive",
            violations)


@pytest.fixture(scope="module")
def quarter_family():
    rng = np.random.default_rng(105)
    family = []
    for _ in range(200):
        m, n = (int(v) for v in rng.integers(1, 5, 2))
        inst = util.quarter_lp_instance(rng, m, n)
        family.append((inst, solve_dual_integer(inst, TOL), descent_dual_integer(inst, TOL)))
    return family


def test_criterion_05_integer_oracle_equivalence(quarter_family):
    violations = []
    start = time.perf_counter()
    for k, (inst, dual, (_, descent_phi, _)) in enumerate(quarter_family):
        primal = solve_primal_integer(inst, TOL)
        _, brute_f = brute_primal_integer(inst, primal_box(inst))
        if abs(primal.f_max_int - brute_f) > TOL:
            violations.append(f"instance {k}: primal {primal.f_max_int} vs {brute_f}")
        _, brute_phi = brute_dual_integer(inst, dual_box(inst))
        if abs(dual.phi_min_int - brute_phi) > TOL:
            violations.append(f"instance {k}: dual {dual.phi_min_int} vs {brute_phi}")
        if abs(descent_phi - brute_phi) > TOL:
            violations.append(f"instance {k}: descent {descent_phi} vs {brute_phi}")
        real = tdot(inst.c, greatest_subsolution(inst.a, inst.b))
        if not (primal.f_max_int <= real + TOL <= dual.phi_min_int + 2 * TOL):
            violations.append(f"instance {k}: sandwich broken")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        violations.append(f"runtime {elapsed:.2f}s >= 60s")
    _report(5, "integer primal, dual and descent match brute force on 200 instances",
            violations, elapsed)


def test_criterion_06_floor_regression_instance():
    inst = LpInstance(TropMatrix([[1, 2], [3, 4]]), TropVector([5.5, 6.25]),
                      TropVector([0, 0]))
    violations = []
    _, phi, _ = descent_dual_integer(inst, TOL)
    _, brute_phi = brute_dual_integer(inst, dual_box(inst))
    if abs(phi - 3.25) > TOL:
        violations.append(f"descent value {phi} != 3.25")
    if abs(brute_phi - 3.25) > TOL:
        violations.append(f"oracle value {brute_phi} != 3.25")
    _report(6, "regression instance yields 3.25 (phase-floor rounded down)",
            violations)


def test_criterion_07_direct_iterative_consistency():
    rng = np.random.default_rng(107)
    violations = []
    for k in range(100):
        m, n = (int(v) for v in rng.integers(1, 7, 2))
        inst = LpInstance(util.finite_matrix(rng, m, n),
                          TropVector(rng.integers(-10, 11, m).astype(float)),
                          util.finite_vector(rng, n))
        formula = solve_dual_integer(inst, TOL).phi_min_int
        _, descent, _ = descent_dual_integer(inst, TOL)
        if descent != formula:
            violations.append(f"instance {k}: {descent} != {formula}")
    _report(7, "descent equals the closed form exactly on 100 integer-b instances",
            violations)


def test_criterion_08_iteration_bound(quarter_family):
    violations = []
    for k, (inst, _, (_, _, iterations)) in enumerate(quarter_family):
        m, n = inst.a.shape
        if iterations > m * n:
            violations.append(f"instance {k}: {iterations} > {m * n}")
    _report(8, "descent iterations never exceed m*n", violations)


def test_criterion_09_floor_b_estimate(quarter_family):
    violations = []
    for k, (inst, dual, _) in enumerate(quarter_family):
        estimate = estimate_via_floor_b(inst, TOL)
        if abs(estimate - dual.phi_min_int) > 1.0:
            violations.append(
                f"instance {k}: estimate {estimate} vs true {dual.phi_min_int}")
    _report(9, "floored-b estimate within 1 of the true dual value", violations)


def test_criterion_10_integer_data_no_gap():
    rng = np.random.default_rng(110)
    violations = []
    for k in range(100):
        m, n = (int(v) for v in rng.integers(1, 7, 2))
        inst = util.integer_lp_instance(rng, m, n)
        real = tdot(inst.c, greatest_subsolution(inst.a, inst.b))
        f_int = solve_primal_integer(inst, TOL).f_max_int
        phi_int = solve_dual_integer(inst, TOL).phi_min_int
        if not (f_int == real == phi_int):
            violations.append(f"instance {k}: {f_int}, {real}, {phi_int}")
    _report(10, "all-integer data collapses the gap exactly", violations)


def test_criterion_11_tslp_optimality():
    rng = np.random.default_rng(111)
    violations = []
    start = time.perf_counter()
    for k in range(200):
        n = int(rng.integers(1, 7))
        inst = util.tslp_instance(rng, n, margin=float(rng.choice([0.0, 0.5])))
        res = solve_tslp(inst, TOL)
        if not tslp_feasible(inst, res.y_opt, TOL):
            violations.append(f"instance {k}: witness infeasible")
        star = kleene_star(inst.a, TOL)
        # 1000 feasible samples: images of u >= d stay feasible
        us = np.maximum(inst.d.data[None, :],
                        rng.uniform(-15, 15, (1000, n)) + inst.d.data[None, :])
        ys = (star.data[None, :, :] + us[:, None, :]).max(axis=2)
        objectives = (inst.c.data[None, :] + ys).max(axis=1)
        if float(objectives.min()) < res.g_min - TOL:
            violations.append(f"instance {k}: sampled point beats optimum")
        star_t = transpose(star)
        _, phi = solve_dual(LpInstance(star_t, tmul(star_t, inst.c), inst.d))
        if abs(res.g_min - phi) > TOL:
            violations.append(f"instance {k}: dual route disagrees")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        violations.append(f"runtime {elapsed:.2f}s >= 30s")
    _report(11, "two-sided inequality optimum verified on 200 instances",
            violations, elapsed)


def test_criterion_12_tslp2_identity():
    rng = np.random.default_rng(112)
    violations = []
    for k in range(200):
        n = int(rng.integers(1, 7))
        inst = util.tslp_instance(rng, n, margin=float(rng.choice([0.0, 1.0])))
        res = solve_tslp2(inst, TOL)
        lhs = np.maximum(tmul(inst.a, res.y_opt).data, inst.d.data)
        if float(np.max(np.abs(lhs - res.y_opt.data))) > TOL:
            violations.append(f"instance {k}: equation violated")
        star = kleene_star(inst.a, TOL)
        if res.g_min != tdot(inst.c, tmul(star, inst.d)):
            violations.append(f"instance {k}: direct formula differs")
        row_first = tdot(tmul(transpose(star), inst.c), inst.d)
        if abs(res.g_min - row_first) > TOL:
            violations.append(f"instance {k}: association orders disagree")
    _report(12, "two-sided equation value identical both ways on 200 instances",
            violations)


def test_criterion_13_residuation_galois():
    rng = np.random.default_rng(113)
    violations = []
    for k in range(1000):
        m, n = (int(v) for v in rng.integers(1, 7, 2))
        a = util.finite_matrix(rng, m, n)
        x = util.finite_vector(rng, n)
        y = util.finite_vector(rng, m)
        residual = greatest_subsolution(a, y)
        if leq(tmul(a, x), y, tol=0.0) and not leq(x, residual, tol=TOL):
            violations.append(f"triple {k}: forward implication")
        if leq(x, residual, tol=0.0) and not leq(tmul(a, x), y, tol=TOL):
            violations.append(f"triple {k}: backward implication")
    _report(13, "residuation equivalence on 1000 random triples", violations)


def test_criterion_14_cli_round_trip_and_golden_corpus(tmp_path):
    rng = np.random.default_rng(114)
    violations = []
    kinds = ("primal", "dual", "primal-integer", "dual-integer", "gap",
             "tslp", "tslp2", "star", "mcm", "onesided")
    golden = 0
    for k in range(60):
        kind = kinds[k % len(kinds)]
        inst_path = tmp_path / f"inst_{k}.json"
        sol_path = tmp_path / f"sol_{k}.json"
        inst_path.write_text(json.dumps(util.golden_instance_obj(rng, kind)))
        code = main(["solve", "--input", str(inst_path),
                     "--output", str(sol_path)])
        if code != 0:
            violations.append(f"{kind} #{k}: solve exited {code}")
            continue
        golden += 1
        text = sol_path.read_text()
        payload = parse_solution(text)
        if serialize_solution(payload) != text:
            violations.append(f"{kind} #{k}: round trip not bit-exact")
        report = tmp_path / f"report_{k}.json"
        if main(["check", "--input", str(sol_path), "--output", str(report)]) != 0:
            violations.append(f"{kind} #{k}: check rejected a fresh solution")
        objective_key = next((key for key in ("objective", "upper")
                              if key in payload), None)
        if objective_key is not None:
            doc = json.loads(text)
            doc[objective_key] += 0.125
            tampered = tmp_path / f"tampered_{k}.json"
            tampered.write_text(json.dumps(doc))
            if main(["check", "--input", str(tampered),
                     "--output", str(report)]) != 3:
                violations.append(f"{kind} #{k}: tampered objective not caught")
    if golden < 50:
        violations.append(f"only {golden} golden pairs solved")
    _report(14, "bit-exact round trips; check passes 50+ golden, rejects tampered",
            violations)

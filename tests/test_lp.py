"""Primal/dual tropical LP pair: witnesses, weak and strong duality."""

import numpy as np
import pytest

import util
from troplp import (DimensionMismatchError, FiniteRequiredError, LpInstance,
                    TropMatrix, TropVector, certify, greatest_subsolution,
                    leq, onesided, solve_dual, solve_primal, tdot, tmul,
                    transpose)


WORKED = LpInstance(TropMatrix([[1, 2], [3, 4]]), TropVector([5, 6]),
                    TropVector([0, 0]))


class TestInstanceValidation:
    def test_eps_rejected(self):
        with pytest.raises(FiniteRequiredError):
            LpInstance(TropMatrix([[1, float("-inf")]]), TropVector([0]),
                       TropVector([0, 0]))

    def test_dimensions_checked(self):
        with pytest.raises(DimensionMismatchError):
            LpInstance(TropMatrix([[1, 2]]), TropVector([0, 0]), TropVector([0, 0]))
        with pytest.raises(DimensionMismatchError):
            LpInstance(TropMatrix([[1, 2]]), TropVector([0]), TropVector([0]))


class TestSolvePrimal:
    def test_worked_example(self):
        x, f = solve_primal(WORKED)
        assert x == TropVector([3, 2])
        assert f == 3.0

    def test_near_identity(self):
        inst = LpInstance(TropMatrix([[0, -50], [-50, 0]]), TropVector([0, 0]),
                          TropVector([0, 0]))
        x, f = solve_primal(inst)
        assert x == TropVector([0, 0])
        assert f == 0.0

    def test_scalar(self):
        x, f = solve_primal(LpInstance(TropMatrix([[0.5]]), TropVector([1]),
                                       TropVector([0])))
        assert x == TropVector([0.5])
        assert f == 0.5


class TestSolveDual:
    def test_worked_example(self):
        pi, phi = solve_dual(WORKED)
        assert pi == TropVector([-2, -3])
        assert phi == pytest.approx(3.0, abs=1e-12)
        # dual feasibility: column values max(pi_i + a_ij) are (0, 1) >= c
        assert tmul(transpose(WORKED.a), pi) == TropVector([0, 1])

    def test_near_identity(self):
        inst = LpInstance(TropMatrix([[0, -50], [-50, 0]]), TropVector([0, 0]),
                          TropVector([0, 0]))
        pi, phi = solve_dual(inst)
        assert pi == TropVector([0, 0])
        assert phi == 0.0

    def test_homogeneity_in_b(self):
        rng = np.random.default_rng(5)
        for beta in (-2.5, 0.25, 4.0):
            inst = util.lp_instance(rng, 3, 4)
            shifted = LpInstance(inst.a, TropVector(inst.b.data + beta), inst.c)
            _, phi = solve_dual(inst)
            _, phi_shifted = solve_dual(shifted)
            assert phi_shifted == pytest.approx(phi + beta, abs=1e-9)


class TestCertify:
    def test_worked_example(self):
        cert = certify(WORKED)
        assert cert.f_max == pytest.approx(3.0, abs=1e-12)
        assert cert.phi_min == pytest.approx(3.0, abs=1e-12)

    def test_one_by_one_closed_form(self):
        # f = phi = gamma + beta - a
        cert = certify(LpInstance(TropMatrix([[2.5]]), TropVector([7.0]),
                                  TropVector([-1.0])))
        assert cert.f_max == pytest.approx(-1.0 + 7.0 - 2.5, abs=1e-12)
        assert cert.phi_min == pytest.approx(cert.f_max, abs=1e-12)

    def test_random_instances_have_no_gap(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m, n = (int(v) for v in rng.integers(1, 9, 2))
            cert = certify(util.lp_instance(rng, m, n))
            assert abs(cert.f_max - cert.phi_min) <= 1e-9

    def test_runs_the_residuation_once(self, monkeypatch):
        # pi = f_max - b needs only the primal value, not a second x
        calls = util.count_calls(monkeypatch, onesided.greatest_subsolution)
        cert = certify(WORKED)
        assert len(calls) == 1
        assert cert.pi_opt == solve_dual(WORKED)[0]


class TestWeakDualityAndOptimality:
    def test_sampled_feasible_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            m, n = (int(v) for v in rng.integers(1, 7, 2))
            inst = util.lp_instance(rng, m, n)
            x_opt, f = solve_primal(inst)
            pi_opt, phi = solve_dual(inst)
            for _ in range(30):
                x = TropVector(x_opt.data - np.abs(rng.uniform(0, 3, n)))
                pi = TropVector(pi_opt.data + np.abs(rng.uniform(0, 3, m)))
                assert tdot(inst.c, x) <= tdot(pi, inst.b) + 1e-9

    def test_no_sampled_point_beats_the_optimum(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            m, n = (int(v) for v in rng.integers(1, 7, 2))
            inst = util.lp_instance(rng, m, n)
            x_opt, f = solve_primal(inst)
            pi_opt, phi = solve_dual(inst)
            for _ in range(40):
                x = TropVector(x_opt.data + rng.uniform(-3, 3, n))
                if leq(tmul(inst.a, x), inst.b, tol=0.0):
                    assert tdot(inst.c, x) <= f + 1e-9
                pi = TropVector(pi_opt.data + rng.uniform(-3, 3, m))
                if leq(inst.c, tmul(transpose(inst.a), pi), tol=0.0):
                    assert tdot(pi, inst.b) >= phi - 1e-9

    def test_primal_witness_is_the_residuation_solution(self):
        rng = np.random.default_rng(31)
        inst = util.lp_instance(rng, 4, 3)
        x, _ = solve_primal(inst)
        assert x == greatest_subsolution(inst.a, inst.b)

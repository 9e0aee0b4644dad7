"""The reference implementations themselves, and that solvers never use them."""

import ast
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from troplp import (EPSILON, DivergentStarError, LpInstance, TropMatrix,
                    TropVector, identity)
from troplp.oracles import (Box, EnumerationCapExceededError,
                            NoFeasiblePointError, brute_cycle_mean,
                            brute_dual_integer, brute_primal_integer,
                            brute_star, dual_box, primal_box)

E = EPSILON


class TestBruteCycleMean:
    def test_worked_example(self):
        assert brute_cycle_mean(TropMatrix([[0, 3], [-1, 0]])) == pytest.approx(1.0)

    def test_acyclic(self):
        assert brute_cycle_mean(TropMatrix([[E, 1], [E, E]])) == E

    def test_single_loop(self):
        assert brute_cycle_mean(TropMatrix([[2]])) == 2.0

    def test_size_cap(self):
        with pytest.raises(EnumerationCapExceededError):
            brute_cycle_mean(TropMatrix(np.zeros((9, 9))))


class TestBruteStar:
    def test_worked_example(self):
        star = brute_star(TropMatrix([[-1, 0], [-3, -2]]))
        assert star == TropMatrix([[0, 0], [-3, 0]])

    def test_eps_matrix(self):
        assert brute_star(TropMatrix(np.full((3, 3), E))) == identity(3)

    def test_identity_is_fixed(self):
        assert brute_star(identity(3)) == identity(3)

    def test_divergence(self):
        with pytest.raises(DivergentStarError):
            brute_star(TropMatrix([[0.5]]))


SCALAR_HALF = LpInstance(TropMatrix([[0.5]]), TropVector([1]), TropVector([0]))
WORKED = LpInstance(TropMatrix([[1, 2], [3, 4]]), TropVector([5, 6]),
                    TropVector([0, 0]))
REGRESSION = LpInstance(TropMatrix([[1, 2], [3, 4]]), TropVector([5.5, 6.25]),
                        TropVector([0, 0]))


class TestBruteIntegerSearch:
    def test_primal_scalar(self):
        x, f = brute_primal_integer(SCALAR_HALF, Box((-5,), (5,)))
        assert x == TropVector([0])
        assert f == 0.0

    def test_primal_worked(self):
        _, f = brute_primal_integer(WORKED, Box((-10, -10), (10, 10)))
        assert f == 3.0

    def test_primal_empty_box_errors(self):
        # every point above the principal solution is infeasible
        with pytest.raises(NoFeasiblePointError):
            brute_primal_integer(WORKED, Box((4, 4), (6, 6)))

    def test_dual_scalar(self):
        inst = LpInstance(TropMatrix([[0]]), TropVector([0.5]), TropVector([0]))
        pi, phi = brute_dual_integer(inst, Box((-5,), (5,)))
        assert pi == TropVector([0])
        assert phi == 0.5

    def test_dual_regression(self):
        _, phi = brute_dual_integer(REGRESSION, Box((-10, -10), (10, 10)))
        assert phi == 3.25

    def test_dual_worked(self):
        _, phi = brute_dual_integer(WORKED, Box((-10, -10), (10, 10)))
        assert phi == 3.0

    def test_deterministic(self):
        first = brute_dual_integer(REGRESSION, dual_box(REGRESSION))
        second = brute_dual_integer(REGRESSION, dual_box(REGRESSION))
        assert first[0] == second[0]
        assert first[1] == second[1]


class TestBoxes:
    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            Box((1,), (0,))

    def test_cap_enforced(self):
        box = Box((0, 0), (99, 99), cap=100)
        with pytest.raises(EnumerationCapExceededError):
            list(box.points())

    def test_size(self):
        assert Box((0, -1), (1, 1)).size == 6

    def test_default_boxes_contain_the_optima(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            m, n = (int(v) for v in rng.integers(1, 4, 2))
            inst = LpInstance(TropMatrix(rng.integers(-20, 21, (m, n)) * 0.25),
                              TropVector(rng.integers(-20, 21, m) * 0.25),
                              TropVector(rng.integers(-20, 21, n) * 0.25))
            brute_primal_integer(inst, primal_box(inst))
            brute_dual_integer(inst, dual_box(inst))


PRODUCTION = ("__init__", "core", "closure", "onesided", "lp", "intlp", "twosided",
              "io", "cli")


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_module_does_not_import_oracles(module):
    source = Path(importlib.util.find_spec(f"troplp.{module}").origin).read_text(encoding="utf-8")
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.extend(alias.name for alias in node.names)
    assert "oracles" not in {name.rsplit(".", 1)[-1] for name in names}

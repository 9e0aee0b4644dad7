"""Static checks of the source tree: where the certificate rules and the
domain rules live, that every import is used, and that the README's package
layout names every module."""

import ast
import re
from pathlib import Path

import pytest

import troplp
import util
from troplp.io import _DIVERGENT, _KINDS

SRC = Path(troplp.__file__).parent
# names that certificates took over; the first three were renamed there
MOVED = ("primal_violation", "dual_violation", "two_sided_lhs", "shortfall",
         "_resolves", "_strictly_negative", "_cycle_mean", "_acyclic")
# the rounding gate and the star's O(n^2) uniqueness bound: only the
# certificate rules apply them
GATED = ("_resolves", "_strictly_negative")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _defined(tree: ast.Module) -> set[str]:
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_certificates_imports_only_core():
    modules = set()
    for node in ast.walk(_tree(SRC / "certificates.py")):
        if isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert modules == {"__future__", "numpy", ".core"}


def test_each_rule_is_defined_in_certificates_alone():
    rules = _defined(_tree(SRC / "certificates.py"))
    assert set(MOVED[3:]) <= rules
    elsewhere = {path.name: sorted(_defined(_tree(path)) & (rules | set(MOVED)))
                 for path in SRC.glob("*.py") if path.name != "certificates.py"}
    assert {name: found for name, found in elsewhere.items() if found} == {}


def _names(tree: ast.Module) -> set[str]:
    """Every identifier the tree reads or imports, attributes included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_gated_rules_are_named_in_certificates_alone():
    elsewhere = {path.name: sorted(_names(_tree(path)) & set(GATED))
                 for path in SRC.glob("*.py") if path.name != "certificates.py"}
    assert {name: found for name, found in elsewhere.items() if found} == {}


@pytest.mark.parametrize("path, cls, rule", [("lp.py", "LpInstance", "_check_system"),
                                             ("twosided.py", "TwoSidedInstance",
                                              "_require_square")])
def test_each_instance_guard_defers_to_its_kernel_rule(path, cls, rule):
    # A's domain is stated once, by the kernel's guard: the instance guard
    # calls it and tests neither A's entries nor its shape itself
    klass = next(node for node in _tree(SRC / path).body
                 if isinstance(node, ast.ClassDef) and node.name == cls)
    method = next(node for node in klass.body
                  if isinstance(node, ast.FunctionDef) and node.name == "__post_init__")
    calls = {ast.unparse(node.func) for node in ast.walk(method) if isinstance(node, ast.Call)}
    assert rule in calls and "self.a.is_finite" not in calls
    compared = [{ast.unparse(side) for side in (node.left, *node.comparators)}
                for node in ast.walk(method) if isinstance(node, ast.Compare)]
    assert not any({"self.a.rows", "self.a.cols"} <= sides for sides in compared)


def _string_literals_outside(tree: ast.Module, names: tuple[str, ...]) -> list[str]:
    """Every string constant of the tree, except those in the module-level
    assignments to the given names."""
    skipped = {id(node) for statement in tree.body if isinstance(statement, ast.Assign)
               and any(getattr(target, "id", None) in names for target in statement.targets)
               for node in ast.walk(statement)}
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in skipped]


def test_each_stored_field_is_named_in_the_kind_table_alone():
    stored = {key for spec in _KINDS.values() for key, _ in spec.stored}
    stored |= {key for key, _ in _DIVERGENT}
    literals = _string_literals_outside(_tree(SRC / "io.py"), ("_KINDS", "_DIVERGENT"))
    assert sorted(stored & set(literals)) == []


def test_readme_layout_names_every_module():
    readme = (util.TESTS.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Package layout", 1)[1].split("```")[1]
    named = set(re.findall(r"^  (\w+\.py)\b", block, re.M))
    assert named == {path.name for path in SRC.glob("*.py")} - {"__init__.py", "_version.py"}


def _imports_and_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    bound, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "__all__" for target in node.targets)):
            used.update(ast.literal_eval(node.value))
    return bound, used


@pytest.mark.parametrize("path", sorted([*SRC.glob("*.py"), *util.TESTS.glob("*.py")]),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_used(path):
    bound, used = _imports_and_names(_tree(path))
    assert sorted(bound - used) == []

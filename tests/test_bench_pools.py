"""The benchmark's instance pools solve and check through the CLI.

The benchmark counts an instance as failed when solve's exit differs from
the one its generator expects, when check rejects the solution, or when a
tiny instance's answer disagrees with a brute-force oracle.  This smoke test
runs the same three tests on one seed of both pools: every tiny instance
(the oracle-checked ones among them) and the first 12 generated ones.  It
also records that every A of both pools is canonically spelled, so that
parse_instance reads it from its bytes' test and never through _read_array,
and that a star-based solve of the graph pool sweeps A only when its positive
arcs close no cycle, and a tslp solve only when A has a positive arc.
bench/workloads.py is imported as it is, and the pools are written under the
test's temporary directory.
"""

import importlib.util
import sys

import pytest

import util
from troplp import closure
from troplp.cli import main
from troplp.io import _read_array, parse_instance

SEED = 11
FIRST = 12


def _workloads():
    path = util.TESTS.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_pool_solves_checks_and_matches_the_oracles(name, tmp_path, capsys):
    pool = workloads.build_pool(name, SEED, tmp_path)
    size = workloads.POOL_SIZE[name]
    chosen = pool[:FIRST] + pool[size:]
    assert any(inst.oracle for inst in chosen)
    out = tmp_path / "solution.json"
    failures = []
    for inst in chosen:
        code = main(["solve", "--input", str(inst.path), "--output", str(out)])
        if code != inst.expected_exit:
            failures.append(f"{inst.label}: solve exit {code}, expected {inst.expected_exit}")
            continue
        code = main(["check", "--input", str(out)])
        if code != 0:
            failures.append(f"{inst.label}: check exit {code}")
            continue
        mismatch = workloads.oracle_mismatch(inst, out.read_text(encoding="utf-8"))
        if mismatch is not None:
            failures.append(f"{inst.label}: {mismatch}")
    capsys.readouterr()
    assert failures == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_pool_a_takes_the_byte_read(name, tmp_path, monkeypatch):
    pool = workloads.build_pool(name, SEED, tmp_path)
    reads = util.count_calls(monkeypatch, _read_array)
    copied = [parse_instance(inst.path.read_text(encoding="utf-8")).a_rows is not None
              for inst in pool]
    assert copied.count(True) == len(pool)
    assert [args[3] for args in reads].count("A") == 0


def test_graph_pool_sweeps_only_convergent_stars(tmp_path, monkeypatch, capsys):
    # the planted cycles of positive arcs are the exit-1 instances: their
    # divergence is told before any sweep; a tslp solve on an A with no
    # positive arc iterates to its least point without a star; every other
    # star solve sweeps once
    pool = workloads.build_pool("graph", SEED, tmp_path)
    sweeps = util.count_calls(monkeypatch, closure._star_sweep)
    swept = {"swept": [], "tslp without a positive arc": [], "exit 1": []}
    for inst in pool:
        if inst.kind == "mcm":
            continue
        sweeps.clear()
        assert main(["solve", "--input", str(inst.path)]) == inst.expected_exit
        a = parse_instance(inst.path.read_text(encoding="utf-8")).a
        if inst.expected_exit == 1:
            route = "exit 1"
        elif inst.kind == "tslp" and not (a.data > 0).any():
            route = "tslp without a positive arc"
        else:
            route = "swept"
        swept[route].append(len(sweeps))
    capsys.readouterr()
    assert swept == {"swept": [1] * 48, "tslp without a positive arc": [0] * 17,
                     "exit 1": [0] * 23}

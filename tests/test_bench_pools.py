"""The benchmark's instance pools solve and check through the CLI.

The benchmark counts an instance as failed when solve's exit differs from
the one its generator expects, when check rejects the solution, or when a
tiny instance's answer disagrees with a brute-force oracle.  This smoke test
runs the same three tests on one seed of both pools: every tiny instance
(the oracle-checked ones among them) and the first 12 generated ones.
bench/workloads.py is imported as it is, and the pools are written under
the test's temporary directory.
"""

import importlib.util
import sys

import pytest

import util
from troplp.cli import main

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

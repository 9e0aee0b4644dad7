"""The benchmark's instance pools solve and check through the CLI.

The benchmark counts an instance as failed when solve's exit differs from
the one its generator expects, when check rejects the solution, or when a
tiny instance's answer disagrees with a brute-force oracle.  This smoke test
runs the same three tests on one seed of both pools: every tiny instance
(the oracle-checked ones among them) and the first 12 generated ones.  It
also counts the instances that take each fast path the code keeps, so that
a path whose traffic falls to zero fails here (ROADMAP's traffic table gives
each path's share of the pools and its measured gain): every A of both pools
is canonically spelled, so that _read_array reads it with its bytes' test's
epsilon mask and never takes its type census; a star-based solve of the
graph pool sweeps A only when its positive arcs close no cycle, and a tslp
solve only when A has a positive arc; and the graph pool's solves and checks take the acyclic
peel, Karp's early stop, the star writer's distinct values and the
strictly-negative exits.  bench/workloads.py is imported as it is, and the
pools are written under the test's temporary directory.  The io stages that
bench/tracing.py times must all be names that troplp.cli binds.
"""

import importlib.util
import sys
from collections import Counter

import pytest

import util
from troplp import EPSILON, certificates, cli, closure, twosided
from troplp.cli import main
from troplp.io import _distinct_value_rows, _read_array, parse_instance

SEED = 11
FIRST = 12


def _bench_module(name):
    path = util.TESTS.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _bench_module("workloads")


def test_cli_binds_every_traced_io_stage():
    # the traced run times the io stages through the names troplp.cli binds,
    # and lists a name it cannot find as untraced
    tracing = _bench_module("tracing")
    assert [name for name in tracing.IO_STAGES if not hasattr(cli, name)] == []


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
    # every A is read with its mask, which with epsilon fills an array from
    # the rows' floats alone, and the vectors, all floats, are settled by
    # _read_array's one count
    masks = [args[5] for args in reads if args[3] == "A" and args[5] is not None]
    assert len(masks) == [args[3] for args in reads].count("A") == len(pool)
    assert sum(mask.any() for mask in masks) == {"graph": 35, "lp": 4}[name]
    vectors = [args[0] for args in reads if args[3] != "A"]
    assert [all(type(v) is float for v in vector) for vector in vectors].count(False) == 0
    assert len(vectors) == {"graph": 100, "lp": 208}[name]


def test_graph_pool_sweeps_only_convergent_stars(tmp_path, monkeypatch, capsys):
    # the planted cycles of positive arcs are the exit-1 instances: their
    # divergence is told before any sweep; a tslp solve on an A with no
    # positive arc iterates to its least point without a star; every other
    # star solve sweeps once
    pool = workloads.build_pool("graph", SEED, tmp_path)
    sweeps = util.count_calls(monkeypatch, closure._star_sweep)
    iterations = util.count_calls(monkeypatch, twosided._least_fixed_point)
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
    assert len(iterations) == 17


def test_graph_pool_takes_the_kept_kernel_and_check_paths(tmp_path, monkeypatch, capsys):
    # the instances that take each kept route of the solves and checks, as
    # ROADMAP's traffic table counts them; none may fall to zero
    pool = workloads.build_pool("graph", SEED, tmp_path)
    strictly_negative = certificates._strictly_negative  # before the counter replaces it
    calls = {fn.__name__: util.count_calls(monkeypatch, fn) for fn in (
        closure.max_cycle_mean, closure._karp, closure._critical_cycle,
        certificates._strictly_negative, _distinct_value_rows)}
    out = tmp_path / "solution.json"
    taken = Counter()
    for inst in pool:
        for step in ("solve", "check"):
            for recorded in calls.values():
                recorded.clear()
            args = ["--input", str(inst.path), "--output", str(out)] if step == "solve" else [
                "--input", str(out)]
            assert main([step, *args]) == (inst.expected_exit if step == "solve" else 0)
            karps = calls["_karp"]
            taken.update({
                "acyclic peel": any(certificates._acyclic(a.data > EPSILON)
                                    for a, in calls["max_cycle_mean"]),
                "Karp stopped early": bool(karps) and len(karps[-1][1]) - 1 < karps[-1][0].rows,
                "Karp traced a cycle": bool(calls["_critical_cycle"]),
                f"strictly negative in {step}": any(
                    strictly_negative(*a) for a in calls["_strictly_negative"]),
                "star written from distinct values": bool(calls["_distinct_value_rows"]),
            })
    capsys.readouterr()
    # the strictly-negative solves are tslp2's kind, the checks the stars'
    assert taken == {"acyclic peel": 6, "Karp stopped early": 41, "Karp traced a cycle": 45,
                     "strictly negative in solve": 17, "strictly negative in check": 31,
                     "star written from distinct values": 31}

"""Seeded instance pools for the troplp benchmark.

A workload is a fixed schedule of slots.  Each slot fixes the problem kind,
the matrix pattern, the entry range and the size; the seed draws only the
entries.  Every seed therefore sees the same kind and size mix, so metrics
of two seeds are comparable, while the data itself changes with the seed.
Sizes follow a low-discrepancy sequence, so they cover the range evenly
without depending on the seed.

Every instance carries the exit code the program must return, derived from
the construction and not from solving: square matrices on the feasible path
have only negative entries (so every cycle mean is negative) or no cycle at
all, and the infeasible ones get a planted cycle of positive arcs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from troplp import EPSILON, LpInstance, TropMatrix, TropVector
from troplp.oracles import (brute_cycle_mean, brute_dual_integer,
                            brute_primal_integer, brute_star, dual_box,
                            primal_box)

WORKLOADS = ("graph", "lp")

POOL_SIZE = {"graph": 100, "lp": 100}

ABC_KINDS = ("primal", "dual", "primal-integer", "dual-integer", "gap")
LP_KINDS = ABC_KINDS + ("onesided",)
ALL_KINDS = ("primal", "dual", "primal-integer", "dual-integer", "gap",
             "tslp", "tslp2", "star", "mcm", "onesided")

# (kind, pattern, planted positive cycle).  Three of fifteen slots take the
# infeasible/divergent path (exit 1); mcm reports a positive lambda with exit 0.
GRAPH_VARIANTS = (
    ("tslp", "dense", False), ("tslp", "dense", False), ("tslp", "dense", True),
    ("tslp2", "dense", False), ("tslp2", "dense", False), ("tslp2", "dense", True),
    ("star", "dense", False), ("star", "dense", False), ("star", "sparse", False),
    ("star", "dag", False), ("star", "sparse", True),
    ("mcm", "dense", False), ("mcm", "dense", False), ("mcm", "sparse", False),
    ("mcm", "dag", False),
)

# Each pool also holds tiny instances of these kinds, small enough for the
# brute-force oracles: the tiny slots below 40 of the pool's kinds, which
# cover each entry flavour of those kinds once.
TINY_KINDS = {"graph": ("tslp", "tslp2", "star", "mcm"),
              "lp": ("primal-integer", "dual-integer", "gap")}
TINY_SLOTS = 40

SPARSE_DENSITY = 0.05
ORACLE_INT_MAX = 5     # brute integer scans for m, n <= 5
ORACLE_GRAPH_MAX = 8   # cycle enumeration cap of troplp.oracles
TINY_MAX = {"graph": ORACLE_GRAPH_MAX, "lp": ORACLE_INT_MAX}

_STRIDE_M = (math.sqrt(5.0) - 1.0) / 2.0
_STRIDE_N = math.sqrt(2.0) - 1.0


@dataclass
class Instance:
    """One generated instance file plus what its solve must produce."""

    index: int
    kind: str
    label: str
    shape: tuple[int, int]
    path: Path
    expected_exit: int
    oracle: dict = field(default_factory=dict)


def _spread(i: int, stride: float, lo: int, hi: int) -> int:
    """Size of slot i: geometric in [lo, hi] along a low-discrepancy sequence."""
    u = (0.5 + i * stride) % 1.0
    return int(round(lo * (hi / lo) ** u))


def _rows(a: np.ndarray) -> list:
    """Matrix rows for JSON, epsilon written as the "-inf" string."""
    if np.isneginf(a).any():
        return [["-inf" if v == EPSILON else v for v in row] for row in a.tolist()]
    return a.tolist()


def _reals(rng, lo, hi, shape):
    return rng.uniform(lo, hi, shape).round(3)


def _plant_cycle(rng, a: np.ndarray):
    """Overwrite the arcs of a random elementary cycle with positive weights."""
    n = a.shape[0]
    length = int(rng.integers(2, min(n, 5) + 1)) if n > 1 else 1
    nodes = rng.choice(n, size=length, replace=False)
    for pos, u in enumerate(nodes):
        v = nodes[(pos + 1) % length]
        a[u, v] = round(float(rng.uniform(0.5, 3.0)), 3)


def _square(rng, n: int, pattern: str, negative: bool, planted: bool) -> np.ndarray:
    vals = _reals(rng, -10.0, -0.01 if negative else 10.0, (n, n))
    if pattern == "dense":
        a = vals
    elif pattern == "sparse":
        a = np.where(rng.random((n, n)) < SPARSE_DENSITY, vals, EPSILON)
    elif pattern == "dag":
        a = np.where(np.triu(np.ones((n, n), dtype=bool), 1), vals, EPSILON)
    else:
        raise ValueError(pattern)
    if planted:
        _plant_cycle(rng, a)
    return a


def _graph_slot(i: int, rng):
    kind, pattern, planted = GRAPH_VARIANTS[i % len(GRAPH_VARIANTS)]
    n = _spread(i, _STRIDE_M, 24, 160)
    # mcm exits 0 whatever lambda is, so its dense and sparse matrices mix signs
    a = _square(rng, n, pattern, negative=kind != "mcm" and pattern != "dag",
                planted=planted)
    obj = {"problem": kind, "A": _rows(a)}
    if kind in ("tslp", "tslp2"):
        obj["d"] = _reals(rng, -10, 10, n).tolist()
        obj["c"] = _reals(rng, -10, 10, n).tolist()
    label = f"{kind}/{pattern}" + ("/positive-cycle" if planted else "")
    expected = 1 if planted and kind != "mcm" else 0
    return obj, label, (n, n), expected


def _lp_slot(i: int, rng):
    kind = LP_KINDS[i % len(LP_KINDS)]
    combo = (i // len(LP_KINDS)) % 4
    bound = (10, 1000)[combo % 2]
    integer_b = combo < 2
    m = _spread(i, _STRIDE_M, 24, 240)
    n = _spread(i, _STRIDE_N, 24, 240)
    a = _reals(rng, -bound, bound, (m, n))
    b = (rng.integers(-bound, bound + 1, m).astype(float) if integer_b
         else _reals(rng, -bound, bound, m))
    label = f"{kind}/range{bound}/{'int' if integer_b else 'real'}-b"
    if kind == "onesided" and combo == 3:
        # epsilon entries, as the README allows for onesided; every column
        # keeps a finite entry so the greatest subsolution is finite
        mask = rng.random((m, n)) < 0.05
        mask[int(rng.integers(m)), mask.all(axis=0)] = False
        a = np.where(mask, EPSILON, a)
        label += "/epsilon"
    obj = {"problem": kind, "A": _rows(a), "b": b.tolist()}
    if kind != "onesided":
        obj["c"] = _reals(rng, -bound, bound, n).tolist()
    return obj, label, (m, n), 0


def _tiny_slot(i: int, rng, hi: int):
    kind = ALL_KINDS[i % len(ALL_KINDS)]
    flavour = (i // len(ALL_KINDS)) % 4
    integer = flavour % 2 == 0
    n = _spread(i, _STRIDE_N, 2, hi)

    def entries(shape, lo=-5, hi=5):
        if integer:
            return rng.integers(lo, hi + 1, shape).astype(float)
        return _reals(rng, lo, hi, shape)

    grid = "int" if integer else "real"
    if kind in ("tslp", "tslp2", "star"):
        planted = flavour == 3
        pattern = "sparse" if kind == "star" and flavour == 2 else "dense"
        a = entries((n, n), -5, -1)
        if pattern == "sparse":
            a = np.where(rng.random((n, n)) < 0.5, a, EPSILON)
        if planted:
            _plant_cycle(rng, a)
        obj = {"problem": kind, "A": _rows(a)}
        if kind != "star":
            obj["d"] = entries(n).tolist()
            obj["c"] = entries(n).tolist()
        label = f"tiny/{kind}/{pattern}/{grid}" + ("/positive-cycle" if planted else "")
        return obj, label, (n, n), 1 if planted else 0
    if kind == "mcm":
        a = entries((n, n))
        if flavour >= 2:
            a = np.where(rng.random((n, n)) < 0.4, a, EPSILON)
        return {"problem": kind, "A": _rows(a)}, f"tiny/mcm/{grid}", (n, n), 0
    m = _spread(i, _STRIDE_M, 2, hi)
    obj = {"problem": kind, "A": entries((m, n)).tolist(), "b": entries(m).tolist()}
    if kind != "onesided":
        obj["c"] = entries(n).tolist()
    return obj, f"tiny/{kind}/{grid}", (m, n), 0


_SLOTS = {"graph": _graph_slot, "lp": _lp_slot}


def _decode(value):
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return EPSILON if value == "-inf" else value


def _oracle(obj: dict, shape: tuple[int, int], expected_exit: int) -> dict:
    """Brute-force values of solution fields for one tiny instance.

    Empty when the instance is too big for the oracles.  The two-sided
    optimum is c'(A* d): A* d is the least y with A y + d <= y, and c'y
    grows with y.
    """
    kind = obj["problem"]
    m, n = shape
    a = TropMatrix(_decode(obj["A"]))
    if kind in ("tslp", "tslp2", "star", "mcm"):
        if n > ORACLE_GRAPH_MAX:
            return {}
        lam = brute_cycle_mean(a)
        if kind == "mcm":
            return {"lambda": lam}
        if (lam > 1e-9) != (expected_exit == 1):
            raise AssertionError(f"generator expects exit {expected_exit}, oracle lambda {lam}")
        if expected_exit == 1:
            return {}
        star = brute_star(a).data
        if kind == "star":
            return {"star": star}
        y = (star + np.array(obj["d"])[np.newaxis, :]).max(axis=1)
        objective = float((np.array(obj["c"]) + y).max())
        return {"objective": objective, "y": y} if kind == "tslp2" else {"objective": objective}
    if kind in ("primal-integer", "dual-integer", "gap") and max(m, n) <= ORACLE_INT_MAX:
        inst = LpInstance(a, TropVector(obj["b"]), TropVector(obj["c"]))
        if kind == "primal-integer":
            return {"objective": brute_primal_integer(inst, primal_box(inst))[1]}
        if kind == "dual-integer":
            return {"objective": brute_dual_integer(inst, dual_box(inst))[1]}
        return {"lower": brute_primal_integer(inst, primal_box(inst))[1],
                "upper": brute_dual_integer(inst, dual_box(inst))[1]}
    return {}


def build_pool(workload: str, seed: int, directory: Path) -> list[Instance]:
    """Write the workload's instance files under `directory` and describe them."""
    stream = WORKLOADS.index(workload)
    size = POOL_SIZE[workload]
    tiny = [i for i in range(TINY_SLOTS) if ALL_KINDS[i % len(ALL_KINDS)] in TINY_KINDS[workload]]
    pool = []
    for k in range(size + len(tiny)):
        rng = np.random.default_rng([seed, stream, k])
        if k < size:
            obj, label, shape, expected = _SLOTS[workload](k, rng)
        else:
            obj, label, shape, expected = _tiny_slot(tiny[k - size], rng, TINY_MAX[workload])
        path = directory / f"{workload}-{k:04d}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        oracle = _oracle(obj, shape, expected) if k >= size else {}
        pool.append(Instance(k, obj["problem"], label, shape, path, expected, oracle))
    return pool


def build_warmup(directory: Path) -> list[Instance]:
    """One tiny instance per kind, solved untimed before measuring."""
    warmup = []
    for i in range(len(ALL_KINDS)):
        rng = np.random.default_rng([0, len(WORKLOADS), i])
        obj, label, shape, expected = _tiny_slot(i, rng, 4)
        path = directory / f"warmup-{i}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        warmup.append(Instance(-1, obj["problem"], label, shape, path, expected))
    return warmup


def _close(stored, expected) -> bool:
    stored = np.asarray(_decode(stored), dtype=float)
    expected = np.asarray(expected, dtype=float)
    if stored.shape != expected.shape:
        return False
    both_eps = np.isneginf(stored) & np.isneginf(expected)
    with np.errstate(invalid="ignore"):
        diff = np.where(both_eps, 0.0, np.abs(stored - expected))
    return bool(np.all(diff <= 1e-6))


def oracle_mismatch(inst: Instance, solution_text: str) -> str | None:
    """Compare a solution file with the instance's brute-force expectations."""
    payload = json.loads(solution_text)
    for key, value in inst.oracle.items():
        if key not in payload or not _close(payload[key], value):
            return f"{key} disagrees with the brute-force oracle"
    return None

"""Shared random-instance builders for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from troplp import (EPSILON, LpInstance, TropMatrix, TropVector,
                    TwoSidedInstance, max_cycle_mean)

TESTS = Path(__file__).parent


def count_calls(monkeypatch, fn) -> list:
    """Rebind every troplp module's name for `fn` to a counting wrapper.

    Returns the list that records each call's positional arguments.
    """
    calls: list = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "troplp" or name.startswith("troplp."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def finite_matrix(rng, m, n, lo=-10.0, hi=10.0) -> TropMatrix:
    return TropMatrix(rng.uniform(lo, hi, (m, n)))


def finite_vector(rng, n, lo=-10.0, hi=10.0) -> TropVector:
    return TropVector(rng.uniform(lo, hi, n))


def sparse_square(rng, n, density=0.7, lo=-10.0, hi=10.0) -> TropMatrix:
    """Square matrix with roughly `density` finite entries, rest epsilon."""
    data = np.full((n, n), EPSILON)
    mask = rng.random((n, n)) < density
    data[mask] = rng.uniform(lo, hi, int(mask.sum()))
    return TropMatrix(data)


def lp_instance(rng, m, n, lo=-10.0, hi=10.0) -> LpInstance:
    return LpInstance(finite_matrix(rng, m, n, lo, hi),
                      finite_vector(rng, m, lo, hi),
                      finite_vector(rng, n, lo, hi))


def quarter_lp_instance(rng, m, n) -> LpInstance:
    """Entries are exact multiples of 0.25 in [-5, 5]."""
    def grid(shape):
        return rng.integers(-20, 21, shape) * 0.25
    return LpInstance(TropMatrix(grid((m, n))),
                      TropVector(grid(m)), TropVector(grid(n)))


def integer_lp_instance(rng, m, n, lo=-10, hi=10) -> LpInstance:
    return LpInstance(TropMatrix(rng.integers(lo, hi + 1, (m, n)).astype(float)),
                      TropVector(rng.integers(lo, hi + 1, m).astype(float)),
                      TropVector(rng.integers(lo, hi + 1, n).astype(float)))


def nonpositive_cycle_matrix(rng, n, sparse=False, margin=0.0) -> TropMatrix:
    """Random square matrix shifted so that its maximum cycle mean is <= 0."""
    a = sparse_square(rng, n) if sparse else finite_matrix(rng, n, n)
    lam = max_cycle_mean(a).lambda_
    if lam == EPSILON:
        return a
    return TropMatrix(a.data - lam - margin)


def positive_cycle_matrix(rng, n, excess=0.5) -> TropMatrix:
    """Finite square matrix whose maximum cycle mean is exactly `excess`."""
    a = finite_matrix(rng, n, n)
    lam = max_cycle_mean(a).lambda_
    return TropMatrix(a.data - lam + excess)


def tslp_instance(rng, n, margin=0.0) -> TwoSidedInstance:
    return TwoSidedInstance(nonpositive_cycle_matrix(rng, n, margin=margin),
                            finite_vector(rng, n), finite_vector(rng, n))


def rows_obj(a: TropMatrix) -> list[list]:
    """Matrix rows with epsilon rendered as the "-inf" string, JSON-safe."""
    return [["-inf" if v == EPSILON else v for v in row] for row in a.data.tolist()]


def golden_instance_obj(rng, kind) -> dict:
    """JSON-ready instance of the given kind that solves with exit 0."""
    m, n = (int(v) for v in rng.integers(1, 5, 2))
    if kind in ("primal", "dual", "primal-integer", "dual-integer", "gap"):
        inst = quarter_lp_instance(rng, m, n)
        return {"problem": kind, "A": rows_obj(inst.a),
                "b": inst.b.data.tolist(), "c": inst.c.data.tolist()}
    if kind in ("tslp", "tslp2"):
        inst = tslp_instance(rng, n, margin=float(rng.uniform(0, 1)))
        return {"problem": kind, "A": rows_obj(inst.a),
                "d": inst.d.data.tolist(), "c": inst.c.data.tolist()}
    if kind == "star":
        a = nonpositive_cycle_matrix(rng, n, sparse=bool(rng.integers(2)))
        return {"problem": kind, "A": rows_obj(a)}
    if kind == "mcm":
        return {"problem": kind, "A": rows_obj(sparse_square(rng, n))}
    if kind == "onesided":
        return {"problem": kind, "A": rows_obj(finite_matrix(rng, m, n)),
                "b": finite_vector(rng, m).data.tolist()}
    raise ValueError(kind)

"""Span recorder for the traced benchmark run.

Spans are taken from outside the program: the benchmark swaps each traced
public function for a wrapper wherever a troplp module has bound that
function's name, and puts the original back afterwards.  A span records its
name, start, end, parent span, instance id and whether it belongs to a
replay.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from troplp.core import TropMatrix
from troplp.errors import TropError

# Stages of the CLI path, looked up by troplp.cli.main in its own namespace.
IO_STAGES = ("parse_instance", "solve_to_payload", "serialize_solution",
             "check_solution_text")

# Public solver-layer functions timed in the replays, as (module, function).
LAYER_FUNCTIONS = (
    ("closure", "max_cycle_mean"), ("closure", "kleene_star"),
    ("twosided", "solve_tslp"), ("twosided", "solve_tslp2"),
    ("core", "tmul"),
    ("intlp", "solve_dual_integer_general"), ("intlp", "solve_dual_integer_direct"),
    ("intlp", "duality_gap"),
    ("onesided", "greatest_subsolution"), ("onesided", "solve_equality"),
    ("lp", "certify"),
)


def _tmul_name(args) -> str:
    return "core.tmul_mm" if isinstance(args[1], TropMatrix) else "core.tmul_mv"


def _relaxations(args, _result) -> int:
    a = args[0]
    return a.rows * int(np.count_nonzero(a.data > -np.inf))


def _temp_bytes(args, _result) -> int:
    a, b = args[0], args[1]
    return a.rows * a.cols * b.cols * 8 if isinstance(b, TropMatrix) else 0


# Counts computed from the arguments or result of a call, outside its span:
# traced function -> (metric name, count for one call).
_COUNTERS = {
    "closure.max_cycle_mean": ("closure.max_cycle_mean.relaxations", _relaxations),
    "core.tmul": ("core.tmul_mm.temp_bytes", _temp_bytes),
    "intlp.solve_dual_integer_general": ("intlp.solve_dual_integer_general.iterations",
                                         lambda _args, result: result.iterations),
    "io.parse_instance": ("io.parse_instance.bytes",
                          lambda args, _result: len(args[0].encode("utf-8"))),
    "io.serialize_solution": ("io.serialize_solution.bytes",
                              lambda _args, result: len(result.encode("utf-8"))),
}


class Tracer:
    """In-memory spans and counts of one traced run."""

    def __init__(self):
        self.spans: list[dict | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.instance: int | None = None
        self.replay = False
        self.last_args: dict[str, tuple] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        except TropError:
            self.counts[name + ".errors"] += 1
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = {"name": name, "start": start, "end": end,
                               "parent": parent, "instance": self.instance,
                               "replay": self.replay}

    def wrap(self, qualname: str, fn):
        namer = _tmul_name if qualname == "core.tmul" else (lambda _args: qualname)
        counter = _COUNTERS.get(qualname)

        def wrapper(*args, **kwargs):
            self.last_args[qualname] = (args, kwargs)
            with self.span(namer(args)):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, result)
            return result

        return wrapper


@contextmanager
def patched(tracer: Tracer, targets: list[tuple[str, object]], namespaces):
    """Bind a tracing wrapper in place of each target function in `namespaces`.

    targets is a list of (span name, function); every module attribute that
    is one of those functions is swapped for the duration of the block.
    """
    wrappers = {id(fn): (fn, tracer.wrap(name, fn)) for name, fn in targets}
    saved = []
    for module in namespaces:
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                saved.append((module, attr, value))
                setattr(module, attr, entry[1])
    try:
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


def layer_targets() -> tuple[list[tuple[str, object]], list[str]]:
    """Solver-layer functions that exist at this commit, plus those missing."""
    targets, missing = [], []
    for module_name, fn_name in LAYER_FUNCTIONS:
        fn = getattr(sys.modules.get(f"troplp.{module_name}"), fn_name, None)
        if fn is None:
            missing.append(f"{module_name}.{fn_name}")
        else:
            targets.append((f"{module_name}.{fn_name}", fn))
    return targets, missing


def troplp_modules() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if (name == "troplp" or name.startswith("troplp.")) and module is not None]


def _span_names() -> list[str]:
    names = ["cli.main"] + [f"io.{stage}" for stage in IO_STAGES]
    for module_name, fn_name in LAYER_FUNCTIONS:
        if (module_name, fn_name) == ("core", "tmul"):
            names += ["core.tmul_mm", "core.tmul_mv"]
        else:
            names.append(f"{module_name}.{fn_name}")
    return names


def summarize(spans: list[dict], counts: dict[str, float]) -> dict[str, float]:
    """Busy time (ms), calls and errors per span name, the computed counts,
    and cli.overhead.ms: the self time of cli.main outside its io stages.

    Every known name is present, at 0 when it was never called, so a
    metric name that is not one of them fails the lookup.
    """
    out = {f"{name}.{what}": 0.0 for name in _span_names()
           for what in ("ms", "calls", "errors")}
    out.update({key: 0.0 for key, _ in _COUNTERS.values()})
    out["cli.overhead.ms"] = 0.0
    child_ms: dict[int, float] = defaultdict(float)
    for span in spans:
        ms = (span["end"] - span["start"]) * 1e3
        out[span["name"] + ".ms"] += ms
        out[span["name"] + ".calls"] += 1
        if span["parent"] is not None:
            child_ms[span["parent"]] += ms
    for idx, span in enumerate(spans):
        if span["name"] == "cli.main":
            out["cli.overhead.ms"] += (span["end"] - span["start"]) * 1e3 - child_ms[idx]
    for key, value in counts.items():
        out[key] += value
    return out

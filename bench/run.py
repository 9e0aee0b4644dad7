"""Seeded benchmark of the troplp command-line path.

    python3 bench/run.py --workload graph|lp --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark writes a pool of instance files
for the workload (bench/workloads.py says what each workload holds), then
runs a closed loop in one process and one thread: each instance is solved by
an in-process call of troplp.cli.main(["solve", ...]) and its solution
re-checked by troplp.cli.main(["check", ...]), and the next instance starts
only when that pair has finished.  The loop makes whole passes over the pool,
so every run samples the same mix, until --seconds of measured time are
reached.

An instance fails when solve returns another exit code than the generator
expects, when check rejects the solution, when either call raises, or (for
the tiny instances in each pool) when the answer disagrees with a
brute-force oracle; the oracle comparison is not timed.  A failure that is a
produced answer being wrong (check rejects it, the oracle disagrees, or exit
0 and 1 are swapped) also sets "correct" to false; a refused instance (say,
exit 2) only counts as failed.

With --trace 0 the last line of stdout holds the end-to-end metrics of
BENCHMARK.json: p50 and p90 of the solve and check call times over all
pairs of the run; instances_per_s, the pairs that passed per second of
measured time; success_rate, the share of attempted instances that passed
(1 - fail_rate; the metadata line gives fail_rate itself); peak_rss_mb of
this process; and setup_s, the median over fresh interpreters of the time
to import troplp.cli and build its parser.

The pair times are scaled to a host of fixed speed.  On a shared host the
speed of the CPU a process runs on can change by 1.5x or more for seconds
to minutes at a time, as other tenants come and go, which moves every
timing of a run together.  So before each pair the benchmark times a fixed
probe, an interpreted loop and a JSON parse that run no troplp code, and
scales the pair's times by PROBE_REF_MS over the median probe time of the
pairs around it.  A change to troplp moves the scaled times as it moves the
raw ones; a change of host speed moves the probe as well and mostly cancels
out.  setup_s is not scaled: the
fresh interpreters may run on another CPU than the probe, which then does
not track them.  The metadata line gives the raw (unscaled) values and the
probe times next to them.

With --trace 1 the run makes one pass over the same pool and reports the
per-layer metrics: each instance is run once untraced and once with spans
around troplp.cli.main and its io stages, and the difference of the two path
times is the tracing overhead.  The solver-layer functions are then timed in
replays on the same parsed instance, which keeps the path timing clean.
Counts marked computed in tracing.py depend only on the seed and repeat
exactly.

The line before the result holds the run's metadata (seed, commit, source
digest, versions, CPU, instance counts, failure reasons).  Result, metadata
and spans are also written under .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 15

# Pair times are scaled to a host on which probe_s() takes PROBE_REF_MS; each
# pair is scaled by the median probe of the PROBE_WINDOW pairs on either side.
# PROBE_REF_MS is about the probe's median inside the loop on a 2-vCPU Xeon
# VM, so that scaled and raw times come out close there.
PROBE_REF_MS = 4.0
PROBE_WINDOW = 5
_PROBE_RNG = np.random.default_rng(0)
_PROBE_ROWS = _PROBE_RNG.uniform(-10.0, 10.0, (64, 64)).tolist()
_PROBE_TEXT = json.dumps(_PROBE_RNG.uniform(-10.0, 10.0, (160, 160)).round(3).tolist())

# A fresh interpreter imports the CLI, builds its parser and parses argv; the
# input file is missing on purpose, so main returns the input-error code 2
# right where a real invocation would start reading its input.
_SETUP_SCRIPT = ("import sys; sys.path.insert(0, sys.argv[1]); "
                 "from troplp.cli import main; "
                 "sys.exit(0 if main(['check', '--input', sys.argv[2]]) == 2 else 1)")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_s() -> float:
    """Time of a fixed task that tracks the host's speed, in seconds.

    The task is an interpreted max-plus sweep over Python lists and a JSON
    parse of a 160 x 160 matrix.  Over a run on a shared host whose speed
    changed by 1.9x, these two tracked the troplp path most closely: the
    log of its time moved 1.16-1.24 times as much as theirs, against 1.6-1.7
    times for a numpy max-plus product, which is left out for that reason.
    """
    start = perf_counter()
    best = [-1e300] * len(_PROBE_ROWS)
    for row in _PROBE_ROWS:
        for j, w in enumerate(row):
            v = w + best[j - 1]
            if v > best[j]:
                best[j] = v
    json.loads(_PROBE_TEXT)
    return perf_counter() - start


def _scales(probes: list[float]) -> list[float]:
    """Per-sample factor that maps a raw time to the reference host."""
    ref = PROBE_REF_MS / 1e3
    return [ref / statistics.median(probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
            for i in range(len(probes))]


def _pair(main, inst, out_path: Path) -> dict:
    """Solve and check one instance through `main`; times in seconds."""
    rec = {"solve": None, "check": None, "failure": None, "wrong": False}
    out_path.unlink(missing_ok=True)
    try:
        start = perf_counter()
        code = main(["solve", "--input", str(inst.path), "--output", str(out_path)])
        rec["solve"] = perf_counter() - start
    except Exception as exc:  # the program must never raise out of main
        rec["failure"] = f"solve raised {type(exc).__name__}"
        return rec
    if code != inst.expected_exit:
        rec["failure"] = f"{inst.label}: solve exit {code}, expected {inst.expected_exit}"
        rec["wrong"] = code in (0, 1)
        return rec
    try:
        start = perf_counter()
        code = main(["check", "--input", str(out_path)])
        rec["check"] = perf_counter() - start
    except Exception as exc:
        rec["failure"] = f"check raised {type(exc).__name__}"
        return rec
    if code != 0:
        rec["failure"] = f"{inst.label}: check exit {code}"
        rec["wrong"] = True
    return rec


class Tally:
    """Samples and failures of the pairs run so far."""

    def __init__(self):
        self.solve_ms: list[float] = []
        self.check_ms: list[float] = []
        self.attempted = 0
        self.failures: Counter = Counter()
        self.wrong = 0
        self.kinds: Counter = Counter()

    def add(self, inst, rec: dict, scale: float = 1.0):
        self.attempted += 1
        self.kinds[inst.kind] += 1
        if rec["solve"] is not None:
            self.solve_ms.append(rec["solve"] * 1e3 * scale)
        if rec["check"] is not None:
            self.check_ms.append(rec["check"] * 1e3 * scale)
        if rec["failure"] is not None:
            self.failures[rec["failure"]] += 1
            self.wrong += rec["wrong"]

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def _oracle_check(workloads, inst, rec: dict, out_path: Path):
    if rec["failure"] is None and inst.oracle:
        mismatch = workloads.oracle_mismatch(inst, out_path.read_text(encoding="utf-8"))
        if mismatch is not None:
            rec["failure"] = f"{inst.label}: {mismatch}"
            rec["wrong"] = True


def setup_once(work: Path) -> float:
    """Wall time of a fresh interpreter reaching the CLI's input read."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", _SETUP_SCRIPT, str(SRC),
                    str(work / "no-such-input.json")],
                   check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return perf_counter() - start


@dataclass
class TimedRun:
    scaled: Tally          # pair times scaled to the reference host
    raw: Tally             # the same pairs as measured
    measured_s: float      # raw pair time summed
    scaled_s: float        # scaled pair time summed
    probes: list[float]    # probe time before each pair, in seconds
    setup_s: float         # median of the fresh interpreters


def timed_run(cli, workloads, pool, seconds: float, work: Path) -> TimedRun:
    """Closed loop over the pool in whole passes, until the pairs have taken
    `seconds`.  The SETUP_REPEATS fresh interpreters of setup_s start between
    pairs, spread evenly over the run, so their median does not hang on the
    host's state during one short stretch."""
    out_path = work / "solution.json"
    sink = io.StringIO()
    records = []
    setups = []
    measured = 0.0
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        while not records or measured < seconds:
            for inst in pool:
                if len(setups) < SETUP_REPEATS and measured >= len(setups) * seconds / SETUP_REPEATS:
                    setups.append(setup_once(work))
                probe = probe_s()
                start = perf_counter()
                rec = _pair(cli.main, inst, out_path)
                pair_s = perf_counter() - start
                measured += pair_s
                _oracle_check(workloads, inst, rec, out_path)
                sink.seek(0)
                sink.truncate()
                records.append((inst, rec, probe, pair_s))
    # a last pass that overshoots can end before the last start is due
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_once(work))
    probes = [probe for _, _, probe, _ in records]
    tally, raw = Tally(), Tally()
    scaled = 0.0
    for (inst, rec, _, pair_s), scale in zip(records, _scales(probes)):
        tally.add(inst, rec, scale)
        raw.add(inst, rec)
        scaled += pair_s * scale
    return TimedRun(tally, raw, measured, scaled, probes, statistics.median(setups))


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        raise SystemExit("bench: no instance got this far, so there is nothing to time")
    return float(np.percentile(samples, q))


def end_to_end(tally: Tally, pair_s: float, setup_s: float) -> dict[str, float]:
    completed = tally.attempted - tally.failed
    return {
        "solve_ms.p50": _percentile(tally.solve_ms, 50),
        "solve_ms.p90": _percentile(tally.solve_ms, 90),
        "check_ms.p50": _percentile(tally.check_ms, 50),
        "check_ms.p90": _percentile(tally.check_ms, 90),
        "instances_per_s": completed / pair_s,
        "success_rate": completed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def traced_run(cli, workloads, tracing, pool, work: Path):
    """One pass: untraced pair, traced pair, then solver-layer replays."""
    import troplp.io
    import troplp.lp

    tracer = tracing.Tracer()
    tally = Tally()
    out_path = work / "solution.json"
    sink = io.StringIO()
    io_targets = [(f"io.{name}", getattr(cli, name))
                  for name in tracing.IO_STAGES if hasattr(cli, name)]
    layer_targets, missing = tracing.layer_targets()
    missing += [f"io.{name}" for name in tracing.IO_STAGES if not hasattr(cli, name)]
    modules = tracing.troplp_modules()
    path_ms = {"untraced": 0.0, "traced": 0.0}
    replay_errors = Counter()

    def traced_main(argv):
        with tracer.span("cli.main"):
            return cli.main(argv)

    def run_plain(inst):
        return _pair(cli.main, inst, out_path)

    def run_traced(inst):
        with tracing.patched(tracer, io_targets, [cli]):
            return _pair(traced_main, inst, out_path)

    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for inst in pool:
            tracer.instance = inst.index
            tracer.last_args.clear()
            # alternate which side goes first, so warm caches favour neither
            if inst.index % 2:
                plain, traced = run_plain(inst), run_traced(inst)
            else:
                traced, plain = run_traced(inst), run_plain(inst)
            for rec in (plain, traced):
                _oracle_check(workloads, inst, rec, out_path)
                tally.add(inst, rec)
            if plain["failure"] is None and traced["failure"] is None:
                path_ms["untraced"] += (plain["solve"] + plain["check"]) * 1e3
                path_ms["traced"] += (traced["solve"] + traced["check"]) * 1e3

            replays = []
            if "io.solve_to_payload" in tracer.last_args:
                replays.append(("solve", troplp.io.solve_to_payload,
                                tracer.last_args["io.solve_to_payload"]))
                if inst.kind in workloads.ABC_KINDS:
                    obj = json.loads(inst.path.read_text(encoding="utf-8"))
                    lp_inst = troplp.lp.LpInstance(troplp.TropMatrix(obj["A"]),
                                                   troplp.TropVector(obj["b"]),
                                                   troplp.TropVector(obj["c"]))
                    # looked up at call time, when the tracing wrapper is bound
                    replays.append(("certify", lambda *a: troplp.lp.certify(*a),
                                    ((lp_inst,), {})))
            if "io.check_solution_text" in tracer.last_args:
                replays.append(("check", troplp.io.check_solution_text,
                                tracer.last_args["io.check_solution_text"]))
            tracer.replay = True
            with tracing.patched(tracer, layer_targets, modules):
                for label, fn, (args, kwargs) in replays:
                    try:
                        fn(*args, **kwargs)
                    except Exception as exc:  # the CLI pass already counted it
                        replay_errors[f"{label}: {type(exc).__name__}"] += 1
            tracer.replay = False
            sink.seek(0)
            sink.truncate()

    values = tracing.summarize(tracer.spans, tracer.counts)
    values["trace.overhead.ms"] = path_ms["traced"] - path_ms["untraced"]
    values["trace.instances"] = float(len(pool))
    extra = {
        "path_ms": path_ms,
        "trace_overhead_share": (values["trace.overhead.ms"] / path_ms["untraced"]
                                 if path_ms["untraced"] else None),
        "untraced_functions": sorted(missing),
        "replay_errors": dict(replay_errors),
    }
    return tally, values, tracer.spans, extra


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "troplp").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _metadata(args, pool, tally: Tally, extra: dict) -> dict:
    sizes = [v for inst in pool for v in inst.shape]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(), "source_digest": _source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "pool": {"instances": len(pool), "size_range": [min(sizes), max(sizes)],
                 "kinds": dict(Counter(inst.kind for inst in pool)),
                 "expected_exit_1": sum(inst.expected_exit == 1 for inst in pool),
                 "oracle_checked": sum(bool(inst.oracle) for inst in pool)},
        "attempted_by_kind": dict(tally.kinds),
        "samples": {"solve": len(tally.solve_ms), "check": len(tally.check_ms)},
        "fail_rate": tally.failed / tally.attempted,
        "failures": dict(tally.failures),
        **extra,
    }


def _metrics(spec: list[dict], values: dict[str, float]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "troplp" / "cli.py").is_file():
        print(f"bench: no troplp sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    # The program is imported from this checkout's sources, never from an
    # installed copy; the bench modules import it, so they come after.
    sys.path.insert(0, str(SRC))
    import troplp
    import troplp.cli as cli
    if Path(troplp.__file__).resolve().parent != SRC / "troplp":
        print(f"bench: imported troplp from {troplp.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        work = Path(tmp)
        pool = workloads.build_pool(args.workload, args.seed, work)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for inst in workloads.build_warmup(work):
                probe_s()
                _pair(cli.main, inst, work / "warmup-solution.json")
        if args.trace:
            tally, values, spans, extra = traced_run(cli, workloads, tracing, pool, work)
            metrics = _metrics(spec["per_layer"], values)
        else:
            timed = timed_run(cli, workloads, pool, args.seconds, work)
            tally, spans = timed.scaled, None
            raw_values = end_to_end(timed.raw, timed.measured_s, timed.setup_s)
            extra = {"measured_s": timed.measured_s,
                     "raw": {m["name"]: raw_values[m["name"]] for m in spec["end_to_end"]},
                     "probe_ms": {"ref": PROBE_REF_MS,
                                  **{f"p{q}": float(np.percentile(timed.probes, q)) * 1e3
                                     for q in (10, 50, 90)}}}
            metrics = _metrics(spec["end_to_end"],
                               end_to_end(tally, timed.scaled_s, timed.setup_s))

    meta = _metadata(args, pool, tally, extra)
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"meta": meta, "result": result}, indent=1),
                                      encoding="utf-8")
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""coxrank benchmark: end-to-end metrics, or a traced per-layer breakdown.

Usage, from the repository root:

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Workloads: enumerate, certify, word-queries, exhaustive, or all (each in
its own process).  The workloads run in one process through coxrank's
library API with jobs=1, on whichever kernel backend imports (recorded as
``backend``).

With ``--trace 0`` the body runs untraced for about ``--seconds`` and the
end-to-end metrics are printed: setup_s (median of several imports of
coxrank plus graph and subgroup loading), run_s (median pass of the body),
query_p50_ms and query_p99_ms (one library call each), peak_rss_mib.
Times are in reference seconds: wall time corrected for the host's speed
drift, which ``clock.SpeedClock`` samples while the body runs.  With ``--trace 1`` untraced and traced passes alternate, spans are written
to ``.perfbench_out/<workload>.spans.tsv.gz``, and the per-layer metrics are
printed.  Every output is checked; the last line of standard output is one
JSON object, and the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import clock, tracing, workloads  # noqa: E402

OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 15


class Raised:
    """An exception raised by a library call, kept as the call's result."""

    def __init__(self, text: str):
        self.text = text


def import_coxrank():
    """A fresh import of coxrank from this checkout's sources."""
    src = ROOT / "src"
    if not (src / "coxrank" / "__init__.py").is_file():
        raise SystemExit(f"coxrank sources not found under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    cx = importlib.import_module("coxrank")
    if Path(cx.__file__).resolve().parent != src / "coxrank":
        raise SystemExit(f"imported coxrank from {cx.__file__}, not from {src}")
    return cx


def purge_coxrank() -> None:
    for key in [k for k in sys.modules if k == "coxrank" or k.startswith("coxrank.")]:
        del sys.modules[key]


def timed_setup(wl, inputs, speed):
    """Repeated set-ups, each timed in reference seconds."""
    spans = []
    with speed:
        for _ in range(SETUP_REPEATS):
            purge_coxrank()
            t0 = time.perf_counter()
            cx = import_coxrank()
            loaded = wl.load(cx, inputs)
            spans.append((t0, time.perf_counter()))
    return cx, loaded, [speed.seconds(*span) for span in spans]


def run_pass(ops, tracer=None, run_base=0):
    """One pass of the workload body: its (start, end) perf_counter
    interval, the interval of each call, and the results."""
    results, spans = [], []
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.run_id = run_base + i
            s = time.perf_counter()
            try:
                r = op.call()
            except Exception:  # a failed call is counted, the run goes on
                r = Raised(traceback.format_exc())
            spans.append((s, time.perf_counter()))
            results.append(r)
        interval = (t0, time.perf_counter())
    finally:
        if tracer is not None:
            tracer.uninstall()
    return interval, spans, results


class Checker:
    """Checks the first pass against the oracles; later passes, traced or
    not, must give the identical payloads."""

    def __init__(self, ops):
        self.ops = ops
        self.reference = None
        self.wrong: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.traced_mismatches = 0
        self.messages: list[str] = []

    def _fail(self, i: int, why: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"op {i} ({self.ops[i].label}): {why[:300]}")

    def check_pass(self, results, traced: bool) -> None:
        first = self.reference is None
        payloads = []
        for i, (op, r) in enumerate(zip(self.ops, results)):
            self.attempted += 1
            if isinstance(r, Raised):
                payloads.append(None)
                self._fail(i, "raised " + r.text.strip().splitlines()[-1])
                print(r.text, file=sys.stderr)
                continue
            p = op.payload(r)
            payloads.append(p)
            if first:
                problems = op.check(r)
                if problems:
                    self.wrong[i] = "; ".join(problems)
                    self._fail(i, self.wrong[i])
            elif p != self.reference[i]:
                self.traced_mismatches += traced
                self._fail(i, "payload differs from the first pass")
            elif i in self.wrong:
                self._fail(i, self.wrong[i])
        if first:
            self.reference = payloads


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(wl, cx, inputs, tracer, traced_ranges, walls) -> dict:
    """Per-layer metrics: the median over traced passes of each value, plus
    one traced set-up (where graphs are loaded), plus the trace's own
    overhead and coverage."""
    setup_lo = len(tracer)
    tracer.install()
    try:
        wl.load(cx, inputs)
    finally:
        tracer.uninstall()
    setup = tracing.layer_values(tracing.aggregate(tracer, setup_lo, len(tracer)))
    per_pass = [tracing.layer_values(tracing.aggregate(tracer, lo, hi))
                for lo, hi in traced_ranges]
    values = {
        name: statistics.median(p[name] for p in per_pass) + setup[name] for name in setup
    }
    values["trace.overhead_ratio"] = statistics.median(walls[True]) / statistics.median(
        walls[False]
    )
    # top-level spans cover exactly the time all spans' self times add up to
    covered = [
        sum(tracer.end[i] - tracer.start[i] for i in range(lo, hi) if tracer.parent[i] < lo)
        for lo, hi in traced_ranges
    ]
    values["trace.coverage"] = statistics.median(
        c / 1e9 / w for c, w in zip(covered, walls[True])
    )
    return {name: (values[name], unit) for name, unit, _ in tracing.per_layer_specs()}


def predictions(workload: str) -> dict[str, str]:
    """Metric name -> the end-to-end metrics it should move on this workload."""
    data = json.loads((Path(__file__).parent / "layer_map.json").read_text())
    out = {}
    for entry in data["predictions"]:
        if entry["workload"] in (workload, "all") and entry["moves"]:
            for name in entry["metrics"]:
                out[name] = ", ".join(entry["moves"])
    return out


def measure(ops, checker, tracer, seconds, speed=None):
    """Run a warm-up pass and then passes of the body, untraced and traced
    alternately when a tracer is given, while the next round still fits in
    ``seconds``.
    Returns pass times by traced flag, untraced query latencies, and the
    span range of each traced pass.  Untraced times are in reference
    seconds when a SpeedClock is given, else, like traced ones, in wall
    seconds.  Also returns the untraced passes' wall seconds."""
    walls = {False: [], True: []}
    raw: list[float] = []
    latencies: list[float] = []
    traced_ranges = []
    rounds = (False, True) if tracer is not None else (False,)
    start = time.perf_counter()
    # a warm-up pass, untimed: its results are the ones checked by the oracles
    checker.check_pass(run_pass(ops)[2], False)
    while True:
        r0 = time.perf_counter()
        for traced in rounds:
            lo = len(tracer) if traced else 0
            if traced or speed is None:
                interval, spans, results = run_pass(
                    ops, tracer if traced else None, len(traced_ranges) * len(ops)
                )
                span_s = [b - a for a, b in spans]
                wall = interval[1] - interval[0]
            else:
                with speed:
                    interval, spans, results = run_pass(ops)
                span_s = [speed.seconds(*span) for span in spans]
                wall = speed.seconds(*interval)
            if traced:
                traced_ranges.append((lo, len(tracer)))
            else:
                latencies += span_s
                raw.append(interval[1] - interval[0])
            walls[traced].append(wall)
            checker.check_pass(results, traced)
        now = time.perf_counter()
        if now - start + (now - r0) > seconds:
            return walls, latencies, traced_ranges, raw


def run_workload(args) -> int:
    wl = workloads.WORKLOADS[args.workload]
    import_coxrank()  # fail early outside a checkout; compiles the bytecode once
    OUT.mkdir(exist_ok=True)
    inputs = wl.inputs(args.seed, OUT)
    speed = clock.SpeedClock()
    cx, loaded, setup_times = timed_setup(wl, inputs, speed)
    ops = wl.ops(cx, inputs, loaded)
    checker = Checker(ops)
    tracer = tracing.Tracer() if args.trace else None

    walls, latencies, traced_ranges, raw = measure(
        ops, checker, tracer, args.seconds, None if args.trace else speed
    )

    guard_results = workloads.guards(cx, args.seed)
    if tracer is not None:
        guard_results.append(
            ("traced_payloads_identical",
             [f"{checker.traced_mismatches} traced results differ"]
             if checker.traced_mismatches else [])
        )
    for name, problems in guard_results:
        checker.attempted += 1
        if problems:
            checker.failed += 1
            checker.messages.append(f"guard {name}: {'; '.join(problems)}")

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": cx.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "inputs": inputs["digests"],
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))

    run_s = statistics.median(walls[False])
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (run_s, "s"),
            "query_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "query_p99_ms": (percentile(latencies, 0.99) * 1e3, "ms"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        notes = [
            "times in reference seconds (see perfbench/clock.py); host speed "
            f"sampled {len(speed.durations)} times, median sample "
            f"{statistics.median(speed.durations) * 1e3:.4f} ms "
            f"(nominal {clock.REF_S * 1e3:g} ms)",
            f"setup_s: median of {len(setup_times)} set-ups",
            f"run_s: median of {len(walls[False])} passes: "
            + " ".join(f"{w:.3f}" for w in walls[False]),
            "wall seconds of the same passes: " + " ".join(f"{w:.3f}" for w in raw),
            f"query_p*: {len(latencies)} queries; a query is {wl.query}",
        ]
    else:
        metrics = layer_metrics(wl, cx, inputs, tracer, traced_ranges, walls)
        path = OUT / f"{args.workload}.spans.tsv.gz"
        tracer.write_spans(path)
        notes = [
            f"median of {len(traced_ranges)} traced passes, plus one traced set-up",
            f"untraced run_s {run_s:.4f} wall s, median of {len(walls[False])} passes",
            f"{len(tracer)} spans written to {path.relative_to(ROOT)}",
        ]
    lines = [f"# {note}" for note in notes]
    moves = predictions(args.workload)
    for name, (value, unit) in metrics.items():
        hint = f"  -> {moves[name]}" if name in moves else ""
        lines.append(f"{name} {value:.6g} {unit}{hint}")
    lines.append(f"failed_ratio {checker.failed / checker.attempted:.6g} ratio  "
                 f"({checker.failed} of {checker.attempted} operations)")
    lines += [f"# FAILED {msg}" for msg in checker.messages]
    print("\n".join(lines))

    correct = checker.failed == 0
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, **result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so set-up and peak memory are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"## {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(proc.stdout, end="")
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, v in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined))
    return status or (0 if combined["correct"] else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

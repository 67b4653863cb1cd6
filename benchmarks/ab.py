#!/usr/bin/env python3
"""Compare two source trees on one perfbench workload, in alternating pairs.

Usage: python3 benchmarks/ab.py BASE HEAD --workload W --pairs N --seconds S --seed K

BASE and HEAD are checkouts of this repository (``git archive`` copies
will do).  Pair i (1 to N) runs each tree's own ``perfbench/run.py
--workload W --seed K+i-1 --seconds S --trace 0`` in a fresh process, base
first in odd pairs and head first in even ones, so that host drift over
the comparison falls on both sides alike.  Both trees must hold the same
``perfbench/`` and ``BENCHMARK.json``, and every run must report 0 failed
operations; otherwise nothing is recorded.

Every run has ``PYTHONDONTWRITEBYTECODE=1`` and a ``PYTHONPYCACHEPREFIX``
into which both trees' ``src`` are compiled first, so neither side writes
bytecode and both read the same kind of cache whatever ``__pycache__``
the trees hold: ``setup_s`` compares code, not cache state.

For each end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, the head/base ratio of the medians, how many pairs
head won (ties count for neither), and whether the medians differ by
more than the base's interquartile range.  One compact record per
comparison is appended to ``BENCH_ab.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_ab.json"


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, interpolated linearly
    between the order statistics."""
    s = sorted(values)

    def at(q: float) -> float:
        x = q * (len(s) - 1)
        i = int(x)
        j = min(i + 1, len(s) - 1)
        return s[i] + (s[j] - s[i]) * (x - i)

    return at(0.25), at(0.5), at(0.75)


def summarize(base, head, better: str) -> dict:
    """One metric over paired runs: ``base[i]`` and ``head[i]`` are pair
    i's values, and ``better`` is "lower" or "higher".  Head wins a pair
    when its value is strictly better; ``beyond_iqr`` says whether head's
    median is better than base's by more than base's interquartile
    range."""
    sign = 1 if better == "lower" else -1
    b = quartiles(base)
    h = quartiles(head)
    return {
        "base": list(b),
        "head": list(h),
        "ratio": h[1] / b[1] if b[1] else None,
        "wins": sum(sign * (y - x) < 0 for x, y in zip(base, head)),
        "pairs": len(base),
        "beyond_iqr": sign * (b[1] - h[1]) > b[2] - b[0],
    }


def _rounded(summary: dict) -> dict:
    """A summary with its floats cut to six significant digits."""

    def cut(v):
        return float(f"{v:.6g}") if isinstance(v, float) else v

    return {k: list(map(cut, v)) if isinstance(v, list) else cut(v) for k, v in summary.items()}


def _bench_files(tree: Path) -> list[Path]:
    files = [p.relative_to(tree) for p in (tree / "perfbench").rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    return sorted(files) + [Path("BENCHMARK.json")]


def same_benchmark(base: Path, head: Path) -> bool:
    """Whether both trees hold the same perfbench/ files and BENCHMARK.json."""
    files = _bench_files(base)
    _, mismatch, errors = filecmp.cmpfiles(base, head, [str(f) for f in files], shallow=False)
    return files == _bench_files(head) and not mismatch and not errors


def sources_digest(tree: Path) -> str:
    """SHA-256 prefix of the package sources, names and bytes."""
    h = hashlib.sha256()
    for p in sorted((tree / "src").rglob("*.py")):
        h.update(str(p.relative_to(tree)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def run_once(tree: Path, args, seed: int, env: dict) -> tuple[dict, dict]:
    """One untraced perfbench run of ``tree``: its result and provenance."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        provenance = json.loads(next(x for x in lines if x.startswith("provenance "))[11:])
    except (IndexError, StopIteration, ValueError):
        raise SystemExit(f"{tree}: no result (exit {proc.returncode})\n{proc.stdout}")
    if proc.returncode or result["failed"]:
        raise SystemExit(f"{tree}: {result['failed']} of {result['attempted']} "
                         f"operations failed at seed {seed}")
    return result, provenance


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not same_benchmark(trees["base"], trees["head"]):
        parser.error("the trees' perfbench/ or BENCHMARK.json differ")
    spec = json.loads((trees["head"] / "BENCHMARK.json").read_text())["end_to_end"]

    values = {side: {m["name"]: [] for m in spec} for side in trees}
    commits = {}
    with tempfile.TemporaryDirectory() as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src")],
                           env=env, check=True)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        for i in range(args.pairs):
            seed = args.seed + i
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                result, provenance = run_once(trees[side], args, seed, env)
                commits[side] = provenance["commit"]
                for name, series in values[side].items():
                    series.append(result["metrics"][name]["value"])
            print(f"pair {i + 1} seed {seed}: " + "  ".join(
                f"{m['name']} {values['base'][m['name']][-1]:.4g}/"
                f"{values['head'][m['name']][-1]:.4g}" for m in spec), flush=True)

    metrics = {m["name"]: summarize(values["base"][m["name"]], values["head"][m["name"]],
                                    m["better"]) for m in spec}
    print(f"{'metric':<14}{'base q1 med q3':>28}{'head q1 med q3':>28}"
          f"{'ratio':>8}{'wins':>7}  beyond base IQR")
    for m in spec:
        s = metrics[m["name"]]
        sides = ["{:.4g} {:.4g} {:.4g}".format(*s[side]) for side in ("base", "head")]
        ratio = "-" if s["ratio"] is None else f"{s['ratio']:.3f}"
        print(f"{m['name']:<14}{sides[0]:>28}{sides[1]:>28}{ratio:>8}"
              f"{s['wins']:>4}/{s['pairs']:<2}  {'yes' if s['beyond_iqr'] else 'no'}")

    record = {
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": [args.seed, args.seed + args.pairs - 1],
        **{side: {"commit": commits[side], "sources": sources_digest(tree)}
           for side, tree in trees.items()},
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "metrics": {name: _rounded(s) for name, s in metrics.items()},
    }
    records = json.loads(OUT.read_text()) if OUT.exists() else []
    records.append(record)
    OUT.write_text("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in records)
                   + "\n]\n")
    print(f"appended record {len(records)} to {OUT.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

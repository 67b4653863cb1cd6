#!/usr/bin/env python3
"""Compare two source trees on one benchmark, in alternating pairs.

Usage: python3 benchmarks/ab.py BASE HEAD --workload W [--pairs N] [--seconds S] [--seed K]

BASE and HEAD are each a directory holding a checkout of this repository
(a ``git archive`` copy will do) or a git revision of the repository
this script is in.  A revision is archived with ``git archive`` into a
temporary directory, which is removed afterwards, and is recorded under
the commit that ``git rev-parse REV^{commit}`` prints.  A directory is
used as it is and recorded with no commit (``"commit": null``): its
files may differ from any commit, so only its sources digest names it,
and a clean checkout is better given as its revision.  So ``ab.py HEAD
. --workload enumerate`` compares the last commit with the working
tree.  W is a perfbench workload, or ``kernels`` for the rows of
``benchmarks/bench_kernels.py``.  Pair i (1 to N) runs each tree's own
benchmark in a fresh process, base first in odd pairs and head first in
even ones, so that host drift over the comparison falls on both sides
alike.  A perfbench workload runs ``perfbench/run.py --workload W --seed
K+i-1 --seconds S --trace 0``, and its metrics are the end-to-end
metrics of ``BENCHMARK.json``; every run must report 0 failed
operations.  ``kernels`` runs ``benchmarks/bench_kernels.py``, which has
a fixed corpus seed and repeat count, so ``--seconds`` and ``--seed`` do
not apply; its metrics are the rows' ``median_ms`` (lower is better),
and every run of both trees must give the same rows with the same
digests.  Both trees must hold the same ``perfbench/`` and
``BENCHMARK.json``, and for ``kernels`` the same
``benchmarks/bench_kernels.py``.  Otherwise nothing is recorded.

Every run has ``PYTHONDONTWRITEBYTECODE=1`` and a ``PYTHONPYCACHEPREFIX``
into which both trees' ``src`` are compiled first, so neither side writes
bytecode and both read the same kind of cache whatever ``__pycache__``
the trees hold: start-up times compare code, not cache state.

SIGTERM stops a comparison as Ctrl-C does: it raises ``SystemExit``
(exit status 143), so the running benchmark process is killed and the
archived trees and the bytecode cache are removed.  Nothing is recorded.

For each metric it prints each side's median and quartiles, the
head/base ratio of the medians, how many pairs head won (ties count for
neither), and whether the medians differ by more than the base's
interquartile range.  One compact record per comparison is appended to
``BENCH_ab.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import io
import json
import os
import platform
import signal
import subprocess
import sys
import tarfile
import tempfile
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_ab.json"
KERNELS = "kernels"


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


def _bench_files(tree: Path, workload: str) -> list[Path]:
    files = [p.relative_to(tree) for p in (tree / "perfbench").rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    files = sorted(files) + [Path("BENCHMARK.json")]
    if workload == KERNELS:
        files.append(Path("benchmarks/bench_kernels.py"))
    return files


def same_benchmark(base: Path, head: Path, workload: str) -> bool:
    """Whether both trees hold the same perfbench/ files and BENCHMARK.json,
    and for the ``kernels`` workload the same row script."""
    files = _bench_files(base, workload)
    _, mismatch, errors = filecmp.cmpfiles(base, head, [str(f) for f in files], shallow=False)
    return files == _bench_files(head, workload) and not mismatch and not errors


def sources_digest(tree: Path) -> str:
    """SHA-256 prefix of the package sources, names and bytes."""
    h = hashlib.sha256()
    for p in sorted((tree / "src").rglob("*.py")):
        h.update(str(p.relative_to(tree)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def checkout(arg: str, stack: ExitStack) -> tuple[Path, str | None]:
    """The tree that a BASE or HEAD argument names, and its commit.  A
    directory is used as it is and names no commit; any other argument
    must be a git revision of this repository, which is archived into a
    temporary directory that ``stack`` removes."""
    if Path(arg).is_dir():
        return Path(arg).resolve(), None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                           f"{arg}^{{commit}}"], capture_output=True, text=True, check=False)
    if proc.returncode:
        raise SystemExit(f"{arg!r} is neither a directory nor a git revision")
    commit = proc.stdout.strip()
    tree = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="ab-")))
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    return tree, commit


def run_once(tree: Path, args, seed: int, env: dict) -> dict:
    """The result (the last stdout line) of one run of ``tree``'s benchmark."""
    if args.workload == KERNELS:
        cmd = [tree / "benchmarks" / "bench_kernels.py"]
    else:
        cmd = [tree / "perfbench" / "run.py", "--workload", args.workload, "--seed", seed,
               "--seconds", args.seconds, "--trace", 0]
    proc = subprocess.run([sys.executable, *map(str, cmd)], cwd=tree, env=env,
                          stdout=subprocess.PIPE, text=True, check=False)
    try:
        result = json.loads(proc.stdout.rstrip("\n").splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{tree}: no result (exit {proc.returncode})\n{proc.stdout}")
    if proc.returncode or result.get("failed"):
        raise SystemExit(f"{tree}: exit {proc.returncode}, {result.get('failed')} of "
                         f"{result.get('attempted')} operations failed at seed {seed}")
    return result


def row_series(runs: dict) -> dict:
    """Each ``bench_kernels.py`` row's ``median_ms`` per run, as ``{key:
    ("lower", base, head)}``, from ``runs[side]``, each side's results in
    pair order.  Refuses a row that some run lacks, or whose digest differs
    from the one in base's first run."""
    first = runs["base"][0]["rows"]
    for side, results in runs.items():
        for rows in (r["rows"] for r in results):
            if rows.keys() != first.keys():
                raise SystemExit(f"rows {sorted(rows.keys() ^ first.keys())} are not "
                                 "in every run of both trees")
            for key, row in rows.items():
                if row["digest"] != first[key]["digest"]:
                    raise SystemExit(f"row {key!r}: digest {row['digest']} in {side}, "
                                     f"{first[key]['digest']} in base")
    return {key: ("lower", *([r["rows"][key]["median_ms"] for r in runs[side]]
                             for side in ("base", "head"))) for key in first}


def metric_series(runs: dict, spec: list) -> dict:
    """Each end-to-end metric of ``spec`` per perfbench run, as ``{name:
    (better, base, head)}``."""
    return {m["name"]: (m["better"], *([r["metrics"][m["name"]]["value"] for r in runs[side]]
                                       for side in ("base", "head"))) for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="a checkout directory or a git revision")
    parser.add_argument("head", help="a checkout directory or a git revision")
    parser.add_argument("--workload", required=True,
                        help=f"a perfbench workload, or {KERNELS!r} for bench_kernels.py's rows")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
                        help="seconds per perfbench run (perfbench workloads only; "
                        "default: BENCHMARK.json run_seconds)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair (perfbench workloads only)")
    args = parser.parse_args(argv)
    kernels = args.workload == KERNELS
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    with ExitStack() as stack:
        checkouts = {side: checkout(getattr(args, side), stack) for side in ("base", "head")}
        trees = {side: tree for side, (tree, _) in checkouts.items()}
        if not same_benchmark(trees["base"], trees["head"], args.workload):
            parser.error("the trees' perfbench/, BENCHMARK.json or "
                         "benchmarks/bench_kernels.py differ")
        spec = json.loads((trees["head"] / "BENCHMARK.json").read_text())["end_to_end"]
        runs = {side: [] for side in trees}
        cache = stack.enter_context(tempfile.TemporaryDirectory())
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src")],
                           env=env, check=True)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        for i in range(args.pairs):
            seed = args.seed + i
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                runs[side].append(run_once(trees[side], args, seed, env))
            series = row_series(runs) if kernels else metric_series(runs, spec)
            print(f"pair {i + 1}: head/base " + " ".join(
                f"{h[-1] / b[-1]:.3f}" if b[-1] else "-" for _, b, h in series.values()), flush=True)
        recorded = {side: {"commit": commit, "sources": sources_digest(tree)}
                    for side, (tree, commit) in checkouts.items()}

    metrics = {name: summarize(b, h, better) for name, (better, b, h) in series.items()}
    width = max(len("metric"), *map(len, metrics)) + 2
    print(f"{'metric':<{width}}{'base q1 med q3':>28}{'head q1 med q3':>28}"
          f"{'ratio':>8}{'wins':>7}  beyond base IQR")
    for name, s in metrics.items():
        sides = ["{:.4g} {:.4g} {:.4g}".format(*s[side]) for side in ("base", "head")]
        ratio = "-" if s["ratio"] is None else f"{s['ratio']:.3f}"
        print(f"{name:<{width}}{sides[0]:>28}{sides[1]:>28}{ratio:>8}"
              f"{s['wins']:>4}/{s['pairs']:<2}  {'yes' if s['beyond_iqr'] else 'no'}")

    record = {
        "workload": args.workload,
        "pairs": args.pairs,
        "seconds": None if kernels else args.seconds,
        "seeds": None if kernels else [args.seed, args.seed + args.pairs - 1],
        **recorded,
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

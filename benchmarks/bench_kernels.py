#!/usr/bin/env python3
"""Time the word kernels and the ball, and record them in BENCH_kernels.json.

Usage: python3 benchmarks/bench_kernels.py [--words N] [--max-len L] [--label NAME]

Times is_reduced, reduce_word and normal_form over a seeded corpus of
random words on the pentagon graph, and ``words.ball_bytes`` at radii 8
and 10.  Each row is the median of REPEATS runs and records its
parameters, the kernel backend, the Python version and a digest of the
results: equal digests mean byte-identical output.  The rows are stored
under ``--label`` in BENCH_kernels.json at the repository root; runs under
other labels stay in the file.  To time another source tree, put its
``src`` first on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "src"))  # PYTHONPATH, when set, comes first

from coxrank import kernels, words  # noqa: E402
from coxrank.graphs import DefiningGraph  # noqa: E402

C5 = DefiningGraph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
CORPUS_SEED = 12345
BALL_RADII = (8, 10)
REPEATS = 5
OUT = ROOT / "BENCH_kernels.json"


def _corpus(n_words, max_len):
    rng = random.Random(CORPUS_SEED)
    return [
        bytes(rng.randrange(C5.n) for _ in range(rng.randint(0, max_len)))
        for _ in range(n_words)
    ]


def _row(op, params, run):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - t0)
    return {
        "op": op,
        "params": params,
        "backend": kernels.BACKEND,
        "python": platform.python_version(),
        "repeats": REPEATS,
        "median_ms": round(statistics.median(times) * 1000, 2),
        "digest": hashlib.sha256(repr(result).encode()).hexdigest()[:16],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--words", type=int, default=20_000)
    parser.add_argument("--max-len", type=int, default=40)
    parser.add_argument("--label", default="current", help="key of this run in the file")
    args = parser.parse_args()

    corpus = _corpus(args.words, args.max_len)
    comm = C5.comm_masks
    corpus_params = {
        "graph": "C5",
        "words": args.words,
        "maxLen": args.max_len,
        "seed": CORPUS_SEED,
    }
    rows = [
        _row(op, corpus_params, lambda f=getattr(kernels, op): [f(w, comm) for w in corpus])
        for op in ("is_reduced", "reduce_word", "normal_form")
    ]
    rows += [
        _row("ball_bytes", {"graph": "C5", "radius": r}, lambda r=r: words.ball_bytes(C5, r))
        for r in BALL_RADII
    ]

    print(f"{'op':<14}{'params':<42}{'median':>12}  digest")
    for row in rows:
        params = " ".join(f"{k}={v}" for k, v in row["params"].items())
        print(f"{row['op']:<14}{params:<42}{row['median_ms']:>10.1f}ms  {row['digest']}")

    doc = json.loads(OUT.read_text()) if OUT.exists() else {"topic": "kernels", "runs": {}}
    doc["runs"][args.label] = {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "rows": rows,
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote run {args.label!r} to {OUT.name}")


if __name__ == "__main__":
    main()

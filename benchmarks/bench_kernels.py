#!/usr/bin/env python3
"""Time the word kernels, the ball, goodness and the verify drivers of
the ``src`` next to this script, one row each, through public names only.

Usage: python3 benchmarks/bench_kernels.py

Times is_reduced, reduce_word and normal_form over a seeded corpus of
CORPUS_WORDS random words of at most CORPUS_MAX_LEN letters on the
pentagon graph, then normal_form on long words: LONG_WORDS seeded words
of LONG_LENGTHS letters over a seeded graph with LONG_VERTICES vertices
and LONG_EDGES edges (the word-queries shape), and one word of
SLOW_LETTERS letters, (c d)^k w (a b)^m at a 3:2 split, on the graph
a-c, a-d, b-c, b-d plus w, which costs a rescanning extraction a cubic
time.  Then ``words.equal`` on seeded pairs of long words (half of
them equal by random legal moves, half one letter off),
``words.ball_bytes`` at radii 8 and 10, and
``verify_essential_certificates`` at radius 8 and conjugation radius 4.
Then the enumerate paths: ``certificates.bad_mask`` on the full-support
elements of the radius-10 ball, ``verify_subgroup_covering`` with the
index-8 parity subgroup of ``graphs/parity8.sub`` at radii 8 and 10, and
``verify_cancellator_uniformity`` at radius 8.  Then the exhaustive
checks: ``verify_word_problem`` at max-len 6 (the rewriting closure of
the words up to length 8 plus a normal form per word of length <= 6),
``verify_join_lemma`` on every labelled graph with at most 6 vertices,
and ``verify_parity_invariance`` with 10k trials.  Last, the start-up:
each of IMPORT_REPEATS repeats removes every coxrank module from
``sys.modules``, imports coxrank and loads ``graphs/c5.txt`` with its
commutator subgroup and ``graphs/parity8.sub``, as perfbench's set-up
does; it runs last so that the earlier rows keep their module objects,
its digest is what was loaded (the graph's vertices and commuting masks
and both subgroups' bases), and its params record
``sys.dont_write_bytecode``, since compiling the sources each time costs
several times the import itself.

These are 17 rows.  Each row calls public entry points only, on inputs
this script builds itself, and nothing of coxrank is patched, so the
script runs unchanged in any checkout back to the first benchmark
commit.  The ball's normal-form calls, the falsifier and the rewriting
closure are timed inside the ``ball_bytes``, ``certificates`` and
``wordproblem`` rows; perfbench's tracer splits them out per layer.

Each row is the median wall time of REPEATS runs with a digest of the
last run's results: equal digests mean byte-identical output (the bad
masks; a report's payload without ``elapsedMs``).  A row's key is its op
and its params, ``op k=v ...``, unique among the rows.  The script takes
no options and writes no file.  It prints one line per row and, as its
last line, one JSON object:
``{"backend": B, "rows": {KEY: {"median_ms": M, "digest": D}, ...}}``.
To compare two checkouts, run ``benchmarks/ab.py BASE HEAD --workload
kernels``, which runs each tree's copy of this script in alternating
pairs and refuses rows whose digests differ.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]  # this checkout, whatever PYTHONPATH says

from coxrank import certificates, kernels, verify, words  # noqa: E402
from coxrank.graphs import DefiningGraph  # noqa: E402
from coxrank.subgroups import parse_subgroup_file  # noqa: E402
from perfbench.workloads import report_payload  # noqa: E402

C5 = DefiningGraph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
CORPUS_SEED = 12345
CORPUS_WORDS = 20_000
CORPUS_MAX_LEN = 40
BALL_RADII = (8, 10)
REPEATS = 5
IMPORT_REPEATS = 15
CERTIFICATES_RADIUS = 8
CONJ_RADIUS = 4
GOODNESS_RADIUS = 10
SUBGROUP_FILE = "graphs/parity8.sub"
SUBGROUP_RADII = (8, 10)
UNIFORMITY_RADIUS = 8
WORD_PROBLEM_MAX_LEN = 6
JOIN_MAX_VERTICES = 6
PARITY_TRIALS = 10_000
PARITY_SEED = 1
EQUAL_PAIRS = 200
EQUAL_LENGTHS = (50, 300)
LONG_VERTICES = 12
LONG_EDGES = 26
LONG_WORDS = 200
LONG_LENGTHS = (50, 300)
SLOW = DefiningGraph("abcdw", [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
SLOW_LETTERS = 512


def _corpus():
    rng = random.Random(CORPUS_SEED)
    return [
        bytes(rng.randrange(C5.n) for _ in range(rng.randint(0, CORPUS_MAX_LEN)))
        for _ in range(CORPUS_WORDS)
    ]


def _long_words():
    """A seeded graph of LONG_VERTICES vertices and LONG_EDGES edges, with
    LONG_WORDS seeded words of LONG_LENGTHS letters over it."""
    rng = random.Random(CORPUS_SEED)
    labels = [f"v{i}" for i in range(LONG_VERTICES)]
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1 :]]
    g = DefiningGraph(labels, rng.sample(pairs, LONG_EDGES))
    return g, [
        bytes(rng.randrange(g.n) for _ in range(rng.randint(*LONG_LENGTHS)))
        for _ in range(LONG_WORDS)
    ]


def _slow_word():
    """(c d)^k w (a b)^m on SLOW with SLOW_LETTERS letters, 2k:m near 3:2."""
    k = SLOW_LETTERS * 3 // 10
    return bytes([2, 3] * k + [4] + [i % 2 for i in range(SLOW_LETTERS - 2 * k - 1)])


def _equal_pairs():
    """Label pairs of random words with EQUAL_LENGTHS letters: the second
    is the first after as many random legal moves as it has letters, plus,
    in every other pair, one inserted letter (a parity change)."""
    rng = random.Random(CORPUS_SEED)
    comm = C5.comm_masks
    pairs = []
    for i in range(EQUAL_PAIRS):
        w = [rng.randrange(C5.n) for _ in range(rng.randint(*EQUAL_LENGTHS))]
        other = list(w)
        for _ in range(len(w)):
            j = rng.randrange(len(other) + 1)
            if j + 1 < len(other) and other[j] == other[j + 1]:
                del other[j : j + 2]
            elif j + 1 < len(other) and (comm[other[j]] >> other[j + 1]) & 1:
                other[j], other[j + 1] = other[j + 1], other[j]
            else:
                other[j:j] = [rng.randrange(C5.n)] * 2
        if i % 2:
            other.insert(rng.randrange(len(other) + 1), rng.randrange(C5.n))
        pairs.append((words.decode_word(C5, bytes(w)), words.decode_word(C5, bytes(other))))
    return pairs


def _fresh_load(subgroup_text):
    """Import coxrank afresh and load the pentagon with its commutator
    subgroup and the index-8 subgroup; return what was loaded."""
    for key in [k for k in sys.modules if k == "coxrank" or k.startswith("coxrank.")]:
        del sys.modules[key]
    cx = importlib.import_module("coxrank")
    g = cx.load_graph(ROOT / "graphs" / "c5.txt")
    subgroups = (cx.commutator_subgroup(g), cx.parse_subgroup_file(subgroup_text, graph=g))
    return g.vertices, g.comm_masks, [spec.basis for spec in subgroups]


def _row(op, params, run, view=lambda result: result, repeats=REPEATS):
    """The row's key and the median wall time of ``repeats`` runs; the
    digest is taken of ``view`` applied to the last result."""
    spans = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run()
        spans.append(time.perf_counter() - t0)
    key = " ".join([op, *(f"{k}={v}" for k, v in params.items())])
    return key, {
        "median_ms": round(statistics.median(spans) * 1000, 2),
        "digest": hashlib.sha256(repr(view(result)).encode()).hexdigest()[:16],
    }


def main():
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    comm = C5.comm_masks
    corpus = _corpus()
    long_graph, long_words = _long_words()
    slow_word = _slow_word()
    pairs = _equal_pairs()
    full_support = [w for w in words.ball_bytes(C5, GOODNESS_RADIUS) if len(set(w)) == C5.n]
    subgroup_text = (ROOT / SUBGROUP_FILE).read_text(encoding="utf-8")
    spec = parse_subgroup_file(subgroup_text, graph=C5)
    corpus_params = {
        "graph": "C5",
        "words": CORPUS_WORDS,
        "maxLen": CORPUS_MAX_LEN,
        "seed": CORPUS_SEED,
    }
    rows = [
        *(
            _row(op, corpus_params, lambda f=getattr(kernels, op): [f(w, comm) for w in corpus])
            for op in ("is_reduced", "reduce_word", "normal_form")
        ),
        _row(
            "normal_form",
            {
                "graph": f"random{LONG_VERTICES}",
                "edges": LONG_EDGES,
                "words": LONG_WORDS,
                "minLen": LONG_LENGTHS[0],
                "maxLen": LONG_LENGTHS[1],
                "seed": CORPUS_SEED,
            },
            lambda: [kernels.normal_form(w, long_graph.comm_masks) for w in long_words],
        ),
        _row(
            "normal_form",
            {"graph": "C4+w", "word": "(cd)^kw(ab)^m", "letters": SLOW_LETTERS},
            lambda: kernels.normal_form(slow_word, SLOW.comm_masks),
        ),
        _row(
            "equal",
            {
                "graph": "C5",
                "pairs": len(pairs),
                "minLen": EQUAL_LENGTHS[0],
                "maxLen": EQUAL_LENGTHS[1],
                "seed": CORPUS_SEED,
            },
            lambda: [words.equal(C5, a, b) for a, b in pairs],
        ),
        *(
            _row("ball_bytes", {"graph": "C5", "radius": r}, lambda r=r: words.ball_bytes(C5, r))
            for r in BALL_RADII
        ),
        _row(
            "certificates",
            {"graph": "C5", "radius": CERTIFICATES_RADIUS, "conjRadius": CONJ_RADIUS},
            lambda: verify.verify_essential_certificates(C5, CERTIFICATES_RADIUS, CONJ_RADIUS),
            report_payload,
        ),
        _row(
            "goodness",
            {"graph": "C5", "radius": GOODNESS_RADIUS, "words": len(full_support)},
            lambda: [certificates.bad_mask(C5, w) for w in full_support],
        ),
        *(
            _row(
                "subgroup_covering",
                {"graph": "C5", "subgroup": SUBGROUP_FILE, "radius": r},
                lambda r=r: verify.verify_subgroup_covering(C5, spec, r),
                report_payload,
            )
            for r in SUBGROUP_RADII
        ),
        _row(
            "uniformity",
            {"graph": "C5", "radius": UNIFORMITY_RADIUS},
            lambda: verify.verify_cancellator_uniformity(C5, None, UNIFORMITY_RADIUS),
            report_payload,
        ),
        _row(
            "wordproblem",
            {"graph": "C5", "maxLen": WORD_PROBLEM_MAX_LEN},
            lambda: verify.verify_word_problem(C5, WORD_PROBLEM_MAX_LEN),
            report_payload,
        ),
        _row(
            "join_lemma",
            {"maxVertices": JOIN_MAX_VERTICES},
            lambda: verify.verify_join_lemma(JOIN_MAX_VERTICES),
            report_payload,
        ),
        _row(
            "parity",
            {"graph": "C5", "trials": PARITY_TRIALS, "seed": PARITY_SEED},
            lambda: verify.verify_parity_invariance(C5, PARITY_TRIALS, seed=PARITY_SEED),
            report_payload,
        ),
        _row(
            "import",
            {
                "graph": "C5",
                "subgroups": ["commutator", SUBGROUP_FILE],
                "dontWriteBytecode": sys.dont_write_bytecode,
            },
            lambda: _fresh_load(subgroup_text),
            repeats=IMPORT_REPEATS,
        ),
    ]
    assert len(dict(rows)) == len(rows), "two rows share a key"
    width = max(len(key) for key, _ in rows)
    for key, row in rows:
        print(f"{key:<{width}}{row['median_ms']:>10.1f}ms  {row['digest']}")
    print(json.dumps({"backend": kernels.BACKEND, "rows": dict(rows)}))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Time the word kernels, the ball, the falsifier, goodness and the verify
loops of the ``src`` next to this script, one row each.

Usage: python3 benchmarks/bench_kernels.py

Times is_reduced, reduce_word and normal_form over a seeded corpus of
CORPUS_WORDS random words of at most CORPUS_MAX_LEN letters on the
pentagon graph, normal_form again over the words
one radius-10 ball passes to it (recorded untimed, in call order),
``words.equal`` on seeded pairs of long words (half of them equal by
random legal moves, half one letter off),
``words.ball_bytes`` at radii 8 and 10, and the falsifier core on the
certified words of the radius-8 ball plus one planted non-essential
word, at conjugation radius 4 (the conjugator table build and the
falsifier calls, timed together, one call per word), and
``verify_essential_certificates`` on the same radii, which falsifies one
word of each inverse pair.  Then
the enumerate paths: ``certificates.bad_mask`` on the full-support
elements of the radius-10 ball, ``verify_subgroup_covering`` with the
index-8 parity subgroup of ``graphs/parity8.sub`` at radii 8 and 10, and
``verify_cancellator_uniformity`` at radius 8.  Then the
exhaustive checks: the rewriting-closure partition of the pentagon's
words up to length 8, ``verify_word_problem`` at max-len 6 (the same
closure plus a normal form per word of length <= 6), ``verify_join_lemma``
on every labelled graph with at most 6 vertices, and
``verify_parity_invariance`` with 10k trials.  Last, the start-up: each
of IMPORT_REPEATS repeats removes every coxrank module from
``sys.modules``, imports coxrank and loads ``graphs/c5.txt`` with its
commutator subgroup and ``graphs/parity8.sub``, as perfbench's set-up
does; it runs last so that the earlier rows keep their module objects,
its digest is the sorted list of loaded coxrank modules, and its params
record ``sys.dont_write_bytecode``, since compiling the sources each
time costs several times the import itself.

Each row is the median wall time of REPEATS runs with a digest of the
last run's results: equal digests mean byte-identical output (the bad
masks; the closure's class roots; a report's payload without
``elapsedMs``).  A row's key is its op and its params, ``op k=v ...``,
unique among the rows.  The script takes no options and writes no file.
It prints one line per row and, as its last line, one JSON object:
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
FALSIFY_RADIUS = 8
CONJ_RADIUS = 4
# e b d c . a . c d b e: a conjugate of a with full support
PLANTED = bytes([4, 1, 3, 2, 0, 2, 3, 1, 4])
GOODNESS_RADIUS = 10
SUBGROUP_FILE = "graphs/parity8.sub"
SUBGROUP_RADII = (8, 10)
UNIFORMITY_RADIUS = 8
CLOSURE_CAP = 8
WORD_PROBLEM_MAX_LEN = 6
JOIN_MAX_VERTICES = 6
PARITY_TRIALS = 10_000
PARITY_SEED = 1
EQUAL_PAIRS = 200
EQUAL_LENGTHS = (50, 300)


def _corpus():
    rng = random.Random(CORPUS_SEED)
    return [
        bytes(rng.randrange(C5.n) for _ in range(rng.randint(0, CORPUS_MAX_LEN)))
        for _ in range(CORPUS_WORDS)
    ]


def _ball_inputs(radius):
    """The words ``ball_bytes(C5, radius)`` passes to ``kernels.normal_form``,
    in call order, recorded by wrapping the kernel for one untimed ball."""
    nf = kernels.normal_form
    seen = []

    def record(word, comm):
        seen.append(word)
        return nf(word, comm)

    kernels.normal_form = record
    try:
        words.ball_bytes(C5, radius)
    finally:
        kernels.normal_form = nf
    return seen


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


def _certified():
    """Ball elements certified by either essentiality criterion, in ball
    order, then the planted word."""
    full = (1 << C5.n) - 1
    out = [
        w
        for w in words.ball_bytes(C5, FALSIFY_RADIUS)
        if words.parity_bits(w) == full
        or (words.support_bits(w) == full and certificates.bad_mask(C5, w) == 0)
    ]
    return out + [PLANTED]


def _falsify_all(certified, conj_ball):
    table = certificates.conjugator_table(conj_ball)
    return [certificates._falsify_enc(C5, w, table) for w in certified]


def _coxrank_modules():
    return sorted(k for k in sys.modules if k == "coxrank" or k.startswith("coxrank."))


def _fresh_load(subgroup_text):
    """Import coxrank afresh and load the pentagon with its commutator
    subgroup and the index-8 subgroup; return the loaded coxrank modules."""
    for key in _coxrank_modules():
        del sys.modules[key]
    cx = importlib.import_module("coxrank")
    g = cx.load_graph(ROOT / "graphs" / "c5.txt")
    cx.commutator_subgroup(g)
    cx.parse_subgroup_file(subgroup_text, graph=g)
    return _coxrank_modules()


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
    ball_inputs = _ball_inputs(max(BALL_RADII))
    pairs = _equal_pairs()
    certified = _certified()
    conj_ball = words.ball_bytes(C5, CONJ_RADIUS)
    full = (1 << C5.n) - 1
    full_support = [
        w for w in words.ball_bytes(C5, GOODNESS_RADIUS) if words.support_bits(w) == full
    ]
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
            {"graph": "C5", "inputs": "ball", "radius": max(BALL_RADII), "words": len(ball_inputs)},
            lambda: [kernels.normal_form(w, comm) for w in ball_inputs],
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
            "falsify",
            {
                "graph": "C5",
                "radius": FALSIFY_RADIUS,
                "conjRadius": CONJ_RADIUS,
                "words": len(certified),
            },
            lambda: _falsify_all(certified, conj_ball),
        ),
        _row(
            "certificates",
            {"graph": "C5", "radius": FALSIFY_RADIUS, "conjRadius": CONJ_RADIUS},
            lambda: verify.verify_essential_certificates(C5, FALSIFY_RADIUS, CONJ_RADIUS),
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
            "closure_partition",
            {"graph": "C5", "cap": CLOSURE_CAP},
            lambda: verify._closure_partition(C5.n, comm, CLOSURE_CAP),
            lambda partition: partition[0],  # the class roots
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

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every criterion carries the time budget it must fit in.
"""

import random
import time

import pytest

from coxrank.cancellator import fix_missing, make_good
from coxrank.certificates import bad_set
from coxrank.graphs import DefiningGraph, dj_double_prime, dj_prime
from coxrank.ranks import rank_raag, rank_racg
from coxrank.subgroups import commutator_subgroup, enumerate_members, index_and_exponent
from coxrank.verify import (
    rewriting_closure_equal,
    verify_covering,
    verify_essential_certificates,
    verify_join_lemma,
    verify_parity_invariance,
    verify_subgroup_covering,
    verify_word_problem,
)
from coxrank.words import equal, reduce_word, support

C5 = DefiningGraph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
DINF = DefiningGraph("ab")


def _conclude(name, ok, elapsed, budget, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {verdict} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"{name} failed: {detail}"
    assert elapsed < budget, f"{name} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


def test_criterion_1_word_problem_oracle_equivalence():
    t0 = time.perf_counter()
    reports = [verify_word_problem(C5, max_len=4), verify_word_problem(DINF, max_len=4)]
    ok = all(r.verdict == "PASS" for r in reports)
    mismatches = 0
    rng = random.Random(20260810)
    for g in (C5, DINF):
        for _ in range(10_000):
            pair = []
            for _side in range(2):
                length = rng.randint(0, 6)
                pair.append(
                    tuple(g.vertices[rng.randrange(g.n)] for _ in range(length))
                )
            if equal(g, *pair) != rewriting_closure_equal(g, *pair):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    _conclude(
        "1 word-problem-oracle-equivalence",
        ok and mismatches == 0,
        elapsed,
        120,
        f"exhaustive pairs len<=4 on C5+Dinf, 10^4 sampled pairs len<=6 each, "
        f"{mismatches} mismatches",
    )


def test_criterion_2_parity_invariance():
    t0 = time.perf_counter()
    report = verify_parity_invariance(C5, trials=10_000, max_len=12, seed=20260810)
    elapsed = time.perf_counter() - t0
    _conclude(
        "2 parity-invariance",
        report.verdict == "PASS",
        elapsed,
        30,
        f"{report.total_cases} move sequences, {len(report.failures)} violations",
    )


def test_criterion_3_covering_ball8():
    t0 = time.perf_counter()
    report = verify_covering(C5, radius=8)
    multipliers_in_s = all(
        key == "(identity)" or len(set(key.split())) == len(key.split())
        for key in report.params["alphaHistogram"]
    )
    elapsed = time.perf_counter() - t0
    _conclude(
        "3 covering-theorem-ball8",
        report.verdict == "PASS" and multipliers_in_s,
        elapsed,
        300,
        f"{report.total_cases} elements, "
        f"{report.params['distinctMultipliers']} distinct multipliers",
    )


def test_criterion_4_subgroup_covering_commutator():
    t0 = time.perf_counter()
    spec = commutator_subgroup(C5)
    index, _ = index_and_exponent(spec)
    report = verify_subgroup_covering(C5, spec, radius=8)
    count_ok = report.params["distinctTotalMultipliers"] <= 200
    # trace-length bound, re-derived per element through the two phases
    bound_ok = True
    for word in enumerate_members(spec, 8):
        missing = len(C5.vertices) - len(support(C5, word))
        w1, t1 = fix_missing(C5, word)
        bad1 = len(bad_set(C5, reduce_word(C5, w1)).bad_set)
        _, t2 = make_good(C5, w1)
        if len(t1.steps) > min(missing, 5) or len(t2.steps) > bad1:
            bound_ok = False
            break
    elapsed = time.perf_counter() - t0
    _conclude(
        "4 subgroup-covering-commutator",
        report.verdict == "PASS" and index == 32 and count_ok and bound_ok,
        elapsed,
        600,
        f"{report.total_cases} members, index {index}, "
        f"{report.params['distinctTotalMultipliers']} multipliers, "
        f"max {report.params['maxTraceSteps']} trace steps",
    )


def test_criterion_5_join_lemma_exhaustive():
    t0 = time.perf_counter()
    report = verify_join_lemma(5)
    elapsed = time.perf_counter() - t0
    _conclude(
        "5 join-lemma-1099-graphs",
        report.verdict == "PASS" and report.total_cases == 1099,
        elapsed,
        60,
        f"{report.total_cases} labeled graphs, {len(report.failures)} failures",
    )


def test_criterion_6_rank_table():
    t0 = time.perf_counter()
    c4 = DefiningGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    k3 = DefiningGraph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    p3 = DefiningGraph("abc", [("a", "b"), ("b", "c")])
    point = DefiningGraph("a")
    table_ok = (
        rank_racg(k3).total_rank == 0
        and rank_racg(c4).total_rank == 2
        and rank_racg(C5).total_rank == 1
        and rank_racg(DINF).total_rank == 1
        and rank_raag(k3).total_rank == 3
        and rank_raag(point).total_rank == 1
        and rank_raag(p3).total_rank == 2
        and rank_raag(C5).total_rank == 1
    )
    elapsed = time.perf_counter() - t0
    _conclude("6 rank-table", table_ok, elapsed, 5, "8 exact integer checks")


def test_criterion_7_certificate_soundness():
    t0 = time.perf_counter()
    report = verify_essential_certificates(C5, radius=6, conj_radius=3)
    elapsed = time.perf_counter() - t0
    _conclude(
        "7 certificate-soundness",
        report.verdict == "PASS",
        elapsed,
        300,
        f"{report.total_cases} certified elements, "
        f"{len(report.failures)} counterexamples",
    )


def test_criterion_8_dj_construction_counts():
    t0 = time.perf_counter()
    dp = dj_prime(C5)
    dpp = dj_double_prime(C5)
    ok = (
        (dpp.n, dpp.edge_count) == (10, 35)
        and (dp.n, dp.edge_count) == (10, 20)
    )
    elapsed = time.perf_counter() - t0
    _conclude(
        "8 dj-construction-counts",
        ok,
        elapsed,
        5,
        f"double-prime {dpp.n}v/{dpp.edge_count}e, prime {dp.n}v/{dp.edge_count}e",
    )

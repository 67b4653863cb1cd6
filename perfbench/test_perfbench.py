"""Tests of the benchmark's own helpers: oracles, input generators, tracing,
and the speed clock."""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import coxrank  # noqa: E402
from coxrank import kernels  # noqa: E402
from coxrank.verify import rewriting_closure_equal  # noqa: E402

from perfbench import clock, oracle, tracing, workloads  # noqa: E402

C5 = coxrank.DefiningGraph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
P4 = coxrank.DefiningGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])


def test_growth_series_matches_c5_sphere_sizes():
    assert oracle.sphere_sizes(C5.comm_masks, 6) == [1, 5, 15, 40, 105, 275, 720]
    assert sum(oracle.sphere_sizes(C5.comm_masks, 10)) == 54_726


def test_parity_class_counts_match_ball_enumeration():
    for g in (C5, P4):
        counts = {}
        for w in coxrank.words.ball_bytes(g, 6):
            counts[oracle.parity(w)] = counts.get(oracle.parity(w), 0) + 1
        expected = oracle.parity_class_counts(g.comm_masks, 6)
        assert {v: c for v, c in expected.items() if c} == counts


def test_labeled_graph_count_matches_join_lemma_cases():
    assert oracle.labeled_graph_count(4) == coxrank.verify_join_lemma(4).total_cases


def test_legal_move_pairs_agree_with_rewriting_closure():
    rng = random.Random(7)
    for g in (C5, P4):
        labels = g.vertices
        for _ in range(150):
            w = [rng.randrange(g.n) for _ in range(rng.randint(0, 5))]
            same = oracle.legal_moves(w, g.comm_masks, rng, 6)
            off = oracle.one_letter_off(same, g.n, rng)
            as_labels = [labels[s] for s in w]
            assert rewriting_closure_equal(g, as_labels, [labels[s] for s in same])
            assert not rewriting_closure_equal(g, as_labels, [labels[s] for s in off])


def test_word_oracles_agree_with_kernels():
    rng = random.Random(3)
    for g in (C5, P4):
        comm = g.comm_masks
        for _ in range(300):
            w = [rng.randrange(g.n) for _ in range(rng.randint(0, 25))]
            assert bytes(oracle.normal_form(w, comm)) == kernels.normal_form(bytes(w), comm)
            assert oracle.is_reduced(w, comm) == kernels.is_reduced(bytes(w), comm)
            assert oracle.is_reduced(oracle.reduce_stack(w, comm), comm)
            as_labels = [g.vertices[s] for s in w]
            assert oracle.is_good_essential(w, comm) == coxrank.is_good_essential(g, as_labels)


def test_make_even_and_join_free_generator():
    rng = random.Random(5)
    assert oracle.parity(oracle.make_even([0, 1, 1, 2, 0, 3], 4, rng)) == 0
    edges, comm = oracle.random_join_free_graph(12, 26, rng)
    g = coxrank.DefiningGraph("abcdefghijkl", [("abcdefghijkl"[a], "abcdefghijkl"[b]) for a, b in edges])
    assert len(edges) == 26 and not coxrank.is_join(g) and list(g.comm_masks) == comm


def test_self_time_subtracts_child_spans():
    # 0 [0,100] has children 1 [10,30] and 2 [40,70]; 3 [45,50] is a child of 2
    parent = [-1, 0, 0, 2]
    start = [0, 10, 40, 45]
    end = [100, 30, 70, 50]
    assert tracing.self_times(parent, start, end) == [50, 20, 25, 5]
    # a window starting at span 2 treats span 2 as a root
    assert tracing.self_times(parent, start, end, lo=2) == [25, 5]


def test_speed_clock_removes_samples_and_scales_by_nearby_speed():
    c = clock.SpeedClock(period=1.0, window=2.0)
    # samples of 0.5 s at 0, 5 and 20; the host runs at half the nominal speed
    c.starts = [0.0, 5.0, 20.0]
    c.durations = [0.5, 0.5, 0.5]
    ratio = clock.REF_S / 0.5
    # [4, 10] holds the sample at 5, which is taken out of its wall time
    assert c.seconds(4.0, 10.0) == (6.0 - 0.5) * ratio
    c.durations = [0.5, 0.5, 2.0]
    # only the samples within the window give the speed of [4, 10] ...
    assert c.seconds(4.0, 10.0) == (6.0 - 0.5) * ratio
    # ... and with none near it there is no speed to scale by
    with pytest.raises(ValueError):
        c.seconds(10.0, 12.0)


def test_speed_clock_samples_while_active():
    c = clock.SpeedClock(period=0.005)
    with c:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.05:
            pass
        t1 = time.perf_counter()
    assert len(c.durations) >= 4
    assert c.seconds(t0, t1) > 0


def test_tracer_wraps_names_where_they_are_looked_up():
    original = coxrank.verify.ball_bytes
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = coxrank.verify_covering(C5, 3)
    finally:
        tracer.uninstall()
    assert coxrank.verify.ball_bytes is original
    assert coxrank.words.ball_bytes is original
    agg = tracing.aggregate(tracer, 0, len(tracer))
    assert agg["per"]["verify.covering"]["out"] == report.total_cases == 1 + 5 + 15 + 40
    assert agg["children"][("verify.covering", "words.ball_bytes")] == 1
    assert agg["children"][("words.ball_bytes", "kernels.normal_form")] > 0
    values = tracing.layer_values(agg)
    assert values["words.ball_bytes.elements"] == 61
    assert 0 < values["words.ball_bytes.yield"] < 1


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        tracing.per_layer_specs()
    )
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    layer_map = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())
    names = {m["name"] for m in bench["per_layer"]}
    ends = {m["name"] for m in bench["end_to_end"]}
    mapped = set()
    for entry in layer_map["predictions"]:
        assert set(entry["metrics"]) <= names
        assert set(entry["moves"]) <= ends
        assert entry["workload"] in (*workloads.WORKLOADS, "all")
        mapped |= set(entry["metrics"])
    assert mapped == names


def test_guards_trip_and_catch_a_skipped_falsifier(monkeypatch):
    assert workloads.guards(coxrank, seed=1) == [
        ("planted_word_fails", []),
        ("corrupt_parity_fails", []),
    ]
    monkeypatch.setattr(coxrank.verify, "_falsify_enc", lambda g, enc, ball: None)
    planted, _ = workloads.guards(coxrank, seed=1)
    assert planted[1] == ["planted non-essential word passed"]

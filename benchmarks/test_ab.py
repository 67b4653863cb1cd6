import shutil
from pathlib import Path

import pytest

from ab import quartiles, same_benchmark, summarize

ROOT = Path(__file__).resolve().parent.parent


def test_quartiles_interpolate_between_order_statistics():
    assert quartiles([5, 1, 4, 2, 3]) == (2, 3, 4)
    assert quartiles([4, 1, 3, 2]) == (1.75, 2.5, 3.25)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_lower_is_better_counts_strict_wins_only():
    base = [1.0, 1.0, 1.0, 1.0, 1.0]
    head = [0.9, 0.9, 1.0, 1.1, 0.9]  # one tie, one loss
    s = summarize(base, head, "lower")
    assert (s["wins"], s["pairs"]) == (3, 5)
    assert s["base"] == [1.0, 1.0, 1.0]
    assert s["head"] == [0.9, 0.9, 1.0]
    assert s["ratio"] == pytest.approx(0.9)
    # base's quartiles coincide, so any better median lies beyond them
    assert s["beyond_iqr"]


def test_higher_is_better_mirrors_lower():
    base = [10, 11, 12, 13]
    head = [12, 14, 11, 16]
    s = summarize(base, head, "higher")
    assert s["wins"] == 3
    assert s["ratio"] == pytest.approx(13 / 11.5)
    # base IQR 10.75 .. 12.25 is 1.5 wide; the medians differ by exactly 1.5
    assert not s["beyond_iqr"]
    assert summarize(base, [b + 2 for b in base], "higher")["beyond_iqr"]
    flipped = summarize(head, base, "lower")
    assert flipped["wins"] == 3 and not flipped["beyond_iqr"]


def test_a_worse_median_is_never_beyond_the_iqr():
    s = summarize([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], "lower")
    assert (s["wins"], s["ratio"], s["beyond_iqr"]) == (0, 2.0, False)


def test_trees_must_share_the_benchmark(tmp_path):
    for name in ("a", "b"):
        shutil.copytree(ROOT / "perfbench", tmp_path / name / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / name)
    a, b = tmp_path / "a", tmp_path / "b"
    (a / "perfbench" / "__pycache__").mkdir()
    (a / "perfbench" / "__pycache__" / "x.pyc").write_bytes(b"cache")
    assert same_benchmark(a, b)
    with (b / "BENCHMARK.json").open("a") as fh:
        fh.write(" ")
    assert not same_benchmark(a, b)
    shutil.copy(a / "BENCHMARK.json", b)
    (b / "perfbench" / "extra.py").write_text("")
    assert not same_benchmark(a, b)
    assert not same_benchmark(b, a)

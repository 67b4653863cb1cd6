import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from contextlib import ExitStack, suppress
from pathlib import Path

import pytest

from ab import checkout, quartiles, row_series, same_benchmark, sources_digest, summarize

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
        (tmp_path / name / "benchmarks").mkdir()
        shutil.copy(ROOT / "benchmarks" / "bench_kernels.py", tmp_path / name / "benchmarks")
    a, b = tmp_path / "a", tmp_path / "b"
    (a / "perfbench" / "__pycache__").mkdir()
    (a / "perfbench" / "__pycache__" / "x.pyc").write_bytes(b"cache")
    assert same_benchmark(a, b, "enumerate") and same_benchmark(a, b, "kernels")
    with (b / "BENCHMARK.json").open("a") as fh:
        fh.write(" ")
    assert not same_benchmark(a, b, "enumerate")
    shutil.copy(a / "BENCHMARK.json", b)
    (b / "perfbench" / "extra.py").write_text("")
    assert not same_benchmark(a, b, "enumerate")
    assert not same_benchmark(b, a, "enumerate")
    (b / "perfbench" / "extra.py").unlink()
    with (b / "benchmarks" / "bench_kernels.py").open("a") as fh:
        fh.write("\n")
    # the row script must match only where its rows are compared
    assert same_benchmark(a, b, "enumerate")
    assert not same_benchmark(a, b, "kernels")


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout")
def test_a_revision_is_archived_and_recorded_under_its_commit(tmp_path):
    manual = tmp_path / "manual"
    manual.mkdir()
    subprocess.run(f"git -C '{ROOT}' archive HEAD | tar -x -C '{manual}'", shell=True, check=True)
    full = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=True).stdout.strip()
    with ExitStack() as stack:
        tree, commit = checkout("HEAD", stack)
        assert sources_digest(tree) == sources_digest(manual)
        assert commit == full and len(commit) == 40
    assert not tree.exists()
    # a directory is used as it is and names no commit, even a git checkout
    assert checkout(str(manual), ExitStack()) == (manual, None)
    assert checkout(str(ROOT), ExitStack()) == (ROOT, None)
    with pytest.raises(SystemExit, match="neither a directory nor a git revision"):
        checkout(str(tmp_path / "absent"), ExitStack())


def test_sigterm_kills_the_run_and_removes_the_temporary_directories(tmp_path):
    # a copy of ab.py in a throwaway repository root, so that nothing can
    # reach the real BENCH_ab.json, compares two identical fake trees whose
    # run.py writes its pid and sleeps
    root, tmpdir, pid_file = tmp_path / "root", tmp_path / "tmp", tmp_path / "pid"
    (root / "benchmarks").mkdir(parents=True)
    shutil.copy(ROOT / "benchmarks" / "ab.py", root / "benchmarks")
    (root / "BENCHMARK.json").write_text('{"run_seconds": 1, "end_to_end": []}')
    for name in ("a", "b"):
        (tmp_path / name / "src").mkdir(parents=True)
        (tmp_path / name / "src" / "m.py").write_text("")
        shutil.copy(root / "BENCHMARK.json", tmp_path / name)
        (tmp_path / name / "perfbench").mkdir()
        (tmp_path / name / "perfbench" / "run.py").write_text(
            f"import os, time\nopen({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
            "time.sleep(60)\n")
    tmpdir.mkdir()
    ab = subprocess.Popen([sys.executable, root / "benchmarks" / "ab.py", tmp_path / "a",
                           tmp_path / "b", "--workload", "w", "--pairs", "1"],
                          env={**os.environ, "TMPDIR": str(tmpdir)},
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    child = None
    try:
        deadline = time.monotonic() + 30
        while not (pid_file.exists() and pid_file.read_text()):
            assert time.monotonic() < deadline and ab.poll() is None, "run.py never started"
            time.sleep(0.05)
        child = int(pid_file.read_text())
        ab.send_signal(signal.SIGTERM)
        assert ab.wait(timeout=30) == 128 + signal.SIGTERM
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)
        assert list(tmpdir.iterdir()) == []
        assert not (root / "BENCH_ab.json").exists()
    finally:
        ab.kill()
        ab.wait()
        if child is not None:
            with suppress(ProcessLookupError):
                os.kill(child, signal.SIGKILL)


R8 = "ball_bytes graph=C5 radius=8"
R10 = "ball_bytes graph=C5 radius=10"


def _result(rows):
    """A bench_kernels.py result line with these rows, each key mapped to
    (median_ms, digest), as ab.py reads it."""
    return json.loads(json.dumps({"backend": "python", "rows": {
        key: {"median_ms": ms, "digest": digest} for key, (ms, digest) in rows.items()}}))


def test_rows_pair_up_by_key():
    runs = {"base": [_result({R8: (6.0, "d8"), R10: (40.0, "d10")}),
                     _result({R8: (7.0, "d8"), R10: (44.0, "d10")})],
            "head": [_result({R10: (36.0, "d10"), R8: (5.0, "d8")}),
                     _result({R8: (8.0, "d8"), R10: (38.0, "d10")})]}
    assert row_series(runs) == {R8: ("lower", [6.0, 7.0], [5.0, 8.0]),
                                R10: ("lower", [40.0, 44.0], [36.0, 38.0])}


def test_a_row_whose_digest_differs_is_refused():
    runs = {"base": [_result({R8: (6.0, "d8"), R10: (40.0, "d10")})],
            "head": [_result({R8: (5.0, "d8"), R10: (30.0, "other")})]}
    with pytest.raises(SystemExit, match=f"row '{R10}': digest other in head"):
        row_series(runs)
    # a later base run that disagrees with the first is refused too
    runs = {"base": [_result({R8: (6.0, "d8")}), _result({R8: (6.0, "x")})],
            "head": [_result({R8: (5.0, "d8")}), _result({R8: (5.0, "d8")})]}
    with pytest.raises(SystemExit, match=f"row '{R8}': digest x in base"):
        row_series(runs)


def test_a_row_in_one_tree_only_is_refused():
    base = _result({R8: (6.0, "d8")})
    head = _result({R8: (5.0, "d8"), R10: (30.0, "d10")})
    for runs in ({"base": [base], "head": [head]}, {"base": [head], "head": [base]}):
        with pytest.raises(SystemExit, match=f"'{R10}'"):
            row_series(runs)


def private_reach(source: str) -> list[str]:
    """What ``source`` reaches of coxrank beyond its public names: an
    import path or attribute with a leading underscore under a name bound
    to coxrank (by an import or by ``importlib.import_module``), and any
    assignment to such a name's attributes, by ``=`` or ``setattr``."""
    tree = ast.parse(source)
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports = [(a.name, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imports = [(f"{node.module}.{a.name}", a.asname or a.name) for a in node.names]
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and ast.unparse(node.value.func) == "importlib.import_module"):
            imports = [(ast.literal_eval(node.value.args[0]), t.id) for t in node.targets]
        else:
            continue
        for path, name in imports:
            parts = path.split(".")
            if parts[0] == "coxrank":
                bound.add(name)
                if any(p.startswith("_") for p in parts):
                    found.append(f"{node.lineno}: {path}")

    def on_coxrank(expr):
        while isinstance(expr, ast.Attribute):
            expr = expr.value
        return isinstance(expr, ast.Name) and expr.id in bound

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and on_coxrank(node):
            if node.attr.startswith("_"):
                found.append(f"{node.lineno}: {ast.unparse(node)}")
            if not isinstance(node.ctx, ast.Load):
                found.append(f"{node.lineno}: assigns {ast.unparse(node)}")
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "setattr"
              and on_coxrank(node.args[0])):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return sorted(found, key=lambda f: int(f.split(":")[0]))


def test_private_reach_finds_underscores_and_patches():
    source = """
import importlib
import coxrank._kernel_py
from coxrank import kernels, verify
from coxrank.certificates import _falsify_enc as falsify
cx = importlib.import_module("coxrank")
verify._closure_partition(5, (), 8)
kernels.normal_form = len
setattr(cx.kernels, "reduce_word", len)
public = [verify.verify_word_problem, cx.load_graph, str.__len__]
"""
    assert private_reach(source) == [
        "3: coxrank._kernel_py",
        "5: coxrank.certificates._falsify_enc",
        "7: verify._closure_partition",
        "8: assigns kernels.normal_form",
        "9: setattr(cx.kernels, 'reduce_word', len)",
    ]


def test_the_row_script_calls_only_public_coxrank_names():
    # a row that reaches into private names or patches the library breaks
    # ab.py comparisons with trees where those internals differ
    assert private_reach((ROOT / "benchmarks" / "bench_kernels.py").read_text()) == []

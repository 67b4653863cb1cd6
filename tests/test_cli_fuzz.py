"""Property test of the command line over random graphs, words, subgroup
selectors and radii: ``main`` returns 0, 1 or 2, never raises, prints a
coded ``error [CODE]:`` line for every exit 2, and finishes each call
within a deadline (enforced by an interval timer, so a hang fails too)."""

import contextlib
import io
import itertools
import os
import re
import signal
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from coxrank import cli, verify
from coxrank.cli import main
from coxrank.words import MAX_WORD_LEN

CALL_DEADLINE_S = 10.0
LABELS = ("a", "b", "c", "d")
CODED = re.compile(r"^error \[[A-Z0-9_]+\]: ", re.M)


class _Overran(BaseException):
    """Raised by the timer; a BaseException, so ``main`` cannot catch it."""


def _overran(signum, frame):
    raise _Overran


def _graph_text(labels, edges):
    return "".join(
        [f"vertices: {' '.join(labels)}\n"] + [f"edge: {a} {b}\n" for a, b in edges]
    )


@st.composite
def valid_graphs(draw, min_vertices=1):
    k = draw(st.integers(min_vertices, 4))
    labels = LABELS[:k]
    pairs = [(labels[i], labels[j]) for i in range(k) for j in range(i + 1, k)]
    edges = [p for p in pairs if draw(st.booleans())]
    return _graph_text(labels, edges)


# lines a graph file may hold, good and bad, drawn into texts in any order
_LINES = st.one_of(
    st.lists(st.sampled_from(LABELS + ("e", "a", "\u00e9", "x-1")), max_size=5).map(
        lambda ls: "vertices: " + " ".join(ls)
    ),
    st.tuples(st.sampled_from(LABELS + ("z",)), st.sampled_from(LABELS + ("z",))).map(
        lambda p: f"edge: {p[0]} {p[1]}"
    ),
    st.sampled_from(["", "# note", "edge: a", "edge: a b c", "vertices:", "bogus", "edge a b"]),
)

graph_files = st.one_of(
    valid_graphs().map(str.encode),
    valid_graphs().map(str.encode),
    valid_graphs().map(str.encode),
    st.lists(_LINES, max_size=6).map(lambda ls: "\n".join(ls).encode()),
    st.sampled_from([b"", b"\xff\xfe vertices: a b\n", b"vertices: a\x00 b\n"]),
)

words = st.lists(st.sampled_from(LABELS + ("e", "z")), max_size=8).map(" ".join)
# the verbs that read one --word, and words of exactly the length cap and
# one letter past it
CAP_VERBS = ("reduce", "nf", "parity", "completion", "essential", "cancellator")
cap_words = st.sampled_from([MAX_WORD_LEN, MAX_WORD_LEN + 1]).map(
    lambda n: " ".join(itertools.islice(itertools.cycle(LABELS), n))
)
radii = st.integers(-2, 12).map(str)
# verify parity's trial counts and lengths: the work cap admits four trials
# at the length cap of 1000, not five
trials = st.integers(-2, 40).map(str)
past_cap_trials = st.sampled_from(["1000000", "50000000", "1000000000"])
lengths = st.one_of(radii, st.sampled_from(["1000", "1001", "10000"]))

# a subgroup selector: ("FILE", data) becomes a spec file holding data,
# "MISSING" a path that does not exist, "DIR" a directory and "NUL" a path
# holding a NUL byte (a branch of its own, so that six examples draw it)
_SPEC_LINES = st.one_of(
    st.text("01x", max_size=5).map(lambda row: f"basis: {row}"),
    st.sampled_from(["# note", "graph: nowhere.txt", "basis:", "bogus"]),
)
subgroups = st.one_of(
    st.sampled_from(["commutator", "whole", "MISSING", "DIR"]),
    st.just("NUL"),
    st.lists(_SPEC_LINES, max_size=3).map(lambda ls: ("FILE", "\n".join(ls).encode())),
    st.just(("FILE", b"basis: \xff\n")),
)

# each command family: a strategy for its leading words, then (option,
# strategy) pairs
FAMILIES = {
    "covering": (st.just("verify covering"), [("--radius", radii)]),
    "subgroup-covering": (
        st.just("verify subgroup-covering"),
        [("--radius", radii), ("--subgroup", subgroups)],
    ),
    "uniformity": (st.just("verify uniformity"), [("--radius", radii)]),
    "uniformity-subgroup": (
        st.just("verify uniformity"),
        [("--radius", radii), ("--subgroup", subgroups)],
    ),
    "certificates": (
        st.just("verify certificates"),
        [("--radius", radii), ("--conj-radius", radii)],
    ),
    "wordproblem": (st.just("verify wordproblem"), [("--max-len", radii)]),
    "parity-check": (st.just("verify parity"), [("--trials", trials), ("--max-len", lengths)]),
    "parity-past-cap": (
        st.just("verify parity"),
        [("--trials", past_cap_trials), ("--max-len", lengths)],
    ),
    "joinlemma": (st.just("verify joinlemma"), [("--max-vertices", radii)]),
    "essential": (st.just("essential"), [("--word", words), ("--conj-radius", radii)]),
    "cancellator": (st.just("cancellator"), [("--word", words)]),
    "cancellator-subgroup": (
        st.just("cancellator"),
        [("--word", words), ("--subgroup", subgroups)],
    ),
    "subgroup-member": (
        st.just("subgroup member"),
        [("--word", words), ("--subgroup", subgroups)],
    ),
    "subgroup-index": (st.just("subgroup index"), [("--subgroup", subgroups)]),
    "word": (
        st.sampled_from(["reduce", "nf", "parity", "completion"]),
        [("--word", words)],
    ),
    "word-length-cap": (
        st.sampled_from(CAP_VERBS),
        [("--word", cap_words)],
    ),
    "equal": (st.just("equal"), [("--left", words), ("--right", words)]),
    "graph-only": (
        st.sampled_from(
            [
                "classify --kind racg",
                "classify --kind raag",
                "dj --variant prime",
                "dj --variant doubleprime",
            ]
        ),
        [],
    ),
}


def _selector(v, tmp):
    if v == "MISSING":
        return os.path.join(tmp, "no-such.sub")
    if v == "DIR":
        return tmp
    if v == "NUL":
        return os.path.join(tmp, "sp\0ec.sub")
    if isinstance(v, tuple):
        path = os.path.join(tmp, "spec.sub")
        with open(path, "wb") as fh:
            fh.write(v[1])
        return path
    return v


def _argv(data, family, graph_path, tmp):
    if family == "word-length-cap":
        # the words at the length cap use every label: only a valid
        # four-vertex graph lets the word at the cap run and the word past
        # it reach the length check
        with open(graph_path, "w") as fh:
            fh.write(data.draw(valid_graphs(4)))
    heads, options = FAMILIES[family]
    argv = data.draw(heads).split()
    for option, values in options:
        value = data.draw(values)
        argv += [option, _selector(value, tmp) if option == "--subgroup" else value]
    if family != "joinlemma":
        argv += ["--graph", graph_path]
    return argv


def _assert_priced_past_cap(argv):
    """A past-cap parity run at an admitted length must be refused by its
    price, checked before ``main`` can start the run."""
    trials = int(argv[argv.index("--trials") + 1])
    max_len = int(argv[argv.index("--max-len") + 1])
    if 1 <= max_len <= verify.PARITY_MAX_LEN:
        assert trials * verify.parity_trial_units(max_len) > verify.PARITY_MAX_WORK, argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.setitimer(signal.ITIMER_REAL, CALL_DEADLINE_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except _Overran:
        raise AssertionError(f"{argv} ran past {CALL_DEADLINE_S} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data(), graph=graph_files, fmt=st.sampled_from(["text", "json"]))
def test_cli_main_never_crashes_and_codes_every_usage_error(family, data, graph, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        graph_path = os.path.join(tmp, "g.txt")
        with open(graph_path, "wb") as fh:
            fh.write(graph)
        argv = _argv(data, family, graph_path, tmp) + ["--format", fmt]
        if family == "parity-past-cap":
            _assert_priced_past_cap(argv)
        code, out, err = _run(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert CODED.search(err), (argv, err)
        assert out == "", argv


# the slowest shape known for normal_form (see words.MAX_WORD_LEN): every
# a and b after w rescans the (c d)^k prefix, which is 3/5 of the word
SLOW_GRAPH = "vertices: a b c d w\nedge: a c\nedge: a d\nedge: b c\nedge: b d\n"


def _slow_word(n):
    k = n * 3 // 10
    tail = itertools.islice(itertools.cycle("ab"), n - 2 * k - 1)
    return " ".join(["c", "d"] * k + ["w", *tail])


def test_every_word_verb_at_and_past_the_length_cap(tmp_path):
    path = tmp_path / "slow.txt"
    path.write_text(SLOW_GRAPH)
    past = f"error [RADIUS_EXCEEDS_CAP]: word of {MAX_WORD_LEN + 1} letters exceeds cap"
    for verb in CAP_VERBS:
        argv = [verb, "--graph", str(path), "--word"]
        code, _, err = _run(argv + [_slow_word(MAX_WORD_LEN)])
        assert (code, err) == (0, ""), verb
        code, out, err = _run(argv + [_slow_word(MAX_WORD_LEN + 1)])
        assert (code, out) == (2, ""), verb
        assert err.startswith(past), verb


def _leaf_verbs(rows, prefix=()):
    """The command path of every verb in a table of ``cli._VERBS`` rows."""
    for name, _, run, _ in rows:
        if isinstance(run, tuple):
            yield from _leaf_verbs(run, prefix + (name,))
        else:
            yield prefix + (name,)


def test_the_fuzzer_draws_every_verb():
    heads = {
        tuple(itertools.takewhile(lambda w: not w.startswith("--"), head.split()))
        for strategy, _ in FAMILIES.values()
        for head in strategy.elements  # st.just and st.sampled_from
    }
    assert heads == set(_leaf_verbs(cli._VERBS))

import itertools
import random

import pytest

from coxrank import kernels
from coxrank.errors import ParameterRangeError, RadiusCapError, UnknownGeneratorError
from coxrank.graphs import DefiningGraph, load_graph
from coxrank.words import (
    ball_bytes,
    enumerate_ball,
    equal,
    format_word,
    inverse,
    is_reduced,
    normal_form,
    parity_vector,
    parse_word,
    reduce_word,
    support,
)

# ---------------------------------------------------------------------------
# Independent ground truth, used to pin expected values before trusting the
# implementation: explicit breadth-first closure of the whole capped universe
# under the three legal moves (swap commuting neighbours, delete a doubled
# letter, insert a doubled letter).  Nothing here touches the kernels.
# ---------------------------------------------------------------------------


def oracle_classes(g, max_len):
    cap = max_len + 2
    n = g.n
    commutes = {
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and g.adjacent(g.vertices[i], g.vertices[j])
    }
    universe = [
        tuple(w)
        for length in range(cap + 1)
        for w in itertools.product(range(n), repeat=length)
    ]
    in_universe = set(universe)
    label = {}
    classes = []
    for start in universe:
        if start in label:
            continue
        cls = []
        frontier = [start]
        label[start] = len(classes)
        while frontier:
            w = frontier.pop()
            cls.append(w)
            neighbours = []
            for i in range(len(w) - 1):
                if w[i] == w[i + 1]:
                    neighbours.append(w[:i] + w[i + 2 :])
                elif (w[i], w[i + 1]) in commutes:
                    neighbours.append(w[:i] + (w[i + 1], w[i]) + w[i + 2 :])
            if len(w) + 2 <= cap:
                for pos in range(len(w) + 1):
                    for s in range(n):
                        neighbours.append(w[:pos] + (s, s) + w[pos:])
            for v in neighbours:
                assert v in in_universe
                if v not in label:
                    label[v] = len(classes)
                    frontier.append(v)
        classes.append(cls)
    return label, classes


def _words_upto(g, max_len):
    return [
        tuple(g.vertices[i] for i in w)
        for length in range(max_len + 1)
        for w in itertools.product(range(g.n), repeat=length)
    ]


def test_normal_form_matches_oracle_partition(c5):
    label, classes = oracle_classes(c5, 3)
    seen_nf = {}
    for cls_id, cls in enumerate(classes):
        nfs = {
            normal_form(c5, tuple(c5.vertices[i] for i in w))
            for w in cls
            if len(w) <= 3
        }
        if not nfs:
            continue
        assert len(nfs) == 1, f"class {cls_id} has several normal forms: {nfs}"
        nf = nfs.pop()
        assert nf not in seen_nf, f"classes {seen_nf[nf]} and {cls_id} share {nf}"
        seen_nf[nf] = cls_id


def test_normal_form_is_lex_least_reduced_word(c5):
    # reduced expressions are the minimal-length layer of a closure class;
    # the normal form must be the lexicographically least of them
    label, classes = oracle_classes(c5, 3)
    for cls in classes:
        least = min(len(w) for w in cls)
        expected = min(w for w in cls if len(w) == least)
        for w in cls:
            if len(w) <= 3:
                got = normal_form(c5, tuple(c5.vertices[i] for i in w))
                assert tuple(c5.index(x) for x in got) == expected


def test_reduced_length_constant_on_oracle_classes(c5):
    label, classes = oracle_classes(c5, 3)
    for cls in classes:
        words = [w for w in cls if len(w) <= 3]
        lengths = {
            len(reduce_word(c5, tuple(c5.vertices[i] for i in w))) for w in words
        }
        assert len(lengths) <= 1


def test_oracle_ball_count_pins_enumeration(c5):
    # Hand count for radius 2 on the pentagon: identity, 5 generators, and
    # 15 length-2 elements (5 commuting pairs give one element each, the 5
    # non-commuting pairs two each).  The move-closure oracle agrees.
    label, classes = oracle_classes(c5, 2)
    reachable = {min(len(w) for w in cls) for cls in classes}
    assert {0, 1, 2} <= reachable  # the capped universe also holds longer elements
    count = sum(1 for cls in classes if min(len(w) for w in cls) <= 2)
    assert count == 21
    assert len(enumerate_ball(c5, 2)) == 21


# ---------------------------------------------------------------------------
# Direct cases
# ---------------------------------------------------------------------------


def test_reduce_examples(c5):
    assert reduce_word(c5, ("a", "a")) == ()
    assert reduce_word(c5, ("a", "b", "a")) == ("b",)
    assert reduce_word(c5, ("c", "a", "c")) == ("c", "a", "c")


def test_normal_form_examples(c5):
    assert normal_form(c5, ("b", "a")) == ("a", "b")
    assert normal_form(c5, ("c", "a")) == ("c", "a")
    assert normal_form(c5, ()) == ()


def test_equal_examples(c5):
    assert equal(c5, ("a", "b"), ("b", "a"))
    assert not equal(c5, ("a",), ("b",))
    assert equal(c5, ("a", "b", "a"), ("b",))


def test_parity_vector_examples(c5):
    assert parity_vector(c5, ("a", "b", "c")) == {
        "a": 1, "b": 1, "c": 1, "d": 0, "e": 0,
    }
    assert parity_vector(c5, ("a", "b", "a", "b")) == {
        v: 0 for v in c5.vertices
    }
    assert reduce_word(c5, ("a", "b", "a", "b")) == ()


def test_parity_preserved_by_reduction_randomized(c5):
    rng = random.Random(42)
    for _ in range(500):
        word = tuple(
            c5.vertices[rng.randrange(5)] for _ in range(rng.randint(0, 12))
        )
        assert parity_vector(c5, word) == parity_vector(c5, normal_form(c5, word))


def test_support_examples(c5):
    assert support(c5, ("a", "b", "a")) == frozenset("b")
    assert support(c5, ()) == frozenset()
    assert support(c5, ("c", "a", "c")) == frozenset("ac")


def test_ball_counts(c5, dinf):
    assert len(enumerate_ball(c5, 0)) == 1
    assert len(enumerate_ball(c5, 1)) == 6
    assert len(enumerate_ball(c5, 2)) == 21
    ball = enumerate_ball(dinf, 3)
    assert [format_word(w) for w in ball] == [
        "e", "a", "b", "a b", "b a", "a b a", "b a b",
    ]


def test_ball_is_shortlex_sorted_normal_forms(c5):
    ball = enumerate_ball(c5, 3)
    keys = [(len(w), tuple(c5.index(x) for x in w)) for w in ball]
    assert keys == sorted(keys)
    assert all(normal_form(c5, w) == w for w in ball)


def test_ball_monotone_growth(c5, dinf):
    for g in (c5, dinf):
        sizes = [len(enumerate_ball(g, r)) for r in range(6)]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_ball_radius_cap(c5):
    with pytest.raises(RadiusCapError) as exc:
        enumerate_ball(c5, 11)
    assert str(exc.value) == "radius 11 exceeds cap 10"
    with pytest.raises(ParameterRangeError) as exc:
        ball_bytes(c5, -1)
    assert isinstance(exc.value, ValueError)
    assert exc.value.code == "PARAMETER_OUT_OF_RANGE"


def test_ball_element_limit(tmp_path):
    # 30 involutions, no edges: 26,131 elements through radius 3, and each
    # of the 25,230 on the frontier could add 30 more, past the limit
    path = tmp_path / "free30.txt"
    path.write_text("vertices: " + " ".join(f"v{i}" for i in range(30)) + "\n")
    g = load_graph(path)
    assert len(enumerate_ball(g, 3)) == 26_131
    with pytest.raises(RadiusCapError) as exc:
        enumerate_ball(g, 10)
    assert str(exc.value) == (
        "ball of radius 10 may exceed 500000 elements "
        "(783031 possible through radius 4)"
    )


def _ball_by_seen_set(comm, radius):
    """Reference: normalize every one-letter extension of the previous
    sphere and keep the new elements of the next length."""
    seen = {b""}
    out = [b""]
    frontier = [b""]
    for r in range(1, radius + 1):
        grown = set()
        for w in frontier:
            for x in range(len(comm)):
                v = kernels.normal_form(w + bytes([x]), comm)
                if len(v) == r and v not in seen:
                    seen.add(v)
                    grown.add(v)
        frontier = sorted(grown)
        out.extend(frontier)
    return out


def _check_descent_pruned_ball(g, radius, monkeypatch):
    comm = g.comm_masks
    expected = _ball_by_seen_set(comm, radius)
    calls = []
    nf = kernels.normal_form
    monkeypatch.setattr(
        kernels, "normal_form", lambda w, c: calls.append(w) or nf(w, c)
    )
    assert ball_bytes(g, radius) == expected
    monkeypatch.undo()
    # one call per extension w x of w in B(r-1) with x outside the right
    # descent set of w (the letters that shorten it)
    descents = [
        sum(len(kernels.reduce_word(w + bytes([x]), comm)) < len(w) for x in range(g.n))
        for w in expected
        if len(w) < radius
    ]
    assert len(calls) == sum(g.n - d for d in descents)


def test_descent_pruned_ball_matches_the_seen_set_ball(monkeypatch):
    verts = "abcd"
    pairs = list(itertools.combinations(verts, 2))
    for bits in range(1 << len(pairs)):
        g = DefiningGraph(verts, [p for k, p in enumerate(pairs) if (bits >> k) & 1])
        for radius in range(7):
            _check_descent_pruned_ball(g, radius, monkeypatch)
    rng = random.Random(1993)
    for _ in range(200):
        verts = "abcdefg"[: rng.randint(5, 7)]
        edges = [p for p in itertools.combinations(verts, 2) if rng.random() < 0.5]
        _check_descent_pruned_ball(DefiningGraph(verts, edges), rng.randint(0, 4), monkeypatch)


def test_finite_group_ball_saturates():
    k2 = DefiningGraph("ab", [("a", "b")])
    assert len(enumerate_ball(k2, 5)) == 4  # the four elements of (Z/2)^2


def test_parse_word_empty_conventions(c5, dinf):
    assert parse_word(dinf, "e") == ()
    assert parse_word(dinf, "") == ()
    # the pentagon declares a generator named e, which wins
    assert parse_word(c5, "e") == ("e",)
    assert parse_word(c5, "") == ()
    assert format_word(()) == "e"


def test_parse_word_unknown_generator(dinf):
    with pytest.raises(UnknownGeneratorError):
        parse_word(dinf, "a q")


def test_unknown_generator_in_ops(c5):
    with pytest.raises(UnknownGeneratorError):
        reduce_word(c5, ("a", "z"))


def test_inverse_is_reversal(c5):
    w = ("a", "c", "b")
    assert inverse(w) == ("b", "c", "a")
    assert reduce_word(c5, w + inverse(w)) == ()


def test_reduce_idempotent_and_nf_fixpoint_exhaustive(c5):
    for w in _words_upto(c5, 3):
        r = reduce_word(c5, w)
        assert reduce_word(c5, r) == r
        nf = normal_form(c5, w)
        assert normal_form(c5, nf) == nf
        assert reduce_word(c5, nf) == nf
        assert is_reduced(c5, nf)
        assert equal(c5, w, nf)

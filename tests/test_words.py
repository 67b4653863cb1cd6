import itertools
import math
import random
from array import array

import pytest

from conftest import every_graph
from coxrank import kernels
from coxrank.errors import ParameterRangeError, RadiusCapError, UnknownGeneratorError
from coxrank.graphs import DefiningGraph, load_graph
from coxrank.verify import rewriting_closure_equal
from coxrank.words import (
    Ball,
    ball_bytes,
    enumerate_ball,
    equal,
    format_word,
    is_reduced,
    normal_form,
    parity_bits,
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


def test_equal_matches_rewriting_closure_on_short_words(c5):
    p4 = DefiningGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    for g in (c5, p4):
        words = _words_upto(g, 3)
        for w1, w2 in itertools.combinations_with_replacement(words, 2):
            assert equal(g, w1, w2) == rewriting_closure_equal(g, w1, w2), (w1, w2)


def _legal_moves(word, comm, rng, moves):
    """Apply random legal moves: delete a doubled letter, swap a commuting
    pair, or insert a doubled letter."""
    w = list(word)
    for _ in range(moves):
        i = rng.randrange(len(w) + 1)
        if i + 1 < len(w) and w[i] == w[i + 1]:
            del w[i : i + 2]
        elif i + 1 < len(w) and (comm[w[i]] >> w[i + 1]) & 1:
            w[i], w[i + 1] = w[i + 1], w[i]
        else:
            w[i:i] = [rng.randrange(len(comm))] * 2
    return w


def test_equal_matches_normal_forms_on_long_words():
    rng = random.Random(16)
    labels = [f"v{i}" for i in range(12)]
    g = DefiningGraph(
        labels, [(a, b) for a, b in itertools.combinations(labels, 2) if rng.random() < 0.3]
    )
    comm = g.comm_masks
    for i in range(200):
        w1 = [rng.randrange(g.n) for _ in range(rng.randint(50, 300))]
        w2 = _legal_moves(w1, comm, rng, len(w1))
        if i % 2:
            # one letter more flips a parity, so the elements differ
            w2.insert(rng.randrange(len(w2) + 1), rng.randrange(g.n))
        w1 = tuple(labels[x] for x in w1)
        w2 = tuple(labels[x] for x in w2)
        same = normal_form(g, w1) == normal_form(g, w2)
        assert same == (i % 2 == 0)
        assert equal(g, w1, w2) == same
        assert equal(g, w2, w1) == same


@pytest.mark.parametrize(
    "w1, w2, label",
    [(("a", "z"), ("a",), "z"), (("a",), ("b", "z"), "z"), (("y",), ("z",), "y")],
)
def test_equal_unknown_generator(c5, w1, w2, label):
    with pytest.raises(UnknownGeneratorError) as exc:
        equal(c5, w1, w2)
    assert exc.value.label == label


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


def test_ball_carries_each_elements_parity(c5):
    # parity(w x) = parity(w) ^ x, carried through the sphere loop, against
    # parity_bits folding each element on its own
    for g in every_graph(5):
        for radius in range(7):
            ball = ball_bytes(g, radius)
            assert list(ball.parities) == list(map(parity_bits, ball))
    ball = ball_bytes(c5, 10)
    assert len(ball) == 54_726
    assert list(ball.parities) == list(map(parity_bits, ball))


def test_ball_is_a_list_with_a_narrow_parity_array():
    for n in (1, 8, 9, 16, 17, 32, 33, 64):
        ball = ball_bytes(DefiningGraph([f"v{i}" for i in range(n)]), 2)
        assert type(ball) is Ball and isinstance(ball, list)
        assert repr(ball) == repr(list(ball)) and ball == list(ball)
        assert len(ball.parities) == len(ball) == 1 + n * n
        assert list(ball.parities) == list(map(parity_bits, ball))
        assert ball.parities.typecode in "ILQ"
        fits = [array(t).itemsize for t in "ILQ" if array(t).itemsize * 8 >= n]
        assert ball.parities.itemsize == min(fits)


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
    # descent set of w (the letters that shorten it), in ball order, and
    # each call gets only w[k:] x, where w[k:] is the longest suffix of w
    # whose letters all commute with x
    suffixes = []
    for w in expected:
        if len(w) == radius:
            continue
        for x in range(g.n):
            if len(kernels.reduce_word(w + bytes([x]), comm)) < len(w):
                continue
            k = len(w)
            while k and (comm[x] >> w[k - 1]) & 1:
                k -= 1
            suffixes.append(w[k:] + bytes([x]))
    assert calls == suffixes


def test_descent_pruned_ball_matches_the_seen_set_ball(monkeypatch):
    for g in every_graph(4, 4):
        for radius in range(7):
            _check_descent_pruned_ball(g, radius, monkeypatch)
    rng = random.Random(1993)
    for _ in range(200):
        verts = "abcdefg"[: rng.randint(5, 7)]
        edges = [p for p in itertools.combinations(verts, 2) if rng.random() < 0.5]
        _check_descent_pruned_ball(DefiningGraph(verts, edges), rng.randint(0, 4), monkeypatch)


def _check_prefix_closed(comm, radius):
    ball = _ball_by_seen_set(comm, radius)
    keys = [(len(v), v) for v in ball]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    elements = set(ball)
    assert all(v[:-1] in elements for v in ball if v)


def test_the_reference_ball_is_sorted_and_prefix_closed():
    # the premise of ball_bytes, checked on the seen-set reference, which
    # normalizes whole words: every normal form of length r is a normal
    # form of length r - 1 plus one letter, and spheres are shortlex sorted
    for g in every_graph(4):
        for radius in range(7):
            _check_prefix_closed(g.comm_masks, radius)
    rng = random.Random(1329)
    for _ in range(100):
        verts = "abcdefg"[: rng.randint(5, 7)]
        edges = [p for p in itertools.combinations(verts, 2) if rng.random() < 0.5]
        for radius in range(5):
            _check_prefix_closed(DefiningGraph(verts, edges).comm_masks, radius)


def _growth_series(n, edges, radius):
    """Sphere sizes 0..radius from the clique polynomial alone: the growth
    series of a right-angled Coxeter group is 1/f(-t/(1+t)), where f(t)
    sums t^|c| over the cliques c of the graph, the empty one included
    (Davis, The Geometry and Topology of Coxeter Groups, ch. 17).  With d
    the largest clique size, that is (1+t)^d / P(t), where
    P(t) = sum_k f_k (-t)^k (1+t)^(d-k) has constant term 1."""
    adj = {frozenset(e) for e in edges}
    f = [0] * (n + 1)
    for subset in range(1 << n):
        members = [i for i in range(n) if (subset >> i) & 1]
        if all(frozenset(p) in adj for p in itertools.combinations(members, 2)):
            f[len(members)] += 1
    d = max(k for k, c in enumerate(f) if c)
    p = [0] * (n + 1)
    for k in range(d + 1):
        for j in range(d - k + 1):
            p[k + j] += f[k] * (-1) ** k * math.comb(d - k, j)
    num = [math.comb(d, j) for j in range(d + 1)] + [0] * radius
    sizes = []
    for r in range(radius + 1):
        sizes.append(num[r] - sum(p[j] * sizes[r - j] for j in range(1, min(r, n) + 1)))
    return sizes


def _sphere_sizes(g, radius):
    sizes = [0] * (radius + 1)
    for w in ball_bytes(g, radius):
        sizes[len(w)] += 1
    return sizes


def test_ball_sphere_sizes_match_the_growth_series():
    # the oracle reads only the edge list: no kernel, no normal form.
    # Hand counts: the infinite dihedral group has two elements of each
    # positive length, (Z/2)^2 is 1 + 2t + t^2
    assert _growth_series(2, [], 4) == [1, 2, 2, 2, 2]
    assert _growth_series(2, [(0, 1)], 4) == [1, 2, 1, 0, 0]
    for g in every_graph(4):
        edges = sorted(g.edges)
        assert _sphere_sizes(g, 6) == _growth_series(g.n, edges, 6), edges
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(5, 8)
        verts = [f"v{i}" for i in range(n)]
        edges = [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = DefiningGraph(verts, [(verts[i], verts[j]) for i, j in edges])
        radius = rng.randint(0, 4)
        assert _sphere_sizes(g, radius) == _growth_series(n, edges, radius), edges


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


def test_reduce_idempotent_and_nf_fixpoint_exhaustive(c5):
    for w in _words_upto(c5, 3):
        r = reduce_word(c5, w)
        assert reduce_word(c5, r) == r
        nf = normal_form(c5, w)
        assert normal_form(c5, nf) == nf
        assert reduce_word(c5, nf) == nf
        assert is_reduced(c5, nf)
        assert equal(c5, w, nf)

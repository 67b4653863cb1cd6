import random
from itertools import combinations, product
from pathlib import Path

import pytest

from conftest import every_graph
from coxrank import certificates, kernels
from coxrank.certificates import (
    ConjugatorTable,
    Counterexample,
    GoodnessStatus,
    _conjugate_by_letter,
    _falsify_enc,
    _goodness_masks,
    _left_multiply,
    bad_mask,
    bad_set,
    conjugator_table,
    falsify_essential,
    find_even_completion,
    goodness_report,
    is_all_odd_essential,
    is_good_essential,
    is_s_good,
)
from coxrank.errors import (
    GeneratorAbsentError,
    MissingGeneratorsError,
    NotReducedError,
    RadiusCapError,
    UnknownGeneratorError,
)
from coxrank.graphs import DefiningGraph, load_graph
from coxrank.words import (
    _commuters,
    ball_bytes,
    enumerate_ball,
    parity_vector,
    support_bits,
)

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


def test_s_good_errors(c5):
    with pytest.raises(NotReducedError):
        is_s_good(c5, ("a", "a"), "a")
    with pytest.raises(GeneratorAbsentError):
        is_s_good(c5, ("a",), "b")


def test_every_reduced_word_is_s_minimal(c5):
    comm = c5.comm_masks
    for enc in ball_bytes(c5, 5):
        assert _goodness_masks(enc, comm) == _masks_by_blocks(enc, comm)


def test_s_good_examples(c5):
    assert not is_s_good(c5, ("c", "a", "c"), "c")  # nothing outside the pair
    assert is_s_good(c5, ("a", "b", "c", "d", "e"), "a")  # single occurrence
    w = ("d", "c", "a", "c", "d")
    assert not is_s_good(c5, w, "c")  # outside blocks are "d" and "d": both commute with c
    assert not is_s_good(c5, w, "d")  # outside blocks empty


def test_bad_set_examples(c5):
    assert bad_set(c5, tuple("abcde")).bad_set == frozenset()
    report = bad_set(c5, tuple("abcdea"))
    assert report.bad_set == frozenset("a")
    assert report.per_generator["a"] is GoodnessStatus.NOT_GOOD
    assert report.per_generator["b"] is GoodnessStatus.GOOD
    assert report.full_support


def test_bad_set_missing_generators(c5):
    with pytest.raises(MissingGeneratorsError) as err:
        bad_set(c5, ("a", "b", "c", "d"))
    assert err.value.missing == ("e",)


def test_goodness_report_absent_statuses(c5):
    report = goodness_report(c5, ("c", "a", "c"))
    assert report.per_generator["b"] is GoodnessStatus.ABSENT
    assert not report.full_support
    assert report.bad_set == frozenset("c")  # absent generators stay out
    d = report.to_json_dict()
    assert d["badSet"] == ["c"]
    assert d["fullSupport"] is False


def test_all_odd_examples(c5):
    assert is_all_odd_essential(c5, tuple("abcde"))
    assert not is_all_odd_essential(c5, ("a", "b"))
    assert is_all_odd_essential(c5, tuple("aaabcde"))


def test_good_essential_examples(c5):
    assert is_good_essential(c5, tuple("abcde"))
    assert not is_good_essential(c5, tuple("abcdea"))
    assert not is_good_essential(c5, ("a", "b"))  # missing support
    # reduces internally: abab is the identity
    assert not is_good_essential(c5, tuple("abab"))


def test_every_permutation_word_is_good_essential(c5):
    import itertools

    for perm in itertools.permutations(c5.vertices):
        assert is_good_essential(c5, perm)
        assert is_all_odd_essential(c5, perm)


def test_find_even_completion_examples(c5):
    assert find_even_completion(c5, ("a", "b")) == ("c", "d", "e")
    assert find_even_completion(c5, tuple("abcde")) == ()
    assert find_even_completion(c5, ("a", "a")) == ("a", "b", "c", "d", "e")


def test_completion_always_all_odd(c5):
    for w in enumerate_ball(c5, 5):
        completion = find_even_completion(c5, w)
        assert len(set(completion)) == len(completion)
        assert is_all_odd_essential(c5, completion + w)
        assert all(
            v == 1 for v in parity_vector(c5, completion + w).values()
        )


def test_falsify_examples(c5):
    hit = falsify_essential(c5, ("a",), 2)
    assert hit == Counterexample(conjugator=(), parabolic=frozenset("a"))
    assert falsify_essential(c5, tuple("abcde"), 3) is None
    assert falsify_essential(c5, (), 1) is not None  # identity is not essential


def test_falsify_radius_cap(c5):
    with pytest.raises(RadiusCapError):
        falsify_essential(c5, ("a",), 12)


def test_certified_words_survive_falsifier_small(c5):
    for w in enumerate_ball(c5, 5):
        if is_all_odd_essential(c5, w) or is_good_essential(c5, w):
            assert falsify_essential(c5, w, 2) is None


def _occurrences(enc, s):
    return [i for i, ch in enumerate(enc) if ch == s]


def _has_blocker(block, mask):
    return any(not (mask >> t) & 1 for t in block)


def _blocks(enc, s):
    """Reference: cut the word at the occurrences of s into its interior
    blocks and the wrapped block w(k+1)w0 (None when s occurs once)."""
    pos = _occurrences(enc, s)
    if len(pos) == 1:
        return [], None
    interior = [enc[a + 1 : b] for a, b in zip(pos, pos[1:])]
    return interior, enc[pos[-1] + 1 :] + enc[: pos[0]]


def _minimal_and_good_by_blocks(blocks, mask):
    interior, wrapped = blocks
    minimal = all(_has_blocker(block, mask) for block in interior)
    return minimal, minimal and (wrapped is None or _has_blocker(wrapped, mask))


def _masks_by_blocks(enc, comm):
    """Reference (present, bad) masks of a reduced word.  Every s must be
    minimal: two s with only letters commuting with s between them would
    cancel."""
    present = bad = 0
    for s in set(enc):
        minimal, good = _minimal_and_good_by_blocks(_blocks(enc, s), comm[s])
        assert minimal, (enc, s)
        present |= 1 << s
        bad |= (not good) << s
    return present, bad


def test_goodness_masks_match_the_block_definition_on_every_4_vertex_graph():
    graphs = list(every_graph(4, 4))
    for length in range(7):
        for enc in map(bytes, product(range(4), repeat=length)):
            for g in graphs:
                comm = g.comm_masks
                if kernels.is_reduced(enc, comm):
                    assert _goodness_masks(enc, comm) == _masks_by_blocks(enc, comm)
    # the public readers of the masks, on the path a - b - c - d
    verts = "abcd"
    path = DefiningGraph(verts, [("a", "b"), ("b", "c"), ("c", "d")])
    for length in range(7):
        for enc in map(bytes, product(range(4), repeat=length)):
            if not kernels.is_reduced(enc, path.comm_masks):
                continue
            word = tuple(verts[i] for i in enc)
            report = goodness_report(path, word)
            assert bad_mask(path, enc) == sum(1 << verts.index(v) for v in report.bad_set)
            _, bad = _masks_by_blocks(enc, path.comm_masks)
            for si in set(enc):
                good = not (bad >> si) & 1
                s = verts[si]
                assert is_s_good(path, word, s) == good
                assert (report.per_generator[s] is GoodnessStatus.GOOD) == good


def test_conjugate_by_letter_matches_reduce_word_on_every_4_vertex_graph():
    words = [
        bytes(w) for length in range(6) for w in product(range(4), repeat=length)
    ]
    for g in every_graph(4, 4):
        comm = g.comm_masks
        for r in words:
            if not kernels.is_reduced(r, comm):
                continue
            for x in range(4):
                expected = kernels.reduce_word(bytes([x]) + r + bytes([x]), comm)
                assert _conjugate_by_letter(r, x, _commuters(comm[x])) == expected


def test_left_multiply_matches_reduce_word_on_random_reduced_words():
    # reduce_word is the oracle: one pass over m + r, where _left_multiply
    # strips r once per letter of m, last first
    rng = random.Random(1993)
    cancelled = 0
    for _ in range(10_000):
        k = rng.randint(1, 9)
        verts = "abcdefghi"[:k]
        g = DefiningGraph(verts, [p for p in combinations(verts, 2) if rng.random() < 0.5])
        comm = g.comm_masks
        m, r = (
            kernels.reduce_word(bytes(rng.randrange(k) for _ in range(rng.randint(0, 14))), comm)
            for _ in range(2)
        )
        expected = kernels.reduce_word(m + r, comm)
        assert _left_multiply(m, r, comm) == expected, (g.to_text(), m, r)
        cancelled += len(expected) < len(m) + len(r)
    # about 30% of the cases cancel letters, so both branches are exercised
    assert cancelled > 2500


def _falsify_by_reducing_every_conjugate(g, enc, conj_ball):
    """Reference: reduce every conjugate u w u^-1 from scratch."""
    full = (1 << g.n) - 1
    for u in conj_ball:
        supp = support_bits(kernels.reduce_word(u + enc + u[::-1], g.comm_masks))
        if supp != full:
            return u, supp
    return None


def test_leaf_supports_match_reduce_word_on_every_4_vertex_graph():
    # A two-element table whose second entry is the conjugator x: with
    # inner = 1 it is a leaf, decided by the letter count rule, and with
    # inner = 2 its conjugate x r x is built.  Both must give the first
    # hit of reducing every conjugate.
    words = [
        bytes(w) for length in range(7) for w in product(range(4), repeat=length)
    ]
    full = 0b1111
    cases = full_support = hits_at_x = 0
    for g in every_graph(4, 4):
        comm = g.comm_masks
        for r in words:
            if not kernels.is_reduced(r, comm):
                continue
            for x in range(4):
                ball = [b"", bytes([x])]
                expected = _falsify_by_reducing_every_conjugate(g, r, ball)
                for inner in (1, 2):
                    table = ConjugatorTable(ball, [0, 0], [-1, x], inner)
                    assert _falsify_enc(g, r, table) == expected
                cases += 1
                full_support += support_bits(r) == full
                hits_at_x += expected is not None and expected[0] == ball[1]
    assert (cases, full_support, hits_at_x) == (189_056, 105_600, 9_408)


def test_falsify_encodes_the_word_before_building_the_ball(c5, monkeypatch):
    def no_ball(g, radius):
        raise AssertionError("ball built before the word was encoded")

    monkeypatch.setattr(certificates, "ball_bytes", no_ball)
    with pytest.raises(UnknownGeneratorError):
        falsify_essential(c5, ("a", "z"), 10)


def _check_against_reducing_every_conjugate(g, enc, conj_ball, table):
    expected = _falsify_by_reducing_every_conjugate(g, enc, conj_ball)
    assert _falsify_enc(g, enc, table) == expected
    return expected


def test_incremental_falsifier_matches_reducing_every_conjugate():
    rng = random.Random(20121005)
    hits = misses = last_sphere = 0
    for _ in range(240):
        n = rng.randint(2, 6)
        verts = "abcdef"[:n]
        edges = [p for p in combinations(verts, 2) if rng.random() < 0.4]
        g = DefiningGraph(verts, edges)
        conj_radius = rng.randint(0, 4)
        conj_ball = ball_bytes(g, conj_radius)
        table = conjugator_table(conj_ball)
        sphere = [u for u in conj_ball if len(u) == conj_radius]
        for k in range(6):
            # raw random words, unreduced ones included; every other one is
            # a conjugate v w v^-1 of a word w missing a generator, so that
            # hits at nontrivial conjugators are common; for one of them per
            # graph, |v| is the conjugation radius, so that first hits land
            # in the last sphere, whose conjugates are never built
            enc = bytes(rng.randrange(n) for _ in range(rng.randint(0, 12)))
            if k % 2:
                if k == 3 and sphere:
                    v = rng.choice(sphere)
                else:
                    v = bytes(rng.randrange(n) for _ in range(rng.randint(1, 5)))
                enc = v + enc.replace(bytes([rng.randrange(n)]), b"") + v[::-1]
            expected = _check_against_reducing_every_conjugate(g, enc, conj_ball, table)
            hits += expected is not None and expected[0] != b""
            misses += expected is None
            if expected is not None and expected[0] and len(expected[0]) == conj_radius:
                last_sphere += 1
    assert hits > 50 and misses > 50 and last_sphere > 20


def test_a_word_and_its_inverse_get_the_same_first_hit():
    # u w^-1 u^-1 is the inverse of u w u^-1, which has the same support,
    # so the certificates driver falsifies one word of each inverse pair
    rng = random.Random(23)
    hits = misses = pairs = 0
    for _ in range(120):
        n = rng.randint(3, 6)
        verts = "abcdef"[:n]
        g = DefiningGraph(verts, [p for p in combinations(verts, 2) if rng.random() < 0.4])
        comm = g.comm_masks
        conj_ball = ball_bytes(g, rng.randint(0, 4))
        table = conjugator_table(conj_ball)
        for k in range(6):
            enc = kernels.reduce_word(
                bytes(rng.randrange(n) for _ in range(rng.randint(0, 14))), comm
            )
            if k % 2:  # a conjugate of a word that misses a generator
                v = kernels.reduce_word(bytes(rng.randrange(n) for _ in range(3)), comm)
                missing = enc.replace(bytes([rng.randrange(n)]), b"")
                enc = kernels.reduce_word(v + missing + v[::-1], comm)
            partner = kernels.normal_form(enc[::-1], comm)
            expected = _falsify_by_reducing_every_conjugate(g, enc, conj_ball)
            assert _falsify_enc(g, enc, table) == expected
            assert _falsify_enc(g, partner, table) == expected
            assert _falsify_by_reducing_every_conjugate(g, partner, conj_ball) == expected
            hits += expected is not None and expected[0] != b""
            misses += expected is None
            pairs += partner != kernels.normal_form(enc, comm)
    # hits at a nontrivial conjugator, no hit at all, and words that are
    # not their own inverse are each common
    assert hits > 30 and misses > 30 and pairs > 300


def test_falsifier_past_the_diameter_of_a_finite_group():
    # K3 gives (Z/2)^3, of diameter 3: at conjugation radius 5 the
    # requested last sphere is empty, and the leaves start at abc
    # (index 7), the start of the last nonempty sphere.
    k3 = load_graph(GRAPHS / "k3.txt")
    conj_ball = ball_bytes(k3, 5)
    table = conjugator_table(conj_ball)
    assert len(conj_ball) == 8 and table.inner == 7
    rng = random.Random(3)
    hits = 0
    for length in range(5):
        for enc in map(bytes, product(range(3), repeat=length)):
            hit = _check_against_reducing_every_conjugate(k3, enc, conj_ball, table)
            hits += hit is not None
    for _ in range(200):
        enc = bytes(rng.randrange(3) for _ in range(rng.randint(5, 15)))
        _check_against_reducing_every_conjugate(k3, enc, conj_ball, table)
    assert 0 < hits < 121

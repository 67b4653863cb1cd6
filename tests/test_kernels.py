"""The word kernels against the leftmost-pair reduction that defines
``reduce_word``'s byte contract, and ``normal_form`` against a brute-force
closure on short words and a rescanning greedy extraction on long ones."""

import random
from itertools import product

from conftest import every_graph
from coxrank import kernels
from coxrank.graphs import DefiningGraph
from coxrank.kernels import BACKEND


def _leftmost_pair_reduce(word: bytes, comm) -> bytes:
    """Delete the leftmost deletable pair (smallest first position, then
    its nearest matching letter) until none remains."""
    buf = bytearray(word)
    while True:
        n = len(buf)
        hit = False
        for i in range(n - 1):
            s = buf[i]
            mask = comm[s]
            for j in range(i + 1, n):
                t = buf[j]
                if t == s:
                    del buf[j]
                    del buf[i]
                    hit = True
                    break
                if not (mask >> t) & 1:
                    break
            if hit:
                break
        if not hit:
            return bytes(buf)


def test_reduction_matches_leftmost_pair_on_every_4_vertex_graph():
    words = [
        bytes(w) for length in range(6) for w in product(range(4), repeat=length)
    ]
    for g in every_graph(4, 4):
        comm = g.comm_masks
        for w in words:
            expected = _leftmost_pair_reduce(w, comm)
            assert kernels.reduce_word(w, comm) == expected
            assert kernels.is_reduced(w, comm) == (expected == w)


def _closure_normal_form(word: bytes, comm) -> bytes:
    """Lex-least word of the shortest words reachable from ``word`` by
    swapping adjacent commuting letters and deleting adjacent equal ones."""
    seen = {word}
    todo = [word]
    while todo:
        w = todo.pop()
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a == b:
                v = w[:i] + w[i + 2 :]
            elif (comm[a] >> b) & 1:
                v = w[:i] + bytes((b, a)) + w[i + 2 :]
            else:
                continue
            if v not in seen:
                seen.add(v)
                todo.append(v)
    shortest = min(map(len, seen))
    return min(v for v in seen if len(v) == shortest)


def test_normal_form_matches_closure_on_every_4_vertex_graph():
    # lengths 0-4 cover the two-letter closed form and the greedy
    # extraction on both sides of it
    words = [
        bytes(w) for length in range(5) for w in product(range(4), repeat=length)
    ]
    for g in every_graph(4, 4):
        comm = g.comm_masks
        for w in words:
            expected = _closure_normal_form(w, comm)
            assert kernels.normal_form(w, comm) == expected, (g, list(w))
            got = kernels.normal_form(bytearray(w), comm)
            assert type(got) is bytes and got == expected


def test_pure_kernel_reduction_order_is_leftmost():
    # c and a do not commute on the pentagon, so the pair of b's around c is
    # blocked and the leftmost deletable pair is the two a's.
    g = DefiningGraph(
        "abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")]
    )
    word = bytes([0, 1, 0, 2])  # a b a c
    assert kernels.reduce_word(word, g.comm_masks) == bytes([1, 2])  # b c


def test_active_backend_reported():
    assert BACKEND == "python"


# -- long words -----------------------------------------------------------------


def _rescan_normal_form(word: bytes, comm) -> bytes:
    """The greedy extraction with a rescan per candidate: reduce by
    scanning each arriving letter back over the letters it commutes with,
    then repeatedly take the least letter whose first occurrence is
    preceded only by letters it commutes with.  Cubic at worst."""
    buf = bytearray()
    for s in word:
        for i in range(len(buf) - 1, -1, -1):
            if buf[i] == s:
                del buf[i]
                break
            if not (comm[s] >> buf[i]) & 1:
                buf.append(s)
                break
        else:
            buf.append(s)
    out = bytearray()
    while buf:
        candidates = [
            (s, p)
            for p, s in enumerate(buf)
            if all(t != s and (comm[s] >> t) & 1 for t in buf[:p])
        ]
        s, p = min(candidates)
        del buf[p]
        out.append(s)
    return bytes(out)


def _moves_left_past_a_greater_letter(word: bytes, comm) -> bool:
    """True iff some letter commutes with every letter of a run just
    before it, and that run holds a greater letter: moving the letter in
    front of the run would give a lexicographically smaller word."""
    for j, s in enumerate(word):
        for t in reversed(word[:j]):
            if not (comm[s] >> t) & 1:
                break
            if t > s:
                return True
    return False


def _random_comm(n, rng):
    density = rng.random()
    comm = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                comm[i] |= 1 << j
                comm[j] |= 1 << i
    return comm


def _slow_shape(n):
    """(c d)^k w (a b)^m at a 3:2 split over a=0, b=1, c=2, d=3, w=4,
    with a and b each commuting with c and d: in a rescan extraction every
    a and b rescans the (c d)^k prefix."""
    k = n * 3 // 10
    return bytes([2, 3] * k + [4] + [i % 2 for i in range(n - 2 * k - 1)])


SLOW_COMM = [0b01100, 0b01100, 0b00011, 0b00011, 0]


def test_normal_form_matches_the_rescan_extraction_on_long_words():
    rng = random.Random(36)
    cases = []
    for _ in range(60):
        comm = _random_comm(rng.randint(1, 12), rng)
        word = bytes(rng.randrange(len(comm)) for _ in range(rng.randint(50, 300)))
        cases.append((word, comm))
    cases += [(_slow_shape(n), SLOW_COMM) for n in (10, 33, 64, 101, 200, 255)]
    for word, comm in cases:
        got = kernels.normal_form(word, comm)
        assert got == _rescan_normal_form(word, comm), (comm, list(word))
        assert not _moves_left_past_a_greater_letter(got, comm), (comm, list(word))

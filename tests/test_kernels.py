"""The word kernels against the leftmost-pair reduction that defines
``reduce_word``'s byte contract, and ``normal_form`` against a brute-force
closure."""

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

"""Hypothesis property tests for the word engine on randomly drawn graphs."""

import hypothesis.strategies as st
from hypothesis import given, settings

from coxrank.graphs import DefiningGraph
from coxrank.words import (
    equal,
    is_reduced,
    normal_form,
    parity_vector,
    reduce_word,
    support,
)

LABELS = tuple("abcdefg")


@st.composite
def graph_and_word(draw, max_vertices=7, max_len=16):
    n = draw(st.integers(1, max_vertices))
    verts = LABELS[:n]
    pairs = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    edges = [p for p in pairs if draw(st.booleans())]
    g = DefiningGraph(verts, edges)
    word = tuple(
        verts[i]
        for i in draw(st.lists(st.integers(0, n - 1), max_size=max_len))
    )
    return g, word


@given(graph_and_word())
@settings(max_examples=200, deadline=None)
def test_reduce_is_idempotent(gw):
    g, w = gw
    r = reduce_word(g, w)
    assert reduce_word(g, r) == r
    assert is_reduced(g, r)
    assert len(r) <= len(w)


@given(graph_and_word())
@settings(max_examples=200, deadline=None)
def test_normal_form_is_canonical_fixpoint(gw):
    g, w = gw
    nf = normal_form(g, w)
    assert normal_form(g, nf) == nf
    assert reduce_word(g, nf) == nf
    assert equal(g, w, nf)


@given(graph_and_word())
@settings(max_examples=200, deadline=None)
def test_parity_and_support_are_class_invariants(gw):
    g, w = gw
    nf = normal_form(g, w)
    assert parity_vector(g, w) == parity_vector(g, nf)
    assert support(g, w) == support(g, nf)
    assert support(g, w) <= set(w)


@given(graph_and_word())
@settings(max_examples=200, deadline=None)
def test_normal_form_of_an_extension_moves_only_the_commuting_suffix(gw):
    # for w a normal form and x outside its right descent set, with w[k:]
    # the longest suffix whose letters all commute with x:
    # nf(w x) == w[:k] + nf(w[k:] x)
    g, word = gw
    w = normal_form(g, word)
    for x in g.vertices:
        if len(reduce_word(g, w + (x,))) < len(w):
            continue
        k = len(w)
        while k and g.adjacent(w[k - 1], x):
            k -= 1
        assert normal_form(g, w + (x,)) == w[:k] + normal_form(g, w[k:] + (x,))

from itertools import combinations

import pytest

from coxrank.graphs import DefiningGraph

C5_EDGES = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")]


def every_graph(max_vertices, min_vertices=1):
    """Every labelled graph on the first k of the labels ``abcdef``, for k
    from ``min_vertices`` to ``max_vertices``, by ascending edge bits: bit
    t selects the t-th vertex pair in ``itertools.combinations`` order.

    Import it with ``from conftest import every_graph``."""
    for k in range(min_vertices, max_vertices + 1):
        verts = "abcdef"[:k]
        pairs = list(combinations(verts, 2))
        for bits in range(1 << len(pairs)):
            yield DefiningGraph(verts, [p for t, p in enumerate(pairs) if (bits >> t) & 1])


@pytest.fixture(scope="session")
def c5():
    """Pentagon: the canonical infinite irreducible non-affine example."""
    return DefiningGraph("abcde", C5_EDGES)


@pytest.fixture(scope="session")
def dinf():
    """Two isolated vertices: the infinite dihedral group."""
    return DefiningGraph("ab")


@pytest.fixture(scope="session")
def c4():
    """Square: join of two anticliques."""
    return DefiningGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


@pytest.fixture(scope="session")
def k3():
    return DefiningGraph("abc", [("a", "b"), ("b", "c"), ("a", "c")])


@pytest.fixture(scope="session")
def p3():
    return DefiningGraph("abc", [("a", "b"), ("b", "c")])

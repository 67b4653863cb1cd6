import itertools
import random
from collections import Counter

import pytest

from conftest import every_graph
from coxrank.errors import (
    EmptyGraphError,
    GraphParseError,
    NotAFactorError,
)
from coxrank.graphs import (
    DefiningGraph,
    FactorKind,
    classify_factor,
    dj_double_prime,
    dj_prime,
    is_join,
    join_decompose,
    parse_graph,
)

PENTAGON_TEXT = """\
# pentagon
vertices: a b c d e
edge: a b
edge: b c
edge: c d
edge: d e
edge: e a
"""


def test_parse_k2():
    g = parse_graph("vertices: a b\nedge: a b")
    assert g.vertices == ("a", "b")
    assert g.edge_count == 1
    assert g.adjacent("a", "b")


def test_parse_pentagon():
    g = parse_graph(PENTAGON_TEXT)
    assert g.vertices == ("a", "b", "c", "d", "e")
    assert g.edge_count == 5


def test_parse_roundtrip(c5, c4, dinf):
    for g in (c5, c4, dinf):
        assert parse_graph(g.to_text()) == g


@pytest.mark.parametrize(
    "text,code,line",
    [
        ("vertices: a\nedge: a a", "SELF_LOOP", 2),
        ("vertices: a a", "DUPLICATE_VERTEX", 1),
        ("vertices: a b\nedge: a q", "UNKNOWN_ENDPOINT", 2),
        ("vertices: a b\nedge: a", "SYNTAX_ERROR", 2),
        ("edge: a b", "SYNTAX_ERROR", 1),
        ("vertices: a\nvertices: b", "SYNTAX_ERROR", 2),
        ("vertices: a\nfrobnicate", "SYNTAX_ERROR", 2),
        ("vertices: a$", "SYNTAX_ERROR", 1),
        ("vertices:", "SYNTAX_ERROR", 1),
        ("# nothing here", "SYNTAX_ERROR", 1),
    ],
)
def test_parse_errors(text, code, line):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert err.value.code == code
    assert err.value.line == line


def test_comments_and_blank_lines_ignored():
    g = parse_graph("# c\n\nvertices: x y\n\n# more\nedge: x y\n")
    assert g.vertices == ("x", "y")


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraphError):
        DefiningGraph([])


def test_vertex_limit():
    with pytest.raises(GraphParseError):
        DefiningGraph([f"v{i}" for i in range(65)])


def test_is_join(c4, c5):
    assert is_join(c4)
    assert not is_join(c5)
    assert not is_join(DefiningGraph("a"))


def test_join_decompose_square(c4):
    factors = join_decompose(c4)
    assert [f.vertices for f in factors] == [("a", "c"), ("b", "d")]
    assert all(f.edge_count == 0 for f in factors)


def test_join_decompose_pentagon(c5):
    assert join_decompose(c5) == [c5]


def test_join_decompose_triangle(k3):
    factors = join_decompose(k3)
    assert [f.vertices for f in factors] == [("a",), ("b",), ("c",)]


def _join_of(factors):
    verts = [v for f in factors for v in f.vertices]
    edges = [e for f in factors for e in f.edge_labels()]
    for f1, f2 in itertools.combinations(factors, 2):
        edges += [(a, b) for a in f1.vertices for b in f2.vertices]
    return DefiningGraph(sorted(verts), edges)


def test_join_decompose_reconstructs_and_factors_are_join_free():
    for g in every_graph(5):
        factors = join_decompose(g)
        assert all(not is_join(f) for f in factors)
        assert _join_of(factors) == g


def _splits(g):
    """Nonempty vertex masks A with every vertex of A adjacent to every
    vertex outside A, by brute force over all bipartitions."""
    full = (1 << g.n) - 1
    comm = g.comm_masks
    # i is adjacent to every vertex outside A iff comm[i] | A is everything
    return [
        a
        for a in range(1, full + 1)
        if all(comm[i] | a == full for i in range(g.n) if (a >> i) & 1)
    ]


def _check_join_structure(g):
    # g is a join iff a proper subset splits off; the complement's
    # components are the minimal splitting subsets
    splits = _splits(g)
    assert is_join(g) == (len(splits) > 1), g
    minimal = [a for a in splits if not any(b != a and b & a == b for b in splits)]
    assert g.complement_components() == sorted(
        [i for i in range(g.n) if (a >> i) & 1] for a in minimal
    ), g


def test_join_structure_matches_brute_force_bipartitions():
    for g in every_graph(5):
        _check_join_structure(g)


def test_join_structure_matches_brute_force_bipartitions_past_5_vertices():
    # the doubles of every graph on at most 4 vertices have up to 8, and a
    # seeded sample has 6-10; a wide spread of edge densities gives joins
    # of up to 10 factors as well as join-free graphs
    kinds = Counter()
    for g in every_graph(4):
        for d in (dj_prime(g), dj_double_prime(g)):
            _check_join_structure(d)
            kinds[d.n, is_join(d)] += 1
    rng = random.Random(3838)
    for _ in range(400):
        verts = "abcdefghij"[: rng.randint(6, 10)]
        p = rng.choice((0.3, 0.5, 0.7, 0.85, 0.95, 1.0))
        g = DefiningGraph(verts, [e for e in itertools.combinations(verts, 2) if rng.random() < p])
        _check_join_structure(g)
        kinds[g.n, is_join(g)] += 1
    assert all(kinds[n, join] for n in range(6, 11) for join in (False, True)), kinds


def test_classify_factor(c5):
    assert classify_factor(DefiningGraph("a")) is FactorKind.SPHERICAL_POINT
    assert classify_factor(DefiningGraph("ab")) is FactorKind.AFFINE_DIHEDRAL
    assert classify_factor(c5) is FactorKind.IRREDUCIBLE_NONAFFINE


def test_classify_factor_rejects_joins():
    with pytest.raises(NotAFactorError):
        classify_factor(parse_graph("vertices: a b\nedge: a b"))


def test_dj_double_prime_counts(c5):
    d = dj_double_prime(c5)
    assert d.n == 10
    assert d.edge_count == 35  # 5 copy + 10 clique + 20 cross


def test_dj_prime_counts(c5):
    d = dj_prime(c5)
    assert d.n == 10
    assert d.edge_count == 20  # 5 + 5 copies + 10 cross


def test_dj_single_vertex():
    g = DefiningGraph("a")
    assert (dj_double_prime(g).n, dj_double_prime(g).edge_count) == (2, 0)
    assert (dj_prime(g).n, dj_prime(g).edge_count) == (2, 0)


def test_dj_k2():
    g = parse_graph("vertices: a b\nedge: a b")
    assert (dj_double_prime(g).n, dj_double_prime(g).edge_count) == (4, 4)
    assert (dj_prime(g).n, dj_prime(g).edge_count) == (4, 4)


def test_dj_double_prime_top_copy_is_base_graph():
    for g in every_graph(4):
        d = dj_double_prime(g)
        top = d.subgraph([f"{v}_1" for v in g.vertices])
        assert top.vertices == tuple(f"{v}_1" for v in g.vertices)
        assert top.edges == g.edges  # index pairs survive the relabeling


def test_doubles_on_the_same_vertices_share_labels_and_index(c5):
    other = DefiningGraph("abcde", [("a", "c")])
    for double in (dj_prime, dj_double_prime):
        d1, d2 = double(c5), double(other)
        assert d1.vertices is d2.vertices
        assert d1._index is d2._index
        assert d1._index == {v: i for i, v in enumerate(d1.vertices)}
    prime, double_prime = dj_prime(c5), dj_double_prime(c5)
    assert prime.vertices != double_prime.vertices
    assert prime._index is not double_prime._index


def test_join_lemma_small():
    for g in every_graph(4):
        assert is_join(g) == is_join(dj_prime(g))


def test_subgraph_keeps_declaration_order(c5):
    sub = c5.subgraph(["e", "a", "c"])
    assert sub.vertices == ("a", "c", "e")


def _edge_built_dj_prime(g):
    lo = [f"{v}_m1" for v in g.vertices]
    hi = [f"{v}_1" for v in g.vertices]
    edges = []
    for i, j in sorted(g.edges):
        edges += [(lo[i], lo[j]), (hi[i], hi[j]), (lo[i], hi[j]), (lo[j], hi[i])]
    return DefiningGraph(lo + hi, edges)


def _edge_built_dj_double_prime(g):
    lo = [f"{v}_0" for v in g.vertices]
    hi = [f"{v}_1" for v in g.vertices]
    edges = [(hi[i], hi[j]) for i, j in sorted(g.edges)]
    edges += [(lo[i], lo[j]) for i, j in itertools.combinations(range(g.n), 2)]
    edges += [(lo[i], hi[j]) for i in range(g.n) for j in range(g.n) if i != j]
    return DefiningGraph(lo + hi, edges)


def test_mask_built_graphs_match_edge_built_on_every_5_vertex_graph():
    for g in every_graph(5):
        m = DefiningGraph._from_masks(g.vertices, g.comm_masks)
        assert m == g and hash(m) == hash(g)
        assert (m.edges, m.edge_count, m.to_text()) == (
            g.edges, len(g.edges), g.to_text()
        )
        assert m._index == g._index
        for build, by_edges in (
            (dj_prime, _edge_built_dj_prime),
            (dj_double_prime, _edge_built_dj_double_prime),
        ):
            got, want = build(m), by_edges(g)
            assert got == want
            assert (got.to_text(), got.edge_count, got._index) == (
                want.to_text(), want.edge_count, want._index
            )
        assert is_join(g) == (len(g.complement_components()) > 1)


def test_doubles_keep_the_vertex_cap():
    g = DefiningGraph([f"v{i}" for i in range(33)])
    for build in (dj_prime, dj_double_prime):
        with pytest.raises(GraphParseError) as exc:
            build(g)
        assert exc.value.code == "DOUBLE_TOO_LARGE"
        assert str(exc.value) == "doubling 33 vertices gives 66, more than 64"
    assert dj_prime(DefiningGraph([f"v{i}" for i in range(32)])).n == 64

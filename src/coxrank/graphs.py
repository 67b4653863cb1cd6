"""Defining graphs: parsing, join structure, and the doubling constructions.

A defining graph records the generating set of a right-angled Coxeter or
Artin group: vertices are generators, edges mark commuting pairs.  Vertex
declaration order is significant; it is the alphabet order that every
normal form and shortlex enumeration downstream uses.

The stored adjacency is one commutation mask per vertex (bit j of
``comm_masks[i]`` is set when i and j commute); the edge set is derived
from the masks.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache

from .errors import (
    EmptyGraphError,
    GraphParseError,
    NotAFactorError,
    UnknownGeneratorError,
)

# Commutation masks live in one machine word; far beyond desk scale anyway.
MAX_VERTICES = 64

_LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")


# The input checks, shared by the constructor and the parser; ``line`` is
# the source line a parse error names, None for programmatic input.
def _vertex_index(labels, line: int | None = None) -> dict[str, int]:
    """Index of each label; rejects too many vertices, bad labels and
    duplicates."""
    if len(labels) > MAX_VERTICES:
        raise GraphParseError("SYNTAX_ERROR", line, f"more than {MAX_VERTICES} vertices")
    index: dict[str, int] = {}
    for v in labels:
        if not isinstance(v, str) or not _LABEL_RE.match(v):
            raise GraphParseError("SYNTAX_ERROR", line, f"bad vertex label {v!r}")
        if v in index:
            raise GraphParseError("DUPLICATE_VERTEX", line, f"duplicate vertex {v!r}")
        index[v] = len(index)
    return index


def _add_edge(masks: list, index, a, b, line: int | None = None) -> None:
    """Mark a and b as commuting; rejects unknown endpoints and self-loops."""
    ia = index.get(a)
    ib = index.get(b)
    if ia is None or ib is None:
        bad = a if ia is None else b
        raise GraphParseError(
            "UNKNOWN_ENDPOINT", line, f"edge endpoint {bad!r} not declared"
        )
    if ia == ib:
        raise GraphParseError("SELF_LOOP", line, f"self-loop at {a!r}")
    masks[ia] |= 1 << ib
    masks[ib] |= 1 << ia


class DefiningGraph:
    """Finite simplicial graph with ordered vertex labels.

    Immutable after construction; safe to share across threads.
    """

    __slots__ = ("vertices", "comm_masks", "_index")

    def __init__(self, vertices, edges=()):
        vertices = tuple(vertices)
        if not vertices:
            raise EmptyGraphError("a defining graph needs at least one vertex")
        index = _vertex_index(vertices)
        masks = [0] * len(vertices)
        for a, b in edges:
            _add_edge(masks, index, a, b)
        self._set(vertices, tuple(masks), index)

    @classmethod
    def _from_masks(cls, vertices: tuple, masks: tuple, index=None) -> "DefiningGraph":
        """Unchecked constructor: ``vertices`` must be distinct valid labels
        (at most MAX_VERTICES) and ``masks`` symmetric without self-loops.
        ``index`` may be shared between graphs on the same vertices."""
        g = cls.__new__(cls)
        g._set(vertices, masks, index)
        return g

    def _set(self, vertices, masks, index) -> None:
        self.vertices = vertices
        self.comm_masks = masks
        self._index = (
            index if index is not None else {v: i for i, v in enumerate(vertices)}
        )

    # -- basic queries -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Index pairs (i, j) with i < j that commute, derived from the masks."""
        return frozenset(
            (i, j)
            for i, m in enumerate(self.comm_masks)
            for j in range(i + 1, m.bit_length())
            if (m >> j) & 1
        )

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.comm_masks) // 2

    def has_vertex(self, label: str) -> bool:
        return label in self._index

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownGeneratorError(label) from None

    def adjacent(self, a: str, b: str) -> bool:
        ia, ib = self.index(a), self.index(b)
        return bool((self.comm_masks[ia] >> ib) & 1)

    def edge_labels(self) -> list[tuple[str, str]]:
        return [
            (self.vertices[i], self.vertices[j]) for i, j in sorted(self.edges)
        ]

    def subgraph(self, labels) -> "DefiningGraph":
        """Induced subgraph; vertices keep their relative declaration order."""
        keep = {self.index(v) for v in labels}
        verts = [v for i, v in enumerate(self.vertices) if i in keep]
        edges = [
            (self.vertices[i], self.vertices[j])
            for i, j in self.edges
            if i in keep and j in keep
        ]
        return DefiningGraph(verts, edges)

    def complement_components(self) -> list[list[int]]:
        """Connected components of the complement graph, as sorted index
        lists, ordered by least member."""
        unvisited = (1 << self.n) - 1
        comps = []
        while unvisited:
            comp = _complement_reach(self.comm_masks, unvisited & -unvisited)
            unvisited &= ~comp
            comps.append([i for i in range(self.n) if (comp >> i) & 1])
        return comps

    # -- serialization -------------------------------------------------

    def to_text(self) -> str:
        lines = ["vertices: " + " ".join(self.vertices)]
        lines += [f"edge: {a} {b}" for a, b in self.edge_labels()]
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (
            isinstance(other, DefiningGraph)
            and self.vertices == other.vertices
            and self.comm_masks == other.comm_masks
        )

    def __hash__(self):
        return hash((self.vertices, self.comm_masks))

    def __repr__(self):
        return f"DefiningGraph({list(self.vertices)}, {self.edge_labels()})"


def parse_graph(text: str) -> DefiningGraph:
    """Parse the line-oriented graph format.

    Comment lines start with ``#``; the first significant line must be
    ``vertices: <label> ...`` and each following significant line
    ``edge: <label> <label>``.  Declaration order of the vertices defines
    the downstream alphabet order.
    """
    vertices: tuple[str, ...] | None = None
    index: dict[str, int] = {}
    masks: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("vertices:"):
            if vertices is not None:
                raise GraphParseError(
                    "SYNTAX_ERROR", lineno, "repeated 'vertices:' line"
                )
            labels = line[len("vertices:"):].split()
            if not labels:
                raise GraphParseError("SYNTAX_ERROR", lineno, "no vertices declared")
            index = _vertex_index(labels, lineno)
            masks = [0] * len(labels)
            vertices = tuple(labels)
        elif line.startswith("edge:"):
            if vertices is None:
                raise GraphParseError(
                    "SYNTAX_ERROR", lineno, "'edge:' before 'vertices:'"
                )
            parts = line[len("edge:"):].split()
            if len(parts) != 2:
                raise GraphParseError(
                    "SYNTAX_ERROR", lineno, "expected 'edge: <label> <label>'"
                )
            _add_edge(masks, index, *parts, lineno)
        else:
            raise GraphParseError(
                "SYNTAX_ERROR", lineno, f"unrecognized line {line!r}"
            )
    if vertices is None:
        raise GraphParseError("SYNTAX_ERROR", 1, "missing 'vertices:' line")
    return DefiningGraph._from_masks(vertices, tuple(masks), index)


def load_graph(path) -> DefiningGraph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


# -- join structure ----------------------------------------------------


def _complement_reach(comm, start_bit: int) -> int:
    """Mask of the vertices that ``start_bit`` reaches in the complement of
    the commutation graph ``comm``.

    Reached vertices are expanded one at a time, and the walk stops as
    soon as every vertex is reached, even with some still unexpanded; a
    vertex whose non-neighbours are all reached already adds nothing."""
    full = (1 << len(comm)) - 1
    rest = full ^ start_bit  # not reached yet
    todo = start_bit  # reached, not yet expanded
    while todo and rest:
        low = todo & -todo
        todo ^= low
        new = rest & ~comm[low.bit_length() - 1]
        if new:
            rest ^= new
            todo |= new
    return full ^ rest


def is_join(g: DefiningGraph) -> bool:
    """True iff g is a join of two nonempty subgraphs, i.e. the complement
    graph is disconnected: vertex 0 does not reach every vertex in it."""
    comm = g.comm_masks
    return _complement_reach(comm, 1) != (1 << len(comm)) - 1


def join_decompose(g: DefiningGraph) -> list[DefiningGraph]:
    """Maximal join factors: induced subgraphs on the complement's
    components, ordered by least vertex.  Each factor is join-free and the
    join of the factors reconstructs g."""
    return [
        g.subgraph([g.vertices[i] for i in comp])
        for comp in g.complement_components()
    ]


class FactorKind(str, Enum):
    SPHERICAL_POINT = "SPHERICAL_POINT"
    AFFINE_DIHEDRAL = "AFFINE_DIHEDRAL"
    IRREDUCIBLE_NONAFFINE = "IRREDUCIBLE_NONAFFINE"


def classify_factor(g: DefiningGraph) -> FactorKind:
    """Trichotomy for a join-free defining graph.

    One vertex gives the order-2 (finite) group; two vertices without an
    edge give the infinite dihedral group, the only irreducible affine
    right-angled case; three or more join-free vertices are infinite,
    irreducible and non-affine.
    """
    if is_join(g):
        raise NotAFactorError(f"graph on {g.vertices} is a join")
    if g.n == 1:
        return FactorKind.SPHERICAL_POINT
    if g.n == 2:
        return FactorKind.AFFINE_DIHEDRAL
    return FactorKind.IRREDUCIBLE_NONAFFINE


# -- Davis-Januszkiewicz doubling constructions ------------------------


@lru_cache(maxsize=16)
def _doubled(vertices: tuple, low: str, high: str) -> tuple[tuple, dict]:
    """Labels and label index of a double on ``vertices``: every label with
    suffix ``low``, then every label with suffix ``high``.

    Cached, so every double built on the same vertices shares one labels
    tuple and one index; graphs never mutate either.  A graph of more than
    MAX_VERTICES / 2 vertices parses but has no double (DOUBLE_TOO_LARGE).
    """
    if 2 * len(vertices) > MAX_VERTICES:
        raise GraphParseError(
            "DOUBLE_TOO_LARGE",
            None,
            f"doubling {len(vertices)} vertices gives {2 * len(vertices)}, "
            f"more than {MAX_VERTICES}",
        )
    labels = tuple([v + low for v in vertices] + [v + high for v in vertices])
    return labels, {v: i for i, v in enumerate(labels)}


def dj_prime(g: DefiningGraph) -> DefiningGraph:
    """Graph double: two labelled copies of g ("_m1" and "_1" suffixes),
    plus a cross edge (i,-1)-(j,1) whenever i != j span an edge of g.

    The associated right-angled Coxeter group is commensurable to the
    right-angled Artin group of g.  Doubles of graphs on the same vertices
    share their labels tuple and index.
    """
    labels, index = _doubled(g.vertices, "_m1", "_1")
    n = g.n
    half = [m | (m << n) for m in g.comm_masks]
    return DefiningGraph._from_masks(labels, tuple(half + half), index)


def dj_double_prime(g: DefiningGraph) -> DefiningGraph:
    """Doubled graph with a clique base: vertices (i,0),(i,1) with labels
    "_0"/"_1"; edges (i,1)-(j,1) for each edge of g, (i,0)-(j,0) for all
    i != j, and (i,0)-(j,1) whenever i != j.  Doubles of graphs on the same
    vertices share their labels tuple and index."""
    labels, index = _doubled(g.vertices, "_0", "_1")
    n = g.n
    full = (1 << n) - 1
    lo = [(full & ~(1 << i)) * ((1 << n) + 1) for i in range(n)]
    hi = [(m << n) | (full & ~(1 << i)) for i, m in enumerate(g.comm_masks)]
    return DefiningGraph._from_masks(labels, tuple(lo + hi), index)

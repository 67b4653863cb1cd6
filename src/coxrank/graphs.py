"""Defining graphs: parsing, join structure, and the doubling constructions.

A defining graph records the generating set of a right-angled Coxeter or
Artin group: vertices are generators, edges mark commuting pairs.  Vertex
declaration order is significant; it is the alphabet order that every
normal form and shortlex enumeration downstream uses.

The stored adjacency is one commutation mask per vertex (bit j of
``comm_masks[i]`` is set when i and j commute); the edge set is derived
from the masks on first use.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import (
    EmptyGraphError,
    GraphParseError,
    NotAFactorError,
    UnknownGeneratorError,
)

# Commutation masks live in one machine word; far beyond desk scale anyway.
MAX_VERTICES = 64

_LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")


def _check_size(n: int, line: int | None = None) -> None:
    if n > MAX_VERTICES:
        raise GraphParseError(
            "SYNTAX_ERROR", line, f"more than {MAX_VERTICES} vertices"
        )


# The input checks, shared by the constructor and the parser; ``line`` is
# the source line a parse error names, None for programmatic input.
def _vertex_index(labels, line: int | None = None) -> dict[str, int]:
    """Index of each label; rejects too many vertices, bad labels and
    duplicates."""
    _check_size(len(labels), line)
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

    __slots__ = ("vertices", "comm_masks", "_index", "_edges")

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
        self._edges = None

    # -- basic queries -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Index pairs (i, j) with i < j that commute, derived from the masks."""
        if self._edges is None:
            self._edges = frozenset(
                (i, j)
                for i, m in enumerate(self.comm_masks)
                for j in range(i + 1, m.bit_length())
                if (m >> j) & 1
            )
        return self._edges

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
        full = (1 << self.n) - 1
        unvisited = full
        comps = []
        while unvisited:
            start = (unvisited & -unvisited).bit_length() - 1
            comp = 0
            frontier = 1 << start
            while frontier:
                comp |= frontier
                unvisited &= ~frontier
                nxt = 0
                f = frontier
                while f:
                    i = (f & -f).bit_length() - 1
                    f &= f - 1
                    nxt |= full & ~self.comm_masks[i] & ~(1 << i)
                frontier = nxt & unvisited
            comps.append([i for i in range(self.n) if (comp >> i) & 1])
        comps.sort(key=lambda c: c[0])
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


def is_join(g: DefiningGraph) -> bool:
    """True iff g is a join of two nonempty subgraphs, i.e. the complement
    graph is disconnected.  Searches the complement from vertex 0 and stops
    as soon as every vertex is reached."""
    comm = g.comm_masks
    full = (1 << len(comm)) - 1
    seen = frontier = 1
    while frontier and seen != full:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= ~comm[low.bit_length() - 1]
        frontier = nxt & full & ~seen
        seen |= frontier
    return seen != full


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


@dataclass(frozen=True)
class FactorClassification:
    kind: FactorKind
    vertex_set: tuple[str, ...]


def classify_factor(g: DefiningGraph) -> FactorClassification:
    """Trichotomy for a join-free defining graph.

    One vertex gives the order-2 (finite) group; two vertices without an
    edge give the infinite dihedral group, the only irreducible affine
    right-angled case; three or more join-free vertices are infinite,
    irreducible and non-affine.
    """
    if is_join(g):
        raise NotAFactorError(f"graph on {g.vertices} is a join")
    if g.n == 1:
        kind = FactorKind.SPHERICAL_POINT
    elif g.n == 2:
        kind = FactorKind.AFFINE_DIHEDRAL
    else:
        kind = FactorKind.IRREDUCIBLE_NONAFFINE
    return FactorClassification(kind, g.vertices)


# -- Davis-Januszkiewicz doubling constructions ------------------------


def dj_prime(g: DefiningGraph) -> DefiningGraph:
    """Graph double: two labelled copies of g ("_m1" and "_1" suffixes),
    plus a cross edge (i,-1)-(j,1) whenever i != j span an edge of g.

    The associated right-angled Coxeter group is commensurable to the
    right-angled Artin group of g.
    """
    n = g.n
    _check_size(2 * n)
    half = tuple(m | (m << n) for m in g.comm_masks)
    return DefiningGraph._from_masks(
        tuple([f"{v}_m1" for v in g.vertices] + [f"{v}_1" for v in g.vertices]),
        half + half,
    )


def dj_double_prime(g: DefiningGraph) -> DefiningGraph:
    """Doubled graph with a clique base: vertices (i,0),(i,1) with labels
    "_0"/"_1"; edges (i,1)-(j,1) for each edge of g, (i,0)-(j,0) for all
    i != j, and (i,0)-(j,1) whenever i != j."""
    n = g.n
    _check_size(2 * n)
    full = (1 << n) - 1
    lo = [(full & ~(1 << i)) * ((1 << n) + 1) for i in range(n)]
    hi = [(m << n) | (full & ~(1 << i)) for i, m in enumerate(g.comm_masks)]
    return DefiningGraph._from_masks(
        tuple([f"{v}_0" for v in g.vertices] + [f"{v}_1" for v in g.vertices]),
        tuple(lo + hi),
    )

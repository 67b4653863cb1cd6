"""Finite-index normal subgroups cut out by parity conditions.

The letter-count-mod-2 map is a homomorphism onto the elementary abelian
group (Z/2)^S (every defining relator has even parity in each generator).
A subgroup here is the preimage of a chosen subspace of that bit-vector
space: always normal, of index 2^(|S| - dim), with quotient exponent 2.
The commutator subgroup is the dim-0 case.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import SubgroupParseError
from .graphs import DefiningGraph, load_graph
from .words import (
    Word,
    ball_bytes,
    decode_word,
    parity_bits,
    parity_mask,
)


@dataclass(frozen=True)
class SubgroupSpec:
    """Ambient graph plus an echelonized basis of parity vectors.

    ``basis`` masks use bit i for vertex i; they are kept reduced (distinct
    leading bits), so dim = len(basis).
    """

    graph: DefiningGraph
    basis: tuple[int, ...]


def _reduce_vector(v: int, basis) -> int:
    for b in basis:
        lead = 1 << (b.bit_length() - 1)
        if v & lead:
            v ^= b
    return v


def _echelonize(vectors) -> tuple[int, ...]:
    basis: list[int] = []
    for v in vectors:
        v = _reduce_vector(v, basis)
        if v:
            basis.append(v)
            basis.sort(key=int.bit_length, reverse=True)
    # back-substitute so every leading bit occurs in exactly one row
    for i in range(len(basis)):
        basis[i] = _reduce_vector(basis[i], basis[i + 1 :])
    basis.sort(key=int.bit_length, reverse=True)
    return tuple(basis)


def _vector_from_string(g: DefiningGraph, bits: str) -> int:
    if len(bits) != g.n or any(c not in "01" for c in bits):
        raise SubgroupParseError(
            f"basis row must be a 0/1 string of length {g.n}, got {bits!r}"
        )
    return sum(1 << i for i, c in enumerate(bits) if c == "1")


def make_subgroup(g: DefiningGraph, rows) -> SubgroupSpec:
    """Build a spec from basis rows: int masks or 0/1 strings in vertex
    order (leftmost character = first declared vertex)."""
    vectors = [
        _vector_from_string(g, r) if isinstance(r, str) else int(r) for r in rows
    ]
    for v in vectors:
        if v >> g.n:
            raise SubgroupParseError(
                "basis vector has bits outside the generator range"
            )
    return SubgroupSpec(graph=g, basis=_echelonize(vectors))


def commutator_subgroup(g: DefiningGraph) -> SubgroupSpec:
    """Kernel of the parity map: membership is all-even parity; index 2^|S|."""
    return SubgroupSpec(graph=g, basis=())


def whole_group(g: DefiningGraph) -> SubgroupSpec:
    return make_subgroup(g, [1 << i for i in range(g.n)])


def member(spec: SubgroupSpec, word) -> bool:
    """True iff the word's parity vector lies in the basis span.

    Constant on rewriting classes, since parity is.
    """
    return _reduce_vector(parity_mask(spec.graph, word), spec.basis) == 0


def index_and_exponent(spec: SubgroupSpec) -> tuple[int, int]:
    """Index in the ambient group and exponent of the (elementary abelian)
    quotient: (1, 1) for the whole group, (2^codim, 2) otherwise."""
    index = 1 << (spec.graph.n - len(spec.basis))
    return index, 1 if index == 1 else 2


def member_mask(spec: SubgroupSpec, pmask: int) -> bool:
    return _reduce_vector(pmask, spec.basis) == 0


def enumerate_members(spec: SubgroupSpec, radius: int) -> list[Word]:
    """Ball elements that lie in the subgroup, shortlex order."""
    g = spec.graph
    out = []
    for enc in ball_bytes(g, radius):
        if member_mask(spec, parity_bits(enc)):
            out.append(decode_word(g, enc))
    return out


def basis_strings(spec: SubgroupSpec) -> list[str]:
    n = spec.graph.n
    return ["".join("1" if (b >> i) & 1 else "0" for i in range(n)) for b in spec.basis]


def parse_subgroup_file(
    text: str,
    graph: DefiningGraph | None = None,
    base_dir: str | None = None,
) -> SubgroupSpec:
    """Parse a subgroup spec file.

    Lines: comments start with '#'; an optional ``graph: <path>`` line
    names the ambient graph file (resolved against ``base_dir``); each
    ``basis: <0/1 string>`` line contributes a parity vector.  A ``graph``
    argument overrides the file's graph line.
    """
    rows: list[str] = []
    graph_path: str | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("graph:"):
            graph_path = line[len("graph:"):].strip()
        elif line.startswith("basis:"):
            rows.append(line[len("basis:"):].strip())
        else:
            raise SubgroupParseError(f"line {lineno}: unrecognized line {line!r}")
    if graph is None:
        if graph_path is None:
            raise SubgroupParseError("subgroup file names no graph and none was supplied")
        if base_dir is not None:
            graph_path = os.path.join(base_dir, graph_path)
        graph = load_graph(graph_path)
    return make_subgroup(graph, rows)


def resolve_subgroup(g: DefiningGraph, selector: str) -> SubgroupSpec:
    """CLI shorthand: ``commutator``, ``whole``, or a spec-file path."""
    if selector == "commutator":
        return commutator_subgroup(g)
    if selector == "whole":
        return whole_group(g)
    with open(selector, encoding="utf-8") as fh:
        return parse_subgroup_file(
            fh.read(), graph=g, base_dir=os.path.dirname(selector) or "."
        )

"""Algebraic rank of right-angled Coxeter and Artin groups from the graph.

Rank is additive over direct factors and the join decomposition realizes
the maximal direct-product splitting, so everything reduces to the rank
of a join-free factor: 0 for a point (finite group), 1 for two
non-adjacent vertices (infinite dihedral, affine of rank |S|-1 = 1), and
1 for any larger join-free factor (infinite irreducible non-affine).  On
the Artin side every join factor contributes 1 (a single vertex is the
infinite cyclic group; a larger join-free factor has rank one).

Both rules are one table, ``_FACTOR_RULES``, from a factor's kind to its
rank and note; ``_LATTICE_NOTES`` explains the commensurability flag.
``rank_racg`` and ``rank_raag`` differ only in how they name a factor's
kind, and share ``_report``'s single walk over the join factors.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import DefiningGraph, FactorKind, classify_factor, join_decompose

COMMENSURABLE_NO = "NO"
COMMENSURABLE_UNKNOWN = "UNKNOWN"

# the note that explains each value of ``commensurability_flag``
_LATTICE_NOTES = {
    COMMENSURABLE_NO: "rank <= 1: not commensurable (nor quasi-isometric) to a uniform "
    "lattice in a higher-rank non-compact connected semisimple Lie group",
    COMMENSURABLE_UNKNOWN: "rank >= 2: the lattice commensurability obstruction does not apply",
}

RAAG_INFINITE_CYCLIC = "INFINITE_CYCLIC"
RAAG_NON_JOIN = "NON_JOIN"

# The rank rule, one row per factor kind: its rank and its note.  The
# Coxeter kinds come from ``classify_factor``, the Artin kinds from the
# factor's size.
_FACTOR_RULES = {
    FactorKind.SPHERICAL_POINT.value: (0, "finite (spherical) factor: rank 0"),
    FactorKind.AFFINE_DIHEDRAL.value: (1, "infinite dihedral factor: affine, rank |S|-1 = 1"),
    FactorKind.IRREDUCIBLE_NONAFFINE.value: (1, "infinite irreducible non-affine factor: rank 1"),
    RAAG_INFINITE_CYCLIC: (1, "infinite cyclic factor: rank 1"),
    RAAG_NON_JOIN: (1, "non-join factor: rank 1"),
}


class FactorReport(NamedTuple):
    vertex_set: tuple[str, ...]
    kind: str
    rank: int
    note: str

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertex_set),
            "kind": self.kind,
            "rank": self.rank,
            "note": self.note,
        }


class RankReport(NamedTuple):
    group_kind: str  # "RACG" | "RAAG"
    factors: tuple[FactorReport, ...]
    total_rank: int
    higher_rank_lattice_commensurable: str
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "groupKind": self.group_kind,
            "factors": [f.to_json_dict() for f in self.factors],
            "totalRank": self.total_rank,
            "higherRankLatticeCommensurable": self.higher_rank_lattice_commensurable,
            "notes": list(self.notes),
        }


def commensurability_flag(total_rank: int) -> str:
    """NO when total rank <= 1: a uniform lattice in a higher-rank
    non-compact connected semisimple Lie group has rank >= 2, and rank is
    a commensurability invariant.  UNKNOWN otherwise (no obstruction)."""
    return COMMENSURABLE_NO if total_rank <= 1 else COMMENSURABLE_UNKNOWN


def _report(group_kind: str, g: DefiningGraph, kind_of) -> RankReport:
    """Walk the join factors of g once: ``kind_of(factor)`` names each
    factor's kind, and ``_FACTOR_RULES`` gives its rank and note."""
    factors = []
    for f in join_decompose(g):
        kind = kind_of(f)
        factors.append(FactorReport(f.vertices, kind, *_FACTOR_RULES[kind]))
    total = sum(f.rank for f in factors)
    flag = commensurability_flag(total)
    notes = ("total rank = sum of the ranks of the join factors", _LATTICE_NOTES[flag])
    return RankReport(group_kind, tuple(factors), total, flag, notes)


def rank_racg(g: DefiningGraph) -> RankReport:
    """Rank of the right-angled Coxeter group of g.

    >>> rank_racg(DefiningGraph("abcde", [("a","b"),("b","c"),("c","d"),("d","e"),("e","a")])).total_rank
    1
    """
    return _report("RACG", g, lambda f: classify_factor(f).value)


def rank_raag(g: DefiningGraph) -> RankReport:
    """Rank of the right-angled Artin group of g: the number of join
    factors (= components of the complement graph).

    >>> rank_raag(DefiningGraph("abc", [("a","b"),("b","c")])).total_rank
    2
    """
    return _report("RAAG", g, lambda f: RAAG_INFINITE_CYCLIC if f.n == 1 else RAAG_NON_JOIN)

"""Algebraic rank of right-angled Coxeter and Artin groups from the graph.

Rank is additive over direct factors and the join decomposition realizes
the maximal direct-product splitting, so everything reduces to the rank
of a join-free factor: 0 for a point (finite group), 1 for two
non-adjacent vertices (infinite dihedral, affine of rank |S|-1 = 1), and
1 for any larger join-free factor (infinite irreducible non-affine).  On
the Artin side every join factor contributes 1 (a single vertex is the
infinite cyclic group; a larger join-free factor has rank one).
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import DefiningGraph, FactorKind, classify_factor, join_decompose

COMMENSURABLE_NO = "NO"
COMMENSURABLE_UNKNOWN = "UNKNOWN"

RAAG_INFINITE_CYCLIC = "INFINITE_CYCLIC"
RAAG_NON_JOIN = "NON_JOIN"


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


def _assemble(group_kind: str, factors: list[FactorReport]) -> RankReport:
    total = sum(f.rank for f in factors)
    flag = commensurability_flag(total)
    notes = ["total rank = sum of the ranks of the join factors"]
    if flag == COMMENSURABLE_NO:
        notes.append(
            "rank <= 1: not commensurable (nor quasi-isometric) to a uniform "
            "lattice in a higher-rank non-compact connected semisimple Lie group"
        )
    else:
        notes.append("rank >= 2: the lattice commensurability obstruction does not apply")
    return RankReport(
        group_kind=group_kind,
        factors=tuple(factors),
        total_rank=total,
        higher_rank_lattice_commensurable=flag,
        notes=tuple(notes),
    )


def rank_racg(g: DefiningGraph) -> RankReport:
    """Rank of the right-angled Coxeter group of g.

    >>> rank_racg(DefiningGraph("abcde", [("a","b"),("b","c"),("c","d"),("d","e"),("e","a")])).total_rank
    1
    """
    factors = []
    for factor in join_decompose(g):
        kind = classify_factor(factor)
        if kind is FactorKind.SPHERICAL_POINT:
            rank, note = 0, "finite (spherical) factor: rank 0"
        elif kind is FactorKind.AFFINE_DIHEDRAL:
            rank, note = 1, "infinite dihedral factor: affine, rank |S|-1 = 1"
        else:
            rank, note = 1, "infinite irreducible non-affine factor: rank 1"
        factors.append(FactorReport(factor.vertices, kind.value, rank, note))
    return _assemble("RACG", factors)


def rank_raag(g: DefiningGraph) -> RankReport:
    """Rank of the right-angled Artin group of g: the number of join
    factors (= components of the complement graph).

    >>> rank_raag(DefiningGraph("abc", [("a","b"),("b","c")])).total_rank
    2
    """
    factors = []
    for factor in join_decompose(g):
        if factor.n == 1:
            kind, note = RAAG_INFINITE_CYCLIC, "infinite cyclic factor: rank 1"
        else:
            kind, note = RAAG_NON_JOIN, "non-join factor: rank 1"
        factors.append(FactorReport(factor.vertices, kind, 1, note))
    return _assemble("RAAG", factors)

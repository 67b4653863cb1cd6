import hashlib
import json

from conftest import every_graph
from coxrank.graphs import DefiningGraph, join_decompose
from coxrank.ranks import commensurability_flag, rank_raag, rank_racg


def test_rank_table_racg(c5, c4, k3, dinf):
    assert rank_racg(k3).total_rank == 0
    assert rank_racg(c4).total_rank == 2
    assert rank_racg(c5).total_rank == 1
    assert rank_racg(dinf).total_rank == 1


def test_rank_table_raag(c5, k3, p3):
    assert rank_raag(k3).total_rank == 3
    assert rank_raag(DefiningGraph("a")).total_rank == 1
    assert rank_raag(p3).total_rank == 2
    assert rank_raag(c5).total_rank == 1


def test_commensurability_flags(c5, c4):
    assert rank_racg(c5).higher_rank_lattice_commensurable == "NO"
    assert rank_raag(c5).higher_rank_lattice_commensurable == "NO"
    assert rank_racg(c4).higher_rank_lattice_commensurable == "UNKNOWN"
    assert commensurability_flag(0) == "NO"
    assert commensurability_flag(1) == "NO"
    assert commensurability_flag(2) == "UNKNOWN"


def test_factor_details(c4):
    report = rank_racg(c4)
    assert [f.kind for f in report.factors] == ["AFFINE_DIHEDRAL"] * 2
    assert [f.rank for f in report.factors] == [1, 1]
    d = report.to_json_dict()
    assert d["totalRank"] == 2
    assert d["groupKind"] == "RACG"


def test_rank_racg_compositional_over_factors():
    for g in every_graph(5):
        total = rank_racg(g).total_rank
        assert total == sum(rank_racg(f).total_rank for f in join_decompose(g))


def test_rank_raag_equals_complement_component_count():
    for g in every_graph(5):
        assert rank_raag(g).total_rank == len(g.complement_components())


# sha256 over json.dumps(payload, sort_keys=True) of every classify
# payload, rank_racg then rank_raag per graph, for every labelled graph on
# at most five vertices (2,198 payloads); a changed digest is a changed
# rank, kind, note or flag somewhere
CLASSIFY_PAYLOADS_DIGEST = "291718df2449e1a2f9a9ce1d51ed826293a289e0b5a9eb9a0e88c84b30ffcecd"


def test_every_classify_payload_on_five_vertices_is_pinned():
    h = hashlib.sha256()
    count = 0
    for g in every_graph(5):
        for rank in (rank_racg, rank_raag):
            h.update(json.dumps(rank(g).to_json_dict(), sort_keys=True).encode())
            count += 1
    assert count == 2198
    assert h.hexdigest() == CLASSIFY_PAYLOADS_DIGEST

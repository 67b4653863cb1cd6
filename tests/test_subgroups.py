import random
from pathlib import Path

import pytest

from coxrank import subgroups
from coxrank.errors import RadiusCapError, SubgroupParseError
from coxrank.graphs import DefiningGraph
from coxrank.subgroups import (
    basis_strings,
    commutator_subgroup,
    enumerate_members,
    index_and_exponent,
    make_subgroup,
    member,
    member_ball,
    member_mask,
    parse_subgroup_file,
    resolve_subgroup,
    whole_group,
)
from coxrank.words import (
    ball_bytes,
    enumerate_ball,
    format_word,
    normal_form,
    parity_bits,
)


def test_commutator_index_and_exponent(c5):
    spec = commutator_subgroup(c5)
    assert index_and_exponent(spec) == (32, 2)


def test_whole_group_degenerate(c5):
    spec = whole_group(c5)
    assert index_and_exponent(spec) == (1, 1)
    assert member(spec, ("a",))


def test_one_vector_subgroup(c5):
    spec = make_subgroup(c5, ["11000"])
    assert index_and_exponent(spec) == (16, 2)
    assert member(spec, ("a", "b"))
    assert not member(spec, ("a",))


def test_commutator_membership(c5):
    spec = commutator_subgroup(c5)
    assert member(spec, ())
    assert member(spec, tuple("abab"))
    assert not member(spec, tuple("abcde"))  # all-odd elements are missed


def test_basis_echelon_collapses_dependent_rows(c5):
    spec = make_subgroup(c5, ["11000", "00110", "11110"])
    assert len(spec.basis) == 2
    assert index_and_exponent(spec)[0] == 8
    assert member(spec, tuple("abcd"))
    assert not member(spec, tuple("ab") + ("e",))


def test_basis_strings_roundtrip(c5):
    spec = make_subgroup(c5, ["10100", "00011"])
    again = make_subgroup(c5, basis_strings(spec))
    assert again.basis == spec.basis


def test_member_constant_on_rewriting_classes(c5):
    spec = make_subgroup(c5, ["11000"])
    rng = random.Random(7)
    for _ in range(300):
        w = tuple(c5.vertices[rng.randrange(5)] for _ in range(rng.randint(0, 10)))
        assert member(spec, w) == member(spec, normal_form(c5, w))


def test_squares_are_members_when_exponent_two(c5):
    spec = commutator_subgroup(c5)
    for w in enumerate_ball(c5, 4):
        assert member(spec, w + w)


def test_enumerate_members_small_radii(c5):
    spec = commutator_subgroup(c5)
    assert enumerate_members(spec, 1) == [()]
    assert enumerate_members(spec, 2) == [()]  # length-2 words all have odd bits
    members4 = enumerate_members(spec, 4)
    assert ("a", "c", "a", "c") in members4
    assert all(len(w) % 2 == 0 for w in members4)


def test_member_counts_within_forced_bounds(c5):
    spec = commutator_subgroup(c5)
    for r in range(5):
        ball = enumerate_ball(c5, r)
        members = enumerate_members(spec, r)
        assert 1 <= len(members) <= len(ball)


def test_enumerate_members_radius_cap(c5):
    with pytest.raises(RadiusCapError):
        enumerate_members(commutator_subgroup(c5), 11)


def test_parse_subgroup_file_with_graph_reference(tmp_path, c5):
    graph_file = tmp_path / "c5.txt"
    graph_file.write_text(c5.to_text())
    spec_file = tmp_path / "sub.txt"
    spec_file.write_text("# parity subgroup\ngraph: c5.txt\nbasis: 11000\nbasis: 00110\n")
    spec = parse_subgroup_file(spec_file.read_text(), base_dir=str(tmp_path))
    assert spec.graph == c5
    assert index_and_exponent(spec)[0] == 8


def test_parse_subgroup_file_requires_some_graph():
    for text in ("basis: 10\n", "graph:\nbasis: 10000\n"):
        with pytest.raises(ValueError):
            parse_subgroup_file(text)


def test_parse_subgroup_file_rejects_bad_rows(c5):
    with pytest.raises(ValueError):
        parse_subgroup_file("basis: 12x\n", graph=c5)
    with pytest.raises(ValueError):
        parse_subgroup_file("basis: 110\n", graph=c5)  # wrong length
    with pytest.raises(ValueError):
        parse_subgroup_file("frob: 1\n", graph=c5)
    with pytest.raises(SubgroupParseError, match="outside the generator range"):
        make_subgroup(c5, [1 << 5])  # a sixth generator on a five-vertex graph


def test_resolve_subgroup_selectors(tmp_path, c5):
    assert index_and_exponent(resolve_subgroup(c5, "commutator"))[0] == 32
    assert index_and_exponent(resolve_subgroup(c5, "whole"))[0] == 1
    spec_file = tmp_path / "sub.txt"
    spec_file.write_text("basis: 11111\n")
    spec = resolve_subgroup(c5, str(spec_file))
    assert index_and_exponent(spec)[0] == 16
    assert member(spec, tuple("abcde"))


def test_member_ratio_sanity(c5):
    # no exact equidistribution claim, just the trivial sandwich at r=4
    spec = commutator_subgroup(c5)
    ball = enumerate_ball(c5, 4)
    members = enumerate_members(spec, 4)
    assert 1 <= len(members) < len(ball)
    assert format_word(members[0]) == "e"


def _filtered(spec, ball):
    return [w for w in ball if member_mask(spec, parity_bits(w))]


def _assert_ball(ball, expected):
    assert ball == expected
    assert list(ball.parities) == [parity_bits(w) for w in ball]


def test_members_matches_the_per_word_filter(c5):
    # member_ball against the per-word filter of C5's whole ball at r=10
    parity8 = parse_subgroup_file(
        (Path(__file__).resolve().parent.parent / "graphs" / "parity8.sub").read_text(),
        graph=c5,
    )
    full = ball_bytes(c5, 10)
    for spec, size in (
        (commutator_subgroup(c5), 2641),
        (parity8, 10_165),
        (whole_group(c5), len(full)),
    ):
        inside = member_ball(spec, 10)
        assert len(inside) == size
        _assert_ball(inside, _filtered(spec, full))


def test_members_matches_the_per_word_filter_on_random_subspaces():
    # the filtered ball against the per-word filter of the whole ball: random
    # graphs and subspaces, the whole group and the commutator, and a keep
    # that is no subgroup's (it may refuse the identity)
    rng = random.Random(17)
    for _ in range(80):
        k = rng.randint(1, 7)
        labels = "abcdefg"[:k]
        edges = [
            (labels[i], labels[j])
            for i in range(k)
            for j in range(i + 1, k)
            if rng.random() < 0.5
        ]
        g = DefiningGraph(labels, edges)
        radius = rng.randint(0, 6)
        full = ball_bytes(g, radius)
        rows = [rng.randrange(1 << k) for _ in range(rng.randint(0, k))]
        for spec in (make_subgroup(g, rows), whole_group(g), commutator_subgroup(g)):
            _assert_ball(member_ball(spec, radius), _filtered(spec, full))
        chosen = frozenset(m for m in range(1 << k) if rng.random() < 0.5)
        _assert_ball(
            ball_bytes(g, radius, chosen.__contains__),
            [w for w in full if parity_bits(w) in chosen],
        )


def test_member_ball_decides_once_per_parity_class(c5, monkeypatch):
    calls = []

    def counting(spec, pmask):
        calls.append(pmask)
        return member_mask(spec, pmask)

    monkeypatch.setattr(subgroups, "member_mask", counting)
    ball = ball_bytes(c5, 6)
    inside = member_ball(commutator_subgroup(c5), 6)
    assert len(calls) == len(set(calls)) == len({parity_bits(w) for w in ball})
    assert inside == [w for w in ball if parity_bits(w) == 0]


def test_member_ball_refuses_the_radii_the_whole_ball_refuses(c5, monkeypatch):
    # the bound counts every element built, kept or not: C5's bound before
    # the sphere of radius 3 is 96 (test_ball_element_limit_at_its_boundary),
    # though the commutator keeps only the identity through radius 2
    spec = commutator_subgroup(c5)
    inside = member_ball(spec, 3)
    monkeypatch.setattr("coxrank.words.MAX_BALL_ELEMENTS", 96)
    assert member_ball(spec, 3) == inside
    monkeypatch.setattr("coxrank.words.MAX_BALL_ELEMENTS", 95)
    with pytest.raises(RadiusCapError) as whole:
        ball_bytes(c5, 3)
    with pytest.raises(RadiusCapError) as filtered:
        member_ball(spec, 3)
    assert str(filtered.value) == str(whole.value) == (
        "ball of radius 3 may exceed 95 elements (96 possible through radius 3)"
    )

import pytest

from coxrank.errors import ParameterRangeError, PreconditionClassError, RadiusCapError
from coxrank.graphs import DefiningGraph
from coxrank.subgroups import (
    commutator_subgroup,
    make_subgroup,
    member_mask,
    whole_group,
)
from coxrank.verify import (
    WORD_PROBLEM_MAX_LEN,
    WORD_PROBLEM_MAX_UNIVERSE,
    _bad_set_classes,
    _closure_partition,
    _covering_chunk,
    rewriting_closure_equal,
    verify_cancellator_uniformity,
    verify_covering,
    verify_essential_certificates,
    verify_join_lemma,
    verify_parity_invariance,
    verify_subgroup_covering,
    verify_word_problem,
)
from coxrank.words import ball_bytes, format_word, parity_bits


def test_parity_invariance_passes(c5):
    report = verify_parity_invariance(c5, trials=1000, max_len=10, seed=3)
    assert report.verdict == "PASS"
    assert report.total_cases == 1000
    assert report.seed == 3


def test_parity_invariance_selftest_catches_corruption(c5):
    report = verify_parity_invariance(c5, trials=40, seed=3, _corrupt=True)
    assert report.verdict == "FAIL"
    assert report.failures


def test_parity_invariance_deterministic(c5):
    a = verify_parity_invariance(c5, trials=200, seed=11)
    b = verify_parity_invariance(c5, trials=200, seed=11)
    da, db = a.to_json_dict(), b.to_json_dict()
    da.pop("elapsedMs"), db.pop("elapsedMs")
    assert da == db


def test_word_problem_pentagon(c5):
    report = verify_word_problem(c5, max_len=4)
    assert report.verdict == "PASS"
    assert report.params["words"] == 781
    assert report.params["sphereSizes"] == [1, 5, 15, 40, 105]


def test_word_problem_infinite_dihedral(dinf):
    report = verify_word_problem(dinf, max_len=6)
    assert report.verdict == "PASS"
    # infinite dihedral balls grow by two per radius: 2r+1 elements
    assert report.params["sphereSizes"] == [1, 2, 2, 2, 2, 2, 2]


def test_word_problem_finite_group():
    k2 = DefiningGraph("ab", [("a", "b")])
    report = verify_word_problem(k2, max_len=6)
    assert report.verdict == "PASS"
    assert sum(report.params["sphereSizes"]) == 4


def test_word_problem_cap():
    with pytest.raises(RadiusCapError):
        verify_word_problem(DefiningGraph("ab"), max_len=7)


def test_word_problem_refuses_a_large_closure_table():
    # 20 generators at max-len 6 would need a table of ~2.7e10 words; the
    # size is checked before anything is allocated
    g = DefiningGraph([f"v{i}" for i in range(20)])
    with pytest.raises(RadiusCapError, match="closure universe"):
        verify_word_problem(g, max_len=6)
    # C5 at the largest max-len still fits
    c5_universe = sum(5**k for k in range(WORD_PROBLEM_MAX_LEN + 3))
    assert c5_universe <= WORD_PROBLEM_MAX_UNIVERSE


def test_rewriting_closure_equal_spot_checks(c5):
    assert rewriting_closure_equal(c5, ("a", "b"), ("b", "a"))
    assert not rewriting_closure_equal(c5, ("a",), ("b",))
    assert rewriting_closure_equal(c5, ("a", "b", "a"), ("b",))
    assert rewriting_closure_equal(c5, ("a", "a"), ())


def test_covering_passes(c5):
    report = verify_covering(c5, radius=5)
    assert report.verdict == "PASS"
    assert report.total_cases == 441
    for key in report.params["alphaHistogram"]:
        if key != "(identity)":
            parts = key.split()
            assert len(set(parts)) == len(parts)  # products of distinct generators


def _covering_word_by_word(g, ball):
    """Reference: the multiplier, its check and its histogram key worked
    out for every word on its own."""
    n = g.n
    failures = []
    hist = {}
    for w in ball:
        pm = parity_bits(w)
        alpha = bytes(i for i in range(n) if not (pm >> i) & 1)
        label = format_word(tuple(g.vertices[i] for i in alpha))
        if parity_bits(alpha + w) != (1 << n) - 1 or len(set(alpha)) != len(alpha):
            failures.append({"word": format_word(tuple(g.vertices[i] for i in w)), "alpha": label})
        key = label if alpha else "(identity)"
        hist[key] = hist.get(key, 0) + 1
    return failures, hist


def test_covering_histogram_per_class_matches_word_by_word(c5):
    ball = ball_bytes(c5, 8)
    failures, hist = _covering_word_by_word(c5, ball)
    assert _covering_chunk((c5, ball)) == (failures, hist)
    report = verify_covering(c5, radius=8)
    assert report.params["alphaHistogram"] == {k: hist[k] for k in sorted(hist)}
    assert (report.failures, report.total_cases) == (failures, len(ball))


def test_covering_precondition(c4):
    with pytest.raises(PreconditionClassError):
        verify_covering(c4, radius=3)


def test_covering_jobs_deterministic(c5):
    a = verify_covering(c5, radius=5, jobs=1)
    b = verify_covering(c5, radius=5, jobs=2)
    assert a.params == b.params
    assert a.failures == b.failures
    assert a.verdict == b.verdict


def test_subgroup_covering_passes(c5):
    spec = commutator_subgroup(c5)
    report = verify_subgroup_covering(c5, spec, radius=6)
    assert report.verdict == "PASS"
    assert report.params["subgroupIndex"] == 32
    assert report.params["distinctTotalMultipliers"] <= 200


def test_subgroup_covering_whole_group_degenerate(c5):
    report = verify_subgroup_covering(c5, whole_group(c5), radius=3)
    assert report.verdict == "PASS"
    assert report.params["pipelineExponent"] == 2


def test_uniformity_report_shape(c5):
    report = verify_cancellator_uniformity(c5, radius=6)
    per_b = report.params["perBadSet"]
    assert "(empty)" in per_b
    assert per_b["(empty)"]["verdict"] == "PASS"
    assert per_b["(empty)"]["multiplier"] == "e"
    for entry in per_b.values():
        assert entry["verdict"] in ("PASS", "FAIL")


def test_uniformity_with_a_subgroup_groups_only_members(c5):
    spec = make_subgroup(c5, ["11000", "00110"])  # graphs/parity8.sub
    grouped = [w for ws in _bad_set_classes(c5, spec, 6, 10).values() for w in ws]
    assert grouped and all(member_mask(spec, parity_bits(w)) for w in grouped)
    # without the subgroup, odd-parity words such as a b c d e are grouped too
    everyone = [w for ws in _bad_set_classes(c5, None, 6, 10).values() for w in ws]
    assert bytes(range(5)) in everyone and bytes(range(5)) not in grouped
    assert set(grouped) < set(everyone)
    report = verify_cancellator_uniformity(c5, spec, radius=6)
    sizes = [e["size"] for e in report.params["perBadSet"].values()]
    assert sum(sizes) == len(grouped)
    # a full-support commutator member has every letter twice: length >= 10
    report = verify_cancellator_uniformity(c5, commutator_subgroup(c5), radius=6)
    assert report.failures == [{"reason": "EMPTY_DOMAIN"}]
    assert report.params["perBadSet"] == {}


def test_uniformity_empty_domain(c5):
    report = verify_cancellator_uniformity(c5, radius=0)
    assert report.verdict == "FAIL"
    assert report.failures == [{"reason": "EMPTY_DOMAIN"}]


def test_join_lemma_counts():
    report = verify_join_lemma(4)
    assert report.verdict == "PASS"
    assert report.total_cases == 75  # 1 + 2 + 8 + 64
    with pytest.raises(ParameterRangeError):
        verify_join_lemma(7)


def test_certificates_pass_small(c5):
    report = verify_essential_certificates(c5, radius=5, conj_radius=2)
    assert report.verdict == "PASS"
    assert report.total_cases > 0


def test_certificates_empty_ball_is_empty_domain(c5):
    # no ball(4) element on the pentagon is certified by either criterion
    report = verify_essential_certificates(c5, radius=4, conj_radius=2)
    assert report.verdict == "FAIL"
    assert report.failures == [{"reason": "EMPTY_DOMAIN"}]


def test_certificates_selftest_flags_uncertified_word(c5):
    report = verify_essential_certificates(
        c5, radius=3, conj_radius=2, extra_certified=[("a",)]
    )
    assert report.verdict == "FAIL"
    assert any(f["certificate"] == "assumed" for f in report.failures)


def test_certificates_jobs_deterministic(c5):
    a = verify_essential_certificates(c5, radius=5, conj_radius=2, jobs=1)
    b = verify_essential_certificates(c5, radius=5, conj_radius=2, jobs=2)
    assert (a.total_cases, a.failures) == (b.total_cases, b.failures)


def test_report_json_schema(c5):
    report = verify_parity_invariance(c5, trials=10, seed=1)
    d = report.to_json_dict()
    assert set(d) == {
        "check", "params", "totalCases", "failures", "elapsedMs", "verdict", "seed",
    }
    d2 = verify_join_lemma(2).to_json_dict()
    assert "seed" not in d2


def _closure_roots_word_by_word(n, comm, cap):
    """Closure classes found by decoding every word and unioning each of
    its moves; returns the least member of the class of every rank."""
    pows = [n**k for k in range(cap + 1)]
    offsets = [sum(pows[:k]) for k in range(cap + 2)]
    parent = list(range(offsets[cap + 1]))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        parent[max(rx, ry)] = min(rx, ry)

    for length in range(2, cap + 1):
        for r in range(pows[length]):
            digits = [(r // pows[length - 1 - k]) % n for k in range(length)]
            for i in range(length - 1):
                a, b = digits[i], digits[i + 1]
                if a == b:
                    v = 0
                    for d in digits[:i] + digits[i + 2 :]:
                        v = v * n + d
                    union(offsets[length] + r, offsets[length - 2] + v)
                elif (comm[a] >> b) & 1:
                    swapped = digits[:i] + [b, a] + digits[i + 2 :]
                    v = 0
                    for d in swapped:
                        v = v * n + d
                    union(offsets[length] + r, offsets[length] + v)
    return [find(x) for x in range(len(parent))]


def test_closure_partition_matches_word_by_word_unions_on_every_4_vertex_graph():
    for n in range(1, 5):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(1 << len(pairs)):
            comm = [0] * n
            for idx, (i, j) in enumerate(pairs):
                if (bits >> idx) & 1:
                    comm[i] |= 1 << j
                    comm[j] |= 1 << i
            for cap in range(6):
                parent, offsets, pows, find = _closure_partition(n, comm, cap)
                assert len(parent) == offsets[cap + 1] == sum(pows)
                want = _closure_roots_word_by_word(n, comm, cap)
                assert [find(x) for x in range(len(parent))] == want


def test_out_of_range_parameters_raise_a_coded_error(c5):
    calls = [
        lambda: verify_parity_invariance(c5, trials=-5),
        lambda: verify_parity_invariance(c5, max_len=0),
        lambda: verify_word_problem(c5, max_len=-3),
        lambda: verify_join_lemma(0),
        lambda: verify_join_lemma(7),
    ]
    for call in calls:
        with pytest.raises(ParameterRangeError) as exc:
            call()
        assert isinstance(exc.value, ValueError)
        assert exc.value.code == "PARAMETER_OUT_OF_RANGE"
    # the smallest accepted values still never pass an empty domain
    assert verify_parity_invariance(c5, trials=0).failures == [{"reason": "EMPTY_DOMAIN"}]
    assert verify_parity_invariance(c5, trials=20, max_len=1).verdict == "PASS"
    assert verify_word_problem(c5, max_len=0).failures == [{"reason": "EMPTY_DOMAIN"}]

import hashlib
import json
import pickle
import random
from itertools import combinations, product
from pathlib import Path

import pytest

from conftest import every_graph
import coxrank.kernels
import coxrank.verify
from coxrank.certificates import bad_set, falsify_essential
from coxrank.errors import (
    ParameterRangeError,
    PreconditionClassError,
    RadiusCapError,
    SubgroupParseError,
    UnknownGeneratorError,
)
from coxrank.graphs import DefiningGraph, dj_prime, is_join, load_graph
from coxrank.subgroups import (
    commutator_subgroup,
    make_subgroup,
    member_mask,
    resolve_subgroup,
    whole_group,
)
from coxrank.verify import (
    FALSIFIER_MAX_WORK,
    PARITY_MAX_LEN,
    PARITY_MAX_WORK,
    WORD_PROBLEM_MAX_LEN,
    WORD_PROBLEM_MAX_UNIVERSE,
    _bad_set_classes,
    _closure_partition,
    closure_universe,
    parity_trial_units,
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


def test_parity_fails_when_the_fold_drops_the_last_letter(monkeypatch):
    # a planted library fault: parity_bits ignores a word's last letter.
    # The pentagon is relabelled so that no label prints like the empty
    # word; the walk draws indices, so the labels change no move.
    g = DefiningGraph("pqrst", [("p", "q"), ("q", "r"), ("r", "s"), ("s", "t"), ("t", "p")])
    planted = lambda enc: parity_bits(list(enc)[:-1])  # noqa: E731
    monkeypatch.setattr(coxrank.verify, "parity_bits", planted)
    monkeypatch.setattr(coxrank.verify, "MAX_FAILURE_RECORDS", 10**6)
    report = verify_parity_invariance(g, trials=200, seed=0)
    assert report.verdict == "FAIL"
    assert len(report.failures) == 103
    assert len({f["trial"] for f in report.failures}) == 103
    decode = lambda text: [] if text == "e" else [g.index(v) for v in text.split()]  # noqa: E731
    for f in report.failures:
        start, after = decode(f["start"]), decode(f["after"])
        # every move was legal, and the planted fold told the words apart
        assert parity_bits(start) == parity_bits(after), f
        assert planted(start) != planted(after), f


def test_parity_invariance_deterministic(c5):
    a = verify_parity_invariance(c5, trials=200, seed=11)
    b = verify_parity_invariance(c5, trials=200, seed=11)
    da, db = a.to_json_dict(), b.to_json_dict()
    da.pop("elapsedMs"), db.pop("elapsedMs")
    assert da == db


def _relisting_parity_payload(g, trials, max_len, seed, corrupt, recounted):
    """Reference parity driver: every move re-lists all swap and cancel
    positions of the word.  It shares no code with
    verify_parity_invariance and returns its payload without elapsedMs.
    Each word whose parity it counts (a trial's start, then the word after
    every move) is appended to ``recounted``."""
    rng = random.Random(seed)
    n = g.n
    comm = g.comm_masks

    def parity(word):
        recounted.append(tuple(word))
        return [word.count(x) % 2 for x in range(n)]

    def fmt(word):
        return " ".join(g.vertices[x] for x in word) or "e"

    failures = []
    for trial in range(trials):
        word = [rng.randrange(n) for _ in range(rng.randint(0, max_len))]
        expected = parity(word)
        start = list(word)
        nmoves = rng.randint(1, 2 * max_len)
        corrupt_at = rng.randrange(nmoves) if corrupt else -1
        for m in range(nmoves):
            if m == corrupt_at:
                if word:
                    del word[rng.randrange(len(word))]
                else:
                    word.append(rng.randrange(n))
            else:
                swaps = []
                cancels = []
                for i in range(len(word) - 1):
                    x, y = word[i], word[i + 1]
                    if x == y:
                        cancels.append(i)
                    elif comm[x] & (1 << y):
                        swaps.append(i)
                pick = rng.randrange(len(swaps) + len(cancels) + (len(word) + 1) * n)
                if pick < len(swaps):
                    i = swaps[pick]
                    word[i], word[i + 1] = word[i + 1], word[i]
                elif pick < len(swaps) + len(cancels):
                    i = cancels[pick - len(swaps)]
                    del word[i : i + 2]
                else:
                    pos, s = divmod(pick - len(swaps) - len(cancels), n)
                    word[pos:pos] = [s, s]
            if parity(word) != expected:
                failures.append(
                    {"trial": trial, "start": fmt(start), "after": fmt(word), "moveIndex": m}
                )
                break
    return {
        "check": "parity-invariance",
        "params": {"trials": trials, "maxLen": max_len, "corrupted": corrupt},
        "totalCases": trials,
        "failures": failures,
        "verdict": "FAIL" if failures else "PASS",
        "seed": seed,
    }


def _random_small_graphs(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        verts = "abcdef"[: rng.randint(1, 6)]
        yield DefiningGraph(
            verts, [p for p in combinations(verts, 2) if rng.random() < 0.5]
        )


def test_parity_running_counts_match_the_relisting_driver(c4, c5, k3, dinf, monkeypatch):
    # a PASS payload holds no word, so the payloads alone would miss a
    # wrong running count that only changes the walk; both drivers record
    # every word whose parity they count, and the sequences must agree
    recounted = []

    def recorder(word):
        recounted.append(tuple(word))
        return parity_bits(word)

    monkeypatch.setattr(coxrank.verify, "parity_bits", recorder)
    p4 = DefiningGraph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    graphs = [c4, c5, k3, dinf, p4, *_random_small_graphs(30, seed=1212)]
    failing = 0
    for g in graphs:
        for seed in range(4):
            for max_len in (1, 2, 3, 12, 40):
                for corrupt in (False, True):
                    recounted.clear()
                    got = verify_parity_invariance(
                        g, trials=12, max_len=max_len, seed=seed, _corrupt=corrupt
                    ).to_json_dict()
                    walk = list(recounted)
                    del got["elapsedMs"]
                    recounted.clear()
                    want = _relisting_parity_payload(g, 12, max_len, seed, corrupt, recounted)
                    assert got == want, (g, seed, max_len, corrupt)
                    assert walk == recounted, (g, seed, max_len, corrupt)
                    failing += bool(want["failures"])
    assert failing  # the corrupted runs do compare failure lists


def test_parity_max_len_cap(c5):
    assert verify_parity_invariance(c5, trials=1, max_len=PARITY_MAX_LEN).verdict == "PASS"
    for max_len in (PARITY_MAX_LEN + 1, 10**9):
        with pytest.raises(RadiusCapError) as exc:
            verify_parity_invariance(c5, trials=1, max_len=max_len)
        assert exc.value.code == "RADIUS_EXCEEDS_CAP"


def test_parity_work_cap(c5):
    # (maxLen, units per trial, most trials admitted): the defaults, the
    # acceptance run (10,000 at maxLen 12) and one trial at the length cap fit
    cases = (
        (1, 64, 78_125),
        (12, 449, 11_135),
        (100, 12_241, 408),
        (PARITY_MAX_LEN, 1_022_041, 4),
    )
    # the price first, so that a broken price fails here and runs nothing
    assert [parity_trial_units(max_len) for max_len, _, _ in cases] == [
        units for _, units, _ in cases
    ]
    for max_len, units, most in cases:
        assert most * units <= PARITY_MAX_WORK < (most + 1) * units
        with pytest.raises(RadiusCapError) as exc:
            verify_parity_invariance(c5, trials=most + 1, max_len=max_len)
        assert str(exc.value) == (
            f"{most + 1} trials times {units} units per trial at maxLen {max_len} is "
            f"{(most + 1) * units}, over the parity work cap {PARITY_MAX_WORK}"
        )
    with pytest.raises(RadiusCapError):
        verify_parity_invariance(c5, trials=10**9)


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
    assert closure_universe(20, 8) == 26_947_368_421 > WORD_PROBLEM_MAX_UNIVERSE
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
    report = verify_covering(c5, radius=8)
    assert report.params["alphaHistogram"] == {k: hist[k] for k in sorted(hist)}
    assert (report.failures, report.total_cases) == (tuple(failures), len(ball))


def test_covering_precondition(c4):
    with pytest.raises(PreconditionClassError):
        verify_covering(c4, radius=3)


def _planted_covering(g, radius, fault, monkeypatch):
    """``verify_covering`` with ``_even_completion`` replaced by ``fault``
    applied to its result, and a function that lists, in ball order, the
    ball words whose parity mask ``fails`` accepts, each with the patched
    alpha."""
    true_completion = coxrank.verify._even_completion
    planted = lambda pm, n: fault(true_completion(pm, n))  # noqa: E731
    monkeypatch.setattr(coxrank.verify, "_even_completion", planted)
    monkeypatch.setattr(coxrank.verify, "MAX_FAILURE_RECORDS", 10**6)
    label = lambda enc: format_word(tuple(g.vertices[i] for i in enc))  # noqa: E731

    def expected(fails):
        return tuple({"word": label(w), "alpha": label(planted(parity_bits(w), g.n))}
                     for w in ball_bytes(g, radius) if fails(parity_bits(w)))

    return verify_covering(g, radius=radius), expected


def test_covering_fails_when_the_completion_misses_a_generator(c5, monkeypatch):
    # a planted library fault: alpha drops its last letter when it has two
    # or more, so it stays distinct but leaves one generator even
    report, expected = _planted_covering(
        c5, 4, lambda alpha: alpha[:-1] if len(alpha) >= 2 else alpha, monkeypatch)
    assert report.verdict == "FAIL"
    failures = expected(lambda pm: c5.n - pm.bit_count() >= 2)
    assert failures and report.failures == failures


def test_covering_fails_when_the_completion_repeats_a_generator(c5, monkeypatch):
    # a planted library fault: a nonempty alpha gets its first letter twice
    # more, which keeps the parity all-odd, so only distinctness fails
    report, expected = _planted_covering(
        c5, 4, lambda alpha: alpha + alpha[:1] * 2, monkeypatch)
    assert report.verdict == "FAIL"
    full = (1 << c5.n) - 1
    failures = expected(lambda pm: pm != full)
    assert failures and report.failures == failures
    for pm in {parity_bits(w) for w in ball_bytes(c5, 4)} - {full}:
        alpha = coxrank.verify._even_completion(pm, c5.n)
        assert parity_bits(alpha) ^ pm == full and len(set(alpha)) < len(alpha)


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


GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


def _payload_digest(report):
    """SHA-256 of a report's JSON payload without ``elapsedMs``, keys sorted."""
    payload = report.to_json_dict()
    del payload["elapsedMs"]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def test_repair_pipeline_drivers_keep_their_bytes():
    # every member's total multiplier, trace length and failure, and every
    # bad-set class's multiplier, reach these payloads
    g = load_graph(GRAPHS / "c5.txt")
    parity8 = resolve_subgroup(g, str(GRAPHS / "parity8.sub"))
    for report, digest in (
        (verify_subgroup_covering(g, commutator_subgroup(g), 8),
         "2e1e39488069d0fe062e868fe1fb57a02364b8c5801188d8be48a78b0f231172"),
        (verify_subgroup_covering(g, parity8, 8),
         "125f653191d9cda6fb79c20b6fb7583b3c536ff17e57c956570faf6575047507"),
        (verify_cancellator_uniformity(g, None, 8),
         "c66046e4bd5b065c79da85928f38fc565a02caad34310f3ce8fbc82eccae6fb8"),
        # at r=10 the subgroup balls are filtered while they are built
        (verify_subgroup_covering(g, commutator_subgroup(g), 10),
         "d2f863a4833e6da7df5e606b65e9e37dc00eca6301e2cfdaa76ee6a7da9ce28d"),
        (verify_subgroup_covering(g, parity8, 10),
         "1a0750f86b15fc2d02dc7a7546e298410e51117fdd1f93847b74939379f28f4d"),
        (verify_cancellator_uniformity(g, commutator_subgroup(g), 10),
         "255ddb94d52e4f031ac3575e1cc664fd7ecedee936f6bb3ecaf2f6b6693123a9"),
        (verify_cancellator_uniformity(g, parity8, 10),
         "20d3e3052e60ea6c58513822af4180a285221b31fdbf502481e479c76ed2745b"),
    ):
        assert _payload_digest(report) == digest, report.check


def test_exhaustive_drivers_keep_their_bytes(monkeypatch):
    # a PASS payload holds no word, so the corrupted runs carry the pin of
    # the walk: with every record kept, each failure shows the word that
    # the legal moves reached before its trial's corruption
    g = load_graph(GRAPHS / "c5.txt")
    for report, digest in (
        (verify_parity_invariance(g, 2_000, seed=1),
         "2d2ef73ee55f9e744db9a40dc0a22151223231552727489ecbd82e9f80eb4794"),
        (verify_parity_invariance(g, 500, max_len=40, seed=2),
         "2fc9e15833dfd2a4f7f5c292de8b93b09998abaa3968f41dccbd1dec9da5f52c"),
        (verify_word_problem(g, 5),
         "10293f42082bcd07524891fd189aef554128d99ec08c67d1835fbf60ec43069c"),
        (verify_join_lemma(5),
         "5740c618b92c41fbf3864f275d20a20a56c24ba0a3494f8814b7ad5a96399ebd"),
        (verify_join_lemma(6),
         "7a72a4771413e180b8b1ff067d3c09496da5b3702408cb58bd241431441f58ae"),
    ):
        assert _payload_digest(report) == digest, report.check
    monkeypatch.setattr(coxrank.verify, "MAX_FAILURE_RECORDS", 10**6)
    for report, digest in (
        (verify_parity_invariance(g, 2_000, seed=1, _corrupt=True),
         "dd1e6ada08beef608afaf3cb2be1d92e42accd4255219ef230b42ced1c1cc4e9"),
        (verify_parity_invariance(g, 500, max_len=40, seed=2, _corrupt=True),
         "d56171a3b778cc5321304561e25dec69853731bb8eeeefcbf418fc3bbd2f3ad7"),
    ):
        assert len(report.failures) == report.total_cases
        assert _payload_digest(report) == digest, report.check


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
    grouped = [w for ws in _bad_set_classes(c5, spec, 6).values() for w in ws]
    assert grouped and all(member_mask(spec, parity_bits(w)) for w in grouped)
    # without the subgroup, odd-parity words such as a b c d e are grouped too
    everyone = [w for ws in _bad_set_classes(c5, None, 6).values() for w in ws]
    assert bytes(range(5)) in everyone and bytes(range(5)) not in grouped
    assert set(grouped) < set(everyone)
    report = verify_cancellator_uniformity(c5, spec, radius=6)
    sizes = [e["size"] for e in report.params["perBadSet"].values()]
    assert sum(sizes) == len(grouped)
    # a full-support commutator member has every letter twice: length >= 10
    report = verify_cancellator_uniformity(c5, commutator_subgroup(c5), radius=6)
    assert report.failures == ({"reason": "EMPTY_DOMAIN"},)
    assert report.params["perBadSet"] == {}


def test_uniformity_empty_domain(c5):
    report = verify_cancellator_uniformity(c5, radius=0)
    assert report.verdict == "FAIL"
    assert report.failures == ({"reason": "EMPTY_DOMAIN"},)


def test_uniformity_fails_when_the_repair_multiplier_repairs_nothing(c5, monkeypatch):
    # a planted library fault: every class gets the empty multiplier
    monkeypatch.setattr(coxrank.verify, "_repair", lambda g, enc, table, goodness: (enc, b"", ()))
    report = verify_cancellator_uniformity(c5, radius=6)
    assert report.verdict == "FAIL"
    per_b = report.params["perBadSet"]
    assert per_b["(empty)"] == {"size": 170, "multiplier": "e", "verdict": "PASS"}
    letters = [label for label in per_b if label != "(empty)"]
    assert letters == list("abcde")
    for label in letters:
        assert per_b[label] == {"size": 8, "multiplier": "e", "verdict": "FAIL"}
    # every member of a bad class but its first, which the multiplier was made from
    assert [f["badSet"] for f in report.failures] == [x for x in letters for _ in range(7)]
    for f in report.failures:
        assert bad_set(c5, f["word"].split()).bad_set == {f["badSet"]}


def test_join_lemma_counts():
    report = verify_join_lemma(4)
    assert report.verdict == "PASS"
    assert report.total_cases == 75  # 1 + 2 + 8 + 64
    # the least size is a single vertex
    report = verify_join_lemma(1)
    assert (report.verdict, report.total_cases) == ("PASS", 1)
    with pytest.raises(ParameterRangeError):
        verify_join_lemma(7)


def test_join_lemma_visits_graphs_in_ascending_bits_order(monkeypatch):
    seen = []

    def recording_dj_prime(g):
        seen.append((g.vertices, g.comm_masks))
        return dj_prime(g)

    monkeypatch.setattr(coxrank.verify, "dj_prime", recording_dj_prime)
    report = verify_join_lemma(5)
    want = [(g.vertices, g.comm_masks) for g in every_graph(5)]
    assert seen == want
    assert report.total_cases == len(want) and report.verdict == "PASS"


def test_join_lemma_reports_failures_in_visit_order(monkeypatch):
    # doubles have four edges per edge of the graph, so only the graphs
    # with exactly one edge get a planted wrong answer
    def planted(g):
        return is_join(g) != (g.edge_count == 1)

    monkeypatch.setattr(coxrank.verify, "is_join", planted)
    report = verify_join_lemma(4)
    want = [{"graph": g.to_text()} for g in every_graph(4) if g.edge_count == 1]
    assert len(want) == 0 + 1 + 3 + 6
    assert report.failures == tuple(want)
    assert report.verdict == "FAIL"


def test_certificates_pass_small(c5):
    report = verify_essential_certificates(c5, radius=5, conj_radius=2)
    assert report.verdict == "PASS"
    assert report.total_cases > 0


def test_certificates_empty_ball_is_empty_domain(c5):
    # no ball(4) element on the pentagon is certified by either criterion
    report = verify_essential_certificates(c5, radius=4, conj_radius=2)
    assert report.verdict == "FAIL"
    assert report.failures == ({"reason": "EMPTY_DOMAIN"},)


def test_certificates_selftest_flags_uncertified_word(c5):
    report = verify_essential_certificates(
        c5, radius=3, conj_radius=2, extra_certified=[("a",)]
    )
    assert report.verdict == "FAIL"
    assert any(f["certificate"] == "assumed" for f in report.failures)


def test_certificates_fail_when_the_bad_set_is_always_empty(c5, monkeypatch):
    # a planted library fault: bad_mask calls every word good, so every
    # full-support ball word is certified good-for-all
    monkeypatch.setattr(coxrank.verify, "bad_mask", lambda g, enc: 0)
    report = verify_essential_certificates(c5, radius=6, conj_radius=3)
    assert report.verdict == "FAIL"
    assert report.params["certified"] == report.total_cases == 210
    # the words only the fault certified: full support, not all odd, and a
    # nonempty bad set by the goodness report; each must FAIL, in ball order
    full = (1 << c5.n) - 1
    extra = []
    for w in ball_bytes(c5, 6):
        word = tuple(c5.vertices[i] for i in w)
        if parity_bits(w) != full and len(set(w)) == c5.n and bad_set(c5, word).bad_set:
            extra.append(word)
    assert len(extra) == 40
    assert [f["word"] for f in report.failures] == [format_word(w) for w in extra]
    for f, w in zip(report.failures, extra):
        hit = falsify_essential(c5, w, 3)
        assert f["certificate"] == "good-for-all"
        assert f["conjugator"] == format_word(hit.conjugator)
        assert f["parabolic"] == sorted(hit.parabolic)
    assert report.failures[0] == {
        "word": "a b c d a e", "certificate": "good-for-all",
        "conjugator": "a", "parabolic": ["b", "c", "d", "e"],
    }


def test_certificates_encode_extra_words_before_the_ball(c5, monkeypatch):
    balls = []
    real_ball = coxrank.verify.ball_bytes

    def ball_recorder(g, radius):
        balls.append(radius)
        return real_ball(g, radius)

    monkeypatch.setattr(coxrank.verify, "ball_bytes", ball_recorder)
    with pytest.raises(UnknownGeneratorError):
        verify_essential_certificates(c5, 10, 4, extra_certified=[("z",)])
    assert balls == []

    # the extra words are still falsified after the ball's certified words
    checked = []
    real_falsify = coxrank.verify._falsify_enc

    def falsify_recorder(g, w, table):
        checked.append(w)
        return real_falsify(g, w, table)

    monkeypatch.setattr(coxrank.verify, "_falsify_enc", falsify_recorder)
    plain = verify_essential_certificates(c5, radius=5, conj_radius=2)
    from_ball = list(checked)
    checked.clear()
    report = verify_essential_certificates(
        c5, radius=5, conj_radius=2, extra_certified=[("a",), ("b", "a")]
    )
    assert checked == from_ball + [b"\x00", b"\x01\x00"]
    assert report.params["certified"] == plain.params["certified"] + 2
    assert [f["word"] for f in report.failures] == ["a", "b a"]


def test_certificates_refuse_work_past_the_cap(c5, monkeypatch):
    # r=8 certifies 2,520 words; the conj-radius-8 ball has 7,981 elements
    assert 2520 * 7981 > FALSIFIER_MAX_WORK
    tables = []
    real_table = coxrank.verify.conjugator_table

    def table_recorder(ball):
        tables.append(len(ball))
        return real_table(ball)

    monkeypatch.setattr(coxrank.verify, "conjugator_table", table_recorder)
    with pytest.raises(RadiusCapError, match="2520 certified words times 7981 conjugators"):
        verify_essential_certificates(c5, radius=8, conj_radius=8)
    assert tables == []
    # an unknown label is still reported first
    with pytest.raises(UnknownGeneratorError):
        verify_essential_certificates(c5, 8, 8, extra_certified=[("z",)])

    # the cap is inclusive: r=8 with the 166 conjugators of conj-radius 4
    monkeypatch.setattr(coxrank.verify, "FALSIFIER_MAX_WORK", 2520 * 166)
    assert verify_essential_certificates(c5, radius=8, conj_radius=4).verdict == "PASS"
    assert tables == [166]
    monkeypatch.setattr(coxrank.verify, "FALSIFIER_MAX_WORK", 2520 * 166 - 1)
    with pytest.raises(RadiusCapError):
        verify_essential_certificates(c5, radius=8, conj_radius=4)
    assert tables == [166]


def test_certificates_refuse_a_conj_radius_out_of_range_before_any_ball(c5, monkeypatch):
    balls = []
    real_ball = coxrank.verify.ball_bytes

    def ball_recorder(g, radius):
        balls.append(radius)
        return real_ball(g, radius)

    monkeypatch.setattr(coxrank.verify, "ball_bytes", ball_recorder)
    with pytest.raises(RadiusCapError, match="^radius 11 exceeds cap 10$"):
        verify_essential_certificates(c5, 10, 11)
    with pytest.raises(ParameterRangeError, match="^radius must be at least 0, got -1$"):
        verify_essential_certificates(c5, 10, -1)
    # an out-of-range radius is still refused before the conjugation radius
    with pytest.raises(RadiusCapError, match="^radius 12 exceeds cap 10$"):
        verify_essential_certificates(c5, 12, -1)
    # and an unknown label before either
    with pytest.raises(UnknownGeneratorError):
        verify_essential_certificates(c5, 12, -1, extra_certified=[("z",)])
    assert balls == []


@pytest.fixture()
def falsified(monkeypatch):
    """The words ``verify_essential_certificates`` passes to the falsifier."""
    checked = []
    real_falsify = coxrank.verify._falsify_enc

    def falsify_recorder(g, w, table):
        checked.append(w)
        return real_falsify(g, w, table)

    monkeypatch.setattr(coxrank.verify, "_falsify_enc", falsify_recorder)
    return checked


def test_certificates_falsify_each_inverse_pair_once(c5, falsified):
    report = verify_essential_certificates(c5, radius=8, conj_radius=4)
    assert report.params["certified"] == 2520 and report.verdict == "PASS"
    # no essential element is its own inverse: 1,260 pairs, one run each
    assert len(falsified) == len(set(falsified)) == 1260
    comm = c5.comm_masks
    partners = {coxrank.kernels.normal_form(w[::-1], comm) for w in falsified}
    assert not partners & set(falsified)


def test_certificates_extra_inverse_pair_fails_like_the_falsifier(c5, falsified):
    planted = tuple("ebdcacdbe")
    extra = [("a", "b"), ("b", "a"), ("c", "a", "b"), ("b", "a", "c"), planted, ("a", "a")]
    report = verify_essential_certificates(c5, 3, 3, extra_certified=extra)
    # a b = b a; c a b and b a c are inverses; the planted word and the
    # identity a a are each their own inverse
    assert falsified == [b"\x00\x01", b"\x02\x00\x01", bytes([4, 1, 3, 2, 0, 2, 3, 1, 4]),
                         b"\x00\x00"]
    want = []
    for word in extra:
        hit = falsify_essential(c5, word, 3)
        want.append(
            {
                "word": format_word(word),
                "certificate": "assumed",
                "conjugator": format_word(hit.conjugator),
                "parabolic": sorted(hit.parabolic),
            }
        )
    assert report.failures == tuple(want)


def test_ball_drivers_run_serially(c5):
    # jobs=1 is the keyword the benchmark passes; any other value is refused
    spec = commutator_subgroup(c5)
    drivers = [
        lambda jobs: verify_covering(c5, radius=2, jobs=jobs),
        lambda jobs: verify_subgroup_covering(c5, spec, radius=2, jobs=jobs),
        lambda jobs: verify_essential_certificates(c5, radius=2, conj_radius=2, jobs=jobs),
    ]
    verdicts = [run(1).verdict for run in drivers]
    # no ball(2) element on the pentagon is certified: EMPTY_DOMAIN
    assert verdicts == ["PASS", "PASS", "FAIL"]
    for run in drivers:
        with pytest.raises(ParameterRangeError, match="jobs must be 1, got 2"):
            run(2)


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


def _check_closure_partition(n, comm, cap):
    roots, offsets = _closure_partition(n, comm, cap)
    assert len(roots) == offsets[cap + 1] == sum(n**k for k in range(cap + 1))
    # every rank sits on a fixed point no larger than itself
    assert all(roots[x] <= x and roots[roots[x]] == roots[x] for x in range(len(roots)))
    assert roots == _closure_roots_word_by_word(n, comm, cap)


def test_closure_partition_matches_word_by_word_unions_on_every_4_vertex_graph():
    for g in every_graph(4):
        for cap in range(6):
            _check_closure_partition(g.n, g.comm_masks, cap)


def test_closure_partition_matches_word_by_word_unions_on_5_vertex_graphs(c5):
    _check_closure_partition(c5.n, c5.comm_masks, 6)
    rng = random.Random(1405)
    for cap in (3, 4, 5, 3, 4, 5, 3, 4, 5, 5):
        g = DefiningGraph(
            "abcde", [p for p in combinations("abcde", 2) if rng.random() < 0.5]
        )
        _check_closure_partition(g.n, g.comm_masks, cap)


def test_word_problem_fails_on_a_normal_form_that_is_not_canonical(c5, monkeypatch):
    # reduce_word keeps "b a" as it is, while the class of "b a" holds "a b"
    monkeypatch.setattr(coxrank.kernels, "normal_form", coxrank.kernels.reduce_word)
    report = verify_word_problem(c5, max_len=3)
    assert report.verdict == "FAIL"
    assert report.failures[0] == {"word": "b a", "normalForm": "b a", "classLeast": "a b"}


def test_a_fail_keeps_the_first_records_and_counts_the_rest(c5, monkeypatch):
    monkeypatch.setattr(coxrank.kernels, "normal_form", coxrank.kernels.reduce_word)
    report = verify_word_problem(c5, max_len=6)
    assert report.verdict == "FAIL"
    assert (len(report.failures), report.failures_omitted) == (100, 8150)
    d = report.to_json_dict()
    assert (len(d["failures"]), d["failuresOmitted"]) == (100, 8150)
    assert pickle.loads(pickle.dumps(report)) == report
    monkeypatch.setattr(coxrank.verify, "MAX_FAILURE_RECORDS", 10**6)
    whole = verify_word_problem(c5, max_len=6)
    assert (len(whole.failures), whole.failures_omitted) == (8250, 0)
    assert whole.failures[:100] == report.failures
    assert "failuresOmitted" not in whole.to_json_dict()


def test_word_problem_fails_on_a_normal_form_that_merges_two_elements(c5, monkeypatch):
    real = coxrank.kernels.normal_form

    def merged(w, comm):
        nf = real(w, comm)
        return b"\x00" if nf == b"\x01" else nf  # b reads as a

    monkeypatch.setattr(coxrank.kernels, "normal_form", merged)
    report = verify_word_problem(c5, max_len=3)
    assert report.verdict == "FAIL"
    assert report.failures[0] == {"word": "b", "normalForm": "a", "classLeast": "b"}
    assert {f["normalForm"] for f in report.failures} == {"a"}


def test_word_problem_fails_on_a_canonical_normal_form_that_is_not_least(c5, monkeypatch):
    # the least normal form under the reversed letter order: the lex-greatest
    real = coxrank.kernels.normal_form
    n = c5.n
    flipped = [0] * n
    for a, b in product(range(n), repeat=2):
        if (c5.comm_masks[a] >> b) & 1:
            flipped[n - 1 - a] |= 1 << (n - 1 - b)

    def greatest(w, comm):
        return bytes(n - 1 - x for x in real(bytes(n - 1 - x for x in w), flipped))

    # it is canonical: normal forms and closure classes correspond one to one
    roots, _ = _closure_partition(n, c5.comm_masks, 5)
    words = [bytes(d) for k in range(4) for d in product(range(n), repeat=k)]
    pairs = {(roots[x], greatest(w, c5.comm_masks)) for x, w in enumerate(words)}
    assert len(pairs) == len({r for r, _ in pairs}) == len({nf for _, nf in pairs})
    monkeypatch.setattr(coxrank.kernels, "normal_form", greatest)
    report = verify_word_problem(c5, max_len=3)
    assert report.verdict == "FAIL"
    assert report.failures[0] == {"word": "a b", "normalForm": "b a", "classLeast": "a b"}


def _hexagon():
    return DefiningGraph("abcdef", [(x, y) for x, y in zip("abcdef", "bcdefa")])


def _no_ball(g, radius):
    raise AssertionError("enumerated a ball")


def test_subgroup_covering_rejects_a_spec_of_another_graph(c5, monkeypatch):
    monkeypatch.setattr(coxrank.verify, "ball_bytes", _no_ball)
    for spec in (commutator_subgroup(_hexagon()), make_subgroup(_hexagon(), ["110000"])):
        with pytest.raises(SubgroupParseError, match="different graph"):
            verify_subgroup_covering(c5, spec, radius=4)
    monkeypatch.undo()
    # an equal graph built separately is the same graph
    twin = DefiningGraph(c5.vertices, c5.edge_labels())
    report = verify_subgroup_covering(c5, commutator_subgroup(twin), radius=4)
    assert (report.verdict, report.params["subgroupIndex"]) == ("PASS", 32)


def test_uniformity_rejects_a_spec_of_another_graph(c5, monkeypatch):
    monkeypatch.setattr(coxrank.verify, "ball_bytes", _no_ball)
    with pytest.raises(SubgroupParseError, match="different graph"):
        verify_cancellator_uniformity(c5, commutator_subgroup(_hexagon()), radius=4)


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
    assert verify_parity_invariance(c5, trials=0).failures == ({"reason": "EMPTY_DOMAIN"},)
    assert verify_parity_invariance(c5, trials=20, max_len=1).verdict == "PASS"
    assert verify_word_problem(c5, max_len=0).failures == ({"reason": "EMPTY_DOMAIN"},)

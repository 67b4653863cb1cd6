import random

import pytest

from conftest import every_graph
from coxrank import cancellator, kernels
from coxrank.cancellator import (
    EXPONENT,
    BlockerChoice,
    BlockerVariant,
    MultiplierTrace,
    TraceStep,
    choose_blockers,
    essentialize,
    fix_missing,
    make_good,
    multiplier_word,
)
from coxrank.certificates import _goodness_masks, bad_mask, bad_set, is_good_essential
from coxrank.errors import (
    ContractViolationError,
    CoxrankError,
    ExponentTooSmallError,
    MissingGeneratorsError,
    NoBlockerError,
    NotInSubgroupError,
    SubgroupParseError,
)
from coxrank.graphs import DefiningGraph, is_join
from coxrank.subgroups import (
    commutator_subgroup,
    index_and_exponent,
    make_subgroup,
    member,
    whole_group,
)
from coxrank.verify import verify_subgroup_covering
from coxrank.words import (
    decode_word,
    encode_word,
    enumerate_ball,
    is_reduced,
    parity_bits,
    parity_vector,
    reduce_word,
    support,
    support_bits,
)


def test_choose_blockers_pentagon(c5):
    c = choose_blockers(c5, "a")
    assert (c.s_prime, c.s_double_prime, c.variant) == ("c", "d", BlockerVariant.TYPE1)
    c = choose_blockers(c5, "c")
    assert (c.s_prime, c.s_double_prime, c.variant) == ("a", "e", BlockerVariant.TYPE1)


def test_choose_blockers_needs_third_generator(dinf):
    with pytest.raises(NoBlockerError):
        choose_blockers(dinf, "a")


def test_choose_blockers_join_graph(c4):
    with pytest.raises(NoBlockerError):
        choose_blockers(c4, "a")


def test_choose_blockers_type2():
    # a is adjacent to everything but d, and only c misses d: the second
    # blocker must block s' instead of s.
    g = DefiningGraph("abcd", [("a", "b"), ("a", "c"), ("b", "d")])
    c = choose_blockers(g, "a")
    assert (c.s_prime, c.s_double_prime, c.variant) == ("d", "c", BlockerVariant.TYPE2)


def _ref_choose_blockers(g, s):
    """Reference blocker choice by scanning generator indices in order."""
    si = g.index(s)
    masks = g.comm_masks
    sp = next((j for j in range(g.n) if j != si and not (masks[si] >> j) & 1), None)
    if sp is None:
        raise NoBlockerError(
            f"{s!r} commutes with every other generator; the graph is a join"
        )
    for j in range(g.n):
        if j == si or j == sp:
            continue
        if not (masks[si] >> j) & 1:
            return BlockerChoice(s, g.vertices[sp], g.vertices[j], BlockerVariant.TYPE1)
    for j in range(g.n):
        if j == si or j == sp:
            continue
        if not (masks[sp] >> j) & 1:
            return BlockerChoice(s, g.vertices[sp], g.vertices[j], BlockerVariant.TYPE2)
    raise NoBlockerError(
        f"every other generator commutes with both {s!r} and "
        f"{g.vertices[sp]!r}; the group splits off their factor"
    )


def _choice_or_error(f, g, s):
    try:
        return f(g, s)
    except NoBlockerError as exc:
        return ("error", exc.code, str(exc))


def test_choose_blockers_matches_the_index_scan_on_every_5_vertex_graph():
    for g in every_graph(5):
        for s in g.vertices:
            assert _choice_or_error(choose_blockers, g, s) == _choice_or_error(
                _ref_choose_blockers, g, s
            ), (g, s)


def test_multiplier_word_patterns():
    t1 = BlockerChoice("a", "c", "d", BlockerVariant.TYPE1)
    assert multiplier_word(t1, 2) == tuple("dacdac")
    t2 = BlockerChoice("a", "b", "x", BlockerVariant.TYPE2)
    assert multiplier_word(t2, 2) == tuple("bxabxbxabx")


def test_multiplier_word_exponent_floor():
    t1 = BlockerChoice("a", "c", "d", BlockerVariant.TYPE1)
    with pytest.raises(ExponentTooSmallError):
        multiplier_word(t1, 1)


def test_multiplier_parity_even_for_even_exponent(c5):
    for s in c5.vertices:
        choice = choose_blockers(c5, s)
        for n in (2, 4):
            mult = multiplier_word(choice, n)
            assert all(v == 0 for v in parity_vector(c5, mult).values())


def test_fix_missing_examples(c5):
    result, trace = fix_missing(c5, ("a", "b"))
    assert support(c5, result) == frozenset(c5.vertices)
    assert 1 <= len(trace.steps) <= 3
    result, trace = fix_missing(c5, tuple("abcde"))
    assert result == tuple("abcde")
    assert trace.steps == ()
    assert trace.total_multiplier == ()
    result, trace = fix_missing(c5, ())
    assert support(c5, result) == frozenset(c5.vertices)
    assert len(trace.steps) <= 5


def test_fix_missing_never_drops_support(c5):
    for w in enumerate_ball(c5, 4):
        before = support(c5, w)
        result, trace = fix_missing(c5, w)
        assert support(c5, result) >= before
        assert support(c5, result) == frozenset(c5.vertices)
        # one repair per targeted generator at most; repairs may add several
        assert len(trace.steps) <= len(frozenset(c5.vertices) - before)


def test_fix_missing_trace_reconstructs_word(c5):
    word = ("a", "b")
    result, trace = fix_missing(c5, word)
    assert reduce_word(c5, trace.total_multiplier + word) == result


def test_make_good_examples(c5):
    result, trace = make_good(c5, tuple("abcde"))
    assert result == tuple("abcde")
    assert trace.steps == ()
    with pytest.raises(MissingGeneratorsError):
        make_good(c5, ("a", "b"))


def test_goodness_repair_without_full_support_names_the_missing_generators(c5):
    # the repair loop itself refuses, rather than return the word unrepaired
    word = cancellator._masked(c5, encode_word(c5, ("a", "b")))
    with pytest.raises(MissingGeneratorsError) as info:
        cancellator._repair(c5, word, {}, goodness=True)
    assert info.value.missing == ("c", "d", "e")
    assert str(info.value) == "missing generators: c d e"


def test_make_good_over_full_support_ball(c5):
    for w in enumerate_ball(c5, 6):
        if support(c5, w) != frozenset(c5.vertices):
            continue
        initial_bad = bad_set(c5, w).bad_set
        result, trace = make_good(c5, w)
        assert is_good_essential(c5, result)
        assert len(trace.steps) <= len(initial_bad)


def test_essentialize_identity(c5):
    final, trace = essentialize(c5, tuple("abab"))
    assert is_good_essential(c5, final)
    assert len(trace.steps) >= 1
    assert reduce_word(c5, trace.total_multiplier + tuple("abab")) == final


def test_essentialize_in_commutator(c5):
    spec = commutator_subgroup(c5)
    final, trace = essentialize(c5, tuple("abab"), spec)
    assert is_good_essential(c5, final)
    assert member(spec, final)
    assert all(member(spec, st.multiplier) for st in trace.steps)
    assert trace.exponent == 2


def test_essentialize_rejects_non_members(c5):
    spec = commutator_subgroup(c5)
    with pytest.raises(NotInSubgroupError):
        essentialize(c5, ("a",), spec)


def test_essentialize_rejects_a_spec_of_another_graph(c5):
    c6 = DefiningGraph("abcdef", [(x, y) for x, y in zip("abcdef", "bcdefa")])
    with pytest.raises(SubgroupParseError, match="different graph"):
        essentialize(c5, ("a", "b"), make_subgroup(c6, ["110000"]))


def test_essentialize_whole_group_uses_exponent_two(c5):
    final, trace = essentialize(c5, ("a",), whole_group(c5))
    assert trace.exponent == 2
    assert is_good_essential(c5, final)


def test_trace_json_shape(c5):
    _, trace = essentialize(c5, ("a", "b"))
    d = trace.to_json_dict()
    assert set(d) == {"steps", "totalMultiplier", "exponent"}
    for step in d["steps"]:
        assert set(step) == {
            "target", "s", "sPrime", "sDoublePrime", "variant",
            "multiplier", "runningWord",
        }


def test_distinct_total_multipliers_bounded_on_ball8(c5):
    multipliers = set()
    for w in enumerate_ball(c5, 8):
        _, trace = essentialize(c5, w)
        multipliers.add(trace.total_multiplier)
    assert 1 <= len(multipliers) <= 200


def _assert_driver_matches_essentialize(g, spec, radius):
    """``verify_subgroup_covering`` against ``essentialize`` run on each
    member of the ball, one by one."""
    totals, longest, failed, count = set(), 0, False, 0
    for w in enumerate_ball(g, radius):
        if not member(spec, w):
            continue
        count += 1
        try:
            _, trace = essentialize(g, w, spec)
        except CoxrankError:
            failed = True
            continue
        totals.add(trace.total_multiplier)
        longest = max(longest, len(trace.steps))
    report = verify_subgroup_covering(g, spec, radius=radius)
    assert report.total_cases == count
    assert report.params["distinctTotalMultipliers"] == len(totals)
    assert report.params["maxTraceSteps"] == longest
    assert report.verdict == ("FAIL" if failed else "PASS")


def test_subgroup_covering_driver_matches_essentialize_on_c5(c5):
    for spec in (commutator_subgroup(c5), make_subgroup(c5, ["11000", "00110"])):
        _assert_driver_matches_essentialize(c5, spec, 6)


def test_subgroup_covering_driver_matches_essentialize_when_every_member_fails(
    c5, monkeypatch
):
    # an odd exponent takes every multiplier out of the commutator subgroup
    monkeypatch.setattr(
        cancellator,
        "multiplier_word",
        lambda choice, n: (choice.s_double_prime, choice.s, choice.s_prime) * 3,
    )
    _assert_driver_matches_essentialize(c5, commutator_subgroup(c5), 4)


def test_subgroup_covering_driver_matches_essentialize_on_random_graphs():
    for g, rng in _random_join_free_graphs(30, seed=2027):
        rows = [rng.randrange(1 << g.n) for _ in range(rng.randint(0, g.n))]
        _assert_driver_matches_essentialize(g, make_subgroup(g, rows), 5)


# -- the two repair loops as they were written before they shared one body,
# kept here as the reference for the shared loop


def _ref_fix_missing(g, word, n=2):
    comm = g.comm_masks
    current = kernels.reduce_word(encode_word(g, word), comm)
    full = (1 << g.n) - 1
    steps = []
    total = b""
    for _ in range(g.n):
        supp = support_bits(current)
        if supp == full:
            break
        target = ~supp & full
        ti = (target & -target).bit_length() - 1
        choice = choose_blockers(g, g.vertices[ti])
        mult = encode_word(g, multiplier_word(choice, n))
        nxt = kernels.reduce_word(mult + current, comm)
        required = supp | (1 << ti)
        if support_bits(nxt) & required != required:
            raise ContractViolationError(
                f"repair for {g.vertices[ti]!r} removed a generator "
                f"from the support",
                trace=tuple(steps),
            )
        steps.append(
            TraceStep(g.vertices[ti], choice, decode_word(g, mult), decode_word(g, nxt))
        )
        total = mult + total
        current = nxt
    else:
        if support_bits(current) != full:
            raise ContractViolationError(
                "generators still missing after one repair per generator",
                trace=tuple(steps),
            )
    return decode_word(g, current), MultiplierTrace(
        tuple(steps), decode_word(g, total), n
    )


def _ref_make_good(g, word, n=2):
    comm = g.comm_masks
    current = kernels.reduce_word(encode_word(g, word), comm)
    full = (1 << g.n) - 1
    supp = support_bits(current)
    if supp != full:
        raise MissingGeneratorsError(
            [v for i, v in enumerate(g.vertices) if not (supp >> i) & 1]
        )
    steps = []
    total = b""
    bad = bad_mask(g, current)
    for _ in range(g.n):
        if not bad:
            break
        ti = (bad & -bad).bit_length() - 1
        choice = choose_blockers(g, g.vertices[ti])
        mult = encode_word(g, multiplier_word(choice, n))
        nxt = kernels.reduce_word(mult + current, comm)
        new_bad = bad_mask(g, nxt) if support_bits(nxt) == full else None
        if new_bad is None or new_bad & ~bad or new_bad == bad:
            raise ContractViolationError(
                f"repair for {g.vertices[ti]!r} did not strictly shrink the "
                f"bad set",
                trace=tuple(steps),
            )
        steps.append(
            TraceStep(g.vertices[ti], choice, decode_word(g, mult), decode_word(g, nxt))
        )
        total = mult + total
        current = nxt
        bad = new_bad
    else:
        if bad:
            raise ContractViolationError(
                "bad set nonempty after one repair per generator",
                trace=tuple(steps),
            )
    return decode_word(g, current), MultiplierTrace(
        tuple(steps), decode_word(g, total), n
    )


def _ref_essentialize(g, word, spec=None):
    if spec is not None and not member(spec, word):
        raise NotInSubgroupError("word is not a member of the subgroup")
    n = 2 if spec is None else max(2, index_and_exponent(spec)[1])
    w1, t1 = _ref_fix_missing(g, word, n)
    w2, t2 = _ref_make_good(g, w1, n)
    trace = MultiplierTrace(
        t1.steps + t2.steps, t2.total_multiplier + t1.total_multiplier, n
    )
    problems = []
    if not is_good_essential(g, w2):
        problems.append("final word is not s-good for all s")
    if spec is not None and not member(spec, w2):
        problems.append("final word left the subgroup")
    if spec is not None and any(not member(spec, st.multiplier) for st in trace.steps):
        problems.append("a multiplier left the subgroup")
    if problems:
        raise ContractViolationError("; ".join(problems), trace=trace.steps)
    return w2, trace


def _outcome(f, *args):
    """The word and trace JSON, or the error code, message and trace."""
    try:
        word, trace = f(*args)
    except CoxrankError as exc:
        trace = getattr(exc, "trace", None)
        steps = None if trace is None else [st.to_json_dict() for st in trace]
        return ("error", exc.code, str(exc), steps)
    return ("ok", word, trace.to_json_dict())


def _random_join_free_graphs(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(3, 7)
        labels = "abcdefg"[:k]
        edges = [
            (labels[i], labels[j])
            for i in range(k)
            for j in range(i + 1, k)
            if rng.random() < 0.4
        ]
        g = DefiningGraph(labels, edges)
        if not is_join(g):
            out.append((g, rng))
    return out


def _assert_same_as_reference(g, words, specs):
    for w in words:
        assert _outcome(fix_missing, g, w) == _outcome(_ref_fix_missing, g, w)
        assert _outcome(make_good, g, w) == _outcome(_ref_make_good, g, w)
        for spec in specs:
            assert _outcome(essentialize, g, w, spec) == _outcome(
                _ref_essentialize, g, w, spec
            )


def test_shared_repair_loop_matches_the_two_loops_on_the_c5_ball(c5):
    parity8 = make_subgroup(c5, ["11000", "00110"])  # graphs/parity8.sub
    specs = (None, commutator_subgroup(c5), parity8)
    _assert_same_as_reference(c5, enumerate_ball(c5, 6), specs)


def test_shared_repair_loop_matches_the_two_loops_on_random_graphs():
    for g, rng in _random_join_free_graphs(200, seed=2024):
        words = []
        for _ in range(3):
            w = [rng.choice(g.vertices) for _ in range(rng.randint(0, 8))]
            shuffled = rng.sample(w, len(w))
            words += [tuple(w), tuple(w + shuffled)]  # the second is all-even
        rows = [rng.randrange(1 << g.n) for _ in range(rng.randint(0, g.n))]
        specs = (None, commutator_subgroup(g), make_subgroup(g, rows))
        _assert_same_as_reference(g, words, specs)


def test_repair_that_adds_nothing_is_a_contract_violation(c5, monkeypatch):
    monkeypatch.setattr(cancellator, "multiplier_word", lambda choice, n: ())
    with pytest.raises(ContractViolationError) as info:
        fix_missing(c5, ("a", "b"))
    assert str(info.value) == "repair for 'c' removed a generator from the support"
    assert info.value.trace == ()
    # a b c d e a: full support, a is bad
    with pytest.raises(ContractViolationError) as info:
        make_good(c5, tuple("abcdea"))
    assert str(info.value) == "repair for 'a' did not strictly shrink the bad set"
    assert info.value.trace == ()
    report = verify_subgroup_covering(c5, commutator_subgroup(c5), radius=2)
    assert report.verdict == "FAIL"
    assert report.failures[0] == {
        "word": "e",
        "reason": "CONTRACT_VIOLATION: repair for 'a' removed a generator "
        "from the support",
    }


def test_pipeline_output_that_leaves_the_subgroup_is_a_contract_violation(
    c5, monkeypatch
):
    # an odd exponent gives every multiplier odd parity in s, s' and s''
    monkeypatch.setattr(
        cancellator,
        "multiplier_word",
        lambda choice, n: (choice.s_double_prime, choice.s, choice.s_prime) * 3,
    )
    reason = "final word left the subgroup; a multiplier left the subgroup"
    with pytest.raises(ContractViolationError) as info:
        essentialize(c5, tuple("abab"), commutator_subgroup(c5))
    assert str(info.value) == reason
    assert [st.multiplier for st in info.value.trace] == [
        tuple("dacdacdac"),
        tuple("ebdebdebd"),
    ]
    report = verify_subgroup_covering(c5, commutator_subgroup(c5), radius=4)
    assert report.verdict == "FAIL"
    assert report.failures[:2] == (
        {"word": "e", "reason": f"CONTRACT_VIOLATION: {reason}"},
        {"word": "a c a c", "reason": f"CONTRACT_VIOLATION: {reason}"},
    )
    assert len(report.failures) == report.total_cases


def test_pipeline_output_that_fails_its_certificate_is_a_contract_violation(
    c5, monkeypatch
):
    # a planted library fault: every repair phase returns its input
    # unrepaired, with that input's true masks, and only the output check
    # can see that the final word is not certified
    def unrepaired(g, word, table, goodness=False):
        return (word[0], *_goodness_masks(word[0], g.comm_masks)), b"", ()

    monkeypatch.setattr(cancellator, "_repair", unrepaired)
    with pytest.raises(ContractViolationError) as info:
        essentialize(c5, tuple("ab"))
    assert str(info.value) == "final word is not s-good for all s"
    report = verify_subgroup_covering(c5, commutator_subgroup(c5), radius=2)
    assert report.failures[0] == {
        "word": "e",
        "reason": "CONTRACT_VIOLATION: final word is not s-good for all s",
    }


def test_support_repair_must_add_its_target(c5, monkeypatch):
    # the one-letter multiplier s' = d makes d appear but not the target b:
    # the missing set shrinks, which is not enough
    monkeypatch.setattr(
        cancellator, "multiplier_word", lambda choice, n: (choice.s_prime,)
    )
    with pytest.raises(ContractViolationError) as info:
        fix_missing(c5, ("a",))
    assert str(info.value) == "repair for 'b' removed a generator from the support"
    assert info.value.trace == ()


# -- one repair table per call ------------------------------------------------


class _Forgetful(dict):
    """A repair table that keeps nothing: every step builds its multiplier."""

    def __setitem__(self, key, value):
        pass


def _essentialize_outcome(g, enc, table):
    try:
        return ("ok", cancellator._essentialize(g, None, enc, table))
    except CoxrankError as exc:
        return ("error", exc.code, str(exc), getattr(exc, "trace", None))


def _assert_shared_table_matches_per_step(g, encoded):
    shared = {}
    for enc in encoded:
        assert _essentialize_outcome(g, enc, shared) == _essentialize_outcome(
            g, enc, _Forgetful()
        )
    # filled on first use, one entry per target the words needed, with
    # the multiplier's parity folded once
    assert set(shared) <= set(range(g.n))
    for i, (choice, mult, par) in shared.items():
        assert choice == choose_blockers(g, g.vertices[i])
        assert mult == encode_word(g, multiplier_word(choice, 2))
        assert par == parity_bits(mult)


def test_shared_repair_table_matches_per_step_multipliers_on_the_c5_ball(c5):
    encoded = [encode_word(c5, w) for w in enumerate_ball(c5, 6)]
    _assert_shared_table_matches_per_step(c5, encoded)


def test_shared_repair_table_matches_per_step_multipliers_on_random_graphs():
    for g, rng in _random_join_free_graphs(200, seed=2025):
        encoded = [
            kernels.reduce_word(
                bytes(rng.randrange(g.n) for _ in range(rng.randint(0, 10))), g.comm_masks
            )
            for _ in range(6)
        ]
        _assert_shared_table_matches_per_step(g, encoded)


def test_shared_repair_table_raises_no_blocker_at_the_same_step(c4):
    # the square is a join: every target has no blocker, so each word that
    # needs a repair raises, and a word that needs none does not
    shared = {}
    for w in [(), ("a",), tuple("abcd"), tuple("acbd")]:
        enc = kernels.reduce_word(encode_word(c4, w), c4.comm_masks)
        assert _essentialize_outcome(c4, enc, shared) == _essentialize_outcome(
            c4, enc, _Forgetful()
        )
    assert shared == {}


def test_no_repair_multiplier_outlives_its_call(c5, monkeypatch):
    spec = commutator_subgroup(c5)
    before = (
        fix_missing(c5, ("a", "b")),
        make_good(c5, tuple("abcdea")),
        essentialize(c5, ("a", "a", "c", "c"), spec),
        verify_subgroup_covering(c5, spec, radius=4).to_json_dict()["failures"],
    )
    monkeypatch.setattr(cancellator, "multiplier_word", lambda choice, n: ())
    with pytest.raises(ContractViolationError):
        fix_missing(c5, ("a", "b"))
    assert verify_subgroup_covering(c5, spec, radius=4).verdict == "FAIL"
    monkeypatch.undo()
    after = (
        fix_missing(c5, ("a", "b")),
        make_good(c5, tuple("abcdea")),
        essentialize(c5, ("a", "a", "c", "c"), spec),
        verify_subgroup_covering(c5, spec, radius=4).to_json_dict()["failures"],
    )
    assert after == before
    assert after[3] == []
    assert after[0][1].steps  # the real multiplier repaired something


def test_every_step_multiplier_is_reduced_on_every_join_free_graph():
    # _repair left-multiplies each step multiplier onto the word with
    # _left_multiply, whose bytes are those of reduce_word only for a
    # reduced multiplier
    variants = set()
    for g in every_graph(6, 3):
        if is_join(g):
            continue
        for s in g.vertices:
            choice = choose_blockers(g, s)
            variants.add(choice.variant)
            assert is_reduced(g, multiplier_word(choice, EXPONENT)), (g.to_text(), s)
    assert variants == set(BlockerVariant)

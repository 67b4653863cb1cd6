"""Multiplier synthesis: make every generator appear, then make every
generator good.

For a target generator s, pick s' not commuting with s and s'' not
commuting with s (TYPE1) or, failing that, not commuting with s' (TYPE2);
such choices exist exactly when the graph is join-free with at least
three vertices (otherwise the group splits off the {s,s'} factor, or is
infinite dihedral).  The repair multiplier is (s'' s s')^n, respectively
(s' s'' s s' s'')^n, with n = EXPONENT; left-multiplying it onto a word
makes s appear (and later: makes s good) while never destroying generators
that already appear, and never un-gooding other generators.  With n fixed,
a repair multiplier depends only on its target generator.

Each synthesis step is asserted against the guarantee it relies on; a
violation raises CONTRACT_VIOLATION with the full trace, never a silent
retry.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .certificates import _goodness_masks, _left_multiply
from .errors import (
    ContractViolationError,
    ExponentTooSmallError,
    MissingGeneratorsError,
    NoBlockerError,
    NotInSubgroupError,
)
from .graphs import DefiningGraph
from .subgroups import SubgroupSpec, member, member_mask, require_graph
from .words import (
    Word,
    _reduced,
    decode_word,
    encode_word,
    format_word,
    mask_labels,
    parity_bits,
)

# The exponent of every repair multiplier.  Being even, it gives each
# multiplier all-even parity, so the multiplier lies in every parity-defined
# subgroup (each contains the kernel of the parity map) and a member stays a
# member after any number of repairs.
EXPONENT = 2


class BlockerVariant(str, Enum):
    TYPE1 = "TYPE1"  # s'' does not commute with s
    TYPE2 = "TYPE2"  # s'' does not commute with s'


class BlockerChoice(NamedTuple):
    s: str
    s_prime: str
    s_double_prime: str
    variant: BlockerVariant


class TraceStep(NamedTuple):
    target: str
    choice: BlockerChoice
    multiplier: Word
    running_word: Word  # reduced word after this step

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "s": self.choice.s,
            "sPrime": self.choice.s_prime,
            "sDoublePrime": self.choice.s_double_prime,
            "variant": self.choice.variant.value,
            "multiplier": format_word(self.multiplier),
            "runningWord": format_word(self.running_word),
        }


class MultiplierTrace(NamedTuple):
    steps: tuple[TraceStep, ...]
    total_multiplier: Word  # step multipliers concatenated, newest leftmost
    exponent: int

    def to_json_dict(self) -> dict:
        return {
            "steps": [st.to_json_dict() for st in self.steps],
            "totalMultiplier": format_word(self.total_multiplier),
            "exponent": self.exponent,
        }


def choose_blockers(g: DefiningGraph, s: str) -> BlockerChoice:
    """Deterministic blocker choice for target s: s' is the least
    non-neighbour of s, s'' the least generator outside {s, s'} that fails
    to commute with s (TYPE1) or with s' (TYPE2).

    >>> g = DefiningGraph("abcde", [("a","b"),("b","c"),("c","d"),("d","e"),("e","a")])
    >>> c = choose_blockers(g, "a")
    >>> (c.s_prime, c.s_double_prime, c.variant.value)
    ('c', 'd', 'TYPE1')
    """
    si = g.index(s)
    comm = g.comm_masks
    others = ((1 << g.n) - 1) & ~(1 << si)
    rest = others & ~comm[si]
    if not rest:
        raise NoBlockerError(
            f"{s!r} commutes with every other generator; the graph is a join"
        )
    sp = (rest & -rest).bit_length() - 1
    others &= ~(1 << sp)
    rest &= others
    variant = BlockerVariant.TYPE1
    if not rest:
        rest = others & ~comm[sp]
        variant = BlockerVariant.TYPE2
    if not rest:
        raise NoBlockerError(
            f"every other generator commutes with both {s!r} and "
            f"{g.vertices[sp]!r}; the group splits off their factor"
        )
    spp = (rest & -rest).bit_length() - 1
    return BlockerChoice(s, g.vertices[sp], g.vertices[spp], variant)


def multiplier_word(choice: BlockerChoice, n: int) -> Word:
    """(s'' s s')^n for TYPE1, (s' s'' s s' s'')^n for TYPE2; needs n >= 2.

    The word is reduced for every n: two successive occurrences of a
    letter enclose one that does not commute with it (s' between two s;
    in TYPE1, s between two s' and between two s''; in TYPE2, s'' between
    two s' and s' between two s'').

    >>> c = BlockerChoice("a", "c", "d", BlockerVariant.TYPE1)
    >>> " ".join(multiplier_word(c, 2))
    'd a c d a c'
    """
    if n < 2:
        raise ExponentTooSmallError(f"exponent {n} < 2")
    if choice.variant is BlockerVariant.TYPE1:
        unit = (choice.s_double_prime, choice.s, choice.s_prime)
    else:
        unit = (
            choice.s_prime,
            choice.s_double_prime,
            choice.s,
            choice.s_prime,
            choice.s_double_prime,
        )
    return unit * n


def _trace_steps(g: DefiningGraph, steps) -> tuple[TraceStep, ...]:
    """Trace steps from ``(choice, multiplier, running word)``, encoded."""
    return tuple(
        TraceStep(choice.s, choice, decode_word(g, mult), decode_word(g, nxt))
        for choice, mult, nxt in steps
    )


# (step error, final error) of a support repair, then of a goodness repair
_REPAIR_ERRORS = (
    ("removed a generator from the support",
     "generators still missing after one repair per generator"),
    ("did not strictly shrink the bad set",
     "bad set nonempty after one repair per generator"),
)


def _repair(
    g: DefiningGraph, word: tuple[bytes, int, int], table: dict, goodness: bool = False
) -> tuple[tuple[bytes, int, int], bytes, tuple]:
    """Prepend repair multipliers to ``word``, a reduced encoded word with
    its ``(present, bad)`` goodness masks, least target first, until no
    target is left: the missing generators, or with ``goodness`` the bad
    ones (the word must then have full support, else MISSING_GENERATORS
    names the absent ones).  A support repair adds its target and removes
    nothing; a goodness repair keeps full support and strictly shrinks the
    bad set.  The loop may take one step per target it starts with, so
    every caller gets at most one support repair per missing generator and
    one goodness repair per bad generator.  Returns the final word with
    its masks, the total multiplier (newest leftmost) and the encoded
    steps.  Each repaired word is ``_left_multiply`` of the multiplier
    onto the word, one strip per multiplier letter (both are reduced: see
    ``multiplier_word``), and its masks come from one ``_goodness_masks``
    scan; nothing rescans the input or the output.

    ``table`` maps a target index to its blocker choice and encoded
    multiplier.  It is filled on first use, so one table can serve every
    repair of a call while the choice is still made, and may still raise,
    at the first step that needs it."""
    comm = g.comm_masks
    full = (1 << g.n) - 1
    enc, present, bad = word
    # written out here and for ``new`` below: a nested function, made on
    # every call, was measurably slower on the short words of a ball
    targets = (bad if present == full else None) if goodness else full & ~present
    if targets is None:
        raise MissingGeneratorsError(mask_labels(g, ~present))
    budget = targets.bit_count()
    total = b""
    steps = []
    while targets and len(steps) < budget:
        i = (targets & -targets).bit_length() - 1
        entry = table.get(i)
        if entry is None:
            choice = choose_blockers(g, g.vertices[i])
            entry = table[i] = (choice, encode_word(g, multiplier_word(choice, EXPONENT)))
        choice, mult = entry
        nxt = _left_multiply(mult, enc, comm)
        present, bad = _goodness_masks(nxt, comm)
        # None: a goodness repair lost a generator
        new = (bad if present == full else None) if goodness else full & ~present
        # a proper subset, and a support repair must also add its target
        allowed = targets if goodness else targets & ~(1 << i)
        if new is None or new & ~allowed or new == targets:
            raise ContractViolationError(
                f"repair for {choice.s!r} {_REPAIR_ERRORS[goodness][0]}",
                trace=_trace_steps(g, steps),
            )
        steps.append((choice, mult, nxt))
        enc, targets, total = nxt, new, mult + total
    if targets:
        raise ContractViolationError(
            _REPAIR_ERRORS[goodness][1], trace=_trace_steps(g, steps)
        )
    return (enc, present, bad), total, tuple(steps)


def _masked(g: DefiningGraph, enc: bytes) -> tuple[bytes, int, int]:
    """A reduced encoded word with its ``(present, bad)`` goodness masks,
    as ``_repair`` takes it."""
    return (enc, *_goodness_masks(enc, g.comm_masks))


def _essentialize(g: DefiningGraph, spec, enc: bytes, table: dict):
    """Support repairs, then goodness repairs, on a reduced encoded word;
    ``table`` is shared by both phases, as in ``_repair``, whose budget
    bounds the repairs of each phase.  The goodness phase starts from the
    masks the support phase ends with.

    Returns the final word with its masks, the total multiplier (newest
    leftmost) and the steps of both phases.  The output is checked: the
    final masks must say s-good for every s and, with a subgroup ``spec``
    (or None), the final word must be a member reached only through member
    multipliers; whatever fails is raised as CONTRACT_VIOLATION with the
    trace."""
    w1, m1, steps1 = _repair(g, _masked(g, enc), table)
    (final, present, bad), m2, steps2 = _repair(g, w1, table, goodness=True)
    steps = steps1 + steps2
    problems = []
    if present != (1 << g.n) - 1 or bad:
        problems.append("final word is not s-good for all s")
    if spec is not None:
        if not member_mask(spec, parity_bits(final)):
            problems.append("final word left the subgroup")
        if any(not member_mask(spec, parity_bits(m)) for _, m, _ in steps):
            problems.append("a multiplier left the subgroup")
    if problems:
        raise ContractViolationError("; ".join(problems), trace=_trace_steps(g, steps))
    return (final, present, bad), m2 + m1, steps


def _result(g: DefiningGraph, word, total: bytes, steps):
    return decode_word(g, word[0]), MultiplierTrace(
        _trace_steps(g, steps), decode_word(g, total), EXPONENT
    )


def fix_missing(g: DefiningGraph, word) -> tuple[Word, MultiplierTrace]:
    """Prepend repair multipliers until every generator appears in the
    reduced form; the least missing generator is targeted first.  Already
    present generators never disappear (asserted)."""
    return _result(g, *_repair(g, _masked(g, _reduced(g, word)), {}))


def make_good(g: DefiningGraph, word) -> tuple[Word, MultiplierTrace]:
    """Prepend repair multipliers until the bad set is empty.

    Requires full support after reduction.  Each step must strictly
    shrink the bad set (the repaired generator becomes good, s'/s''
    become good, other good generators stay good); a non-shrinking step
    raises CONTRACT_VIOLATION with the trace as evidence.
    """
    return _result(g, *_repair(g, _masked(g, _reduced(g, word)), {}, goodness=True))


def essentialize(
    g: DefiningGraph, word, spec: SubgroupSpec | None = None
) -> tuple[Word, MultiplierTrace]:
    """Full pipeline: fix the support, then fix goodness.

    The result is certified s-good for all s, hence essential.  An
    essential element has rank one only when W is infinite, irreducible
    and non-affine, that is, when the graph is join-free with at least
    three vertices (the class the verify drivers require); on other
    graphs the certificate still holds but says nothing about rank.  With
    a subgroup spec, built on ``g``, the input must be a member; every
    multiplier has all-even parity (see EXPONENT), so the certified word
    is again a member.
    """
    if spec is not None:
        require_graph(spec, g)
        if not member(spec, word):
            raise NotInSubgroupError("word is not a member of the subgroup")
    return _result(g, *_essentialize(g, spec, _reduced(g, word), {}))

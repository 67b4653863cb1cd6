"""Multiplier synthesis: make every generator appear, then make every
generator good.

For a target generator s, pick s' not commuting with s and s'' not
commuting with s (TYPE1) or, failing that, not commuting with s' (TYPE2);
such choices exist exactly when the graph is join-free with at least
three vertices (otherwise the group splits off the {s,s'} factor, or is
infinite dihedral).  The repair multiplier is (s'' s s')^n, respectively
(s' s'' s s' s'')^n, with n >= 2; left-multiplying it onto a word makes s
appear (and later: makes s good) while never destroying generators that
already appear, and never un-gooding other generators.  With n even, each
multiplier has all-even parity and therefore lies in every parity-defined
subgroup.

Each synthesis step is asserted against the guarantee it relies on; a
violation raises CONTRACT_VIOLATION with the full trace, never a silent
retry.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import kernels
from .certificates import bad_mask, is_good_essential
from .errors import (
    ContractViolationError,
    ExponentTooSmallError,
    MissingGeneratorsError,
    NoBlockerError,
    NotInSubgroupError,
)
from .graphs import DefiningGraph
from .subgroups import SubgroupSpec, index_and_exponent, member
from .words import Word, decode_word, encode_word, support_bits


class BlockerVariant(str, Enum):
    TYPE1 = "TYPE1"  # s'' does not commute with s
    TYPE2 = "TYPE2"  # s'' does not commute with s'


@dataclass(frozen=True)
class BlockerChoice:
    s: str
    s_prime: str
    s_double_prime: str
    variant: BlockerVariant


@dataclass(frozen=True)
class TraceStep:
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
            "multiplier": " ".join(self.multiplier) or "e",
            "runningWord": " ".join(self.running_word) or "e",
        }


@dataclass(frozen=True)
class MultiplierTrace:
    steps: tuple[TraceStep, ...]
    total_multiplier: Word  # step multipliers concatenated, newest leftmost
    exponent: int

    def to_json_dict(self) -> dict:
        return {
            "steps": [st.to_json_dict() for st in self.steps],
            "totalMultiplier": " ".join(self.total_multiplier) or "e",
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
    masks = g.comm_masks
    sp = next(
        (j for j in range(g.n) if j != si and not (masks[si] >> j) & 1), None
    )
    if sp is None:
        raise NoBlockerError(
            f"{s!r} commutes with every other generator; the graph is a join"
        )
    for j in range(g.n):
        if j == si or j == sp:
            continue
        if not (masks[si] >> j) & 1:
            return BlockerChoice(
                s, g.vertices[sp], g.vertices[j], BlockerVariant.TYPE1
            )
    for j in range(g.n):
        if j == si or j == sp:
            continue
        if not (masks[sp] >> j) & 1:
            return BlockerChoice(
                s, g.vertices[sp], g.vertices[j], BlockerVariant.TYPE2
            )
    raise NoBlockerError(
        f"every other generator commutes with both {s!r} and "
        f"{g.vertices[sp]!r}; the group splits off their factor"
    )


def multiplier_word(choice: BlockerChoice, n: int) -> Word:
    """(s'' s s')^n for TYPE1, (s' s'' s s' s'')^n for TYPE2; needs n >= 2.

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


def fix_missing(g: DefiningGraph, word, n: int = 2) -> tuple[Word, MultiplierTrace]:
    """Prepend repair multipliers until every generator appears in the
    reduced form; the least missing generator is targeted first.  Already
    present generators never disappear (asserted)."""
    comm = g.comm_masks
    current = kernels.reduce_word(encode_word(g, word), comm)
    full = (1 << g.n) - 1
    steps: list[TraceStep] = []
    total = b""
    for _ in range(g.n):
        supp = support_bits(current)
        if supp == full:
            break
        target = (~supp & full)
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
            TraceStep(
                target=g.vertices[ti],
                choice=choice,
                multiplier=decode_word(g, mult),
                running_word=decode_word(g, nxt),
            )
        )
        total = mult + total
        current = nxt
    else:
        if support_bits(current) != full:
            raise ContractViolationError(
                "generators still missing after one repair per generator",
                trace=tuple(steps),
            )
    return (
        decode_word(g, current),
        MultiplierTrace(tuple(steps), decode_word(g, total), n),
    )


def make_good(g: DefiningGraph, word, n: int = 2) -> tuple[Word, MultiplierTrace]:
    """Prepend repair multipliers until the bad set is empty.

    Requires full support after reduction.  Each step must strictly
    shrink the bad set (the repaired generator becomes good, s'/s''
    become good, other good generators stay good); a non-shrinking step
    raises CONTRACT_VIOLATION with the trace as evidence.
    """
    comm = g.comm_masks
    current = kernels.reduce_word(encode_word(g, word), comm)
    full = (1 << g.n) - 1
    supp = support_bits(current)
    if supp != full:
        raise MissingGeneratorsError(
            [v for i, v in enumerate(g.vertices) if not (supp >> i) & 1]
        )
    steps: list[TraceStep] = []
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
            TraceStep(
                target=g.vertices[ti],
                choice=choice,
                multiplier=decode_word(g, mult),
                running_word=decode_word(g, nxt),
            )
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
    return (
        decode_word(g, current),
        MultiplierTrace(tuple(steps), decode_word(g, total), n),
    )


def essentialize(
    g: DefiningGraph, word, spec: SubgroupSpec | None = None
) -> tuple[Word, MultiplierTrace]:
    """Full pipeline: fix the support, then fix goodness.

    The result is certified s-good for all s (hence essential, hence rank
    one).  With a subgroup spec the input must be a member; the exponent
    becomes max(2, quotient exponent), so every multiplier has all-even
    parity and the certified word is again a member.
    """
    if spec is not None and not member(spec, word):
        raise NotInSubgroupError("word is not a member of the subgroup")
    n = 2 if spec is None else max(2, index_and_exponent(spec)[1])
    w1, t1 = fix_missing(g, word, n)
    w2, t2 = make_good(g, w1, n)
    trace = MultiplierTrace(
        steps=t1.steps + t2.steps,
        total_multiplier=tuple(t2.total_multiplier) + tuple(t1.total_multiplier),
        exponent=n,
    )
    if not is_good_essential(g, w2):
        raise ContractViolationError(
            "pipeline output failed its own certificate", trace=trace.steps
        )
    if spec is not None:
        if any(not member(spec, st.multiplier) for st in trace.steps) or not member(
            spec, w2
        ):
            raise ContractViolationError(
                "pipeline left the designated subgroup", trace=trace.steps
            )
    return w2, trace

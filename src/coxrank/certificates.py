"""Essentiality certificates and the bounded brute-force falsifier.

Two sufficient criteria certify that a word represents an essential
element (one whose parabolic closure is the whole group, hence a rank-one
element):

* all generators appear and each an odd number of times;
* the reduced word is s-good for every generator s.

Goodness is a condition on the blocks between occurrences of s: writing a
reduced word as  w0 s w1 s ... s wk s w(k+1)  with no s inside any block,
the word is s-minimal when every interior block carries an s-blocker (a
generator not commuting with s), and s-good when additionally the wrapped
block w(k+1)w0 carries one (k = 0 counts as good).  Every reduced word is
automatically s-minimal for each s in its support.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from . import kernels
from .errors import (
    GeneratorAbsentError,
    MissingGeneratorsError,
    NotReducedError,
)
from .graphs import MAX_VERTICES, DefiningGraph
from .words import (
    Word,
    ball_bytes,
    decode_word,
    encode_word,
    parity_mask,
    support_bits,
)


class GoodnessStatus(str, Enum):
    GOOD = "GOOD"
    NOT_GOOD = "NOT_GOOD"
    ABSENT = "ABSENT"
    # unreachable on reduced input; kept so reports can name the case
    NOT_MINIMAL_IMPOSSIBLE = "NOT_MINIMAL_IMPOSSIBLE"


@dataclass(frozen=True)
class GoodnessReport:
    per_generator: dict[str, GoodnessStatus]
    bad_set: frozenset[str]
    full_support: bool

    def to_json_dict(self) -> dict:
        order = list(self.per_generator)
        return {
            "perGenerator": {s: st.value for s, st in self.per_generator.items()},
            "badSet": [s for s in order if s in self.bad_set],
            "fullSupport": self.full_support,
        }


@dataclass(frozen=True)
class Counterexample:
    """Witness that a word is not essential: conjugating by ``conjugator``
    lands in the standard parabolic subgroup on ``parabolic``."""

    conjugator: Word
    parabolic: frozenset[str]


def _require_reduced(g: DefiningGraph, enc: bytes) -> None:
    if not kernels.is_reduced(enc, g.comm_masks):
        raise NotReducedError("word is not reduced")


def _goodness_masks(enc: bytes, comm) -> tuple[int, int, int]:
    """(present, not_minimal, bad) masks of a word, for every generator at
    once, in one left-to-right pass.

    A letter t is an s-blocker for every s outside comm[t] other than t.
    ``blocked`` holds the s that have seen a blocker since their last
    occurrence (or since the start, before their first), ``head`` the s
    whose first block w0 carries one.  An s occurring again with no
    blocker since its last occurrence has a blocker-free interior block;
    at the end ``blocked`` is the last block's verdict, so the wrapped
    block w(k+1)w0 has a blocker exactly where ``blocked | head`` does."""
    seen = multi = not_minimal = head = blocked = 0
    everyone = (1 << len(comm)) - 1
    for t in enc:
        bit = 1 << t
        if seen & bit:
            multi |= bit
            if not blocked & bit:
                not_minimal |= bit
        else:
            seen |= bit
            head |= blocked & bit
        blocked = (blocked | (everyone & ~comm[t])) & ~bit
    return seen, not_minimal, multi & (not_minimal | ~(blocked | head))


def _masks_for(g: DefiningGraph, word, s: str) -> tuple[int, int, int]:
    """(bit of s, not_minimal, bad) for a reduced word in which s occurs."""
    enc = encode_word(g, word)
    _require_reduced(g, enc)
    bit = 1 << g.index(s)
    present, not_minimal, bad = _goodness_masks(enc, g.comm_masks)
    if not present & bit:
        raise GeneratorAbsentError(f"generator {s!r} does not occur")
    return bit, not_minimal, bad


def is_s_minimal(g: DefiningGraph, word, s: str) -> bool:
    """Every interior block between occurrences of s carries an s-blocker.

    Vacuously true when s occurs once.  For Coxeter words the reduction of
    ``s wi s`` with blocker-free wi would delete both s's, so every reduced
    word is s-minimal; this checker evaluates the definition anyway.
    """
    bit, not_minimal, _ = _masks_for(g, word, s)
    return not not_minimal & bit


def is_s_good(g: DefiningGraph, word, s: str) -> bool:
    """s-minimal and, when s occurs k+1 >= 2 times, the wrapped block
    w(k+1)w0 carries an s-blocker.  Single occurrences count as good."""
    bit, _, bad = _masks_for(g, word, s)
    return not bad & bit


def goodness_report(g: DefiningGraph, word) -> GoodnessReport:
    """Per-generator goodness of a reduced word; generators outside the
    support report ABSENT and stay out of the bad set."""
    enc = encode_word(g, word)
    _require_reduced(g, enc)
    present, not_minimal, bad = _goodness_masks(enc, g.comm_masks)
    statuses: dict[str, GoodnessStatus] = {}
    bad_labels = []
    for si, label in enumerate(g.vertices):
        bit = 1 << si
        if not present & bit:
            statuses[label] = GoodnessStatus.ABSENT
        elif not_minimal & bit:
            statuses[label] = GoodnessStatus.NOT_MINIMAL_IMPOSSIBLE
        elif bad & bit:
            statuses[label] = GoodnessStatus.NOT_GOOD
            bad_labels.append(label)
        else:
            statuses[label] = GoodnessStatus.GOOD
    return GoodnessReport(
        per_generator=statuses,
        bad_set=frozenset(bad_labels),
        full_support=present == (1 << g.n) - 1,
    )


def bad_mask(g: DefiningGraph, enc: bytes) -> int:
    """Bad set of a reduced encoded word as a bitmask (hot-loop helper)."""
    return _goodness_masks(enc, g.comm_masks)[2]


def bad_set(g: DefiningGraph, word) -> GoodnessReport:
    """Goodness report for a reduced, full-support word.

    >>> g = DefiningGraph("abcde", [("a","b"),("b","c"),("c","d"),("d","e"),("e","a")])
    >>> sorted(bad_set(g, tuple("abcdea")).bad_set)
    ['a']
    """
    report = goodness_report(g, word)
    if not report.full_support:
        missing = [
            v
            for v in g.vertices
            if report.per_generator[v] is GoodnessStatus.ABSENT
        ]
        raise MissingGeneratorsError(missing)
    return report


def is_all_odd_essential(g: DefiningGraph, word) -> bool:
    """All generators appear, each an odd number of times.  Sufficient for
    essentiality (membership in a proper parabolic would force some
    generator to even parity)."""
    return parity_mask(g, word) == (1 << g.n) - 1


def is_good_essential(g: DefiningGraph, word) -> bool:
    """The reduced form has full support and is s-good for every s.
    Sufficient for essentiality; independent of the all-odd criterion."""
    comm = g.comm_masks
    return _good_essential_enc(kernels.reduce_word(encode_word(g, word), comm), comm)


def _good_essential_enc(enc: bytes, comm) -> bool:
    """Full support and an empty bad set, for a reduced encoded word."""
    present, _, bad = _goodness_masks(enc, comm)
    return present == (1 << len(comm)) - 1 and not bad


def find_even_completion(g: DefiningGraph, word) -> Word:
    """Product, in vertex order, of the generators appearing an even
    (possibly zero) number of times; multiplying it on the left makes the
    parity all-odd.  Always a product of distinct generators.

    >>> g = DefiningGraph("abcde", [("a","b"),("b","c"),("c","d"),("d","e"),("e","a")])
    >>> find_even_completion(g, ("a", "b"))
    ('c', 'd', 'e')
    """
    mask = parity_mask(g, word)
    return tuple(v for i, v in enumerate(g.vertices) if not (mask >> i) & 1)


class ConjugatorTable(NamedTuple):
    """A conjugator ball with, per element, the index of its prefix
    ``u[:-1]``, its last letter and the index of its inverse (entry 0 is
    the empty word: its own prefix, letter -1)."""

    ball: list[bytes]
    parent: list[int]
    letter: list[int]
    inverse: list[int]


def conjugator_table(g: DefiningGraph, conj_ball: list[bytes]) -> ConjugatorTable:
    """Index a ball from ``ball_bytes`` by prefix, last letter and inverse.

    Normal forms are shortlex least, so every prefix of a ball element is
    in the ball, and so is the normal form of its inverse."""
    comm = g.comm_masks
    index = {u: i for i, u in enumerate(conj_ball)}
    parent = [index[u[:-1]] for u in conj_ball]
    letter = [u[-1] if u else -1 for u in conj_ball]
    inverse = [index[kernels.normal_form(u[::-1], comm)] for u in conj_ball]
    return ConjugatorTable(conj_ball, parent, letter, inverse)


_LETTERS = [bytes((i,)) for i in range(MAX_VERTICES)]


def _conjugate_by_letter(r: bytes, x: int, mask: int) -> bytes:
    """The reduced word ``x r x`` for a reduced ``r``; ``mask`` is ``comm[x]``.

    From the left, x cancels the first x it reaches through letters that
    commute with it, and is prepended if a non-commuting letter comes
    first; then the same from the right.  The bytes are those of
    ``kernels.reduce_word(x + r + x)``."""
    i = 0
    for t in r:
        if t == x:
            r = r[:i] + r[i + 1 :]
            break
        if not (mask >> t) & 1:
            r = _LETTERS[x] + r
            break
        i += 1
    else:
        return r  # x commutes with every letter of r and does not occur
    i = len(r) - 1
    while i >= 0:
        t = r[i]
        if t == x:
            return r[:i] + r[i + 1 :]
        if not (mask >> t) & 1:
            break
        i -= 1
    return r + _LETTERS[x]


def _falsify_enc(
    g: DefiningGraph, enc: bytes, table: ConjugatorTable
) -> tuple[bytes, int] | None:
    """Hot-loop core of the falsifier: returns (conjugator, support mask)
    for the first conjugator in ball order whose conjugate misses a
    generator.

    ``conj[i]`` is ``v^-1 w v`` for the i-th ball element ``v = v' x``,
    built as ``x conj[v'] x``; the conjugate ``u w u^-1`` is then
    ``conj[inverse of u]``.  Supports are kept alongside: conjugating by x
    changes at most whether x occurs."""
    comm = g.comm_masks
    full = (1 << g.n) - 1
    r = kernels.reduce_word(enc, comm)
    conj = [r]
    supp = [support_bits(r)]
    for p, x in zip(table.parent[1:], table.letter[1:]):
        d = _conjugate_by_letter(conj[p], x, comm[x])
        conj.append(d)
        bit = 1 << x
        supp.append(supp[p] | bit if x in d else supp[p] & ~bit)
    for u, j in zip(table.ball, table.inverse):
        if supp[j] != full:
            return u, supp[j]
    return None


def falsify_essential(g: DefiningGraph, word, conj_radius: int) -> Counterexample | None:
    """Bounded search for evidence that the element is NOT essential.

    Tries every conjugator u of reduced length <= conj_radius; if the
    reduced form of u w u^-1 misses some generator, the element lies in a
    proper parabolic subgroup (membership in W_J is equivalent to reduced
    support inside J) and the least such (u, J) in shortlex order is
    returned.  None means no counterexample at this radius, which is
    evidence, not proof.

    The word is reduced once; each conjugate is then built from its
    prefix's conjugate by one letter (``x r x`` with two short scans),
    not by reducing ``u w u^-1`` from scratch.  The evidence is the same:
    every conjugator up to the radius, first hit in shortlex order.
    """
    table = conjugator_table(g, ball_bytes(g, conj_radius))
    hit = _falsify_enc(g, encode_word(g, word), table)
    if hit is None:
        return None
    u, supp = hit
    return Counterexample(
        conjugator=decode_word(g, u),
        parabolic=frozenset(g.vertices[i] for i in range(g.n) if (supp >> i) & 1),
    )

"""Essentiality certificates and the bounded brute-force falsifier.

Two sufficient criteria certify that a word represents an essential
element (one whose parabolic closure is the whole group).  An essential
element has rank one when the group is infinite, irreducible and
non-affine, that is, when the graph is join-free with at least three
vertices; in other groups a certificate says nothing about rank.

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

from enum import Enum
from types import MappingProxyType
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
    _commuters,
    _reduced,
    ball_bytes,
    decode_word,
    encode_word,
    mask_labels,
    parity_mask,
    support_bits,
)


class GoodnessStatus(str, Enum):
    GOOD = "GOOD"
    NOT_GOOD = "NOT_GOOD"
    ABSENT = "ABSENT"


class GoodnessReport(NamedTuple):
    per_generator: MappingProxyType[str, GoodnessStatus]
    bad_set: frozenset[str]
    full_support: bool

    def __reduce__(self):
        # a read-only mapping cannot be pickled or deep-copied: pass a dict
        return _frozen_goodness, (dict(self.per_generator), *self[1:])

    def to_json_dict(self) -> dict:
        order = list(self.per_generator)
        return {
            "perGenerator": {s: st.value for s, st in self.per_generator.items()},
            "badSet": [s for s in order if s in self.bad_set],
            "fullSupport": self.full_support,
        }


def _frozen_goodness(per_generator, *rest) -> GoodnessReport:
    return GoodnessReport(MappingProxyType(per_generator), *rest)


class Counterexample(NamedTuple):
    """Witness that a word is not essential: conjugating by ``conjugator``
    lands in the standard parabolic subgroup on ``parabolic``."""

    conjugator: Word
    parabolic: frozenset[str]


def _require_reduced(g: DefiningGraph, enc: bytes) -> None:
    if not kernels.is_reduced(enc, g.comm_masks):
        raise NotReducedError("word is not reduced")


def _goodness_masks(enc: bytes, comm) -> tuple[int, int]:
    """(present, bad) masks of a reduced word, for every generator at once,
    in one left-to-right pass.

    A letter t is an s-blocker for every s outside comm[t] other than t.
    ``clear`` holds the s that have seen no blocker since their last
    occurrence (or since the start, before their first; -1 sets every
    bit), so after t it keeps only comm[t] and adds t.  ``opened`` holds
    the s whose first block w0 carries no blocker.  The word is reduced,
    so every interior block carries a blocker; at the end ``clear`` is the
    last block's verdict, and the wrapped block w(k+1)w0 of an s occurring
    more than once has no blocker exactly where ``clear & opened`` is
    set."""
    seen = multi = opened = 0
    clear = -1
    for t in enc:
        bit = 1 << t
        if seen & bit:
            multi |= bit
        else:
            seen |= bit
            opened |= clear & bit
        clear = (clear & comm[t]) | bit
    return seen, multi & clear & opened


def is_s_good(g: DefiningGraph, word, s: str) -> bool:
    """For a reduced word in which s occurs k+1 times, the wrapped block
    w(k+1)w0 carries an s-blocker; a single occurrence (k = 0) counts as
    good.  The interior blocks always carry one, since the word is reduced.

    >>> g = DefiningGraph("abcde", [("a","b"),("b","c"),("c","d"),("d","e"),("e","a")])
    >>> is_s_good(g, tuple("abcdea"), "a"), is_s_good(g, tuple("abcdea"), "c")
    (False, True)
    """
    enc = encode_word(g, word)
    _require_reduced(g, enc)
    bit = 1 << g.index(s)
    present, bad = _goodness_masks(enc, g.comm_masks)
    if not present & bit:
        raise GeneratorAbsentError(f"generator {s!r} does not occur")
    return not bad & bit


def goodness_report(g: DefiningGraph, word) -> GoodnessReport:
    """Per-generator goodness of a reduced word; generators outside the
    support report ABSENT and stay out of the bad set."""
    enc = encode_word(g, word)
    _require_reduced(g, enc)
    present, bad = _goodness_masks(enc, g.comm_masks)
    statuses: dict[str, GoodnessStatus] = {}
    for si, label in enumerate(g.vertices):
        bit = 1 << si
        if not present & bit:
            statuses[label] = GoodnessStatus.ABSENT
        elif bad & bit:
            statuses[label] = GoodnessStatus.NOT_GOOD
        else:
            statuses[label] = GoodnessStatus.GOOD
    return GoodnessReport(
        per_generator=MappingProxyType(statuses),
        bad_set=frozenset(mask_labels(g, bad)),
        full_support=present == (1 << g.n) - 1,
    )


def bad_mask(g: DefiningGraph, enc: bytes) -> int:
    """Bad set of a reduced encoded word as a bitmask (hot-loop helper)."""
    return _goodness_masks(enc, g.comm_masks)[1]


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
    return _good_essential_enc(_reduced(g, word), g.comm_masks)


def _good_essential_enc(enc: bytes, comm) -> bool:
    """Full support and an empty bad set, for a reduced encoded word."""
    present, bad = _goodness_masks(enc, comm)
    return present == (1 << len(comm)) - 1 and not bad


def find_even_completion(g: DefiningGraph, word) -> Word:
    """Product, in vertex order, of the generators appearing an even
    (possibly zero) number of times; multiplying it on the left makes the
    parity all-odd.  Always a product of distinct generators.

    >>> g = DefiningGraph("abcde", [("a","b"),("b","c"),("c","d"),("d","e"),("e","a")])
    >>> find_even_completion(g, ("a", "b"))
    ('c', 'd', 'e')
    """
    return decode_word(g, _even_completion(parity_mask(g, word), g.n))


def _even_completion(pm: int, n: int) -> bytes:
    """The generators of even parity under the parity mask ``pm``, in
    vertex order, encoded."""
    return bytes(i for i in range(n) if not (pm >> i) & 1)


class ConjugatorTable(NamedTuple):
    """A conjugator ball with, per element ``u = x u'``, the index of its
    suffix ``u' = u[1:]`` and its first letter x (entry 0 is the empty
    word: its own suffix, letter -1).

    ``inner`` is ``max(parent) + 1``: every element that is another's
    suffix has an index below it, so the elements from ``inner`` on are
    leaves, whose conjugates the falsifier never builds."""

    ball: list[bytes]
    parent: list[int]
    letter: list[int]
    inner: int


def conjugator_table(conj_ball: list[bytes]) -> ConjugatorTable:
    """Index a ball from ``ball_bytes`` by suffix and first letter.

    Normal forms are shortlex least, and so is the suffix of one (a
    lesser word for the suffix would give a lesser word for the whole),
    so every suffix of a ball element is in the ball, at a lower index."""
    index = {u: i for i, u in enumerate(conj_ball)}
    parent = [index[u[1:]] for u in conj_ball]
    letter = [u[0] if u else -1 for u in conj_ball]
    return ConjugatorTable(conj_ball, parent, letter, max(parent) + 1)


_LETTERS = [bytes((i,)) for i in range(MAX_VERTICES)]


def _conjugate_by_letter(r: bytes, x: int, skip: bytes) -> bytes:
    """The reduced word ``x r x`` for a reduced ``r``; ``skip`` holds the
    letters that commute with x (``_commuters(comm[x])``).

    From the left, x cancels the first x it reaches through letters that
    commute with it, and is prepended if a non-commuting letter comes
    first; then the same from the right.  Each side is one strip of
    ``skip``.  The bytes are those of ``kernels.reduce_word(x + r + x)``."""
    tail = r.lstrip(skip)
    if not tail:
        return r  # x commutes with every letter of r and does not occur
    if tail[0] == x:
        r = r[: len(r) - len(tail)] + tail[1:]
    else:
        r = _LETTERS[x] + r
    head = r.rstrip(skip)
    if head and head[-1] == x:
        return head[:-1] + r[len(head) :]
    return r + _LETTERS[x]


def _left_multiply(m: bytes, r: bytes, comm) -> bytes:
    """The reduced word ``m r`` for reduced ``m`` and ``r``.

    The letters of m are taken last first, each onto the word so far: x
    cancels the first x it reaches from the left through letters that
    commute with it, and is prepended if a non-commuting letter comes
    first.  Each letter is one strip of its commuters.  The bytes are
    those of ``kernels.reduce_word(m + r)``."""
    for x in reversed(m):
        tail = r.lstrip(_commuters(comm[x]))
        if tail[:1] == _LETTERS[x]:
            r = r[: len(r) - len(tail)] + tail[1:]
        else:
            r = _LETTERS[x] + r
    return r


def _falsify_enc(
    g: DefiningGraph, enc: bytes, table: ConjugatorTable
) -> tuple[bytes, int] | None:
    """Hot-loop core of the falsifier: returns (conjugator, support mask)
    for the first hit in ball order, the first conjugator whose conjugate
    misses a generator.

    ``conj[i]`` is ``u w u^-1`` for the i-th ball element ``u = x u'``,
    built from its suffix's conjugate as ``x conj[u'] x``.  Conjugates
    come out in ball order and the suffix comes first, so when u is
    reached every earlier conjugate, the suffix's included, has full
    support.  Conjugating by x changes at most whether x occurs, so u is
    a hit exactly when x drops out, and its support is all but x.

    Conjugates are built only below ``table.inner``, where every element
    that is some element's suffix lies.  For a leaf ``x u'`` only whether
    x survives is needed, and that follows from the number c of x in
    ``r = conj[u']`` by the same one-letter fact ``_conjugate_by_letter``
    computes.  r has full support, so c >= 1: with c >= 3, each outer x
    cancels at most one x of r, so one is left; with c = 1, if the left x
    cancels it, the right x finds none and stays; with c = 2, both cancel
    exactly when the first x is reached from the front and the last x
    from the back through letters that commute with x."""
    comm = g.comm_masks
    full = (1 << g.n) - 1
    r = kernels.reduce_word(enc, comm)
    supp = support_bits(r)
    if supp != full:
        return b"", supp
    conj = [r]
    ball, parent, letter, inner = table
    strips = list(map(_commuters, comm))
    for u, p, x in zip(ball[1:inner], parent[1:inner], letter[1:inner]):
        d = _conjugate_by_letter(conj[p], x, strips[x])
        if x not in d:
            return u, full & ~(1 << x)
        conj.append(d)
    for u, p, x in zip(ball[inner:], parent[inner:], letter[inner:]):
        d = conj[p]
        if d.count(x) == 2:
            skip = strips[x]
            if d.lstrip(skip)[0] == x == d.rstrip(skip)[-1]:
                return u, full & ~(1 << x)
    return None


def falsify_essential(g: DefiningGraph, word, conj_radius: int) -> Counterexample | None:
    """Bounded search for evidence that the element is NOT essential.

    Tries every conjugator u of reduced length <= conj_radius; if the
    reduced form of u w u^-1 misses some generator, the element lies in a
    proper parabolic subgroup (membership in W_J is equivalent to reduced
    support inside J) and the least such (u, J) in shortlex order is
    returned.  None means no counterexample at this radius, which is
    evidence, not proof.

    The word is encoded before the conjugator ball is built, so an
    unknown label fails at once.  It is reduced once; the conjugate by
    ``u = x u'`` is then built from the conjugate by its suffix u' and
    its first letter x (``x r x`` with two strips of the letters that
    commute with x), not by reducing ``u w u^-1`` from scratch, and only
    for conjugators that are some element's suffix.  For the others (the
    last sphere, in an infinite group) the number of x in the suffix's
    conjugate decides exactly whether x survives ``x r x``.  The evidence
    is the same: every conjugator up to the radius, first hit in ball
    order.
    """
    enc = encode_word(g, word)
    hit = _falsify_enc(g, enc, conjugator_table(ball_bytes(g, conj_radius)))
    if hit is None:
        return None
    u, supp = hit
    return Counterexample(decode_word(g, u), frozenset(mask_labels(g, supp)))

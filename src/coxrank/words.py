"""Words over the generators: reduction, canonical forms, parity, balls.

Public functions deal in tuples of labels; the index-level codec
(``encode_word``/``decode_word``), the bitmask helpers (``parity_bits``,
``support_bits``) and the byte-level ball enumerator are exposed for the
hot loops in the certificate and verification modules.
All functions are pure; every returned word is a fresh tuple.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import compress

from . import kernels
from .errors import ParameterRangeError, RadiusCapError, UnknownGeneratorError
from .graphs import MAX_VERTICES, DefiningGraph

Word = tuple[str, ...]

# ball limits: the radius, and how many elements the ball may reach
# (C5 at radius 10 peaks at 85,501 in the per-sphere bound below)
MAX_BALL_RADIUS = 10
MAX_BALL_ELEMENTS = 500_000
# the longest word parse_word accepts.  normal_form is quadratic, and
# ``coxrank nf`` is the slowest verb that reads one word.  Its seconds
# (pure Python, x86_64), on the graph a-c, a-d, b-c, b-d plus w with
# the word (c d)^k w (a b)^m at a 3:2 split, then worst of the cycled
# word a b c d a ... over all 64 graphs on a-d:
#   letters     512    1,024  2,048  4,096
#   (c d)^k w   0.021  0.043  0.24   0.70
#   a b c d     0.026  0.079  0.25   0.61-1.1
# The other word verbs take at most about 0.08 s at 2,048 letters.  So
# 2,048 keeps every verb under about 0.6 s, which 4,096 does not.
MAX_WORD_LEN = 2048
EMPTY_WORD_DISPLAY = "e"


def parse_word(g: DefiningGraph, text: str) -> Word:
    """Parse space-separated generator labels.

    A lone ``e`` is the empty word unless a generator is literally named
    ``e`` (then it is that generator); the empty string always gives the
    empty word.  Text of more than MAX_WORD_LEN labels raises
    ``RadiusCapError`` before any label is looked up.
    """
    tokens = text.split()
    if len(tokens) > MAX_WORD_LEN:
        raise RadiusCapError(f"word of {len(tokens)} letters exceeds cap {MAX_WORD_LEN}")
    if tokens == [EMPTY_WORD_DISPLAY] and not g.has_vertex(EMPTY_WORD_DISPLAY):
        return ()
    for tok in tokens:
        if not g.has_vertex(tok):
            raise UnknownGeneratorError(tok)
    return tuple(tokens)


def format_word(word) -> str:
    """Render a word; the empty word prints as "e"."""
    return " ".join(word) if word else EMPTY_WORD_DISPLAY


def encode_word(g: DefiningGraph, word) -> bytes:
    """Generator indices of a word; the first unknown label raises
    ``UnknownGeneratorError``."""
    return bytes(map(g.index, word))


def decode_word(g: DefiningGraph, data: bytes) -> Word:
    return tuple(map(g.vertices.__getitem__, data))


def mask_labels(g: DefiningGraph, mask: int) -> list[str]:
    """The labels of the vertices set in ``mask``, in vertex order."""
    return [v for i, v in enumerate(g.vertices) if (mask >> i) & 1]


def _reduced(g: DefiningGraph, word) -> bytes:
    """A word encoded, then reduced."""
    return kernels.reduce_word(encode_word(g, word), g.comm_masks)


def parity_bits(enc) -> int:
    """Letter counts mod 2 of an encoded word (any iterable of generator
    indices), packed as a bitmask: bit i is set iff i occurs an odd
    number of times."""
    mask = 0
    for ch in enc:
        mask ^= 1 << ch
    return mask


def support_bits(enc) -> int:
    """The generator indices occurring in an encoded word, as a bitmask."""
    mask = 0
    for ch in enc:
        mask |= 1 << ch
    return mask


@lru_cache(maxsize=1024)
def _commuters(mask: int) -> bytes:
    """The letters set in ``mask``, as bytes for ``bytes.strip``."""
    return bytes(t for t in range(MAX_VERTICES) if (mask >> t) & 1)


def parity_mask(g: DefiningGraph, word) -> int:
    """Per-generator letter counts mod 2, packed as a bitmask in vertex
    order.  Invariant under all legal moves, hence an invariant of the
    group element."""
    return parity_bits(map(g.index, word))


def reduce_word(g: DefiningGraph, word) -> Word:
    """A reduced word for the same element (leftmost-pair deletion to a
    fixpoint; deterministic).

    >>> g = DefiningGraph("abcde", [("a","b"),("b","c"),("c","d"),("d","e"),("e","a")])
    >>> reduce_word(g, ("a", "b", "a"))
    ('b',)
    """
    return decode_word(g, _reduced(g, word))


def normal_form(g: DefiningGraph, word) -> Word:
    """The lexicographically least reduced word equal to ``word``; two
    words represent the same element iff their normal forms coincide.

    >>> g = DefiningGraph("abcde", [("a","b"),("b","c"),("c","d"),("d","e"),("e","a")])
    >>> normal_form(g, ("b", "a"))
    ('a', 'b')
    >>> normal_form(g, ("c", "a"))
    ('c', 'a')
    """
    return decode_word(g, kernels.normal_form(encode_word(g, word), g.comm_masks))


def is_reduced(g: DefiningGraph, word) -> bool:
    return kernels.is_reduced(encode_word(g, word), g.comm_masks)


def equal(g: DefiningGraph, w1, w2) -> bool:
    """True iff the two words represent the same element.

    Decided as the identity test ``w1 w2^-1 = 1``: a word is the
    identity exactly when deletions and commuting swaps reduce it to the
    empty word (Tits), and ``w2^-1`` is ``w2`` reversed since generators
    are involutions.  One reduction pass, no normal form.  ``w1`` is
    encoded before ``w2``, so the first unknown label raises
    ``UnknownGeneratorError``.

    >>> g = DefiningGraph("abcde", [("a","b"),("b","c"),("c","d"),("d","e"),("e","a")])
    >>> equal(g, ("a", "b"), ("b", "a"))
    True
    >>> equal(g, ("a", "b", "a"), ("b",))
    True
    >>> equal(g, ("a", "c"), ("c", "a"))
    False
    """
    return not kernels.reduce_word(encode_word(g, w1) + encode_word(g, w2)[::-1], g.comm_masks)


def parity_vector(g: DefiningGraph, word) -> dict[str, int]:
    mask = parity_mask(g, word)
    return {v: (mask >> i) & 1 for i, v in enumerate(g.vertices)}


def support(g: DefiningGraph, word) -> frozenset[str]:
    """Generators appearing in the reduced form (well defined: the same
    for every reduced expression of the element)."""
    return frozenset(decode_word(g, _reduced(g, word)))


def require_radius(radius: int) -> None:
    """Refuse a ball radius below 0 (``ParameterRangeError``) or above
    MAX_BALL_RADIUS (``RadiusCapError``), before any ball is built."""
    if radius < 0:
        raise ParameterRangeError(f"radius must be at least 0, got {radius}")
    if radius > MAX_BALL_RADIUS:
        raise RadiusCapError(f"radius {radius} exceeds cap {MAX_BALL_RADIUS}")


class Ball(list):
    """The encoded elements of a ball, as a list, with ``parities``: an
    ``array`` holding each element's parity mask (``parity_bits``), in the
    narrowest of the unsigned typecodes ``I``, ``L`` and ``Q`` that holds
    n bits."""

    __slots__ = ("parities",)


def ball_bytes(g: DefiningGraph, radius: int, keep=None) -> Ball:
    """All elements of reduced length <= radius as encoded normal forms,
    shortlex sorted (byte order = vertex order), as a ``Ball``.  With
    ``keep``, a predicate on parity masks, only the elements whose mask it
    accepts, in the same order (the identity iff ``keep(0)``).

    Shortlex normal forms are prefix-closed (Brink and Howlett, Coxeter
    groups are shortlex automatic, 1993): dropping the last letter of a
    normal form leaves a normal form.  So the extension w x of an element
    w of the last sphere is kept exactly when its normal form is w x, and
    each element v of the next sphere is built once, from v[:-1] and
    v[-1].  The frontier is expanded in order with the letters ascending,
    so each sphere comes out sorted.

    Each element carries its right-descent mask, the letters x with
    |w x| < |w|: for v = w x with x outside desc(w), desc(v) is
    {x} | (desc(w) & comm[x]).  Only the extensions by letters outside
    desc(w) are tested, and each of them is one letter longer.  It also
    carries its parity mask, parity(w x) = parity(w) ^ {x}, in a
    per-sphere array that is appended to ``parities`` with the sphere, so
    callers that sort the ball by parity class read the mask instead of
    folding the word again.  The array takes four bytes per element up to
    32 vertices (219 KB on the pentagon's radius-10 ball), where a list
    would take eight per element for its pointers alone.

    With ``keep``, the inner spheres are still built whole, since each is
    the next frontier, and are filtered as they are appended.  The outer
    sphere is never extended, so there the extension w x is tested only
    when keep(parity(w) ^ {x}) holds: the frontier's descent masks also
    take the letters whose extension ``keep`` refuses.  The outer sphere
    holds 33,825 of the pentagon's 54,726 elements at radius 10.

    Of each tested extension only the suffix that x can move into is
    normalized: if k is least such that every letter of w[k:] commutes
    with x, then nf(w x) = w[:k] + nf(w[k:] x).  The letter w[k-1]
    neither commutes with x nor equals it (x is not a descent), so x
    cannot pass it, and the greedy lex extraction emits w[:k] exactly as
    it does for w.  So nf(w x) = w x exactly when nf(w[k:] x) = w[k:] x.
    The prefix w[:k] is found by one ``bytes.rstrip`` scan, ``w.rstrip``
    of the letters that commute with x.  Most suffixes are short: of the
    75,625 calls in the pentagon's radius-10 ball, 62,710 get one or two
    letters, which ``normal_form`` answers in closed form.

    The radius passes ``require_radius``.  A ball that could outgrow
    MAX_BALL_ELEMENTS raises ``RadiusCapError``: each frontier element adds
    at most n to the next sphere, so the bound is checked before each
    sphere is built and nothing is allocated past it.  The bound counts
    every element built, kept or not, so ``keep`` refuses no other radii."""
    require_radius(radius)
    comm = g.comm_masks
    nf = kernels.normal_form
    gens = [(bytes([x]), 1 << x, comm[x], _commuters(comm[x])) for x in range(g.n)]
    # the narrowest of the unsigned typecodes I, L and Q whose items hold n
    # bits: B and H are narrower, but their append parses its argument
    # through a format string and takes about twice as long
    code = next(t for t in "ILQ" if array(t).itemsize * 8 >= g.n)
    out = Ball([b""] if keep is None or keep(0) else [])
    out.parities = parities = array(code, [0] * len(out))
    # the frontier, its descent and parity masks, and the elements built
    frontier, descs, pars, built = [b""], [0], array(code, [0]), 1
    for r in range(1, radius + 1):
        bound = built + len(frontier) * g.n
        if bound > MAX_BALL_ELEMENTS:
            raise RadiusCapError(
                f"ball of radius {radius} may exceed {MAX_BALL_ELEMENTS} "
                f"elements ({bound} possible through radius {r})"
            )
        if keep is not None and r == radius:
            refused = {
                p: sum(bit for _, bit, _, _ in gens if not keep(p ^ bit)) for p in set(pars)
            }
            descs = [desc | refused[par] for desc, par in zip(descs, pars)]
        grown, grown_descs, grown_pars = [], [], array(code)
        add, add_desc, add_par = grown.append, grown_descs.append, grown_pars.append
        for w, desc, par in zip(frontier, descs, pars):
            for s, bit, mask, skip in gens:
                if not desc & bit:
                    tail = w[len(w.rstrip(skip)) :] + s
                    if nf(tail, comm) == tail:
                        add(w + s)
                        add_desc(bit | (desc & mask))
                        add_par(par ^ bit)
        frontier, descs, pars, built = grown, grown_descs, grown_pars, built + len(grown)
        if keep is not None and r < radius:
            kept = list(map(keep, grown_pars))
            grown, grown_pars = compress(grown, kept), compress(grown_pars, kept)
        out.extend(grown)
        parities.extend(grown_pars)
    return out


def enumerate_ball(g: DefiningGraph, radius: int) -> list[Word]:
    """Distinct group elements of reduced length <= radius, each as its
    normal form, shortlex sorted.

    >>> g = DefiningGraph("ab")
    >>> [" ".join(w) or "e" for w in enumerate_ball(g, 3)]
    ['e', 'a', 'b', 'a b', 'b a', 'a b a', 'b a b']
    """
    return [decode_word(g, w) for w in ball_bytes(g, radius)]

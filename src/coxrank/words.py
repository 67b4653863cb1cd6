"""Words over the generators: reduction, canonical forms, parity, balls.

Public functions deal in tuples of labels; the index-level codec
(``encode_word``/``decode_word``), the bitmask helpers (``parity_bits``,
``support_bits``) and the byte-level ball enumerator are exposed for the
hot loops in the certificate and verification modules.
All functions are pure; every returned word is a fresh tuple.
"""

from __future__ import annotations

from . import kernels
from .errors import ParameterRangeError, RadiusCapError, UnknownGeneratorError
from .graphs import DefiningGraph

Word = tuple[str, ...]

# ball limits: the radius, and how many elements the ball may reach
# (C5 at radius 10 peaks at 85,501 in the per-sphere bound below)
MAX_BALL_RADIUS = 10
MAX_BALL_ELEMENTS = 500_000
EMPTY_WORD_DISPLAY = "e"


def parse_word(g: DefiningGraph, text: str) -> Word:
    """Parse space-separated generator labels.

    A lone ``e`` is the empty word unless a generator is literally named
    ``e`` (then it is that generator); the empty string always gives the
    empty word.
    """
    tokens = text.split()
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


def inverse(word) -> Word:
    """Inverse word; generators are involutions, so just reverse."""
    return tuple(reversed(word))


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
    return decode_word(g, kernels.reduce_word(encode_word(g, word), g.comm_masks))


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
    comm = g.comm_masks
    return kernels.normal_form(encode_word(g, w1), comm) == kernels.normal_form(
        encode_word(g, w2), comm
    )


def parity_vector(g: DefiningGraph, word) -> dict[str, int]:
    mask = parity_mask(g, word)
    return {v: (mask >> i) & 1 for i, v in enumerate(g.vertices)}


def support(g: DefiningGraph, word) -> frozenset[str]:
    """Generators appearing in the reduced form (well defined: the same
    for every reduced expression of the element)."""
    return frozenset(decode_word(g, kernels.reduce_word(encode_word(g, word), g.comm_masks)))


def ball_bytes(g: DefiningGraph, radius: int) -> list[bytes]:
    """All elements of reduced length <= radius as encoded normal forms,
    shortlex sorted (byte order = vertex order).

    Each element carries its right-descent mask, the letters x with
    |w x| < |w|: for v = w x with x outside desc(w), desc(v) is
    {x} | (desc(w) & comm[x]).  Only the extensions by letters outside
    desc(w) are normalized, and each of them is one letter longer.

    Radii above MAX_BALL_RADIUS raise ``RadiusCapError``, and so does a
    ball that could outgrow MAX_BALL_ELEMENTS: each frontier element adds
    at most n to the next sphere, so the bound is checked before each
    sphere is built and nothing is allocated past it."""
    if radius < 0:
        raise ParameterRangeError(f"radius must be at least 0, got {radius}")
    if radius > MAX_BALL_RADIUS:
        raise RadiusCapError(f"radius {radius} exceeds cap {MAX_BALL_RADIUS}")
    comm = g.comm_masks
    nf = kernels.normal_form
    gens = [(bytes([x]), 1 << x, comm[x]) for x in range(g.n)]
    out = [b""]
    frontier = [b""]
    descs = [0]
    for r in range(1, radius + 1):
        bound = len(out) + len(frontier) * g.n
        if bound > MAX_BALL_ELEMENTS:
            raise RadiusCapError(
                f"ball of radius {radius} may exceed {MAX_BALL_ELEMENTS} "
                f"elements ({bound} possible through radius {r})"
            )
        grown: dict[bytes, int] = {}
        for w, desc in zip(frontier, descs):
            for s, bit, mask in gens:
                if not desc & bit:
                    grown[nf(w + s, comm)] = bit | (desc & mask)
        frontier = sorted(grown)
        descs = list(map(grown.__getitem__, frontier))
        out.extend(frontier)
    return out


def enumerate_ball(g: DefiningGraph, radius: int) -> list[Word]:
    """Distinct group elements of reduced length <= radius, each as its
    normal form, shortlex sorted.

    >>> g = DefiningGraph("ab")
    >>> [" ".join(w) or "e" for w in enumerate_ball(g, 3)]
    ['e', 'a', 'b', 'a b', 'b a', 'a b a', 'b a b']
    """
    return [decode_word(g, w) for w in ball_bytes(g, radius)]

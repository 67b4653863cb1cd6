"""Word kernels: reducedness, reduction and the normal form.

Words are ``bytes`` of generator indices.  Commutation comes in as one
bitmask per generator: bit ``t`` of ``comm[s]`` is set iff ``s`` and ``t``
are distinct commuting generators (an edge of the defining graph).

The kernels are plain Python; ``BACKEND`` names that for reports and
``coxrank --version``.
"""

from __future__ import annotations

BACKEND = "python"


def is_reduced(word: bytes, comm) -> bool:
    """True iff no deletable pair exists.

    A pair of equal letters is deletable when the letter does not reoccur
    strictly between them and every letter in between commutes with it.
    One forward scan keeps ``clear``, the letters whose last occurrence is
    followed only by letters they commute with: a letter already in
    ``clear`` closes a deletable pair, and after t it keeps only
    ``comm[t]`` and adds t.
    """
    clear = 0
    for t in word:
        bit = 1 << t
        if clear & bit:
            return False
        clear = (clear & comm[t]) | bit
    return True


def _reduce(word: bytes, comm) -> bytearray:
    """One left-to-right pass: each letter scans back over the letters it
    commutes with and cancels the first equal one; a non-commuting letter
    ends the scan and the new letter is kept."""
    out = bytearray()
    for s in word:
        mask = comm[s]
        i = len(out) - 1
        while i >= 0:
            t = out[i]
            if t == s:
                del out[i]
                break
            if not (mask >> t) & 1:
                out.append(s)
                break
            i -= 1
        else:
            out.append(s)
    return out


def reduce_word(word: bytes, comm) -> bytes:
    """A reduced word for the same element.

    The bytes are those of deleting the leftmost deletable pair (smallest
    first position, then its nearest matching letter) until none remains,
    which keeps downstream traces reproducible.
    """
    return bytes(_reduce(word, comm))


def normal_form(word: bytes, comm) -> bytes:
    """Lexicographically least reduced word of the same group element.

    A word of at most two letters has a closed form: ``a a`` is the
    identity, and ``a b`` reads ``b a`` when b < a and the two commute.
    Longer words take greedy extraction: among the letters whose first
    occurrence is preceded only by letters they commute with, repeatedly
    emit the least one and delete that occurrence.

    On the pentagon a-b-c-d-e-a (a=0, ..., e=4):

    >>> from coxrank.graphs import DefiningGraph
    >>> comm = DefiningGraph(
    ...     "abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")]
    ... ).comm_masks
    >>> list(normal_form(bytes([1, 0]), comm))  # b a: commuting, out of order
    [0, 1]
    >>> list(normal_form(bytes([2, 0]), comm))  # c a: not commuting
    [2, 0]
    >>> list(normal_form(bytes([3, 3]), comm))  # d d: the identity
    []
    """
    n = len(word)
    if n < 2:
        return bytes(word)
    if n == 2:
        a, b = word
        if a == b:
            return b""
        if b < a and (comm[a] >> b) & 1:
            return bytes((b, a))
        return bytes(word)
    buf = _reduce(word, comm)
    out = bytearray()
    while buf:
        n = len(buf)
        best = -1
        pos = -1
        for p in range(n):
            s = buf[p]
            if best >= 0 and s >= best:
                continue
            mask = comm[s]
            ok = True
            for q in range(p):
                t = buf[q]
                if t == s or not (mask >> t) & 1:
                    ok = False
                    break
            if ok:
                best = s
                pos = p
        del buf[pos]
        out.append(best)
    return bytes(out)


__all__ = ["BACKEND", "is_reduced", "reduce_word", "normal_form"]

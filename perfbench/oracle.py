"""The benchmark's own oracles and input generators.

Nothing here imports coxrank: every expected answer the benchmark checks
is computed by code that shares no logic with the program under test.

Words are tuples of vertex indices; a graph is given by its commutation
masks ``comm`` (bit ``t`` of ``comm[s]`` set iff ``s != t`` commute).
"""

from __future__ import annotations

import heapq
import random
from itertools import combinations

# -- growth series ---------------------------------------------------------


def cliques(comm) -> list[tuple[int, ...]]:
    """Every clique of the commutation graph, the empty one included."""
    out = [()]
    frontier = [()]
    n = len(comm)
    while frontier:
        grown = []
        for c in frontier:
            common = (1 << n) - 1
            for v in c:
                common &= comm[v]
            for v in range((c[-1] + 1) if c else 0, n):
                if (common >> v) & 1:
                    grown.append(c + (v,))
        out.extend(grown)
        frontier = grown
    return out


def _mul(a, b, degree):
    out = [0] * (degree + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(degree + 1 - i):
                out[i + j] += x * b[j]
    return out


def _inverse(a, degree):
    """Power-series inverse of ``a`` (constant term 1), integer exact."""
    out = [0] * (degree + 1)
    out[0] = 1
    for k in range(1, degree + 1):
        out[k] = -sum(a[i] * out[k - i] for i in range(1, k + 1))
    return out


def _signed_sphere_sizes(comm, signs, degree):
    """Coefficients of 1 / sum over cliques of prod(-x_s / (1 + x_s)),
    with x_s = signs[s] * t.  With all signs +1 this is the growth series
    of the right-angled Coxeter group (Davis, ch. 17); the letter-weighted
    form holds because reduced words of one element share letter counts."""
    denom = [0] * (degree + 1)
    for c in cliques(comm):
        term = [1] + [0] * degree
        for v in c:
            e = signs[v]
            # -e t / (1 + e t) = sum_{k >= 1} (-e)^k t^k
            term = _mul(term, [0] + [(-e) ** k for k in range(1, degree + 1)], degree)
        denom = [x + y for x, y in zip(denom, term)]
    return _inverse(denom, degree)


def sphere_sizes(comm, radius: int) -> list[int]:
    """Number of group elements of each reduced length 0..radius."""
    return _signed_sphere_sizes(comm, [1] * len(comm), radius)


def parity_class_counts(comm, radius: int) -> dict[int, int]:
    """Ball elements of length <= radius, counted per parity vector (bit
    s set iff s occurs an odd number of times).  Character sum over the
    sign substitutions x_s -> +-t of the letter-weighted growth series."""
    n = len(comm)
    totals = {}
    for a in range(1 << n):
        signs = [-1 if (a >> s) & 1 else 1 for s in range(n)]
        totals[a] = sum(_signed_sphere_sizes(comm, signs, radius))
    counts = {}
    for v in range(1 << n):
        acc = sum(
            (-1 if bin(a & v).count("1") & 1 else 1) * t for a, t in totals.items()
        )
        counts[v] = acc >> n
    return counts


def labeled_graph_count(max_vertices: int) -> int:
    """Labeled simple graphs on k = 1..max_vertices vertices."""
    return sum(1 << (k * (k - 1) // 2) for k in range(1, max_vertices + 1))


# -- word oracles ----------------------------------------------------------


def parity(word) -> int:
    mask = 0
    for s in word:
        mask ^= 1 << s
    return mask


def reduce_stack(word, comm) -> list[int]:
    """A reduced word for the same element, one left-to-right pass: a new
    letter cancels the last equal letter it can be shuffled back to."""
    out: list[int] = []
    for s in word:
        mask = comm[s]
        i = len(out) - 1
        while i >= 0 and out[i] != s and (mask >> out[i]) & 1:
            i -= 1
        if i >= 0 and out[i] == s:
            del out[i]
        else:
            out.append(s)
    return out


def is_reduced(word, comm) -> bool:
    """No two equal letters with only commuting letters between them."""
    for i, s in enumerate(word):
        mask = comm[s]
        for t in word[i + 1 :]:
            if t == s:
                return False
            if not (mask >> t) & 1:
                break
    return True


def lex_least(word, comm) -> tuple[int, ...]:
    """Least linear extension of the heap of a reduced word: the
    lexicographically least word in its commutation class."""
    preds = [0] * len(word)
    succs: list[list[int]] = [[] for _ in word]
    last = {}
    for j, s in enumerate(word):
        for t, i in last.items():
            if t == s or not (comm[s] >> t) & 1:
                preds[j] += 1
                succs[i].append(j)
        last[s] = j
    ready = [(word[j], j) for j in range(len(word)) if not preds[j]]
    heapq.heapify(ready)
    out = []
    while ready:
        s, j = heapq.heappop(ready)
        out.append(s)
        for k in succs[j]:
            preds[k] -= 1
            if not preds[k]:
                heapq.heappush(ready, (word[k], k))
    return tuple(out)


def normal_form(word, comm) -> tuple[int, ...]:
    """Lexicographically least reduced word of the element."""
    return lex_least(reduce_stack(word, comm), comm)


def is_good_essential(word, comm) -> bool:
    """Full support, and for every s occurring twice or more the wrapped
    block (after the last s, then before the first) holds a letter not
    commuting with s.  Goodness is invariant under commuting swaps, so any
    reduced expression of the element gives the same answer."""
    r = reduce_stack(word, comm)
    n = len(comm)
    if len(set(r)) != n:
        return False
    for s in range(n):
        pos = [i for i, t in enumerate(r) if t == s]
        if len(pos) < 2:
            continue
        wrapped = r[pos[-1] + 1 :] + r[: pos[0]]
        if all((comm[s] >> t) & 1 for t in wrapped):
            return False
    return True


# -- input generators ------------------------------------------------------


def legal_moves(word, comm, rng: random.Random, moves: int) -> list[int]:
    """Apply random legal moves: swap an adjacent commuting pair, delete a
    doubled letter, or insert one.  The result is the same element."""
    w = list(word)
    n = len(comm)
    for _ in range(moves):
        i = rng.randrange(len(w) + 1)
        if i < len(w) - 1 and w[i] == w[i + 1]:
            del w[i : i + 2]
        elif i < len(w) - 1 and (comm[w[i]] >> w[i + 1]) & 1:
            w[i], w[i + 1] = w[i + 1], w[i]
        elif rng.random() < 0.25:
            s = rng.randrange(n)
            w[i:i] = [s, s]
    return w


def one_letter_off(word, n: int, rng: random.Random) -> list[int]:
    """Insert or delete one letter: the parity changes, so the element does."""
    w = list(word)
    if w and rng.random() < 0.5:
        del w[rng.randrange(len(w))]
    else:
        w.insert(rng.randrange(len(w) + 1), rng.randrange(n))
    return w


def make_even(word, n: int, rng: random.Random) -> list[int]:
    """Insert one more copy of every letter of odd count: all-even parity."""
    w = list(word)
    odd = parity(w)
    for s in range(n):
        if (odd >> s) & 1:
            w.insert(rng.randrange(len(w) + 1), s)
    return w


def is_join(comm) -> bool:
    """A graph is a join iff its complement is disconnected."""
    n = len(comm)
    full = (1 << n) - 1
    seen = 1
    frontier = 1
    while frontier:
        grown = 0
        for v in range(n):
            if (frontier >> v) & 1:
                grown |= ~comm[v] & full & ~(1 << v)
        frontier = grown & ~seen
        seen |= grown
    return seen != full


def random_join_free_graph(n: int, edges: int, rng: random.Random):
    """Uniform graph with exactly ``edges`` edges, redrawn until join-free.
    Returns (edge list, commutation masks)."""
    pairs = list(combinations(range(n), 2))
    while True:
        chosen = sorted(rng.sample(pairs, edges))
        comm = [0] * n
        for a, b in chosen:
            comm[a] |= 1 << b
            comm[b] |= 1 << a
        if not is_join(comm):
            return chosen, comm

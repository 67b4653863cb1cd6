"""Desk-scale verification: exhaustive and randomized checks with
machine-readable reports.

The word-problem ground truth here is deliberately independent of the
kernel algorithms: it only ever applies raw legal moves (swap an adjacent
commuting pair, delete a doubled letter, insert a doubled letter), so it
exercises the rewriting theorem directly rather than any normal-form code
path.  The whole capped word universe is partitioned by a union-find
built by prefix recursion (the classes of words ``c w`` are shifted
copies of the classes of ``w``, joined by the moves at the first
position).  A single pair is checked by closing each word under the
non-increasing moves.

Every report is reproducible bit for bit given the same parameters;
randomized checks take an explicit seed and record it.  Empty case sets
never pass: they are reported as FAIL with reason EMPTY_DOMAIN.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_right
from collections import Counter
from itertools import combinations, product
from operator import or_
from types import MappingProxyType
from typing import NamedTuple

from . import kernels
from .cancellator import EXPONENT, _essentialize, _repair
from .certificates import (
    _even_completion,
    _falsify_enc,
    _good_essential_enc,
    bad_mask,
    conjugator_table,
)
from .errors import (
    CoxrankError,
    ParameterRangeError,
    PreconditionClassError,
    RadiusCapError,
)
from .graphs import DefiningGraph, dj_prime, is_join
from .subgroups import SubgroupSpec, index_and_exponent, member_ball, require_graph
from .words import (
    ball_bytes,
    decode_word,
    encode_word,
    format_word,
    mask_labels,
    parity_bits,
    require_radius,
    support_bits,
)

WORD_PROBLEM_MAX_LEN = 6  # closure universe is n^(maxLen+2); keep desk scale
# words of length <= maxLen + 2 the closure table may hold (C5 at maxLen 6
# needs 488,281)
WORD_PROBLEM_MAX_UNIVERSE = 4_000_000
# a parity trial takes time quadratic in maxLen: about 0.1 s on C5 at this cap
PARITY_MAX_LEN = 1000
# a parity trial at maxLen L costs PARITY_TRIAL_UNITS + PARITY_MOVE_UNITS * L
# + (L + 1)^2 units: a fixed part, a part per move (a trial makes up to 2L)
# and the rescans of a word that grows with L.  Fitted to trials timed on C5
# at maxLen 1 to 1000, where a unit costs 0.11-0.13 us
PARITY_TRIAL_UNITS = 40
PARITY_MOVE_UNITS = 20
# units a parity run may take: the defaults (10,000 trials at maxLen 12) fit,
# and the longest run admitted takes about 0.5 s at maxLen 1, 12, 100 or 1000
PARITY_MAX_WORK = 5_000_000
# certified words times conjugators a certificates run may try: each ball
# passes its own cap, but their product does not (C5 at radius 10 and
# conj-radius 4 needs 3.95M, about 1.4 s; at conj-radius 6, 27.6M)
FALSIFIER_MAX_WORK = 5_000_000
# failure records a report keeps; the rest are only counted, as
# ``failuresOmitted``
MAX_FAILURE_RECORDS = 100


class VerificationReport(NamedTuple):
    """A verify run's result; ``params`` is a read-only mapping and
    ``failures`` a tuple, so the report cannot disagree with its verdict.
    ``failures`` holds the first MAX_FAILURE_RECORDS records and
    ``failures_omitted`` counts the records dropped after them."""

    check: str
    params: MappingProxyType
    total_cases: int
    failures: tuple
    elapsed_ms: int
    verdict: str
    seed: int | None = None
    failures_omitted: int = 0

    def __reduce__(self):
        # a read-only mapping cannot be pickled or deep-copied: pass a dict
        return _frozen_report, (self.check, dict(self.params), *self[2:])

    def to_json_dict(self) -> dict:
        """A JSON-ready view that shares nothing with the report: changing
        it, at any depth, leaves the report as it was."""
        d = {
            "check": self.check,
            "params": _json_copy(dict(self.params)),
            "totalCases": self.total_cases,
            "failures": list(map(_json_copy, self.failures)),
            "elapsedMs": self.elapsed_ms,
            "verdict": self.verdict,
        }
        if self.failures_omitted:
            d["failuresOmitted"] = self.failures_omitted
        if self.seed is not None:
            d["seed"] = self.seed
        return d


def _json_copy(x):
    """A copy of nested dicts and lists, down to their scalars: the values
    a report holds."""
    if isinstance(x, dict):
        return {k: _json_copy(v) for k, v in x.items()}
    if isinstance(x, list):
        return list(map(_json_copy, x))
    return x


def _frozen_report(check, params, *rest) -> VerificationReport:
    return VerificationReport(check, MappingProxyType(params), *rest)


def _finish(check, params, failures, total, t0, seed=None) -> VerificationReport:
    if total == 0 and not failures:
        failures = [{"reason": "EMPTY_DOMAIN"}]
    return VerificationReport(
        check=check,
        params=MappingProxyType(params),
        total_cases=total,
        failures=tuple(failures[:MAX_FAILURE_RECORDS]),
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        verdict="PASS" if not failures else "FAIL",
        seed=seed,
        failures_omitted=max(0, len(failures) - MAX_FAILURE_RECORDS),
    )


def _require_irreducible_nonaffine(g: DefiningGraph) -> None:
    if is_join(g) or g.n < 3:
        raise PreconditionClassError(
            "graph must be join-free with at least three vertices "
            "(the infinite irreducible non-affine case)"
        )


def _fmt(g: DefiningGraph, enc: bytes) -> str:
    return format_word(decode_word(g, enc))


def _require_serial(jobs: int) -> None:
    # the ball-based drivers run serially; ``jobs`` stays only because
    # perfbench/workloads.py passes jobs=1 by keyword
    if jobs != 1:
        raise ParameterRangeError(f"jobs must be 1, got {jobs}")


# -- parity invariance ---------------------------------------------------


def _move_counts(word, comm) -> tuple[int, int]:
    """Numbers of swap positions (adjacent distinct commuting letters) and
    cancel positions (adjacent equal letters) of ``word``."""
    pairs = list(zip(word, word[1:]))
    return sum([(comm[x] >> y) & 1 for x, y in pairs]), sum([x == y for x, y in pairs])


def parity_trial_units(max_len: int) -> int:
    """The work units of one parity trial at ``max_len`` (see
    PARITY_TRIAL_UNITS); a run may take PARITY_MAX_WORK of them."""
    return PARITY_TRIAL_UNITS + PARITY_MOVE_UNITS * max_len + (max_len + 1) ** 2


def verify_parity_invariance(
    g: DefiningGraph,
    trials: int = 10_000,
    max_len: int = 12,
    seed: int = 0,
    _corrupt: bool = False,
) -> VerificationReport:
    """Random words, random legal-move sequences; the per-generator letter
    count mod 2 (recounted from scratch after every move) must never
    change.  ``_corrupt`` injects one illegal single-letter deletion per
    trial — a self-test hook that must make the check FAIL.

    Each move is drawn uniformly from the word's swap positions, cancel
    positions and doubled-letter insertions.  The numbers of swap and
    cancel positions are running counts: every legal move updates them
    from the adjacent pairs it creates and removes, and only a trial's
    start and its corrupting deletion count them over the whole word.  A
    word is scanned for the chosen swap or cancel only when one is drawn,
    and the scan stops at it.
    ``maxLen`` is capped at PARITY_MAX_LEN, and trials times the units
    of one trial at PARITY_MAX_WORK."""
    t0 = time.perf_counter()
    if trials < 0:
        raise ParameterRangeError(f"trials must be at least 0, got {trials}")
    if max_len < 1:
        raise ParameterRangeError(f"maxLen must be at least 1, got {max_len}")
    if max_len > PARITY_MAX_LEN:
        raise RadiusCapError(f"maxLen {max_len} exceeds cap {PARITY_MAX_LEN}")
    units = parity_trial_units(max_len)
    work = trials * units
    if work > PARITY_MAX_WORK:
        raise RadiusCapError(
            f"{trials} trials times {units} units per trial at maxLen {max_len} "
            f"is {work}, over the parity work cap {PARITY_MAX_WORK}"
        )
    rng = random.Random(seed)
    n = g.n
    comm = g.comm_masks
    failures = []
    for trial in range(trials):
        word = [rng.randrange(n) for _ in range(rng.randint(0, max_len))]
        expected = parity_bits(word)
        start = bytes(word)
        nmoves = rng.randint(1, 2 * max_len)
        corrupt_at = rng.randrange(nmoves) if _corrupt else -1
        ns, nc = _move_counts(word, comm)
        for m in range(nmoves):
            if m == corrupt_at:
                if word:
                    del word[rng.randrange(len(word))]
                else:
                    word.append(rng.randrange(n))
                ns, nc = _move_counts(word, comm)
            else:
                pick = rng.randrange(ns + nc + (len(word) + 1) * n)
                if pick < ns:
                    # swap at the pick-th swap position (counting from 0):
                    # (prev, x), (y, next) become (prev, y), (x, next), and
                    # (x, y) stays a swap
                    i = -1
                    while pick >= 0:
                        i += 1
                        pick -= (comm[word[i]] >> word[i + 1]) & 1
                    x, y = word[i], word[i + 1]
                    if i:
                        prev = word[i - 1]
                        ns += ((comm[prev] >> y) & 1) - ((comm[prev] >> x) & 1)
                        nc += (prev == y) - (prev == x)
                    if i + 2 < len(word):
                        nxt = word[i + 2]
                        ns += ((comm[x] >> nxt) & 1) - ((comm[y] >> nxt) & 1)
                        nc += (x == nxt) - (y == nxt)
                    word[i], word[i + 1] = y, x
                elif pick < ns + nc:
                    # cancel at the (pick - ns)-th cancel position: (prev, x),
                    # (x, x), (x, next) become (prev, next)
                    i = -1
                    while pick >= ns:
                        i += 1
                        pick -= word[i] == word[i + 1]
                    x = word[i]
                    nc -= 1
                    if i:
                        prev = word[i - 1]
                        ns -= (comm[prev] >> x) & 1
                        nc -= prev == x
                    if i + 2 < len(word):
                        nxt = word[i + 2]
                        ns -= (comm[x] >> nxt) & 1
                        nc -= x == nxt
                        if i:
                            ns += (comm[prev] >> nxt) & 1
                            nc += prev == nxt
                    del word[i : i + 2]
                else:
                    pos, s = divmod(pick - ns - nc, n)
                    # pairs (prev, s), (s, s), (s, next) replace (prev, next);
                    # no self-loops, so a commuting pair is never a cancel
                    nc += 1
                    if pos:
                        prev = word[pos - 1]
                        ns += (comm[prev] >> s) & 1
                        nc += prev == s
                    if pos < len(word):
                        nxt = word[pos]
                        ns += (comm[s] >> nxt) & 1
                        nc += s == nxt
                        if pos:
                            ns -= (comm[prev] >> nxt) & 1
                            nc -= prev == nxt
                    word[pos:pos] = [s, s]
            if parity_bits(word) != expected:
                failures.append(
                    {
                        "trial": trial,
                        "start": _fmt(g, start),
                        "after": _fmt(g, bytes(word)),
                        "moveIndex": m,
                    }
                )
                break
    params = {"trials": trials, "maxLen": max_len, "corrupted": _corrupt}
    return _finish("parity-invariance", params, failures, trials, t0, seed=seed)


# -- word problem vs rewriting closure ------------------------------------


def _closure_partition(n: int, comm, cap: int):
    """Union-find over all words of length <= cap under legal moves.

    Words are ranked shortlex (rank = offsets[len] + base-n digit value);
    swap edges connect commuting transpositions, cancel edges connect a
    word with a doubled letter to the shorter word (which also realizes
    every doubled-letter insertion below the cap).  Returns (roots,
    offsets): ``roots[x]`` is the shortlex-least member of the class of
    rank x.

    Built by prefix recursion on the cap k: a move at position i >= 1 of
    ``c w`` is ``c`` times a move at position i - 1 of ``w``, so the
    classes of the words of length <= k are n shifted copies of those of
    length <= k - 1 (the least member of ``c . class`` is ``c`` times the
    least of the class), joined only by the position-0 moves ``a a w ~ w``
    and ``a b w ~ b a w``.  A root r of length l shifts to
    r + (c + 1) n^l under the first letter c.  Only raw moves are applied;
    no normal-form code is involved.

    A position-0 move pairs two blocks of ranks, and the union-find joins
    each distinct pair of their parent links once rather than each pair of
    ranks: a rank and its parent link are already in one class, so the
    partition is the same.  The smaller root still wins every union and
    the final pass puts each rank on its class's least member, so
    ``roots`` is the same list too.
    """
    pows = [1]
    for _ in range(cap):
        pows.append(pows[-1] * n)
    offsets = [0]
    for length in range(cap + 1):
        offsets.append(offsets[-1] + pows[length])
    # swap partners b > a of each letter a
    above = [[b for b in range(a + 1, n) if (comm[a] >> b) & 1] for a in range(n)]

    roots = [0]
    for k in range(1, cap + 1):
        prev = roots
        roots = [0]
        for length in range(1, k + 1):
            block = prev[offsets[length - 1] : offsets[length]]
            # the block holds few distinct roots: shift each once, so the
            # list keeps one int object per class rather than one per word
            step = {r: pows[bisect_right(offsets, r) - 1] for r in set(block)}
            for c in range(n):
                shifted = {r: r + (c + 1) * p for r, p in step.items()}
                roots += map(shifted.__getitem__, block)
        for length in range(2, k + 1):
            base = offsets[length]
            lo = pows[length - 2]  # weight of position 1
            hi = lo * n  # weight of position 0
            # blocks of lo consecutive ranks, paired rank by rank:
            # a a w ~ w, and a b w ~ b a w for commuting a < b
            blocks = [(base + a * (hi + lo), offsets[length - 2]) for a in range(n)]
            blocks += [
                (base + a * hi + b * lo, base + b * hi + a * lo)
                for a in range(n)
                for b in above[a]
            ]
            for x0, y0 in blocks:
                # one union per distinct pair of parent links (see above)
                for x, y in set(zip(roots[x0 : x0 + lo], roots[y0 : y0 + lo])):
                    # union with path halving; the smaller root wins
                    while roots[x] != x:
                        roots[x] = x = roots[roots[x]]
                    while roots[y] != y:
                        roots[y] = y = roots[roots[y]]
                    if x < y:
                        roots[y] = x
                    elif y < x:
                        roots[x] = y
        # every link points down (roots[x] <= x), so one increasing pass
        # leaves each rank on its class's least member
        for x in range(len(roots)):
            roots[x] = roots[roots[x]]
    return roots, offsets


def closure_universe(n: int, cap: int) -> int:
    """The number of words of length <= ``cap`` over ``n`` generators: the
    size of the closure table ``verify_word_problem`` builds."""
    return sum(n**k for k in range(cap + 1))


def verify_word_problem(g: DefiningGraph, max_len: int = WORD_PROBLEM_MAX_LEN) -> VerificationReport:
    """Every word of length <= max_len must have as normal form the
    shortlex-least word of its rewriting-closure class (closure cap
    max_len + 2).

    This is the documented "lexicographically least" contract, and it
    implies that normal-form equality matches closure equality for every
    pair: a function of the class that picks one of its members tells
    distinct classes apart.  So ``totalCases`` still counts the pairs,
    although each word is looked up once.  Ranks are walked in shortlex
    order, so a class's least member is met, and stored, before any other
    member; a mismatch records the word, its normal form and that least
    member."""
    t0 = time.perf_counter()
    if max_len < 0:
        raise ParameterRangeError(f"maxLen must be at least 0, got {max_len}")
    if max_len > WORD_PROBLEM_MAX_LEN:
        raise RadiusCapError(
            f"maxLen {max_len} exceeds cap {WORD_PROBLEM_MAX_LEN}"
        )
    n = g.n
    comm = g.comm_masks
    cap = max_len + 2
    universe = closure_universe(n, cap)
    if universe > WORD_PROBLEM_MAX_UNIVERSE:
        raise RadiusCapError(
            f"closure universe of {universe} words (length <= {cap} over "
            f"{n} generators) exceeds cap {WORD_PROBLEM_MAX_UNIVERSE}"
        )
    roots, offsets = _closure_partition(n, comm, cap)

    normal_form = kernels.normal_form  # looked up per call: tests swap it
    failures = []
    least: dict[int, bytes] = {}
    sphere_sizes = [0] * (max_len + 1)
    # rank x is the x-th word in shortlex order
    for x, w in enumerate(
        bytes(d) for k in range(max_len + 1) for d in product(range(n), repeat=k)
    ):
        root = roots[x]
        if root == x:
            least[x] = w
            sphere_sizes[len(w)] += 1
        nf = normal_form(w, comm)
        if nf != least[root]:
            failures.append(
                {
                    "word": _fmt(g, w),
                    "normalForm": _fmt(g, nf),
                    "classLeast": _fmt(g, least[root]),
                }
            )
    words = offsets[max_len + 1]
    params = {
        "maxLen": max_len,
        "closureCap": cap,
        "words": words,
        "universe": universe,
        "sphereSizes": sphere_sizes,
    }
    return _finish(
        "word-problem", params, failures, words * (words - 1) // 2, t0
    )


def _min_layer(g: DefiningGraph, enc: bytes) -> set[bytes]:
    comm = g.comm_masks
    seen = {enc}
    stack = [enc]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            x, y = w[i], w[i + 1]
            if x == y:
                v = w[:i] + w[i + 2 :]
            elif (comm[x] >> y) & 1:
                v = w[:i] + bytes((y, x)) + w[i + 2 :]
            else:
                continue
            if v not in seen:
                seen.add(v)
                stack.append(v)
    least = min(len(w) for w in seen)
    return {w for w in seen if len(w) == least}


def rewriting_closure_equal(g: DefiningGraph, w1, w2) -> bool:
    """Ground-truth equality for a single pair: the closure of each word
    under non-increasing legal moves; the words are equal in the group iff
    the minimal-length layers (all reduced expressions) meet."""
    a = _min_layer(g, encode_word(g, w1))
    b = _min_layer(g, encode_word(g, w2))
    return not a.isdisjoint(b)


# -- covering checks -------------------------------------------------------


def verify_covering(g: DefiningGraph, radius: int = 8, jobs: int = 1) -> VerificationReport:
    """Every ball element w must become all-odd (hence certified
    essential) after left-multiplying by its even-parity completion, and
    every multiplier used must be a product of distinct generators.

    The multiplier alpha is the one ``find_even_completion`` returns.  It
    and its check depend only on the word's parity mask, which the ball
    carries, so both are worked out once per parity class.  Only when
    some class fails is the ball walked again, to list its words in ball
    order.  Both checks hold by construction, since alpha lists the
    word's even-parity generators once each: this driver can FAIL only on
    an empty domain or a fault in ``_even_completion``, and does not test
    the paper's claim through an independent route."""
    t0 = time.perf_counter()
    _require_serial(jobs)
    _require_irreducible_nonaffine(g)
    ball = ball_bytes(g, radius)
    n = g.n
    full = (1 << n) - 1
    hist: Counter = Counter()
    failing = {}  # parity mask -> alpha, for the classes that fail
    for pm, count in Counter(ball.parities).items():
        alpha = _even_completion(pm, n)
        distinct = len(set(alpha)) == len(alpha)
        if parity_bits(alpha) ^ pm != full or not distinct:
            failing[pm] = alpha
        # histogram keys must be injective; "e" could name a generator
        hist[_fmt(g, alpha) if alpha else "(identity)"] += count
    failures = [
        {"word": _fmt(g, w), "alpha": _fmt(g, failing[pm])}
        for w, pm in zip(ball, ball.parities)
        if pm in failing
    ] if failing else []
    params = {
        "radius": radius,
        "alphaHistogram": {k: hist[k] for k in sorted(hist)},
        "distinctMultipliers": len(hist),
    }
    return _finish("covering", params, failures, len(ball), t0)


def verify_subgroup_covering(
    g: DefiningGraph,
    spec: SubgroupSpec,
    radius: int = 8,
    jobs: int = 1,
) -> VerificationReport:
    """Every subgroup member in the ball must essentialize — via repair
    multipliers staying inside the subgroup — into a full-support,
    s-good-for-all-s member; the repair loop itself allows at most one
    support repair per missing generator and one goodness repair per bad
    generator.  The distinct total multipliers form the empirical
    covering set.  A member whose pipeline raises is a failure recorded
    as ``"{code}: {message}"``, and counts toward no multiplier or step.

    The members come from ``member_ball``, which filters the ball as it is
    built: the outer sphere's non-members are never normalized, and at
    radius 10 on the pentagon that sphere holds 62% of the ball."""
    t0 = time.perf_counter()
    _require_serial(jobs)
    _require_irreducible_nonaffine(g)
    require_graph(spec, g)
    index, exponent = index_and_exponent(spec)
    inside = member_ball(spec, radius)
    repairs: dict = {}
    failures = []
    multipliers: set[bytes] = set()
    max_steps = 0
    for w in inside:
        try:
            _, total, steps = _essentialize(g, spec, w, repairs)
        except CoxrankError as exc:
            failures.append({"word": _fmt(g, w), "reason": f"{exc.code}: {exc}"})
            continue
        multipliers.add(total)
        max_steps = max(max_steps, len(steps))
    params = {
        "radius": radius,
        "subgroupIndex": index,
        "quotientExponent": exponent,
        "pipelineExponent": EXPONENT,
        "members": len(inside),
        "distinctTotalMultipliers": len(multipliers),
        "maxTraceSteps": max_steps,
    }
    return _finish("subgroup-covering", params, failures, len(inside), t0)


def _bad_set_classes(
    g: DefiningGraph, spec: SubgroupSpec | None, radius: int
) -> dict[int, list[bytes]]:
    """Full-support ball elements (subgroup members only, when a subgroup
    is given) grouped by bad-set mask, each class in ball order."""
    full = (1 << g.n) - 1
    groups: dict[int, list[bytes]] = {}
    for w in ball_bytes(g, radius) if spec is None else member_ball(spec, radius):
        if support_bits(w) == full:
            groups.setdefault(bad_mask(g, w), []).append(w)
    return groups


def verify_cancellator_uniformity(
    g: DefiningGraph,
    spec: SubgroupSpec | None = None,
    radius: int = 6,
) -> VerificationReport:
    """Group full-support ball elements by bad set; synthesize the repair
    multiplier for the first representative of each class and re-apply it
    verbatim to every other member.  With a subgroup, only its members are
    grouped.  A FAIL records that the single multiplier is not uniform over
    its bad-set class at this radius — an empirical finding, not a build
    error."""
    t0 = time.perf_counter()
    _require_irreducible_nonaffine(g)
    if spec is not None:
        require_graph(spec, g)
    comm = g.comm_masks
    full = (1 << g.n) - 1
    groups = _bad_set_classes(g, spec, radius)
    repairs: dict = {}
    failures = []
    per_class = {}
    total = 0
    for bm in sorted(groups):
        words_in_class = groups[bm]
        label = " ".join(mask_labels(g, bm)) or "(empty)"
        _, mult, _ = _repair(g, (words_in_class[0], full, bm), repairs, goodness=True)
        bad_words = []
        for w in words_in_class[1:]:
            total += 1
            if not _good_essential_enc(kernels.reduce_word(mult + w, comm), comm):
                bad_words.append(w)
        failures.extend(
            {"badSet": label, "word": _fmt(g, w)} for w in bad_words
        )
        per_class[label] = {
            "size": len(words_in_class),
            "multiplier": _fmt(g, mult),
            "verdict": "FAIL" if bad_words else "PASS",
        }
    params = {"radius": radius, "exponent": EXPONENT, "perBadSet": per_class}
    return _finish("cancellator-uniformity", params, failures, total, t0)


# -- structural checks ------------------------------------------------------


def _edge_subset_masks(k: int, pairs) -> list[tuple[int, ...]]:
    """Commutation masks of the k-vertex graph on each subset of ``pairs``,
    indexed by the subset's bits (bit t: ``pairs[t]``)."""
    table = [(0,) * k]
    for i, j in pairs:
        edge = [0] * k
        edge[i] = 1 << j
        edge[j] = 1 << i
        table += [tuple(map(or_, t, edge)) for t in table]
    return table


def verify_join_lemma(max_vertices: int = 5) -> VerificationReport:
    """Exhaustively over all labeled graphs with 1..max_vertices vertices:
    a graph is a join exactly when its doubled graph is.

    Graphs are visited by ascending edge bits; each graph's masks are the
    union of two table entries, one for the lower half of the vertex pairs
    and one for the upper half."""
    t0 = time.perf_counter()
    if not 1 <= max_vertices <= 6:
        raise ParameterRangeError(
            f"maxVertices must be between 1 and 6, got {max_vertices}"
        )
    labels = tuple("abcdef")
    failures = []
    total = 0
    for k in range(1, max_vertices + 1):
        verts = labels[:k]
        index = {v: i for i, v in enumerate(verts)}
        pairs = list(combinations(range(k), 2))
        h = len(pairs) // 2
        low = _edge_subset_masks(k, pairs[:h])
        high = _edge_subset_masks(k, pairs[h:])
        below = (1 << h) - 1
        for bits in range(1 << len(pairs)):
            masks = tuple(map(or_, low[bits & below], high[bits >> h]))
            graph = DefiningGraph._from_masks(verts, masks, index)
            if is_join(graph) != is_join(dj_prime(graph)):
                failures.append({"graph": graph.to_text()})
            total += 1
    params = {"maxVertices": max_vertices}
    return _finish("join-lemma", params, failures, total, t0)


def verify_essential_certificates(
    g: DefiningGraph,
    radius: int = 6,
    conj_radius: int = 3,
    extra_certified=(),
    jobs: int = 1,
) -> VerificationReport:
    """Every ball element certified by either criterion must survive the
    bounded falsifier.  ``extra_certified`` injects words treated as
    certified regardless — the self-test hook for the harness (an
    uncertified word there must produce a recorded FAIL).

    The conjugator ball is indexed once, by suffix and first letter; for
    each certified word the conjugate by every conjugator that is some
    element's suffix is built from its suffix's conjugate by one letter,
    in ball order, up to the first hit in ball order.  Leaf conjugators
    (the last sphere, in an infinite group) are decided by the count of
    their first letter in the suffix's conjugate, which says exactly
    whether that letter survives.

    Each inverse pair of certified elements is falsified once.  The
    conjugate ``u w^-1 u^-1`` is the inverse of ``u w u^-1``, and an
    element and its inverse have the same support (a reduced word read
    backwards is reduced and has the same letters), so ``w`` and ``w^-1``
    get the same first hit: the same conjugator and the same parabolic.
    Results are kept by normal form; ball words are normal forms
    already, and an extra word is looked up by its normal form.  The
    evidence is unchanged: every conjugator up to ``conj_radius``, first
    hit in shortlex order, for every certified word.

    Unknown extra labels raise first, then an out-of-range ``radius`` or
    ``conj_radius``, before any ball is built.  A run whose certified
    words times conjugators exceed FALSIFIER_MAX_WORK raises
    ``RadiusCapError`` before any falsifying."""
    t0 = time.perf_counter()
    _require_serial(jobs)
    # encoded first, so an unknown label raises before any enumeration
    extra = [(encode_word(g, word), "assumed") for word in extra_certified]
    require_radius(radius)
    require_radius(conj_radius)
    full = (1 << g.n) - 1
    certified: list[tuple[bytes, str]] = []
    ball = ball_bytes(g, radius)
    for w, pm in zip(ball, ball.parities):
        if pm == full:
            certified.append((w, "all-odd"))
        elif support_bits(w) == full and bad_mask(g, w) == 0:
            certified.append((w, "good-for-all"))
    certified += extra
    conj_ball = ball_bytes(g, conj_radius)
    work = len(certified) * len(conj_ball)
    if work > FALSIFIER_MAX_WORK:
        raise RadiusCapError(
            f"{len(certified)} certified words times {len(conj_ball)} conjugators "
            f"is {work}, over the falsifier's work cap {FALSIFIER_MAX_WORK}"
        )
    table = conjugator_table(conj_ball)
    comm = g.comm_masks
    hits: dict[bytes, tuple[bytes, int] | None] = {}  # normal form -> first hit
    failures = []
    for w, why in certified:
        key = kernels.normal_form(w, comm) if why == "assumed" else w
        if key not in hits:
            hits[key] = hits[kernels.normal_form(key[::-1], comm)] = _falsify_enc(g, w, table)
        hit = hits[key]
        if hit is not None:
            u, supp = hit
            failures.append(
                {
                    "word": _fmt(g, w),
                    "certificate": why,
                    "conjugator": _fmt(g, u),
                    "parabolic": sorted(mask_labels(g, supp)),
                }
            )
    params = {
        "radius": radius,
        "conjRadius": conj_radius,
        "certified": len(certified),
    }
    return _finish("essential-certificates", params, failures, len(certified), t0)

"""Desk-scale verification: exhaustive and randomized checks with
machine-readable reports.

The word-problem ground truth here is deliberately independent of the
kernel algorithms: it only ever applies raw legal moves (swap an adjacent
commuting pair, delete a doubled letter, insert a doubled letter) and
takes breadth-first closures, so it exercises the rewriting theorem
directly rather than any normal-form code path.

Every report is reproducible bit for bit given the same parameters;
randomized checks take an explicit seed and record it.  Empty case sets
never pass: they are reported as FAIL with reason EMPTY_DOMAIN.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from . import kernels
from .cancellator import _essentialize, _repair
from .certificates import (
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
from .subgroups import SubgroupSpec, index_and_exponent, member_mask
from .words import (
    ball_bytes,
    decode_word,
    encode_word,
    format_word,
    parity_bits,
    support_bits,
)

WORD_PROBLEM_MAX_LEN = 6  # closure universe is n^(maxLen+2); keep desk scale
# words of length <= maxLen + 2 the closure table may hold (C5 at maxLen 6
# needs 488,281)
WORD_PROBLEM_MAX_UNIVERSE = 4_000_000


@dataclass
class VerificationReport:
    check: str
    params: dict
    total_cases: int
    failures: list
    elapsed_ms: int
    verdict: str
    seed: int | None = None

    def to_json_dict(self) -> dict:
        d = {
            "check": self.check,
            "params": self.params,
            "totalCases": self.total_cases,
            "failures": self.failures,
            "elapsedMs": self.elapsed_ms,
            "verdict": self.verdict,
        }
        if self.seed is not None:
            d["seed"] = self.seed
        return d


def _finish(check, params, failures, total, t0, seed=None) -> VerificationReport:
    if total == 0 and not failures:
        failures = [{"reason": "EMPTY_DOMAIN"}]
    return VerificationReport(
        check=check,
        params=params,
        total_cases=total,
        failures=failures,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        verdict="PASS" if not failures else "FAIL",
        seed=seed,
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
    trial — a self-test hook that must make the check FAIL."""
    t0 = time.perf_counter()
    if trials < 0:
        raise ParameterRangeError(f"trials must be at least 0, got {trials}")
    if max_len < 1:
        raise ParameterRangeError(f"maxLen must be at least 1, got {max_len}")
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
        for m in range(nmoves):
            if m == corrupt_at:
                if word:
                    del word[rng.randrange(len(word))]
                else:
                    word.append(rng.randrange(n))
            else:
                swaps = []
                cancels = []
                for i, x, y in zip(range(len(word)), word, word[1:]):
                    if x == y:
                        cancels.append(i)
                    elif (comm[x] >> y) & 1:
                        swaps.append(i)
                pick = rng.randrange(len(swaps) + len(cancels) + (len(word) + 1) * n)
                if pick < len(swaps):
                    i = swaps[pick]
                    word[i], word[i + 1] = word[i + 1], word[i]
                elif pick < len(swaps) + len(cancels):
                    i = cancels[pick - len(swaps)]
                    del word[i : i + 2]
                else:
                    pos, s = divmod(pick - len(swaps) - len(cancels), n)
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
    every doubled-letter insertion below the cap).  Returns (parent,
    offsets, pows, find); class roots are the shortlex-least members.

    Edges are visited per (length, position i, move pair): the words of
    length L holding letters a, b at positions i, i+1 form n^i blocks of
    n^(L-2-i) consecutive ranks, one block per prefix p, and every partner
    is an offset of its word's rank, so no word is ever decoded.
    """
    pows = [1]
    for _ in range(cap):
        pows.append(pows[-1] * n)
    offsets = [0]
    for length in range(cap + 1):
        offsets.append(offsets[-1] + pows[length])
    parent = list(range(offsets[cap + 1]))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        # find(x) and find(y) inlined; the smaller root wins
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x < y:
            parent[y] = x
        elif y < x:
            parent[x] = y

    # swap partners b > a of each letter a
    above = [[b for b in range(a + 1, n) if (comm[a] >> b) & 1] for a in range(n)]
    for length in range(2, cap + 1):
        base = offsets[length]
        shorter = offsets[length - 2]
        for i in range(length - 1):
            lo = pows[length - 2 - i]  # weight of position i + 1
            hi = lo * n  # weight of position i
            for p in range(pows[i]):
                start = base + p * hi * n
                for a in range(n):
                    # a a at i: the partner drops both letters
                    x = start + a * (hi + lo)
                    y = shorter + p * lo
                    for s in range(lo):
                        union(x + s, y + s)
                    # a b at i, a < b commuting: the partner holds b a
                    for b in above[a]:
                        x = start + a * hi + b * lo
                        d = (b - a) * (hi - lo)
                        for r in range(x, x + lo):
                            union(r, r + d)
    return parent, offsets, pows, find


def verify_word_problem(g: DefiningGraph, max_len: int = WORD_PROBLEM_MAX_LEN) -> VerificationReport:
    """Normal-form equality must match rewriting-closure equality for all
    word pairs of length <= max_len (closure cap max_len + 2).

    Checked partition-wise, which covers every pair: within one closure
    class all normal forms must coincide, and distinct classes must have
    distinct normal forms."""
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
    universe = sum(n**k for k in range(cap + 1))
    if universe > WORD_PROBLEM_MAX_UNIVERSE:
        raise RadiusCapError(
            f"closure universe of {universe} words (length <= {cap} over "
            f"{n} generators) exceeds cap {WORD_PROBLEM_MAX_UNIVERSE}"
        )
    parent, offsets, pows, find = _closure_partition(n, comm, cap)

    failures = []
    by_root: dict[int, tuple[bytes, bytes]] = {}
    by_nf: dict[bytes, tuple[int, bytes]] = {}
    sphere_sizes = [0] * (max_len + 1)
    for length in range(0, max_len + 1):
        base = offsets[length]
        digits = [0] * length
        for r in range(pows[length]):
            w = bytes(digits)
            root = find(base + r)
            nf = kernels.normal_form(w, comm)
            seen = by_root.get(root)
            if seen is None:
                by_root[root] = (w, nf)
                sphere_sizes[length] += 1
            elif seen[1] != nf:
                failures.append(
                    {
                        "left": _fmt(g, seen[0]),
                        "right": _fmt(g, w),
                        "kind": "oracle-equal-but-normal-forms-differ",
                    }
                )
            prev = by_nf.get(nf)
            if prev is None:
                by_nf[nf] = (root, w)
            elif prev[0] != root:
                failures.append(
                    {
                        "left": _fmt(g, prev[1]),
                        "right": _fmt(g, w),
                        "kind": "normal-forms-equal-but-oracle-differs",
                    }
                )
            k = length - 1
            while k >= 0:
                digits[k] += 1
                if digits[k] == n:
                    digits[k] = 0
                    k -= 1
                else:
                    break
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
    """Ground-truth equality for a single pair: breadth-first closure of
    each word under non-increasing legal moves; the words are equal in the
    group iff the minimal-length layers (all reduced expressions) meet."""
    a = _min_layer(g, encode_word(g, w1))
    b = _min_layer(g, encode_word(g, w2))
    return not a.isdisjoint(b)


# -- covering checks -------------------------------------------------------


def verify_covering(g: DefiningGraph, radius: int = 8, jobs: int = 1) -> VerificationReport:
    """Every ball element w must become all-odd (hence certified
    essential) after left-multiplying by its even-parity completion, and
    every multiplier used must be a product of distinct generators.

    The multiplier alpha and its check depend only on the word's parity
    mask, so both are worked out once per parity class; failing words are
    then listed in ball order."""
    t0 = time.perf_counter()
    _require_serial(jobs)
    _require_irreducible_nonaffine(g)
    ball = ball_bytes(g, radius)
    n = g.n
    full = (1 << n) - 1
    parities = list(map(parity_bits, ball))
    hist: Counter = Counter()
    failing = {}  # parity mask -> alpha, for the classes that fail
    for pm, count in Counter(parities).items():
        alpha = bytes(i for i in range(n) if not (pm >> i) & 1)
        distinct = len(set(alpha)) == len(alpha)
        if parity_bits(alpha) ^ pm != full or not distinct:
            failing[pm] = alpha
        # histogram keys must be injective; "e" could name a generator
        hist[_fmt(g, alpha) if alpha else "(identity)"] += count
    failures = [
        {"word": _fmt(g, w), "alpha": _fmt(g, failing[pm])}
        for w, pm in zip(ball, parities)
        if pm in failing
    ]
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
    s-good-for-all-s member, using at most one support repair per missing
    generator and one goodness repair per bad generator.  The distinct
    total multipliers form the empirical covering set."""
    t0 = time.perf_counter()
    _require_serial(jobs)
    _require_irreducible_nonaffine(g)
    index, exponent = index_and_exponent(spec)
    nexp = max(2, exponent)
    members = [w for w in ball_bytes(g, radius) if member_mask(spec, parity_bits(w))]
    failures = []
    multipliers: set[bytes] = set()
    max_steps = 0
    for w in members:
        # w is a ball element, already reduced: its letters are its support
        missing0 = g.n - bin(support_bits(w)).count("1")
        try:
            w1, w2, total, steps1, steps2 = _essentialize(g, w, nexp)
        except CoxrankError as exc:
            failures.append({"word": _fmt(g, w), "reason": f"{exc.code}: {exc}"})
            continue
        problems = []
        if not _good_essential_enc(w2, g.comm_masks):
            problems.append("final word is not s-good for all s")
        if not member_mask(spec, parity_bits(w2)):
            problems.append("final word left the subgroup")
        if any(not member_mask(spec, parity_bits(m)) for _, m, _ in steps1 + steps2):
            problems.append("a multiplier left the subgroup")
        if len(steps1) > missing0:
            problems.append("more support repairs than missing generators")
        if len(steps2) > bin(bad_mask(g, w1)).count("1"):
            problems.append("more goodness repairs than bad generators")
        if problems:
            failures.append({"word": _fmt(g, w), "reason": "; ".join(problems)})
        multipliers.add(total)
        max_steps = max(max_steps, len(steps1) + len(steps2))
    params = {
        "radius": radius,
        "subgroupIndex": index,
        "quotientExponent": exponent,
        "pipelineExponent": nexp,
        "members": len(members),
        "distinctTotalMultipliers": len(multipliers),
        "maxTraceSteps": max_steps,
    }
    return _finish("subgroup-covering", params, failures, len(members), t0)


def _bad_set_classes(
    g: DefiningGraph, spec: SubgroupSpec | None, radius: int
) -> dict[int, list[bytes]]:
    """Full-support ball elements (subgroup members only, when a subgroup
    is given) grouped by bad-set mask, each class in ball order."""
    full = (1 << g.n) - 1
    groups: dict[int, list[bytes]] = {}
    for w in ball_bytes(g, radius):
        if support_bits(w) == full and (
            spec is None or member_mask(spec, parity_bits(w))
        ):
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
    grouped and the multiplier exponent is the subgroup's.  A FAIL records
    that the single multiplier is not uniform over its bad-set class at
    this radius — an empirical finding, not a build error."""
    t0 = time.perf_counter()
    _require_irreducible_nonaffine(g)
    nexp = 2 if spec is None else max(2, index_and_exponent(spec)[1])
    comm = g.comm_masks
    groups = _bad_set_classes(g, spec, radius)
    failures = []
    per_class = {}
    total = 0
    for bm in sorted(groups):
        words_in_class = groups[bm]
        label = (
            " ".join(v for i, v in enumerate(g.vertices) if (bm >> i) & 1)
            or "(empty)"
        )
        _, mult, _ = _repair(g, words_in_class[0], nexp, goodness=True)
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
    params = {"radius": radius, "exponent": nexp, "perBadSet": per_class}
    return _finish("cancellator-uniformity", params, failures, total, t0)


# -- structural checks ------------------------------------------------------


def verify_join_lemma(max_vertices: int = 5) -> VerificationReport:
    """Exhaustively over all labeled graphs with 1..max_vertices vertices:
    a graph is a join exactly when its doubled graph is."""
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
        for bits in range(1 << len(pairs)):
            masks = [0] * k
            rest = bits
            while rest:
                low = rest & -rest
                rest ^= low
                i, j = pairs[low.bit_length() - 1]
                masks[i] |= 1 << j
                masks[j] |= 1 << i
            graph = DefiningGraph._from_masks(verts, tuple(masks), index)
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

    The conjugator ball is indexed once (prefix, last letter, inverse);
    for each certified word every conjugate is then built from its
    prefix's conjugate by one letter.  The evidence is unchanged: every
    conjugator up to ``conj_radius``, first hit in shortlex order."""
    t0 = time.perf_counter()
    _require_serial(jobs)
    full = (1 << g.n) - 1
    certified: list[tuple[bytes, str]] = []
    for w in ball_bytes(g, radius):
        if parity_bits(w) == full:
            certified.append((w, "all-odd"))
        elif support_bits(w) == full and bad_mask(g, w) == 0:
            certified.append((w, "good-for-all"))
    for word in extra_certified:
        certified.append((encode_word(g, word), "assumed"))
    table = conjugator_table(g, ball_bytes(g, conj_radius))
    failures = []
    for w, why in certified:
        hit = _falsify_enc(g, w, table)
        if hit is not None:
            u, supp = hit
            failures.append(
                {
                    "word": _fmt(g, w),
                    "certificate": why,
                    "conjugator": _fmt(g, u),
                    "parabolic": sorted(
                        g.vertices[i] for i in range(g.n) if (supp >> i) & 1
                    ),
                }
            )
    params = {
        "radius": radius,
        "conjRadius": conj_radius,
        "certified": len(certified),
    }
    return _finish("essential-certificates", params, failures, len(certified), t0)

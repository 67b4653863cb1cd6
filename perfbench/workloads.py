"""The four workloads, their inputs, and the checks on every output.

Each workload has three steps.  ``inputs`` makes the benchmark's own
inputs from the seed (untimed).  ``load`` turns them into coxrank objects;
it is the timed part of set-up.  ``ops`` returns the library calls of one
pass of the workload body, each with a check of its result against the
oracles in ``oracle.py``.  Calls look coxrank functions up at call time,
so a traced run sees its wrappers.

The seed draws the word-queries graph and words and the parity trials of
exhaustive.  enumerate and certify run on the fixed pentagon graph
``graphs/c5.txt``, so for them the seed changes no input.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import oracle

ROOT = Path(__file__).resolve().parent.parent
GRAPHS = ROOT / "graphs"

# word-queries: 12 generators, 26 of the 66 pairs commute (density ~0.4)
WQ_VERTICES = "abcdefghijkl"
WQ_EDGES = 26
WQ_ROUNDS = 200
WQ_LENGTHS = (50, 300)


def report_payload(report) -> dict:
    """A verify report without its timing: the byte-reproducible part."""
    d = report.to_json_dict()
    d.pop("elapsedMs")
    return d


@dataclass
class Op:
    """One library call of the workload body and the check of its result."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    payload: Callable[[object], object] = report_payload


@dataclass
class Workload:
    query: str  # what one latency sample is
    inputs: Callable[[int, Path], dict]
    load: Callable[[object, dict], dict]
    ops: Callable[[object, dict, dict], list[Op]]


def _read_graph(path: Path) -> tuple[str, list[int]]:
    """File text and commutation masks, parsed by the benchmark."""
    text = path.read_text(encoding="utf-8")
    labels: tuple[str, ...] = ()
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("vertices:"):
            labels = tuple(line[len("vertices:"):].split())
        elif line.startswith("edge:"):
            edges.append(line[len("edge:"):].split())
    index = {v: i for i, v in enumerate(labels)}
    comm = [0] * len(labels)
    for a, b in edges:
        comm[index[a]] |= 1 << index[b]
        comm[index[b]] |= 1 << index[a]
    return text, comm


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _expect_report(verdict: str = "PASS", total: int | None = None, **params):
    """Check a verify report's verdict, totalCases and named params."""

    def check(report) -> list[str]:
        problems = []
        if report.verdict != verdict:
            problems.append(f"verdict {report.verdict}, expected {verdict}")
        if total is not None and report.total_cases != total:
            problems.append(f"totalCases {report.total_cases}, expected {total}")
        for key, want in params.items():
            got = report.params.get(key)
            if got != want:
                problems.append(f"{key} {got!r}, expected {want!r}")
        return problems

    return check


# -- C5 workloads ------------------------------------------------------------


def _c5_inputs(seed: int, out: Path) -> dict:
    c5_text, comm = _read_graph(GRAPHS / "c5.txt")
    p8_text = (GRAPHS / "parity8.sub").read_text(encoding="utf-8")
    basis = [
        sum(1 << i for i, c in enumerate(line.split(":", 1)[1].strip()) if c == "1")
        for line in p8_text.splitlines()
        if line.strip().startswith("basis:")
    ]
    return {
        "seed": seed,
        "comm": comm,
        "parity8_text": p8_text,
        "parity8_basis": basis,
        "digests": {"graphs/c5.txt": _digest(c5_text), "graphs/parity8.sub": _digest(p8_text)},
    }


def _c5_load(cx, inp: dict) -> dict:
    g = cx.load_graph(GRAPHS / "c5.txt")
    return {
        "c5": g,
        "commutator": cx.commutator_subgroup(g),
        "parity8": cx.parse_subgroup_file(inp["parity8_text"], graph=g),
    }


def _subgroup_vectors(basis) -> set[int]:
    """Every parity vector in the span of the basis."""
    vectors = {0}
    for b in basis:
        vectors |= {v ^ b for v in vectors}
    return vectors


def _enumerate_ops(cx, inp: dict, obj: dict) -> list[Op]:
    comm = inp["comm"]
    classes = oracle.parity_class_counts(comm, 10)
    g = obj["c5"]

    def members(basis):
        return sum(classes[v] for v in _subgroup_vectors(basis))

    comm_members = members([])
    p8_members = members(inp["parity8_basis"])
    return [
        Op("verify_covering r=10", lambda: cx.verify_covering(g, 10, jobs=1),
           _expect_report(total=sum(oracle.sphere_sizes(comm, 10)))),
        Op("verify_subgroup_covering r=10 commutator",
           lambda: cx.verify_subgroup_covering(g, obj["commutator"], 10, jobs=1),
           _expect_report(total=comm_members, members=comm_members)),
        Op("verify_subgroup_covering r=10 parity8",
           lambda: cx.verify_subgroup_covering(g, obj["parity8"], 10, jobs=1),
           _expect_report(total=p8_members, members=p8_members)),
        Op("verify_cancellator_uniformity r=8",
           lambda: cx.verify_cancellator_uniformity(g, None, 8), _expect_report()),
    ]


def _certify_ops(cx, inp: dict, obj: dict) -> list[Op]:
    comm = inp["comm"]
    all_odd = oracle.parity_class_counts(comm, 8)[(1 << len(comm)) - 1]

    def check(report) -> list[str]:
        problems = _expect_report(total=report.params["certified"])(report)
        if report.params["certified"] < all_odd:
            problems.append(
                f"certified {report.params['certified']} < {all_odd} all-odd elements"
            )
        return problems

    g = obj["c5"]
    return [
        Op("verify_essential_certificates r=8 conj=4",
           lambda: cx.verify_essential_certificates(g, 8, 4, jobs=1), check),
    ]


def _exhaustive_ops(cx, inp: dict, obj: dict) -> list[Op]:
    comm = inp["comm"]
    g = obj["c5"]
    seed = inp["seed"]
    n = len(comm)
    return [
        Op("verify_word_problem max-len=6", lambda: cx.verify_word_problem(g, 6),
           _expect_report(sphereSizes=oracle.sphere_sizes(comm, 6),
                          words=sum(n**k for k in range(7)))),
        Op("verify_parity_invariance trials=10000",
           lambda: cx.verify_parity_invariance(g, 10_000, seed=seed),
           _expect_report(total=10_000)),
        Op("verify_join_lemma max-vertices=6", lambda: cx.verify_join_lemma(6),
           _expect_report(total=oracle.labeled_graph_count(6))),
    ]


# -- word-queries ------------------------------------------------------------


def _wq_inputs(seed: int, out: Path) -> dict:
    rng = random.Random(seed)
    n = len(WQ_VERTICES)
    edges, comm = oracle.random_join_free_graph(n, WQ_EDGES, rng)
    text = "vertices: " + " ".join(WQ_VERTICES) + "\n" + "".join(
        f"edge: {WQ_VERTICES[a]} {WQ_VERTICES[b]}\n" for a, b in edges
    )
    path = out / f"word-queries-{seed}.txt"
    path.write_text(text, encoding="utf-8")

    def word():
        return [rng.randrange(n) for _ in range(rng.randint(*WQ_LENGTHS))]

    rounds = []
    for i in range(WQ_ROUNDS):
        w = word()
        other = oracle.legal_moves(w, comm, rng, len(w))
        if i % 2:
            other = oracle.one_letter_off(other, n, rng)
        rounds.append(
            {
                "nf": word(),
                "equal": (w, other, i % 2 == 0),
                "reduce": word(),
                "support": word(),
                "good": word(),
                "even": oracle.make_even(word(), n, rng),
            }
        )
    return {
        "seed": seed,
        "comm": comm,
        "path": path,
        "rounds": rounds,
        "digests": {path.name: _digest(text)},
    }


def _wq_load(cx, inp: dict) -> dict:
    g = cx.load_graph(inp["path"])
    return {"g": g, "commutator": cx.commutator_subgroup(g)}


def _labels(word) -> tuple[str, ...]:
    return tuple(WQ_VERTICES[s] for s in word)


def _indices(word) -> list[int]:
    return [WQ_VERTICES.index(x) for x in word]


def _wq_ops(cx, inp: dict, obj: dict) -> list[Op]:
    comm = inp["comm"]
    g, spec = obj["g"], obj["commutator"]

    def nf(word):
        return oracle.normal_form(word, comm)

    def expect(want):
        """Check against an expected value, computed when the check runs."""
        def check(got):
            value = want()
            return [] if got == value else [f"got {got!r}, expected {value!r}"]

        return check

    def reduced_check(word):
        def check(got):
            r = _indices(got)
            if not oracle.is_reduced(r, comm):
                return ["output is not reduced"]
            return [] if nf(r) == nf(word) else ["output is another element"]

        return check

    def essentialized_check(word):
        def check(got):
            w2, trace = got
            out = _indices(w2)
            problems = []
            if oracle.parity(out):
                problems.append("output left the commutator subgroup")
            if not oracle.is_good_essential(out, comm):
                problems.append("output is not s-good for all s")
            if nf(_indices(trace.total_multiplier) + word) != nf(out):
                problems.append("output is not multiplier times input")
            if any(oracle.parity(_indices(st.multiplier)) for st in trace.steps):
                problems.append("a multiplier left the commutator subgroup")
            return problems

        return check

    ops = []
    for rnd in inp["rounds"]:
        w, other, same = rnd["equal"]
        a, b = _labels(w), _labels(other)
        words = {k: _labels(rnd[k]) for k in ("nf", "reduce", "support", "good", "even")}
        ops += [
            Op("normal_form", lambda x=words["nf"]: cx.normal_form(g, x),
               expect(lambda x=rnd["nf"]: _labels(nf(x))), tuple),
            Op("equal", lambda a=a, b=b: cx.equal(g, a, b), expect(lambda s=same: s), bool),
            Op("reduce_word", lambda x=words["reduce"]: cx.reduce_word(g, x),
               reduced_check(rnd["reduce"]), tuple),
            Op("support", lambda x=words["support"]: cx.support(g, x),
               expect(lambda x=rnd["support"]: frozenset(_labels(oracle.reduce_stack(x, comm)))),
               lambda s: tuple(sorted(s))),
            Op("is_good_essential", lambda x=words["good"]: cx.is_good_essential(g, x),
               expect(lambda x=rnd["good"]: oracle.is_good_essential(x, comm)),
               bool),
            Op("essentialize", lambda x=words["even"]: cx.essentialize(g, x, spec),
               essentialized_check(rnd["even"]),
               lambda r: (r[0], r[1].to_json_dict())),
        ]
    return ops


WORKLOADS = {
    "enumerate": Workload("one verify call", _c5_inputs, _c5_load, _enumerate_ops),
    "certify": Workload("one verify call", _c5_inputs, _c5_load, _certify_ops),
    "word-queries": Workload("one library query", _wq_inputs, _wq_load, _wq_ops),
    "exhaustive": Workload("one verify call", _c5_inputs, _c5_load, _exhaustive_ops),
}


# -- guards ------------------------------------------------------------------

# e b d c . a . c d b e: a conjugate of the generator a with full support,
# so only the falsifier (not a support check) can tell it is not essential
PLANTED = tuple("ebdcacdbe")


def guards(cx, seed: int) -> list[tuple[str, list[str]]]:
    """Checks that a path doing less work cannot pass: (name, problems)."""
    g = cx.load_graph(GRAPHS / "c5.txt")
    report = cx.verify_essential_certificates(g, 5, 4, extra_certified=[PLANTED])
    planted = []
    fails = report.failures
    if report.verdict != "FAIL":
        planted.append("planted non-essential word passed")
    elif len(fails) != 1 or fails[0].get("certificate") != "assumed" or not fails[0].get(
        "conjugator"
    ):
        planted.append(f"unexpected failures {fails!r}")
    corrupt = cx.verify_parity_invariance(g, 200, seed=seed, _corrupt=True)
    return [
        ("planted_word_fails", planted),
        ("corrupt_parity_fails",
         [] if corrupt.verdict == "FAIL" else ["corrupted parity check passed"]),
    ]

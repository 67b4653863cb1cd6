"""Command-line entry point.

One verb per operation family: classify, reduce, nf, equal, parity,
essential, completion, cancellator, dj, subgroup, verify.  Results go to
stdout as JSON (``--format json``, stable key order, schemaVersion 1) or
as plain text; diagnostics go to stderr.  Exit codes: 0 success (verify:
PASS), 1 verify FAIL, 2 usage or precondition errors.

Every handler ``run(g, args)`` is a plain computation: it returns its JSON
payload and its text lines, and a verify handler also its exit code (1 on
FAIL).  ``main`` alone writes to stdout and picks the exit code 0, 1 or 2.

Each verify verb is one row of ``_VERIFY_VERBS``: its name, help, driver
and options.  A verify option left out is not passed to the driver, so
the defaults live in ``verify.py`` alone, and a new verify verb is one
more row.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from . import verify as verify_mod
from .cancellator import essentialize
from .certificates import (
    falsify_essential,
    find_even_completion,
    goodness_report,
    is_all_odd_essential,
)
from .errors import CoxrankError
from .graphs import dj_double_prime, dj_prime, load_graph
from .kernels import BACKEND
from .ranks import rank_raag, rank_racg
from .subgroups import basis_strings, index_and_exponent, member, resolve_subgroup
from .words import (
    equal,
    format_word,
    normal_form,
    parity_vector,
    parse_word,
    reduce_word,
)


def _add_common(sub, run, graph=True, word=False):
    """Options every subcommand shares; ``run(g, args)`` is its handler,
    called with the loaded ``--graph`` (None when the subcommand has none)."""
    sub.set_defaults(run=run)
    if graph:
        sub.add_argument("--graph", required=True, help="defining graph file")
    if word:
        sub.add_argument("--word", required=True, help="space-separated generators; 'e' = empty")
    sub.add_argument(
        "--format", choices=("json", "text"), default="text", help="output format"
    )


# An integer verify option has no default of its own: left out, it is not
# passed, and the driver's default applies.
_INT = {"type": int, "default": argparse.SUPPRESS}

# One row per verify verb: name, help, driver, and its options in help order.
_VERIFY_VERBS = (
    ("parity", "parity invariance under random legal moves",
     verify_mod.verify_parity_invariance,
     {"--trials": _INT, "--max-len": _INT, "--seed": _INT}),
    ("wordproblem", "normal forms vs rewriting closure",
     verify_mod.verify_word_problem, {"--max-len": _INT}),
    ("covering", "even-completion covering of the ball",
     verify_mod.verify_covering, {"--radius": _INT}),
    ("subgroup-covering", "covering inside a subgroup",
     verify_mod.verify_subgroup_covering,
     {"--subgroup": {"default": "commutator"}, "--radius": _INT}),
    ("uniformity", "is one multiplier uniform per bad set?",
     verify_mod.verify_cancellator_uniformity,
     {"--subgroup": {"help": "group only the members of this subgroup",
                     "default": argparse.SUPPRESS},
      "--radius": _INT}),
    ("joinlemma", "join(g) <=> join(doubled g), exhaustively",
     verify_mod.verify_join_lemma, {"--max-vertices": _INT}),
    ("certificates", "certified elements survive the falsifier",
     verify_mod.verify_essential_certificates, {"--radius": _INT, "--conj-radius": _INT}),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxrank",
        description="Rank classification and word combinatorics for "
        "right-angled Coxeter and Artin groups.",
    )
    parser.add_argument(
        "--version", action="version", version=f"coxrank {__version__} ({BACKEND} kernel)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="algebraic rank from the defining graph")
    _add_common(p, _cmd_classify)
    p.add_argument("--kind", choices=("racg", "raag"), default="racg")

    p = sub.add_parser("reduce", help="reduced word for the same element")
    _add_common(p, _word_unary(reduce_word), word=True)

    p = sub.add_parser("nf", help="lexicographically least reduced word")
    _add_common(p, _word_unary(normal_form), word=True)

    p = sub.add_parser("equal", help="do two words represent the same element?")
    _add_common(p, _cmd_equal)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = sub.add_parser("parity", help="per-generator letter counts mod 2")
    _add_common(p, _cmd_parity, word=True)

    p = sub.add_parser(
        "essential", help="essentiality certificates plus the bounded falsifier"
    )
    _add_common(p, _cmd_essential, word=True)
    p.add_argument("--conj-radius", type=int, default=3)

    p = sub.add_parser(
        "completion", help="even-parity completion multiplier (element of the covering set)"
    )
    _add_common(p, _word_unary(find_even_completion), word=True)

    p = sub.add_parser(
        "cancellator", help="essentialize: repair support, then goodness"
    )
    _add_common(p, _cmd_cancellator, word=True)
    p.add_argument(
        "--subgroup",
        help="'commutator', 'whole', or a subgroup spec file; multipliers stay inside",
    )

    p = sub.add_parser("dj", help="doubled graphs")
    _add_common(p, _cmd_dj)
    p.add_argument("--variant", choices=("prime", "doubleprime"), required=True)

    p = sub.add_parser("subgroup", help="parity-defined subgroups")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    for name, run, need_word in (
        ("member", _cmd_subgroup_member, True),
        ("index", _cmd_subgroup_index, False),
    ):
        q = ssub.add_parser(name)
        _add_common(q, run, word=need_word)
        q.add_argument("--subgroup", default="commutator")

    p = sub.add_parser("verify", help="exhaustive/randomized verification runs")
    vsub = p.add_subparsers(dest="subcommand", required=True)
    for name, help_, driver, flags in _VERIFY_VERBS:
        q = vsub.add_parser(name, help=help_)
        dests = [flag[2:].replace("-", "_") for flag in flags]
        # joinlemma enumerates its graphs and reads none
        _add_common(q, _verify(driver, dests), graph=name != "joinlemma")
        for flag, options in flags.items():
            q.add_argument(flag, **options)

    return parser


def _cmd_classify(g, args):
    report = rank_racg(g) if args.kind == "racg" else rank_raag(g)
    return report.to_json_dict(), [
        f"group: {report.group_kind} on {len(g.vertices)} generators",
        *(
            f"factor {{{' '.join(f.vertex_set)}}}: {f.kind} rank {f.rank} ({f.note})"
            for f in report.factors
        ),
        f"total rank: {report.total_rank}",
        f"higher-rank lattice commensurable: {report.higher_rank_lattice_commensurable}",
    ]


def _word_unary(op):
    """Handler of ``op(g, word)`` for the word given by --word."""

    def run(g, args):
        word = parse_word(g, args.word)
        result = format_word(op(g, word))
        return {"word": format_word(word), "result": result}, [result]

    return run


def _cmd_equal(g, args):
    result = equal(g, parse_word(g, args.left), parse_word(g, args.right))
    payload = {"left": args.left, "right": args.right, "equal": result}
    return payload, ["true" if result else "false"]


def _cmd_parity(g, args):
    word = parse_word(g, args.word)
    vec = parity_vector(g, word)
    return {"word": format_word(word), "parity": vec}, [
        " ".join(f"{k}:{v}" for k, v in vec.items())
    ]


def _cmd_essential(g, args):
    word = parse_word(g, args.word)
    reduced = reduce_word(g, word)
    all_odd = is_all_odd_essential(g, word)
    report = goodness_report(g, reduced)
    good = report.full_support and not report.bad_set
    hit = falsify_essential(g, word, args.conj_radius)
    found = None if hit is None else {
        "conjugator": format_word(hit.conjugator),
        "parabolic": sorted(hit.parabolic),
    }
    payload = {
        "word": format_word(word),
        "reduced": format_word(reduced),
        "allOddEssential": all_odd,
        "goodForAllEssential": good,
        "goodness": report.to_json_dict(),
        "falsifier": {"conjRadius": args.conj_radius, "counterexample": found},
    }
    outcome = "NO_COUNTEREXAMPLE" if found is None else (
        f"COUNTEREXAMPLE u={found['conjugator']} J={{{' '.join(found['parabolic'])}}}"
    )
    return payload, [
        f"all-odd certificate: {all_odd}",
        f"good-for-all-s certificate: {good}",
        f"falsifier (radius {args.conj_radius}): {outcome}",
    ]


def _cmd_cancellator(g, args):
    word = parse_word(g, args.word)
    spec = None if args.subgroup is None else resolve_subgroup(g, args.subgroup)
    final, trace = essentialize(g, word, spec)
    payload = {
        "word": format_word(word),
        "final": format_word(final),
        "trace": trace.to_json_dict(),
    }
    return payload, [
        f"final: {format_word(final)}",
        f"total multiplier: {format_word(trace.total_multiplier)}",
        f"steps: {len(trace.steps)} (exponent {trace.exponent})",
    ]


def _cmd_dj(g, args):
    doubled = dj_prime(g) if args.variant == "prime" else dj_double_prime(g)
    note = (
        "the Artin group of the base graph and the Coxeter group of the 'prime' "
        "double embed in the Coxeter group of the 'doubleprime' double with index "
        "2^|vertices| (recorded as metadata, not verified here)"
    )
    payload = {
        "variant": args.variant,
        "vertices": list(doubled.vertices),
        "edges": [[a, b] for a, b in doubled.edge_labels()],
        "note": note,
    }
    return payload, doubled.to_text().splitlines()


def _cmd_subgroup_member(g, args):
    spec = resolve_subgroup(g, args.subgroup)
    index, _ = index_and_exponent(spec)
    word = parse_word(g, args.word)
    ok = member(spec, word)
    payload = {"word": format_word(word), "member": ok, "index": index}
    return payload, ["true" if ok else "false"]


def _cmd_subgroup_index(g, args):
    spec = resolve_subgroup(g, args.subgroup)
    index, exponent = index_and_exponent(spec)
    payload = {
        "index": index,
        "exponent": exponent,
        "dimension": len(spec.basis),
        "basis": basis_strings(spec),
    }
    return payload, [f"index: {index}", f"exponent: {exponent}"]


def _verify(driver, dests):
    """Handler for a verify run: calls ``driver`` with the graph (when the
    verb reads one) and with each of the options ``dests`` that was given;
    ``subgroup`` is passed resolved, as ``spec``.  The exit code is 0 on
    PASS, 1 on FAIL."""

    def run(g, args):
        options = {d: getattr(args, d) for d in dests if hasattr(args, d)}
        if "subgroup" in options:
            options["spec"] = resolve_subgroup(g, options.pop("subgroup"))
        report = driver(**options) if g is None else driver(g, **options)
        lines = [
            f"check: {report.check}",
            f"total cases: {report.total_cases}",
            f"failures: {len(report.failures)}",
            f"elapsed: {report.elapsed_ms} ms",
            f"verdict: {report.verdict}",
        ]
        return report.to_json_dict(), lines, 0 if report.verdict == "PASS" else 1

    return run


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        g = load_graph(args.graph) if "graph" in args else None
        payload, lines, *status = args.run(g, args)
        if args.format == "json":
            lines = [json.dumps({"schemaVersion": 1, **payload}, indent=2, sort_keys=True)]
        for line in lines:
            print(line)
        return status[0] if status else 0
    except (CoxrankError, OSError, ValueError) as exc:
        code = (
            exc.code if isinstance(exc, CoxrankError)
            else "NOT_UTF8" if isinstance(exc, UnicodeDecodeError)
            else "FILE_UNREADABLE" if isinstance(exc, OSError)
            else "INVALID_ARGUMENT"  # e.g. a path holding a NUL byte
        )
        print(f"error [{code}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

One verb per operation family: classify, reduce, nf, equal, parity,
essential, completion, cancellator, dj, subgroup, verify.  Results go to
stdout as JSON (``--format json``, stable key order, schemaVersion 1) or
as plain text; diagnostics go to stderr.  Exit codes: 0 success (verify:
PASS), 1 verify FAIL, 2 usage or precondition errors.

Every handler ``run(g, args)`` is a plain computation: it returns its JSON
payload and its text lines, and a verify handler also its exit code (1 on
FAIL).  ``main`` alone writes to stdout and picks the exit code 0, 1 or 2.

Every verb is one row of ``_VERBS``: its name, help, handler and
options.  A group row (``subgroup``, ``verify``) holds its subverbs' rows
in place of a handler, and one loop, ``_add_verbs``, builds all 20
subcommand parsers from the table, so a new verb is one more row.  A
verify option left out is not passed to the driver, so the defaults live
in ``verify.py`` alone.
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


def _verify(driver, options):
    """Handler and options of a verify row: the handler calls ``driver``
    with the graph (when the verb reads one) and with each of ``options``
    that was given; ``subgroup`` is passed resolved, as ``spec``.  The exit
    code is 0 on PASS, 1 on FAIL."""
    dests = [flag[2:].replace("-", "_") for flag, spec in options.items()
             if spec is not None]

    def run(g, args):
        given = {d: getattr(args, d) for d in dests if hasattr(args, d)}
        if "subgroup" in given:
            given["spec"] = resolve_subgroup(g, given.pop("subgroup"))
        report = driver(**given) if g is None else driver(g, **given)
        lines = [
            f"check: {report.check}",
            f"total cases: {report.total_cases}",
            f"failures: {len(report.failures) + report.failures_omitted}",
            f"elapsed: {report.elapsed_ms} ms",
            f"verdict: {report.verdict}",
        ]
        return report.to_json_dict(), lines, 0 if report.verdict == "PASS" else 1

    return run, options


# The shared options, in help order.  A row's options are merged over
# these, so a key given again keeps its place here: _WORD switches --word
# on and None switches --graph off.
_COMMON = {
    "--graph": {"required": True, "help": "defining graph file"},
    "--word": None,
    "--format": {"choices": ("json", "text"), "default": "text", "help": "output format"},
}
_WORD = {"--word": {"required": True, "help": "space-separated generators; 'e' = empty"}}

# An integer verify option has no default of its own: left out, it is not
# passed, and the driver's default applies.
_INT = {"type": int, "default": argparse.SUPPRESS}

# One row per verb: name, help, handler and its options in help order.  A
# group row holds its subverbs' rows in place of a handler, and its
# options are every subverb's.
_VERBS = (
    ("classify", "algebraic rank from the defining graph", _cmd_classify,
     {"--kind": {"choices": ("racg", "raag"), "default": "racg"}}),
    ("reduce", "reduced word for the same element", _word_unary(reduce_word), _WORD),
    ("nf", "lexicographically least reduced word", _word_unary(normal_form), _WORD),
    ("equal", "do two words represent the same element?", _cmd_equal,
     {"--left": {"required": True}, "--right": {"required": True}}),
    ("parity", "per-generator letter counts mod 2", _cmd_parity, _WORD),
    ("essential", "essentiality certificates plus the bounded falsifier", _cmd_essential,
     {**_WORD, "--conj-radius": {"type": int, "default": 3}}),
    ("completion", "even-parity completion multiplier (element of the covering set)",
     _word_unary(find_even_completion), _WORD),
    ("cancellator", "essentialize: repair support, then goodness", _cmd_cancellator,
     {**_WORD, "--subgroup": {
         "help": "'commutator', 'whole', or a subgroup spec file; multipliers stay inside"}}),
    ("dj", "doubled graphs", _cmd_dj,
     {"--variant": {"choices": ("prime", "doubleprime"), "required": True}}),
    ("subgroup", "parity-defined subgroups", (
        ("member", None, _cmd_subgroup_member, _WORD),
        ("index", None, _cmd_subgroup_index, {}),
    ), {"--subgroup": {"default": "commutator"}}),
    ("verify", "exhaustive/randomized verification runs", (
        ("parity", "parity invariance under random legal moves",
         *_verify(verify_mod.verify_parity_invariance,
                  {"--trials": _INT, "--max-len": _INT, "--seed": _INT})),
        ("wordproblem", "normal forms vs rewriting closure",
         *_verify(verify_mod.verify_word_problem, {"--max-len": _INT})),
        ("covering", "even-completion covering of the ball",
         *_verify(verify_mod.verify_covering, {"--radius": _INT})),
        ("subgroup-covering", "covering inside a subgroup",
         *_verify(verify_mod.verify_subgroup_covering,
                  {"--subgroup": {"default": "commutator"}, "--radius": _INT})),
        ("uniformity", "is one multiplier uniform per bad set?",
         *_verify(verify_mod.verify_cancellator_uniformity,
                  {"--subgroup": {"help": "group only the members of this subgroup",
                                  "default": argparse.SUPPRESS},
                   "--radius": _INT})),
        # joinlemma enumerates its graphs and reads none
        ("joinlemma", "join(g) <=> join(doubled g), exhaustively",
         *_verify(verify_mod.verify_join_lemma, {"--graph": None, "--max-vertices": _INT})),
        ("certificates", "certified elements survive the falsifier",
         *_verify(verify_mod.verify_essential_certificates,
                  {"--radius": _INT, "--conj-radius": _INT})),
    ), {}),
)


def _add_verbs(parser, dest, rows, common=_COMMON):
    """One subparser per row, its handler set as ``run``; a group row's
    subverbs go one level down, with the group's options merged in.  A
    row without help passes none: argparse lists a subverb given
    ``help=None`` in its group's help screen."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, help_, run, options in rows:
        p = sub.add_parser(name, **({"help": help_} if help_ else {}))
        options = {**common, **options}
        if isinstance(run, tuple):
            _add_verbs(p, "subcommand", run, options)
            continue
        p.set_defaults(run=run)
        for flag, spec in options.items():
            if spec is not None:
                p.add_argument(flag, **spec)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxrank",
        description="Rank classification and word combinatorics for "
        "right-angled Coxeter and Artin groups.",
    )
    parser.add_argument(
        "--version", action="version", version=f"coxrank {__version__} ({BACKEND} kernel)"
    )
    _add_verbs(parser, "command", _VERBS)
    return parser


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

"""Command-line entry point.

One verb per operation family: classify, reduce, nf, equal, parity,
essential, completion, cancellator, dj, subgroup, verify.  Results go to
stdout as JSON (``--format json``, stable key order, schemaVersion 1) or
as plain text; diagnostics go to stderr.  Exit codes: 0 success (verify:
PASS), 1 verify FAIL, 2 usage or precondition errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import verify as verify_mod
from .cancellator import essentialize
from .certificates import (
    falsify_essential,
    find_even_completion,
    goodness_report,
    is_all_odd_essential,
    is_good_essential,
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


def _emit(payload: dict, fmt: str, text_lines=None) -> None:
    if fmt == "json":
        print(json.dumps({"schemaVersion": 1, **payload}, indent=2, sort_keys=True))
    elif text_lines is not None:
        for line in text_lines:
            print(line)
    else:
        for line in _default_text(payload):
            print(line)


def _default_text(payload: dict, indent: int = 0):
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            yield f"{pad}{key}:"
            yield from _default_text(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            yield f"{pad}{key}:"
            for item in value:
                yield from _default_text(item, indent + 1)
                yield f"{pad}  -"
        else:
            if isinstance(value, list):
                value = " ".join(str(v) for v in value)
            yield f"{pad}{key}: {value}"


def _add_common(sub, graph=True, word=False):
    if graph:
        sub.add_argument("--graph", required=True, help="defining graph file")
    if word:
        sub.add_argument("--word", required=True, help="space-separated generators; 'e' = empty")
    sub.add_argument(
        "--format", choices=("json", "text"), default="text", help="output format"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxrank",
        description="Rank classification and word combinatorics for "
        "right-angled Coxeter and Artin groups.",
    )
    parser.add_argument(
        "--version", action="version", version=f"coxrank 0.1.0 ({BACKEND} kernel)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="algebraic rank from the defining graph")
    _add_common(p)
    p.add_argument("--kind", choices=("racg", "raag"), default="racg")

    p = sub.add_parser("reduce", help="reduced word for the same element")
    _add_common(p, word=True)

    p = sub.add_parser("nf", help="lexicographically least reduced word")
    _add_common(p, word=True)

    p = sub.add_parser("equal", help="do two words represent the same element?")
    _add_common(p)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = sub.add_parser("parity", help="per-generator letter counts mod 2")
    _add_common(p, word=True)

    p = sub.add_parser(
        "essential", help="essentiality certificates plus the bounded falsifier"
    )
    _add_common(p, word=True)
    p.add_argument("--conj-radius", type=int, default=3)

    p = sub.add_parser(
        "completion", help="even-parity completion multiplier (element of the covering set)"
    )
    _add_common(p, word=True)

    p = sub.add_parser(
        "cancellator", help="essentialize: repair support, then goodness"
    )
    _add_common(p, word=True)
    p.add_argument(
        "--subgroup",
        help="'commutator', 'whole', or a subgroup spec file; multipliers stay inside",
    )

    p = sub.add_parser("dj", help="doubled graphs")
    _add_common(p)
    p.add_argument("--variant", choices=("prime", "doubleprime"), required=True)

    p = sub.add_parser("subgroup", help="parity-defined subgroups")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    for name, need_word in (("member", True), ("index", False)):
        q = ssub.add_parser(name)
        _add_common(q, word=need_word)
        q.add_argument("--subgroup", default="commutator")

    p = sub.add_parser("verify", help="exhaustive/randomized verification runs")
    vsub = p.add_subparsers(dest="subcommand", required=True)

    q = vsub.add_parser("parity", help="parity invariance under random legal moves")
    _add_common(q)
    q.add_argument("--trials", type=int, default=10_000)
    q.add_argument("--max-len", type=int, default=12)
    q.add_argument("--seed", type=int, default=0)

    q = vsub.add_parser("wordproblem", help="normal forms vs rewriting closure")
    _add_common(q)
    q.add_argument("--max-len", type=int, default=verify_mod.WORD_PROBLEM_MAX_LEN)

    q = vsub.add_parser("covering", help="even-completion covering of the ball")
    _add_common(q)
    q.add_argument("--radius", type=int, default=8)

    q = vsub.add_parser("subgroup-covering", help="covering inside a subgroup")
    _add_common(q)
    q.add_argument("--subgroup", default="commutator")
    q.add_argument("--radius", type=int, default=8)

    q = vsub.add_parser("uniformity", help="is one multiplier uniform per bad set?")
    _add_common(q)
    q.add_argument("--subgroup", help="group only the members of this subgroup")
    q.add_argument("--radius", type=int, default=6)

    q = vsub.add_parser("joinlemma", help="join(g) <=> join(doubled g), exhaustively")
    _add_common(q, graph=False)
    q.add_argument("--max-vertices", type=int, default=5)

    q = vsub.add_parser("certificates", help="certified elements survive the falsifier")
    _add_common(q)
    q.add_argument("--radius", type=int, default=6)
    q.add_argument("--conj-radius", type=int, default=3)

    return parser


def _cmd_classify(args) -> int:
    g = load_graph(args.graph)
    report = rank_racg(g) if args.kind == "racg" else rank_raag(g)
    _emit(
        report.to_json_dict(),
        args.format,
        text_lines=[
            f"group: {report.group_kind} on {len(g.vertices)} generators",
            *(
                f"factor {{{' '.join(f.vertex_set)}}}: {f.kind} rank {f.rank} ({f.note})"
                for f in report.factors
            ),
            f"total rank: {report.total_rank}",
            f"higher-rank lattice commensurable: {report.higher_rank_lattice_commensurable}",
        ],
    )
    return 0


def _cmd_word_unary(args, op) -> int:
    g = load_graph(args.graph)
    word = parse_word(g, args.word)
    result = op(g, word)
    _emit(
        {"word": format_word(word), "result": format_word(result)},
        args.format,
        text_lines=[format_word(result)],
    )
    return 0


def _cmd_equal(args) -> int:
    g = load_graph(args.graph)
    result = equal(g, parse_word(g, args.left), parse_word(g, args.right))
    _emit(
        {"left": args.left, "right": args.right, "equal": result},
        args.format,
        text_lines=["true" if result else "false"],
    )
    return 0


def _cmd_parity(args) -> int:
    g = load_graph(args.graph)
    word = parse_word(g, args.word)
    vec = parity_vector(g, word)
    _emit(
        {"word": format_word(word), "parity": vec},
        args.format,
        text_lines=[" ".join(f"{k}:{v}" for k, v in vec.items())],
    )
    return 0


def _cmd_essential(args) -> int:
    g = load_graph(args.graph)
    word = parse_word(g, args.word)
    reduced = reduce_word(g, word)
    all_odd = is_all_odd_essential(g, word)
    good = is_good_essential(g, word)
    payload = {
        "word": format_word(word),
        "reduced": format_word(reduced),
        "allOddEssential": all_odd,
        "goodForAllEssential": good,
        "goodness": goodness_report(g, reduced).to_json_dict(),
        "falsifier": {"conjRadius": args.conj_radius},
    }
    hit = falsify_essential(g, word, args.conj_radius)
    payload["falsifier"]["counterexample"] = (
        None
        if hit is None
        else {
            "conjugator": format_word(hit.conjugator),
            "parabolic": sorted(hit.parabolic),
        }
    )
    lines = [
        f"all-odd certificate: {all_odd}",
        f"good-for-all-s certificate: {good}",
        "falsifier (radius %d): %s"
        % (
            args.conj_radius,
            "NO_COUNTEREXAMPLE"
            if hit is None
            else f"COUNTEREXAMPLE u={format_word(hit.conjugator)} "
            f"J={{{' '.join(sorted(hit.parabolic))}}}",
        ),
    ]
    _emit(payload, args.format, text_lines=lines)
    return 0


def _cmd_cancellator(args) -> int:
    g = load_graph(args.graph)
    word = parse_word(g, args.word)
    spec = resolve_subgroup(g, args.subgroup) if args.subgroup else None
    final, trace = essentialize(g, word, spec)
    payload = {
        "word": format_word(word),
        "final": format_word(final),
        "trace": trace.to_json_dict(),
    }
    _emit(
        payload,
        args.format,
        text_lines=[
            f"final: {format_word(final)}",
            f"total multiplier: {format_word(trace.total_multiplier)}",
            f"steps: {len(trace.steps)} (exponent {trace.exponent})",
        ],
    )
    return 0


def _cmd_dj(args) -> int:
    g = load_graph(args.graph)
    doubled = dj_prime(g) if args.variant == "prime" else dj_double_prime(g)
    note = (
        "the Artin group of the base graph and the Coxeter group of the 'prime' "
        "double embed in the Coxeter group of the 'doubleprime' double with index "
        "2^|vertices| (recorded as metadata, not verified here)"
    )
    if args.format == "json":
        _emit(
            {
                "variant": args.variant,
                "vertices": list(doubled.vertices),
                "edges": [[a, b] for a, b in doubled.edge_labels()],
                "note": note,
            },
            "json",
        )
    else:
        sys.stdout.write(doubled.to_text())
    return 0


def _cmd_subgroup(args) -> int:
    g = load_graph(args.graph)
    spec = resolve_subgroup(g, args.subgroup)
    index, exponent = index_and_exponent(spec)
    if args.subcommand == "member":
        word = parse_word(g, args.word)
        ok = member(spec, word)
        _emit(
            {"word": format_word(word), "member": ok, "index": index},
            args.format,
            text_lines=["true" if ok else "false"],
        )
    else:
        _emit(
            {
                "index": index,
                "exponent": exponent,
                "dimension": len(spec.basis),
                "basis": basis_strings(spec),
            },
            args.format,
            text_lines=[f"index: {index}", f"exponent: {exponent}"],
        )
    return 0


def _cmd_verify(args) -> int:
    sub = args.subcommand
    if sub == "joinlemma":
        report = verify_mod.verify_join_lemma(args.max_vertices)
    else:
        g = load_graph(args.graph)
        if sub == "parity":
            report = verify_mod.verify_parity_invariance(
                g, trials=args.trials, max_len=args.max_len, seed=args.seed
            )
        elif sub == "wordproblem":
            report = verify_mod.verify_word_problem(g, max_len=args.max_len)
        elif sub == "covering":
            report = verify_mod.verify_covering(g, radius=args.radius)
        elif sub == "subgroup-covering":
            spec = resolve_subgroup(g, args.subgroup)
            report = verify_mod.verify_subgroup_covering(g, spec, radius=args.radius)
        elif sub == "uniformity":
            spec = resolve_subgroup(g, args.subgroup) if args.subgroup else None
            report = verify_mod.verify_cancellator_uniformity(
                g, spec, radius=args.radius
            )
        else:
            report = verify_mod.verify_essential_certificates(
                g, radius=args.radius, conj_radius=args.conj_radius
            )
    _emit(
        report.to_json_dict(),
        args.format,
        text_lines=[
            f"check: {report.check}",
            f"total cases: {report.total_cases}",
            f"failures: {len(report.failures)}",
            f"elapsed: {report.elapsed_ms} ms",
            f"verdict: {report.verdict}",
        ],
    )
    return 0 if report.verdict == "PASS" else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "reduce":
            return _cmd_word_unary(args, reduce_word)
        if args.command == "nf":
            return _cmd_word_unary(args, normal_form)
        if args.command == "equal":
            return _cmd_equal(args)
        if args.command == "parity":
            return _cmd_parity(args)
        if args.command == "essential":
            return _cmd_essential(args)
        if args.command == "completion":
            return _cmd_word_unary(args, find_even_completion)
        if args.command == "cancellator":
            return _cmd_cancellator(args)
        if args.command == "dj":
            return _cmd_dj(args)
        if args.command == "subgroup":
            return _cmd_subgroup(args)
        return _cmd_verify(args)
    except CoxrankError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

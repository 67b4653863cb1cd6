"""Span tracing around coxrank's layer boundaries, from outside the program.

A traced run replaces each layer function with a wrapper under every name
it is looked up by: modules import helpers by name (``verify`` holds its
own ``ball_bytes``), so the wrapper goes into each ``coxrank`` module whose
attribute is the original function.  The kernel backends are skipped, so
calls inside a kernel stay inside the kernel's span.

Spans live in flat arrays (name, parent, run id, start, end and two work
counts per span) and are written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict


def _first_len(args) -> int:
    return len(args[0])


# (module, function, span name, count taken from the arguments, count taken
# from the result).  The counts feed the per-layer work metrics.
LAYERS = [
    ("coxrank.kernels", "is_reduced", "kernels.is_reduced", _first_len, None),
    ("coxrank.kernels", "reduce_word", "kernels.reduce_word", _first_len, len),
    ("coxrank.kernels", "normal_form", "kernels.normal_form", _first_len, len),
    ("coxrank.words", "ball_bytes", "words.ball_bytes", None, len),
    ("coxrank.certificates", "_falsify_enc", "certificates.falsify", None,
     lambda hit: hit is not None),
    ("coxrank.certificates", "bad_mask", "certificates.bad_mask", None, None),
    ("coxrank.certificates", "is_good_essential", "certificates.is_good_essential",
     None, None),
    ("coxrank.cancellator", "fix_missing", "cancellator.fix_missing", None,
     lambda r: len(r[1].steps)),
    ("coxrank.cancellator", "make_good", "cancellator.make_good", None,
     lambda r: len(r[1].steps)),
    ("coxrank.cancellator", "essentialize", "cancellator.essentialize", None, None),
    ("coxrank.subgroups", "member", "subgroups.member", None, None),
    ("coxrank.graphs", "load_graph", "graphs.load_graph", None, None),
    ("coxrank.graphs", "is_join", "graphs.is_join", None, None),
    ("coxrank.graphs", "dj_prime", "graphs.dj_prime", None, None),
    ("coxrank.verify", "_closure_partition", "verify.closure_partition", None,
     lambda r: len(r[0])),
]
# the seven verify drivers; a report's totalCases is the work count
CHECKS = {
    "covering": "verify_covering",
    "subgroup_covering": "verify_subgroup_covering",
    "uniformity": "verify_cancellator_uniformity",
    "certificates": "verify_essential_certificates",
    "wordproblem": "verify_word_problem",
    "parity": "verify_parity_invariance",
    "joinlemma": "verify_join_lemma",
}
LAYERS += [
    ("coxrank.verify", fn, f"verify.{check}", None, lambda r: r.total_cases)
    for check, fn in CHECKS.items()
]

_BACKENDS = ("coxrank._kernel_py", "coxrank._kernel")


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.run = array("q")
        self.start = array("q")
        self.end = array("q")
        self.count_in = array("q")
        self.count_out = array("q")
        self.run_id = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, span_name, fn, count_in=None, count_out=None):
        nid = len(self.names)
        self.names.append(span_name)
        name, parent, run = self.name, self.parent, self.run
        start, end, cin, cout = self.start, self.end, self.count_in, self.count_out
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            run.append(self.run_id)
            cin.append(count_in(args) if count_in else 0)
            cout.append(0)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count_out:
                cout[idx] = int(count_out(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function under each name it is looked up by."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if (key == "coxrank" or key.startswith("coxrank.")) and key not in _BACKENDS
        ]
        for mod_name, attr, span_name, count_in, count_out in LAYERS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self.wrap(span_name, original, count_in, count_out)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patches.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patches):
            setattr(m, key, original)
        self._patches.clear()

    def write_spans(self, path) -> None:
        """All spans as gzipped tab-separated text, one line per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("run\tspan\tparent\tname\tstart_ns\tend_ns\tcount_in\tcount_out\n")
            names = self.names
            fh.writelines(
                f"{self.run[i]}\t{i}\t{self.parent[i]}\t{names[self.name[i]]}\t"
                f"{self.start[i]}\t{self.end[i]}\t{self.count_in[i]}\t{self.count_out[i]}\n"
                for i in range(len(self))
            )


def self_times(parent, start, end, lo: int = 0, hi: int | None = None) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest, so children never overlap and
    their summed durations are exactly the time they cover."""
    hi = len(start) if hi is None else hi
    out = [end[i] - start[i] for i in range(lo, hi)]
    for i in range(lo, hi):
        p = parent[i]
        if p >= lo:
            out[p - lo] -= end[i] - start[i]
    return out


def aggregate(tracer: Tracer, lo: int, hi: int) -> dict:
    """Per span name over spans lo..hi-1: calls, self seconds, wall
    seconds summed over calls, summed work counts, and calls per
    (parent name, child name)."""
    per = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "in": 0, "out": 0})
    children: dict[tuple[str, str], int] = defaultdict(int)
    names = [tracer.names[k] for k in tracer.name[lo:hi]]
    selfs = self_times(tracer.parent, tracer.start, tracer.end, lo, hi)
    for k, nm in enumerate(names):
        i = lo + k
        a = per[nm]
        a["calls"] += 1
        a["self_s"] += selfs[k] / 1e9
        a["wall_s"] += (tracer.end[i] - tracer.start[i]) / 1e9
        a["in"] += tracer.count_in[i]
        a["out"] += tracer.count_out[i]
        p = tracer.parent[i]
        if p >= lo:
            children[(names[p - lo], nm)] += 1
    return {"per": per, "children": children}


# -- per-layer metrics -----------------------------------------------------

# metric suffix -> (aggregate field, unit, better)
_FIELDS = {
    "calls": ("calls", "count", "lower"),
    "self_s": ("self_s", "s", "lower"),
    "wall_s": ("wall_s", "s", "lower"),
    "letters_in": ("in", "count", "lower"),
    "letters_out": ("out", "count", "lower"),
    "elements": ("out", "count", "higher"),
    "hits": ("out", "count", "lower"),
    "steps": ("out", "count", "lower"),
    "cases": ("out", "count", "higher"),
    "universe": ("out", "count", "higher"),
}
# (name, unit, better) of metrics computed from more than one span name
_DERIVED = {
    "words.ball_bytes.yield": ("ratio", "higher"),
    "certificates.falsify.conjugators": ("count", "lower"),
}
_LAYER_METRICS = [
    ("words.ball_bytes", ("calls", "self_s", "elements", "yield")),
    ("kernels.normal_form", ("calls", "self_s", "letters_in")),
    ("kernels.reduce_word", ("calls", "self_s", "letters_in", "letters_out")),
    ("kernels.is_reduced", ("calls", "self_s")),
    ("certificates.falsify", ("calls", "self_s", "conjugators", "hits")),
    ("certificates.bad_mask", ("calls", "self_s")),
    ("certificates.is_good_essential", ("calls", "self_s")),
    ("cancellator.fix_missing", ("calls", "self_s", "steps")),
    ("cancellator.make_good", ("calls", "self_s", "steps")),
    ("cancellator.essentialize", ("calls", "self_s")),
    ("subgroups.member", ("calls", "self_s")),
    ("graphs.load_graph", ("calls", "self_s")),
    ("graphs.is_join", ("calls", "self_s")),
    ("graphs.dj_prime", ("calls", "self_s")),
    *((f"verify.{check}", ("wall_s", "self_s", "cases")) for check in CHECKS),
    ("verify.closure_partition", ("self_s", "universe")),
]
TRACE_METRICS = {
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
}


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for span, suffixes in _LAYER_METRICS:
        for suffix in suffixes:
            name = f"{span}.{suffix}"
            unit, better = _DERIVED.get(name) or _FIELDS[suffix][1:]
            out.append((name, unit, better))
    out.extend((name, unit, better) for name, (unit, better) in TRACE_METRICS.items())
    return out


def layer_values(agg: dict) -> dict[str, float]:
    """Per-layer metric values from one aggregate; absent layers read 0."""
    per, children = agg["per"], agg["children"]
    zero = {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "in": 0, "out": 0}
    out = {}
    for span, suffixes in _LAYER_METRICS:
        a = per.get(span, zero)
        for suffix in suffixes:
            name = f"{span}.{suffix}"
            if name not in _DERIVED:
                out[name] = a[_FIELDS[suffix][0]]
    nf_in_ball = children.get(("words.ball_bytes", "kernels.normal_form"), 0)
    elements = per.get("words.ball_bytes", zero)["out"]
    out["words.ball_bytes.yield"] = elements / nf_in_ball if nf_in_ball else 0.0
    out["certificates.falsify.conjugators"] = children.get(
        ("certificates.falsify", "kernels.reduce_word"), 0
    )
    return out

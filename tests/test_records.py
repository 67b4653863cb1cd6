"""The library's result records are immutable NamedTuples, and importing
coxrank generates no code for them."""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import coxrank
from coxrank import (
    choose_blockers,
    commutator_subgroup,
    essentialize,
    falsify_essential,
    goodness_report,
    rank_racg,
    verify_cancellator_uniformity,
    verify_covering,
    verify_essential_certificates,
    verify_join_lemma,
    verify_parity_invariance,
    verify_subgroup_covering,
    verify_word_problem,
)
from coxrank.certificates import GoodnessStatus

SRC = Path(coxrank.__file__).resolve().parent.parent
# e b d c . a . c d b e: a conjugate of a with full support
PLANTED = tuple("ebdcacdbe")


def test_import_loads_every_submodule_and_not_dataclasses():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, coxrank; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('coxrank.')))); "
            "sys.exit('dataclasses' in sys.modules)",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr or "dataclasses was imported"
    # no lazy loading: every library module but the CLI comes with the package
    expected = {
        f"coxrank.{p.stem}" for p in (SRC / "coxrank").glob("*.py") if p.stem != "__init__"
    } - {"coxrank.cli"}
    assert set(proc.stdout.split()) == expected


def _records(c5):
    _, trace = essentialize(c5, ("a", "b", "a", "b"), commutator_subgroup(c5))
    report = rank_racg(c5)
    return [
        (
            verify_covering(c5, 2),
            (
                "check", "params", "total_cases", "failures", "elapsed_ms", "verdict", "seed",
                "failures_omitted",
            ),
        ),
        (goodness_report(c5, ("a", "b", "c")), ("per_generator", "bad_set", "full_support")),
        (falsify_essential(c5, PLANTED, 4), ("conjugator", "parabolic")),
        (choose_blockers(c5, "a"), ("s", "s_prime", "s_double_prime", "variant")),
        (trace, ("steps", "total_multiplier", "exponent")),
        (trace.steps[0], ("target", "choice", "multiplier", "running_word")),
        (commutator_subgroup(c5), ("graph", "basis")),
        (
            report,
            ("group_kind", "factors", "total_rank", "higher_rank_lattice_commensurable", "notes"),
        ),
        (report.factors[0], ("vertex_set", "kind", "rank", "note")),
    ]


def test_every_result_record_is_an_immutable_named_tuple(c5):
    records = _records(c5)
    assert len({type(x) for x, _ in records}) == 9
    for x, fields in records:
        assert type(x)._fields == fields
        assert x == tuple(getattr(x, f) for f in fields)
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(x, f, getattr(x, f))


# one small run of each verify function
VERIFY_RUNS = {
    "parity": lambda g: verify_parity_invariance(g, trials=20, max_len=4, seed=1),
    "wordproblem": lambda g: verify_word_problem(g, max_len=2),
    "covering": lambda g: verify_covering(g, 2),
    "subgroup-covering": lambda g: verify_subgroup_covering(g, commutator_subgroup(g), 2),
    "uniformity": lambda g: verify_cancellator_uniformity(g, radius=6),
    "joinlemma": lambda g: verify_join_lemma(3),
    "certificates": lambda g: verify_essential_certificates(g, radius=2, conj_radius=1),
}


def _scribble(x):
    """Change every dict and list nested in ``x``, at every depth."""
    if isinstance(x, dict):
        for v in x.values():
            _scribble(v)
        x["X"] = "X"
    elif isinstance(x, list):
        for v in x:
            _scribble(v)
        x.append("X")


@pytest.mark.parametrize("check", sorted(VERIFY_RUNS))
def test_reports_cannot_be_changed_in_place(c5, check):
    report = VERIFY_RUNS[check](c5)
    before = json.dumps(report.to_json_dict())
    with pytest.raises(AttributeError):
        report.failures.append({"reason": "X"})
    with pytest.raises(TypeError):
        report.params["radius"] = -1
    # the JSON view is a deep copy: changing it at any depth (the
    # covering's alphaHistogram, each perBadSet class of the uniformity
    # check, the EMPTY_DOMAIN record of the certificates run) leaves the
    # report alone
    view = report.to_json_dict()
    view["params"]["radius"] = -1
    _scribble(view)
    assert json.dumps(report.to_json_dict()) == before
    # pickling and deep copies keep the report equal and read-only
    for twin in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert twin == report
        with pytest.raises(TypeError):
            twin.params["radius"] = -1


def test_goodness_report_cannot_be_changed_in_place(c5):
    report = goodness_report(c5, ("a", "b", "c"))
    with pytest.raises(TypeError):
        report.per_generator["a"] = GoodnessStatus.NOT_GOOD
    assert report.per_generator["a"] is GoodnessStatus.GOOD
    for twin in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert twin == report
        with pytest.raises(TypeError):
            twin.per_generator["a"] = GoodnessStatus.NOT_GOOD

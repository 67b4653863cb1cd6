"""The library's result records are immutable NamedTuples, and importing
coxrank generates no code for them."""

import os
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
    verify_covering,
)

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
            ("check", "params", "total_cases", "failures", "elapsed_ms", "verdict", "seed"),
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

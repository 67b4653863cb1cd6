import json
import subprocess
import sys

import pytest

from coxrank.cli import main
from coxrank.graphs import parse_graph

PENTAGON = """\
vertices: a b c d e
edge: a b
edge: b c
edge: c d
edge: d e
edge: e a
"""

SQUARE = """\
vertices: a b c d
edge: a b
edge: b c
edge: c d
edge: d a
"""


@pytest.fixture()
def c5_file(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text(PENTAGON)
    return str(path)


@pytest.fixture()
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(SQUARE)
    return str(path)


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_text(capsys, c5_file):
    code, out, _ = run_main(capsys, "classify", "--graph", c5_file, "--kind", "racg")
    assert code == 0
    assert "total rank: 1" in out


def test_classify_json_schema_and_determinism(capsys, c5_file):
    code, out1, _ = run_main(
        capsys, "classify", "--graph", c5_file, "--format", "json"
    )
    assert code == 0
    payload = json.loads(out1)
    assert payload["schemaVersion"] == 1
    assert payload["totalRank"] == 1
    code, out2, _ = run_main(
        capsys, "classify", "--graph", c5_file, "--format", "json"
    )
    assert out1 == out2  # byte identical


def test_reduce_nf_equal_parity(capsys, c5_file):
    assert run_main(capsys, "reduce", "--graph", c5_file, "--word", "a b a")[1] == "b\n"
    assert run_main(capsys, "nf", "--graph", c5_file, "--word", "b a")[1] == "a b\n"
    code, out, _ = run_main(
        capsys, "equal", "--graph", c5_file, "--left", "a b", "--right", "b a"
    )
    assert (code, out) == (0, "true\n")
    code, out, _ = run_main(capsys, "parity", "--graph", c5_file, "--word", "a b c")
    assert out == "a:1 b:1 c:1 d:0 e:0\n"


def test_essential_command(capsys, c5_file):
    code, out, _ = run_main(
        capsys, "essential", "--graph", c5_file, "--word", "a b c d e",
        "--conj-radius", "2",
    )
    assert code == 0
    assert "NO_COUNTEREXAMPLE" in out
    code, out, _ = run_main(
        capsys, "essential", "--graph", c5_file, "--word", "a", "--conj-radius", "2"
    )
    assert "COUNTEREXAMPLE" in out


def test_completion_command(capsys, c5_file):
    assert run_main(capsys, "completion", "--graph", c5_file, "--word", "a b")[1] == "c d e\n"


def test_cancellator_command_json(capsys, c5_file):
    code, out, _ = run_main(
        capsys, "cancellator", "--graph", c5_file, "--word", "a b a b",
        "--subgroup", "commutator", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trace"]["exponent"] == 2
    assert payload["final"]


def test_dj_text_roundtrips(capsys, c5_file):
    code, out, _ = run_main(capsys, "dj", "--graph", c5_file, "--variant", "doubleprime")
    assert code == 0
    doubled = parse_graph(out)
    assert doubled.n == 10
    assert doubled.edge_count == 35


def test_subgroup_commands(capsys, c5_file):
    code, out, _ = run_main(
        capsys, "subgroup", "index", "--graph", c5_file, "--subgroup", "commutator"
    )
    assert (code, out) == (0, "index: 32\nexponent: 2\n")
    code, out, _ = run_main(
        capsys, "subgroup", "member", "--graph", c5_file,
        "--subgroup", "commutator", "--word", "a b a b",
    )
    assert (code, out) == (0, "true\n")


def test_verify_exit_codes(capsys, c5_file, c4_file):
    code, out, _ = run_main(capsys, "verify", "joinlemma", "--max-vertices", "3")
    assert code == 0
    assert "verdict: PASS" in out
    # precondition violated: square is a join
    code, _, err = run_main(capsys, "verify", "covering", "--graph", c4_file)
    assert code == 2
    assert "PRECONDITION_CLASS" in err
    # empty domain reports FAIL
    code, out, _ = run_main(
        capsys, "verify", "uniformity", "--graph", c5_file, "--radius", "0"
    )
    assert code == 1
    assert "verdict: FAIL" in out


def test_verify_report_json(capsys, c5_file):
    code, out, _ = run_main(
        capsys, "verify", "parity", "--graph", c5_file,
        "--trials", "50", "--seed", "9", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schemaVersion"] == 1
    assert payload["check"] == "parity-invariance"
    assert payload["seed"] == 9
    assert payload["verdict"] == "PASS"


def test_jobs_only_on_the_chunked_verifies(capsys, c5_file):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "parity", "--graph", c5_file, "--trials", "5", "--jobs", "2"])
    assert exc.value.code == 2
    code, out, _ = run_main(
        capsys, "verify", "covering", "--graph", c5_file, "--radius", "2",
        "--jobs", "2",
    )
    assert (code, "verdict: PASS" in out) == (0, True)


def test_malformed_subgroup_file_exit_code(capsys, c5_file, tmp_path):
    spec = tmp_path / "bad.sub"
    spec.write_text("basis: 10x00\n")
    code, _, err = run_main(
        capsys, "subgroup", "index", "--graph", c5_file, "--subgroup", str(spec)
    )
    assert code == 2
    assert "[SUBGROUP_PARSE_ERROR]" in err


def test_out_of_range_verify_parameters_exit_code(capsys, c5_file):
    for args in (
        ("parity", "--graph", c5_file, "--trials", "-5"),
        ("parity", "--graph", c5_file, "--max-len", "0"),
        ("wordproblem", "--graph", c5_file, "--max-len", "-3"),
        ("joinlemma", "--max-vertices", "7"),
    ):
        code, out, err = run_main(capsys, "verify", *args, "--format", "json")
        assert (code, out) == (2, "")
        assert err.startswith("error [PARAMETER_OUT_OF_RANGE]: ")


def test_negative_radius_exit_code(capsys, c5_file):
    for args in (
        ("verify", "covering", "--graph", c5_file, "--radius", "-1"),
        ("verify", "certificates", "--graph", c5_file, "--conj-radius", "-2"),
        ("essential", "--graph", c5_file, "--word", "a b c d e", "--conj-radius", "-1"),
    ):
        code, out, err = run_main(capsys, *args)
        assert (code, out) == (2, "")
        assert err.startswith("error [PARAMETER_OUT_OF_RANGE]: radius must be at least 0")


def test_unknown_generator_exit_code(capsys, c5_file):
    code, _, err = run_main(capsys, "reduce", "--graph", c5_file, "--word", "a q")
    assert code == 2
    assert "UNKNOWN_GENERATOR" in err


def test_console_script_usage_errors():
    proc = subprocess.run(
        [sys.executable, "-m", "coxrank.cli", "frobnicate"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    proc = subprocess.run(
        [sys.executable, "-m", "coxrank.cli", "classify", "--graph", "x", "--bogus"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_console_script_end_to_end(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text(PENTAGON)
    proc = subprocess.run(
        [
            sys.executable, "-m", "coxrank.cli",
            "verify", "wordproblem", "--graph", str(path),
            "--max-len", "3", "--format", "json",
        ],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["verdict"] == "PASS"

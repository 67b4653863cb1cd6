import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

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


def test_balls_past_the_limits_exit_2(capsys, tmp_path):
    # join-free, so legal input; its radius-10 ball would hold ~4.5e14
    # elements, and the element limit stops it at radius 4
    path = tmp_path / "free30.txt"
    path.write_text("vertices: " + " ".join(f"v{i}" for i in range(30)) + "\n")
    for args in (
        ("verify", "covering", "--graph", str(path), "--radius", "10"),
        ("essential", "--graph", str(path), "--word", "v0 v1", "--conj-radius", "10"),
    ):
        code, out, err = run_main(capsys, *args)
        assert (code, out) == (2, "")
        assert err.startswith("error [RADIUS_EXCEEDS_CAP]: ball of radius 10 ")


def test_ball_commands_take_no_jobs_or_cap(c5_file):
    for flag in ("--jobs", "--cap"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "covering", "--graph", c5_file, flag, "2"])
        assert exc.value.code == 2


GRAPHS = Path(__file__).resolve().parent.parent / "graphs"
C5 = str(GRAPHS / "c5.txt")

# SHA-256 of each command's --format json output without the elapsedMs
# line: reports are byte-reproducible for fixed arguments, so a changed
# digest is a changed report
JSON_DIGESTS = [
    (("verify", "covering", "--graph", C5, "--radius", "8"),
     "7889b907921e58eab73475c31899bea4dcf804e791555de8e24d447a5ec576a9"),
    (("verify", "subgroup-covering", "--graph", C5, "--subgroup", "commutator",
      "--radius", "8"),
     "90e995ec12d2293033bde741d10eeca2741a413114e9514ab503cb32af554796"),
    (("verify", "subgroup-covering", "--graph", C5,
      "--subgroup", str(GRAPHS / "parity8.sub"), "--radius", "8"),
     "acacdc08cc2dd888d75e2b8b1c7545abbc50db15f74bf96c0de0fbcbcc85d7ce"),
    (("verify", "uniformity", "--graph", C5, "--radius", "8"),
     "7245daacae59853baf61e9b7c056250b2e5c69a834d95ffbb1005a628c7360f3"),
    (("verify", "certificates", "--graph", C5, "--radius", "7", "--conj-radius", "3"),
     "787ec9507ed73dd386a58b7463d9a670925f0f2dca1548fec9b62c81c3bab1bc"),
    (("essential", "--graph", C5, "--word", "b d a", "--conj-radius", "3"),
     "76f75b5aa79ccda1f3476945dfb96ba4ae4b45dc55799c4a61dd3c363379e21f"),
    (("cancellator", "--graph", C5, "--word", "a c a c b d b d",
      "--subgroup", "commutator"),
     "7add6d9b61c397507bda7f15a7b98927c641a92bc6aed83b0d715e79d202a0fe"),
]


def test_json_reports_keep_their_bytes(capsys):
    for argv, digest in JSON_DIGESTS:
        code, out, err = run_main(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        out = re.sub(r'\n *"elapsedMs": \d+,', "", out)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


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

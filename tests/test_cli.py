import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import coxrank
from coxrank.cli import main
from coxrank import kernels, verify
from coxrank.graphs import parse_graph
from coxrank.subgroups import commutator_subgroup
from coxrank.verify import parity_trial_units
from coxrank.words import MAX_WORD_LEN

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


def test_a_bounded_fail_prints_its_total(capsys, c5_file, monkeypatch):
    monkeypatch.setattr(coxrank.kernels, "normal_form", coxrank.kernels.reduce_word)
    argv = ("verify", "wordproblem", "--graph", c5_file, "--max-len", "6")
    code, out, _ = run_main(capsys, *argv)
    assert code == 1
    assert "failures: 8250\n" in out
    code, out, _ = run_main(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    assert (len(payload["failures"]), payload["failuresOmitted"]) == (100, 8150)


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


def test_certificates_past_the_work_cap_exit_2(capsys):
    code, out, err = run_main(
        capsys, "verify", "certificates", "--graph", C5, "--radius", "8", "--conj-radius", "8"
    )
    assert (code, out) == (2, "")
    assert err.startswith(
        "error [RADIUS_EXCEEDS_CAP]: 2520 certified words times 7981 conjugators is 20112120, "
    )


def test_parity_max_len_past_the_cap_exits_2(capsys, c5_file):
    for max_len in ("1001", "1000000000"):
        code, out, err = run_main(
            capsys, "verify", "parity", "--graph", c5_file, "--max-len", max_len
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error [RADIUS_EXCEEDS_CAP]: maxLen {max_len} exceeds cap 1000")


def test_parity_past_the_work_cap_exits_2(capsys, c5_file):
    # the price first: with a broken price the runs below would not be
    # refused, and 10^9 trials would not end
    assert [parity_trial_units(n) for n in (1, 12, 100, 1000)] == [
        64, 449, 12_241, 1_022_041
    ]
    for args, work in (
        (("--trials", "1000000000"), 449_000_000_000),
        (("--max-len", "1000"), 10_220_410_000),
    ):
        code, out, err = run_main(capsys, "verify", "parity", "--graph", c5_file, *args)
        assert (code, out) == (2, "")
        assert err.startswith("error [RADIUS_EXCEEDS_CAP]: ")
        assert f" is {work}, over the parity work cap 5000000" in err


def test_words_past_the_length_cap_exit_2(capsys, c5_file, monkeypatch):
    at_cap = " ".join(["a", "c"] * (MAX_WORD_LEN // 2))
    code, out, _ = run_main(capsys, "nf", "--graph", c5_file, "--word", at_cap)
    assert (code, out) == (0, at_cap + "\n")
    calls = []
    monkeypatch.setattr(kernels, "normal_form", lambda *a: calls.append(a))
    # refused by its length before any label is looked up, "q" included
    for past in (at_cap + " a", at_cap + " q", "a " * 10**6):
        for args in (
            ("nf", "--word", past),
            ("equal", "--left", "a", "--right", past),
        ):
            code, out, err = run_main(capsys, *args, "--graph", c5_file)
            assert (code, out) == (2, ""), args
            n = len(past.split())
            assert err == (
                f"error [RADIUS_EXCEEDS_CAP]: word of {n} letters exceeds cap {MAX_WORD_LEN}\n"
            )
    assert calls == []


def test_dj_of_a_graph_too_large_to_double_exits_2(capsys, tmp_path):
    path = tmp_path / "free33.txt"
    path.write_text("vertices: " + " ".join(f"v{i}" for i in range(33)) + "\n")
    assert run_main(capsys, "classify", "--graph", str(path))[0] == 0
    for variant in ("prime", "doubleprime"):
        code, out, err = run_main(capsys, "dj", "--graph", str(path), "--variant", variant)
        assert (code, out) == (2, "")
        assert err == "error [DOUBLE_TOO_LARGE]: doubling 33 vertices gives 66, more than 64\n"


def test_ball_commands_take_no_jobs_or_cap(c5_file):
    for flag in ("--jobs", "--cap"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "covering", "--graph", c5_file, flag, "2"])
        assert exc.value.code == 2


GRAPHS = Path(__file__).resolve().parent.parent / "graphs"
C5 = str(GRAPHS / "c5.txt")
C4 = str(GRAPHS / "c4.txt")
K3 = str(GRAPHS / "k3.txt")
DINF = str(GRAPHS / "dinf.txt")
P8 = str(GRAPHS / "parity8.sub")
J = ("--format", "json")
T = ("--format", "text")

# SHA-256 of each command's output: stdout without the elapsedMs or
# "elapsed: N ms" line when it succeeds (after an "exit 1" line for a verify
# FAIL), "exit 2" and stderr when it is refused.  Reports are
# byte-reproducible for fixed arguments, so a changed digest is a changed
# report
JSON_DIGESTS = [
    (("verify", "covering", "--graph", C5, "--radius", "8", *J),
     "7889b907921e58eab73475c31899bea4dcf804e791555de8e24d447a5ec576a9"),
    (("verify", "subgroup-covering", "--graph", C5, "--subgroup", "commutator",
      "--radius", "8", *J),
     "90e995ec12d2293033bde741d10eeca2741a413114e9514ab503cb32af554796"),
    (("verify", "subgroup-covering", "--graph", C5, "--subgroup", P8,
      "--radius", "8", *J),
     "acacdc08cc2dd888d75e2b8b1c7545abbc50db15f74bf96c0de0fbcbcc85d7ce"),
    (("verify", "uniformity", "--graph", C5, "--radius", "8", *J),
     "7245daacae59853baf61e9b7c056250b2e5c69a834d95ffbb1005a628c7360f3"),
    (("verify", "certificates", "--graph", C5, "--radius", "7", "--conj-radius", "3",
      *J),
     "787ec9507ed73dd386a58b7463d9a670925f0f2dca1548fec9b62c81c3bab1bc"),
    (("essential", "--graph", C5, "--word", "b d a", "--conj-radius", "3", *J),
     "76f75b5aa79ccda1f3476945dfb96ba4ae4b45dc55799c4a61dd3c363379e21f"),
    (("essential", "--graph", C5, "--word", "a b c d e a", *J),
     "7f15f11fb1807879a7c66b0051ba76d21653998f331ebc572d02a5193e20a78b"),
    (("cancellator", "--graph", C5, "--word", "a c a c b d b d",
      "--subgroup", "commutator", *J),
     "7add6d9b61c397507bda7f15a7b98927c641a92bc6aed83b0d715e79d202a0fe"),
    (("classify", "--graph", C5, "--kind", "racg", *J),
     "e8be8f1662a91d3d73e7ab0d3096a6951ec141a81fd58fc9b7dce8ac1e297bc9"),
    (("classify", "--graph", C4, "--kind", "raag", *J),
     "5f78eba3bbea828b73eeb57397d6cc5fd0383a289dbd407386b9d6fdf5e35ba5"),
    (("reduce", "--graph", C5, "--word", "a b a c e c", *J),
     "e401bd806158d4f4ee1917e7c3c7dd0428f2d8c496de02bdfb9c34e993665ff9"),
    (("nf", "--graph", C5, "--word", "e d b a", *J),
     "5cd8bb3fdf1385c8032f7e88cb503d798cc932ec2efa550a167c70d70613f463"),
    (("equal", "--graph", C5, "--left", "a c", "--right", "c a", *J),
     "7a69f786d94c0c189c625fa8801a4ba14855f5d467470a96892be4fc9815a390"),
    (("parity", "--graph", C5, "--word", "a b a c", *J),
     "15ac3d2deffdaad3f957475a6edb5c9489916116c5a4acf6e1f600fdbe4a4a41"),
    (("completion", "--graph", C5, "--word", "a c", *J),
     "189a5d0e61d3f3c265df2072ed1253f38a48d3eda82e5963ead5e2d3448d9608"),
    (("dj", "--graph", K3, "--variant", "prime", *J),
     "c2afd24b94c67f6f35acfe9bd33d7cde0cc5eebdf8af0d6bcbe052c6a25a3458"),
    (("dj", "--graph", DINF, "--variant", "doubleprime", *J),
     "be934d520c53bf1f600fbd2f51b98efedbcec7850bff63726175db7f4e9e1ccb"),
    (("subgroup", "index", "--graph", C5, "--subgroup", P8, *J),
     "d02a356c0c0b54549a3129e7388ae23ae10cee40d223fb863140cb64d8feeac7"),
    (("subgroup", "member", "--graph", C5, "--subgroup", P8, "--word", "a b", *J),
     "bd52c01552055fd1737fa1e99014a53131faab8a49567aa6a7a8bedec2d47c08"),
    (("verify", "parity", "--graph", C5, "--trials", "200", "--seed", "4", *J),
     "0f2f3b55d4b2a0195fee4aedae4b17b3f213d530194e26eefb84d955b4603480"),
    (("verify", "wordproblem", "--graph", C5, "--max-len", "4", *J),
     "1dd97847166d66e13aeb8f8c0dc91e7fd9931f3de0cae5f50ec7078e9c49a9b6"),
    (("verify", "joinlemma", "--max-vertices", "4", *J),
     "4c583726f00d7b59b672e1e200313397e46d76f0fc02dfdab805af7bed5018b9"),
    (("classify", "--graph", C4, *T),
     "7585d05bdce90d6128e2f87aa7a9a084bfaf6b537cc8c54dbca59475dd46b423"),
    (("reduce", "--graph", C5, "--word", "a b a c e c", *T),
     "bb8f6e2ea7e8e6e5e446da6f8fa7d1ac4a7f6d82378aa20379d649b5d2884cd4"),
    (("nf", "--graph", C5, "--word", "e d b a", *T),
     "c249ae3ddf680d925e0a196832cee46f7144ba959b4711a2b9899be11217cebc"),
    (("equal", "--graph", C5, "--left", "a c", "--right", "c a", *T),
     "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    (("parity", "--graph", C5, "--word", "a b a c", *T),
     "b882b3d0beebd24b8bc906d083d0b2fe69b198b956d67025da2143b1b19f88bf"),
    (("essential", "--graph", C5, "--word", "b d a", "--conj-radius", "2", *T),
     "1a84a4d3ccc86adb8c4af058b9bf6b414ce6286933cbc4d9f8b8978cacb0513e"),
    (("essential", "--graph", C5, "--word", "a b c d e a", *T),
     "b637e3d1c175a7088042cebe5b187674c9f8e8fb538873532de3c977c46e9b1b"),
    (("completion", "--graph", C5, "--word", "a c", *T),
     "d624d703ea205f7b393d9ddcb2f140a228e4d505b0c8e3b483add94c8a11acd8"),
    (("cancellator", "--graph", C5, "--word", "a b a b", "--subgroup", "commutator",
      *T),
     "b43054e90327507fbc44c7d676f48b090a4dbc04a74e2fcde1bf49e46d2243e3"),
    (("dj", "--graph", K3, "--variant", "prime", *T),
     "6097495550f06743704d51b418911d9ed700376a9df2a075010e171dd536bd69"),
    (("subgroup", "index", "--graph", C5, "--subgroup", P8, *T),
     "106f1698baa576fabb7c297d35dfd9408929a16e5242fb7b0c7208a4d2dfdfcd"),
    (("subgroup", "member", "--graph", C5, "--subgroup", P8, "--word", "a b", *T),
     "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    (("verify", "parity", "--graph", C5, "--trials", "200", "--seed", "4", *T),
     "0321af01e629f5f0930b58b0a20b2447fb76eae66fb19725e1594cb7b6d47274"),
    (("verify", "wordproblem", "--graph", C5, "--max-len", "4", *T),
     "83f1440a448a15a2925f1c933860108fd8ce5fb51cd86a192cf5a5cc7f49c17a"),
    (("verify", "covering", "--graph", C5, "--radius", "6", *T),
     "35a74b17d3e92ef8c6bb6175e0a3175012ae6658d9267429963c6f21b7cff4f9"),
    (("verify", "subgroup-covering", "--graph", C5, "--subgroup", P8, "--radius", "6",
      *T),
     "552603e8c5d3704271561a4029947a304351eb96af06bd9922eecdd8b0908787"),
    (("verify", "uniformity", "--graph", C5, "--subgroup", P8, "--radius", "6", *T),
     "8e217461e230e0b9d1805ac76ea49f8e0baf2b4bb0ee983e2f16210abd38dd23"),
    (("verify", "joinlemma", "--max-vertices", "4", *T),
     "c294818bbd342f540782ee667a98a411883a285e7e843db5fe6e378dc7050949"),
    (("verify", "certificates", "--graph", C5, "--radius", "5", "--conj-radius", "2",
      *T),
     "40faed92a73e0c5b4ca9efd0d69c77b21cb25b8d236ba5265224fd77e068428c"),
    (("reduce", "--graph", C5, "--word", "a q", *T),
     "f4d2ce5a95e6662ff64660b4416110e31273a0b1259c8191958e23f13f464ce9"),
    (("verify", "covering", "--graph", C5, "--radius", "11", *J),
     "b4d53b1928478c8e6007ba2202d42efad9ae110184a5143c643a786257c95d84"),
    # no counterexample: the falsifier's counterexample is null
    (("essential", "--graph", C5, "--word", "a b c d e", *J),
     "c7748a23833d94398e7048dd27d960033530451b8955aba2e54cbba0972e73df"),
    (("essential", "--graph", C5, "--word", "a b c d e", *T),
     "9205c2d4b554336b60ce878a755b9f352274159403343fede8ef7bfdca711aab"),
    # no --subgroup: an odd word, outside the commutator subgroup
    (("cancellator", "--graph", C5, "--word", "a b c", *J),
     "21cb5acd43753c5ba5229b49f1c15facb7eb47e97e1ac3099c3b007f8665c84b"),
    (("cancellator", "--graph", C5, "--word", "a b c", *T),
     "d65461861db153cbdc7f084675453022ed0de14e55f329e3f2949c49490d5955"),
    (("dj", "--graph", K3, "--variant", "doubleprime", *T),
     "877f0ecfeb822800ec40d2a9d00dedf5457828dc2f2af7dbe3813bbf2c96d499"),
    (("classify", "--graph", C4, "--kind", "raag", *T),
     "8048edb968cc1f2073a486dde808afd55a23bc3872e28dbe0358484f017c374e"),
    (("subgroup", "index", "--graph", C5, "--subgroup", "commutator", *T),
     "44ca9d9428a6f259675d554ba99d05b9694bdfeb87cb916fdd42241fc0270810"),
    (("verify", "uniformity", "--graph", C5, "--radius", "6", *T),
     "b77d277b6ec2cdbccdcd6502ecec195a77fbaea50a08a35f938af3aadad3d8d5"),
    # FAIL on an empty domain: exit 1
    (("verify", "uniformity", "--graph", C5, "--radius", "0", *J),
     "d24f52d7ce9fa9412f01c0f721dcecdc5420bfb5aa9c49a0e7fec55af86a87f7"),
    (("verify", "uniformity", "--graph", C5, "--radius", "0", *T),
     "dd37dc8a01812288c8c69137750fd74f83bc97bdaffdaf146f0b7c602b2ee33d"),
    # the word problem at its largest lengths on each shipped graph
    (("verify", "wordproblem", "--graph", C5, "--max-len", "6", *J),
     "6decdb485bf1e4287b586d4375b7f642c9c49b58ed927299dfabbf0aacbe6813"),
    (("verify", "wordproblem", "--graph", C4, "--max-len", "5", *J),
     "f85948b991acc33fc24937eb21b02fcabb95d3a8e4a7642770369ccab5c0fcfe"),
    (("verify", "wordproblem", "--graph", K3, "--max-len", "6", *J),
     "e584ef366763f931f1dd90e65ccf5e1b8f856362b4d6adca15cc63f5594249e8"),
    (("verify", "wordproblem", "--graph", DINF, "--max-len", "6", *T),
     "b2c16abca21b5c88843d42d6ad09177b365c32dee5bc854b9f383f72e8f424d9"),
    # certificates: the benchmark's radii, and a self-inverse certified word
    (("verify", "certificates", "--graph", C5, "--radius", "8", "--conj-radius", "4",
      *J),
     "2452be8856a692697d976aafa8f13a096a17c8fd8963c6448572f769fcd036ce"),
    (("verify", "certificates", "--graph", K3, "--radius", "6", "--conj-radius", "3",
      *J),
     "e3c1871a337a26dec365834f539641b11e355a35a58a1b15722006ef387af7ef"),
    (("verify", "certificates", "--graph", C4, "--radius", "6", "--conj-radius", "3",
      *T),
     "3b449a6bec44d4acce1e78ab4a055d46b2ebabd64f5ef617016912acf5496809"),
]


def test_json_reports_keep_their_bytes(capsys):
    for argv, digest in JSON_DIGESTS:
        code, out, err = run_main(capsys, *argv)
        if code == 2:
            assert out == ""
            got = f"exit {code}\n{err}"
        else:
            assert code in (0, 1) and err == "", argv
            got = re.sub(r'\n *"elapsedMs": \d+,', "", out)
            got = re.sub(r"^elapsed: \d+ ms\n", "", got, flags=re.M)
            if code == 1:
                got = f"exit 1\n{got}"
        assert hashlib.sha256(got.encode()).hexdigest() == digest, argv


def test_verify_defaults_are_the_drivers_defaults(capsys):
    g = parse_graph(Path(C5).read_text())
    for verb, run in (
        ("parity", lambda: verify.verify_parity_invariance(g)),
        ("wordproblem", lambda: verify.verify_word_problem(g)),
        ("covering", lambda: verify.verify_covering(g)),
        ("subgroup-covering",
         lambda: verify.verify_subgroup_covering(g, commutator_subgroup(g))),
        ("uniformity", lambda: verify.verify_cancellator_uniformity(g)),
        ("joinlemma", verify.verify_join_lemma),
        ("certificates", lambda: verify.verify_essential_certificates(g)),
    ):
        graph = () if verb == "joinlemma" else ("--graph", C5)
        code, out, err = run_main(capsys, "verify", verb, *graph, *J)
        assert (code, err) == (0, ""), verb
        got = json.loads(out)
        del got["schemaVersion"], got["elapsedMs"]
        want = json.loads(json.dumps(run().to_json_dict()))
        del want["elapsedMs"]
        assert got == want, verb


# SHA-256 of "exit N\n", stdout, a NUL byte and stderr for every help screen
# (the top level, each verb, each subverb) and five usage errors, at 80
# columns.  argparse lays these out, so the digests hold for one Python
# minor version
HELP_DIGESTS = [
    (("--help",), "5f4d336e11e121c37daf527f9adfb738869bdd49c37e5add741a4d5b533e8a39"),
    (("classify", "--help"),
     "5f59598b17b8034c64b92c2708129f34535c3ee21ab893ea9e0f8b1ac41ef1dc"),
    (("reduce", "--help"),
     "c8ba7efeda4f585a1e8f54bdd19cf01efecfa795345a1d8447569d2c5bd71723"),
    (("nf", "--help"), "21d17240b653e10060c1333079ec60cd2b0027f5a3a62a488f85a07fa813a202"),
    (("equal", "--help"),
     "31b9e6ec7b5c408ef061b6bcafe6a00d2a5ce120312005f1c10e72c81acf1778"),
    (("parity", "--help"),
     "b1f5a2ec2b53174757d7e53294f72859c1057f13b50a85bac73b47154fce25f2"),
    (("essential", "--help"),
     "2edee3a318db610de4b11ede7f0b451792d6d3f44f79ae3779a75c0c131f45f7"),
    (("completion", "--help"),
     "05fd923629389732e6adcdadff2b49628515aa45ecd8693e7c40f527839091aa"),
    (("cancellator", "--help"),
     "6743870c650c06f8519e407fb100245774528a99e7fc8bc6ff7a2ac9bb883f1a"),
    (("dj", "--help"), "5251c1d041df35cdd787de6fe4f40f8f55e20228f14f6d99644f38e28434b727"),
    (("subgroup", "--help"),
     "9f4c34340b56d7874068173012a15b774224251ebc7c1dff195edb7d7aa4e365"),
    (("verify", "--help"),
     "f3a21ee0eef2e279c06abd94d34a9dcb844a560628b9507d54d85e0392002392"),
    (("subgroup", "member", "--help"),
     "28e9c8ff40092fca64c4641df42d85df6e2d23e98170f88e93421bd816376900"),
    (("subgroup", "index", "--help"),
     "053b044e9b2093cd1bcf5e80dd0ebd1b299cb40044579caf068e5743b7dc2309"),
    (("verify", "parity", "--help"),
     "81d10b2505eb9f3569080df4901e689a319d3c003525a5a57739a42bdd68388c"),
    (("verify", "wordproblem", "--help"),
     "92fb62623690e6d1b3a227536065d3c7e77bdf7311d9532965e3391531f4430c"),
    (("verify", "covering", "--help"),
     "76e707c82dcaa8add6c6e081eb17116d84c0de499b4b8044fcda592827dec803"),
    (("verify", "subgroup-covering", "--help"),
     "585e1fe45a83efd52b6250305b9bd94e0d226ad9c019f47e3c0af4824bd2fa2e"),
    (("verify", "uniformity", "--help"),
     "748ec576fcf36cadd29365cb15167b48b41f2540183a65a7189e9f29bb8b1da7"),
    (("verify", "joinlemma", "--help"),
     "c23449a9c6a821417c0461ac5a9ad0e6bb6f51b38fa107edb42acd5c9f60c04e"),
    (("verify", "certificates", "--help"),
     "3a605ba46047e3ad3be821ac8ec3c61cef47bcf8b7823817e1827749855356a6"),
    ((), "f08eda6b0842369fdea6668559d0542bf1e15fa286f6e8fd02f1f0495f431d92"),
    (("frobnicate",), "64d73e1a6906f13d22fa65d0f17277423027ce7b0d978dcf962b3c7e2950d5ed"),
    (("classify",), "4a0a2eccdf1c7baa5a659a6baefc3f7f525348e70f1292977231277f6c8cf475"),
    (("verify",), "dc383359a4f392e88395d7cbbab519c53852648278650f72dca003e323d6a381"),
    (("verify", "covering", "--graph", "g.txt", "--radius", "x"),
     "568c96ee072f6997eebc1928d54210f132b4aefe2c03bd5bdf2b0b4aeedf6d93"),
]


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="digests of Python 3.11's argparse layout"
)
def test_help_screens_and_usage_errors_keep_their_bytes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv, digest in HELP_DIGESTS:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out = capsys.readouterr()
        got = f"exit {exc.value.code}\n{out.out}\0{out.err}"
        assert hashlib.sha256(got.encode()).hexdigest() == digest, argv


def test_malformed_subgroup_file_exit_code(capsys, c5_file, tmp_path):
    spec = tmp_path / "bad.sub"
    spec.write_text("basis: 10x00\n")
    code, _, err = run_main(
        capsys, "subgroup", "index", "--graph", c5_file, "--subgroup", str(spec)
    )
    assert code == 2
    assert "[SUBGROUP_PARSE_ERROR]" in err


def test_spec_file_with_two_graph_lines_exits_2(capsys, c5_file, c4_file, tmp_path):
    spec = tmp_path / "two.sub"
    for first, second in ((c4_file, c5_file), (c5_file, c4_file)):
        spec.write_text(f"graph: {first}\n# comment\ngraph: {second}\nbasis: 11000\n")
        code, out, err = run_main(
            capsys, "subgroup", "index", "--graph", c5_file, "--subgroup", str(spec)
        )
        assert (code, out) == (2, "")
        assert err == "error [SUBGROUP_PARSE_ERROR]: line 3: repeated 'graph:' line\n"


def test_spec_file_naming_another_graph_exits_2(capsys, c5_file, tmp_path):
    (tmp_path / "other.txt").write_text("vertices: e d c b a\nedge: a b\nedge: b c\n")
    spec = tmp_path / "other.sub"
    spec.write_text("graph: other.txt\nbasis: 11000\nbasis: 00110\n")
    code, out, err = run_main(
        capsys, "subgroup", "index", "--graph", c5_file, "--subgroup", str(spec)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error [SUBGROUP_PARSE_ERROR]: graph 'other.txt' "), err
    # the same graph, written next to the spec file, is accepted
    (tmp_path / "other.txt").write_text(PENTAGON)
    code, out, _ = run_main(
        capsys, "subgroup", "index", "--graph", c5_file, "--subgroup", str(spec)
    )
    assert code == 0
    assert "index: 8" in out


def test_spec_file_naming_a_missing_graph_exits_2(capsys, c5_file, tmp_path):
    spec = tmp_path / "missing.sub"
    spec.write_text("graph: missing.txt\nbasis: 11111\n")
    code, out, err = run_main(
        capsys, "subgroup", "index", "--graph", c5_file, "--subgroup", str(spec)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error [FILE_UNREADABLE]: "), err


def test_out_of_range_verify_parameters_exit_code(capsys, c5_file):
    for args in (
        ("parity", "--graph", c5_file, "--trials", "-5"),
        ("parity", "--graph", c5_file, "--max-len", "0"),
        ("wordproblem", "--graph", c5_file, "--max-len", "-3"),
        ("joinlemma", "--max-vertices", "7"),
        ("joinlemma", "--max-vertices", "0"),
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


def test_unreadable_files_exit_2_with_a_code(capsys, c5_file, tmp_path):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("vertices: a \u00e9\n".encode("latin-1"))
    for args, code_name in (
        (("classify", "--graph", str(tmp_path / "missing.txt")), "FILE_UNREADABLE"),
        (
            ("subgroup", "index", "--graph", c5_file, "--subgroup", str(GRAPHS)),
            "FILE_UNREADABLE",
        ),
        (("classify", "--graph", str(latin1)), "NOT_UTF8"),
    ):
        code, out, err = run_main(capsys, *args)
        assert (code, out) == (2, ""), args
        assert err.startswith(f"error [{code_name}]: "), err


def test_paths_holding_a_nul_byte_exit_2_with_a_code(capsys, c5_file):
    for args in (
        ("nf", "--graph", "x\0y", "--word", "a"),
        ("subgroup", "index", "--graph", c5_file, "--subgroup", "sp\0ec"),
    ):
        code, out, err = run_main(capsys, *args)
        assert (code, out) == (2, ""), args
        assert err == "error [INVALID_ARGUMENT]: embedded null byte\n", err


# each family that takes --subgroup, run on C5 with the selector appended
SUBGROUP_FAMILIES = {
    "cancellator": ("cancellator", "--word", "a b a b"),
    "subgroup-covering": ("verify", "subgroup-covering", "--radius", "2"),
    "uniformity": ("verify", "uniformity", "--radius", "5"),
    "member": ("subgroup", "member", "--word", "a b a b"),
    "index": ("subgroup", "index"),
}


def _spec_file(tmp, data):
    path = tmp / "spec.sub"
    path.write_bytes(data)
    return str(path)


# each selector: how to make it in a temporary directory, and the error code
# it exits 2 with (None: it names a subgroup)
SUBGROUP_SELECTORS = {
    "commutator": (lambda tmp: "commutator", None),
    "whole": (lambda tmp: "whole", None),
    "missing": (lambda tmp: str(tmp / "missing.sub"), "FILE_UNREADABLE"),
    "directory": (lambda tmp: str(tmp), "FILE_UNREADABLE"),
    "nul-byte": (lambda tmp: str(tmp / "sp\0ec.sub"), "INVALID_ARGUMENT"),
    "malformed-row": (lambda tmp: _spec_file(tmp, b"basis: 10x00\n"), "SUBGROUP_PARSE_ERROR"),
    "empty-graph-line": (
        lambda tmp: _spec_file(tmp, b"graph:\nbasis: 10000\n"), "SUBGROUP_PARSE_ERROR"
    ),
    "not-utf8": (lambda tmp: _spec_file(tmp, b"basis: \xff\n"), "NOT_UTF8"),
    "empty": (lambda tmp: "", "FILE_UNREADABLE"),
}


@pytest.mark.parametrize("selector", sorted(SUBGROUP_SELECTORS))
@pytest.mark.parametrize("family", sorted(SUBGROUP_FAMILIES))
def test_every_subgroup_selector_in_every_family(capsys, tmp_path, family, selector):
    make, error = SUBGROUP_SELECTORS[selector]
    argv = (*SUBGROUP_FAMILIES[family], "--graph", C5, "--subgroup", make(tmp_path))
    code, out, err = run_main(capsys, *argv)
    if error is None:
        # no element of the commutator subgroup within radius 5 has full
        # support, so uniformity finds an empty domain and FAILs
        empty = (family, selector) == ("uniformity", "commutator")
        assert (code, err) == (1 if empty else 0, ""), argv
    else:
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error [{error}]: "), err


def test_unknown_generator_exit_code(capsys, c5_file):
    code, _, err = run_main(capsys, "reduce", "--graph", c5_file, "--word", "a q")
    assert code == 2
    assert "UNKNOWN_GENERATOR" in err


# `python -m coxrank.cli` in a child process runs the package these tests
# import, whether it is installed or found through the pytest pythonpath
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, (str(Path(coxrank.__file__).parents[1]), os.environ.get("PYTHONPATH")))
    ),
}


def test_console_script_usage_errors():
    proc = subprocess.run(
        [sys.executable, "-m", "coxrank.cli", "frobnicate"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 2
    proc = subprocess.run(
        [sys.executable, "-m", "coxrank.cli", "classify", "--graph", "x", "--bogus"],
        capture_output=True, text=True, env=CHILD_ENV,
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
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["verdict"] == "PASS"

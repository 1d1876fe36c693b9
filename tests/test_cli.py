import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from anylie import cli
from anylie.algebra import AlgebraSpec, verify_all
from anylie.anyspace import MAX_SLOTS
from anylie.cli import main
from anylie.cyclotomic import CycNum
from anylie.envelope import NCPoly
from anylie.grading import Bicharacter

from conftest import z


@pytest.fixture
def l2f3_file(tmp_path, capsys):
    path = tmp_path / "l2f3.json"
    assert main(["make-matrix", "--N", "2", "--n", "3", "--f", "0,1",
                 "-o", str(path)]) == 0
    capsys.readouterr()
    return str(path)


@pytest.fixture
def sl2_file(tmp_path, capsys):
    gpath = tmp_path / "sl2.json"
    gpath.write_text(json.dumps({
        "dim": 3,
        "names": ["h", "e", "f"],
        "degrees": [0, 0, 0],
        "c": [
            {"i": 1, "j": 2, "k": 2, "val": 2}, {"i": 2, "j": 1, "k": 2, "val": -2},
            {"i": 1, "j": 3, "k": 3, "val": -2}, {"i": 3, "j": 1, "k": 3, "val": 2},
            {"i": 2, "j": 3, "k": 1, "val": 1}, {"i": 3, "j": 2, "k": 1, "val": -1},
        ],
    }))
    out = tmp_path / "sl2_spec.json"
    assert main(["make-ansatz", "--n", "1", "--g-file", str(gpath),
                 "-o", str(out)]) == 0
    capsys.readouterr()
    return str(out)


def test_verify_pass(l2f3_file, capsys):
    assert main(["verify", l2f3_file]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out


def test_verify_json_output(l2f3_file, capsys):
    assert main(["verify", l2f3_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert {c["name"] for c in data["checks"]} >= {"grading", "braided_jacobi"}


def test_verify_corrupted_spec_exits_1(l2f3_file, tmp_path, capsys):
    data = json.loads(open(l2f3_file).read())
    data["c"][0]["val"] = {"order": 1, "terms": [[0, "2"]]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "braided_jacobi: FAIL" in out
    assert "at (" in out  # witness with the index tuple and both sides


def test_verify_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{this is not json")
    assert main(["verify", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_missing_file_exits_2(capsys):
    assert main(["verify", "/nonexistent/file.json"]) == 2


def test_make_matrix_round_trip(l2f3_file):
    spec = AlgebraSpec.from_json(open(l2f3_file).read())
    assert spec.dim == 4
    assert verify_all(spec).passed


def test_make_matrix_rank2_group(tmp_path, capsys):
    path = tmp_path / "bichar.json"
    assert main(["make-matrix", "--N", "2", "--group", "2,2",
                 "--bichar", "1,0;0,1", "--f", "0 1;1 0", "-o", str(path)]) == 0
    spec = AlgebraSpec.from_json(path.read_text())
    assert verify_all(spec).passed
    assert spec.group.factors == (2, 2)


def test_bichar_without_group_applies_to_z_n(tmp_path):
    """--bichar used to be ignored unless --group was given."""
    path = tmp_path / "b2.json"
    proc = run_cli("make-matrix", "--N", "2", "--n", "3", "--bichar", "2",
                   "--f", "0,1", "-o", str(path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(path.read_text())["grading"] == {"group": [3], "bichar": [[2]]}
    assert run_cli("verify", str(path)).returncode == 0


def test_group_of_rank_two_without_bichar_exits_2():
    proc = run_cli("make-matrix", "--N", "2", "--group", "2,2", "--f", "0 1;1 0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and "rank 1" in line


def test_verify_refuses_non_integer_grading(l2f3_file, tmp_path):
    """Group factors and matrix entries used to be truncated by int(), so
    this spec was read as Z/3 with matrix [[1]] and passed."""
    data = json.loads(open(l2f3_file).read())
    data["grading"] = {"group": [3.7], "bichar": [[1.9]]}
    bad = tmp_path / "float_grading.json"
    bad.write_text(json.dumps(data))
    proc = run_cli("verify", str(bad))
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and "must be integers" in line


@pytest.mark.parametrize("degree", [1.5, None, True])
def test_make_ansatz_refuses_non_integer_degrees(tmp_path, degree):
    """A float or null degree used to end in a TypeError traceback, and a
    bool degree was read as 1."""
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"dim": 1, "degrees": [degree], "c": []}))
    proc = run_cli("make-ansatz", "--n", "3", "--g-file", str(gpath))
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and "must be integers" in line


def test_make_ansatz(sl2_file):
    spec = AlgebraSpec.from_json(open(sl2_file).read())
    assert spec.basis == ("x0", "h", "e", "f")
    assert verify_all(spec).passed


def test_env_human_output(l2f3_file, capsys):
    assert main(["env", l2f3_file]) == 0
    out = capsys.readouterr().out
    assert "x[2,1]*x[1,2] = (z3)*x[1,2]*x[2,1]" in out
    assert "zero products: x[1,2]*x[2,2], x[2,1]*x[2,2], x[2,2]*x[1,2], x[2,2]*x[2,1]" in out
    assert "nilpotent generators: x[1,2], x[2,1]" in out
    assert "locally confluent" in out


def test_env_json_output(l2f3_file, capsys):
    assert main(["env", l2f3_file, "--json", "--degree-cap", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["confluent"] is True
    assert sorted(data["nilpotents"]) == [1, 2]
    assert [1, 3] in data["zero_pairs"]
    assert len(data["relations"]) == 16


def test_env_respects_order_flag(l2f3_file, capsys):
    assert main(["env", l2f3_file, "--order", "x[2,2],x[2,1],x[1,2],x[1,1]"]) == 0
    out = capsys.readouterr().out
    assert "locally confluent" in out


def test_env_quotient_flag(l2f3_file, capsys):
    assert main(["env", l2f3_file, "--quotient",
                 "x[1,1]*x[2,2] - x[2,1]*x[1,2]"]) == 0
    out = capsys.readouterr().out
    assert "locally confluent" in out


def test_env_quotient_without_closure_exits_1(tmp_path, capsys):
    path = tmp_path / "m3.json"
    assert main(["make-matrix", "--N", "3", "--n", "3", "--f", "0,0,1",
                 "-o", str(path)]) == 0
    capsys.readouterr()
    # 1 is central and grouplike and adds no rule, but completing these rules
    # must add x_a x_b^k x_c -> 0 for every k, so it never closes
    assert main(["env", str(path), "--quotient", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "did not close" in line


def env_lines(argv, capsys):
    assert main(["env", *argv]) == 0
    return capsys.readouterr().out.splitlines()


def test_env_quotient_prints_the_closed_rules(l2f3_file, capsys):
    """The rules of the closure follow the nilpotent line, in the order of
    --json; without them two quotients could print the same text."""
    det = "x[1,1]*x[2,2] - x[2,1]*x[1,2]"
    lines = env_lines([l2f3_file, "--quotient", det], capsys)
    start = next(i for i, line in enumerate(lines) if line.startswith("nilpotent")) + 1
    rules = lines[start:-1]
    assert rules[:3] == ["x[1,2] -> 0", "x[2,1] -> 0", "x[1,1]*x[2,2] -> (1)"]
    assert rules[-1] == "x[1,1]*x[2,2]*x[2,2] -> (1)*x[2,2]"
    assert main(["env", l2f3_file, "--quotient", det, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    labels = AlgebraSpec.from_json(open(l2f3_file).read()).basis
    assert [rule.split(" -> ")[0] for rule in rules] == \
        ["*".join(labels[g] for g in rule["lhs"]) for rule in data["rules"]]
    squared = env_lines([l2f3_file, "--quotient", f"({det})^2"], capsys)
    assert squared[-2] == "x[1,1]*x[1,1]*x[2,2]*x[2,2] -> (1)"
    # without --quotient no rule line is printed
    assert not any(" -> " in line for line in env_lines([l2f3_file], capsys))


@pytest.mark.parametrize("n, poly, defect", [
    ("3", "x[1,1]", "(1)*x[1,2](x)x[2,1]"),
    # at n=2, x[2,2] x[1,2] = x[1,2] x[2,2]: the determinant is not grouplike
    ("2", "x[1,1]*x[2,2] - x[2,1]*x[1,2]", "(2)*x[1,2]*x[2,2](x)x[2,1]*x[2,2]"),
])
def test_env_quotient_refuses_an_element_that_is_not_grouplike(tmp_path, n, poly, defect):
    """--quotient once checked only centrality, so both closed with exit 0."""
    spec = str(tmp_path / "spec.json")
    assert run_cli("make-matrix", "--N", "2", "--n", n, "--f", "0,1", "-o", spec).returncode == 0
    proc = run_cli("env", spec, "--quotient", poly)
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line == f"error: the --quotient element is not grouplike: delta(p) - p(x)p = {defect}"


def test_env_prints_divergent_words_in_labels(tmp_path, capsys):
    """Divergence lines once printed index tuples and x2*x3*x5."""
    path = tmp_path / "d3.json"
    assert main(["make-matrix", "--N", "3", "--n", "3", "--f", "0,0,1", "-o", str(path)]) == 0
    capsys.readouterr()
    lines = env_lines([str(path)], capsys)
    assert lines[-6:-4] == ["NOT confluent (8 divergent words)",
                            "  word x[1,3]*x[2,3]*x[2,1]: normal forms 0; (1)*x[1,3]*x[2,1]*x[2,3]"]


def run_cli(*args, opts=()):
    """Run the CLI in a fresh interpreter started with `opts`."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, *opts, "-m", "anylie.cli", *args],
                          capture_output=True, text=True, timeout=60, env=env)


def assert_one_error_line(proc, code, needle):
    assert proc.returncode == code
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and needle in line


@pytest.mark.parametrize("cap", [3, 4, 5])
def test_env_word_count_is_the_sum_over_lengths(l2f3_file, capsys, cap):
    assert main(["env", l2f3_file, "--degree-cap", str(cap)]) == 0
    count = sum(4 ** k for k in range(2, cap + 1))
    assert capsys.readouterr().out.splitlines()[-1] == f"locally confluent ({count} words checked)"


@pytest.mark.parametrize("cap", ["10000", "200000"])
def test_env_refuses_a_word_count_too_long_to_print(l2f3_file, cap):
    """Once half a report was printed before a ValueError from str(N);
    at cap 200000 the sum alone took minutes."""
    start = time.perf_counter()
    proc = run_cli("env", l2f3_file, "--degree-cap", cap)
    assert time.perf_counter() - start < 2
    assert_one_error_line(proc, 2, f"--degree-cap {cap} gives a word count of more than")


def test_env_json_takes_a_cap_whose_count_is_too_long_to_print(l2f3_file, capsys):
    assert main(["env", l2f3_file, "--json", "--degree-cap", "200000"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["degree_cap"] == 200000 and data["confluent"] is True


def test_env_quotient_refuses_an_element_that_is_not_central(tmp_path):
    """The refusal once printed Python reprs with generator indices."""
    # grouplike a and b with a b = 2 b a: a is grouplike but not central
    one = CycNum.one()
    spec = AlgebraSpec(Bicharacter.anyonic(1), ["a", "b"], [0, 0], {0: one, 1: one},
                       {(0, 0, 0): one, (1, 1, 1): one},
                       {(0, 1, 1): CycNum(1, [2]), (1, 0, 0): CycNum(1, ["1/2"])})
    path = tmp_path / "ab.json"
    path.write_text(json.dumps(spec.to_json()))
    proc = run_cli("env", str(path), "--force", "--quotient", "a")
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line == "error: the --quotient element is not central: p*b - b*p = (1/2)*a*b"
    assert "NCPoly(" not in line


def test_env_degree_cap_below_three_exits_2(l2f3_file):
    proc = run_cli("env", l2f3_file, "--degree-cap", "2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: degree_cap must be >= 3 to see overlaps"]


# [x1, x2] = x1 with [x2, x1] = 0 breaks the braided Jacobi identity
JACOBI_BREAKING_G = {"dim": 2, "degrees": [0, 0], "c": [{"i": 1, "j": 2, "k": 1, "val": 1}]}


@pytest.mark.parametrize("opts", [(), ("-O",)], ids=["plain", "optimised"])
def test_make_ansatz_refuses_a_result_that_fails_verification(tmp_path, opts):
    """The check used to be a bare assert: a traceback, and under -O exit 0
    with a written spec that verify reports as FAIL."""
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(JACOBI_BREAKING_G))
    out = tmp_path / "spec.json"
    proc = run_cli("make-ansatz", "--n", "1", "--g-file", str(gpath), "-o", str(out),
                   opts=opts)
    assert_one_error_line(proc, 1, "braided_jacobi")
    assert not out.exists()


def test_make_ansatz_skip_check_writes_the_unverified_result(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(JACOBI_BREAKING_G))
    out = tmp_path / "spec.json"
    proc = run_cli("make-ansatz", "--n", "1", "--g-file", str(gpath), "-o", str(out),
                   "--skip-check")
    assert proc.returncode == 0 and proc.stderr == ""
    assert not verify_all(AlgebraSpec.from_json(out.read_text())).passed


SPEC_INPUT_ERRORS = {
    "float eps index": (lambda d: d["eps"][0].update(mu=0.9), "must be integers"),
    "bool degree": (lambda d: d["basis"][1].update(degree=[True]), "must be integers"),
    "zero denominator": (lambda d: d["eps"][0].update(val={"order": 1, "terms": [[0, "1/0"]]}),
                         "zero denominator"),
}


@pytest.mark.parametrize("mutate, needle", SPEC_INPUT_ERRORS.values(), ids=SPEC_INPUT_ERRORS)
def test_verify_refuses_malformed_numbers(l2f3_file, tmp_path, mutate, needle):
    """An eps index 0.9 was read as 0 and a bool degree as 1; '1/0' ended
    in a ZeroDivisionError traceback."""
    data = json.loads(open(l2f3_file).read())
    mutate(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert_one_error_line(run_cli("verify", str(bad)), 2, needle)


G_FILE_INPUT_ERRORS = {
    "float dim": ({"dim": 1.9, "c": []}, "must be integers"),
    "float index": ({"dim": 1, "c": [{"i": 1.2, "j": 1, "k": 1, "val": 0}]}, "must be integers"),
    "zero denominator": ({"dim": 1, "c": [{"i": 1, "j": 1, "k": 1, "val": "1/0"}]},
                         "zero denominator"),
    "bool value": ({"dim": 1, "c": [{"i": 1, "j": 1, "k": 1, "val": True}]}, "True"),
    "top-level list": ([1], "bad g-file"),
    "list c entry": ({"dim": 1, "c": [[1, 1, 1, 1]]}, "bad g-file"),
    "c entry without val": ({"dim": 1, "c": [{"i": 1, "j": 1, "k": 1}]}, "bad g-file: 'val'"),
    "degrees for another dim": ({"dim": 3, "degrees": [0], "c": []}, "1 degrees for dim 3"),
    "names not a list": ({"dim": 1, "names": 5, "c": []}, "bad g-file"),
}


@pytest.mark.parametrize("gdata, needle", G_FILE_INPUT_ERRORS.values(), ids=G_FILE_INPUT_ERRORS)
def test_make_ansatz_refuses_malformed_numbers(tmp_path, gdata, needle):
    """int() truncated dim 1.9 and index 1.2 and a bool value was read as 1,
    all with exit 0; '1/0' ended in a ZeroDivisionError traceback.  The list
    and non-list shapes ended in a TypeError traceback, a missing val printed
    only 'val', and dim 3 with one degree wrote a 2-dimensional algebra."""
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(gdata))
    out = tmp_path / "spec.json"
    proc = run_cli("make-ansatz", "--n", "1", "--g-file", str(gpath), "-o", str(out),
                   "--skip-check")
    assert_one_error_line(proc, 2, needle)
    assert not out.exists()


def test_search_alphabet_zero_denominator_exits_2():
    """'1/0' in the alphabet used to end in a ZeroDivisionError traceback."""
    proc = run_cli("search", "--dim", "1", "--alphabet", "0,1/0")
    assert_one_error_line(proc, 2, "zero denominator")


@pytest.mark.parametrize("names", [["", "h", "e", "f"], ["x0", "h", "e", "h"]])
def test_empty_or_duplicate_labels_exit_2(sl2_file, tmp_path, names):
    """An empty label used to match with length 0, so reading a word never
    advanced; run in a subprocess so that a hang fails the test."""
    data = json.loads(open(sl2_file).read())
    for entry, name in zip(data["basis"], names):
        entry["name"] = name
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    proc = run_cli("nf", str(bad), "2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and "basis labels" in line


@pytest.mark.parametrize("word, flags", [("9", []), ("0,9", ["--json"]), ("4", [])])
def test_nf_generator_index_out_of_range_exits_2(l2f3_file, word, flags):
    """Indices name generators 0..dim-1; a larger one used to end in an
    IndexError traceback, or to print a normal form over no generator."""
    proc = run_cli("nf", l2f3_file, word, *flags)
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and "out of range" in line


@pytest.mark.parametrize("poly", ["x[1,1] -", "x[1,1] +", "x[1,1] *", "* x[1,1]",
                                  "x[1,1] * * x[2,2]", "-"])
def test_quotient_dangling_operator_exits_2(l2f3_file, poly):
    proc = run_cli("env", l2f3_file, "--quotient", poly)
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and repr(poly) in line


def test_quotient_sign_after_star_negates_the_factor(l2f3_file):
    """A sign right after '*' once exited 2 as a dangling operator, and
    before that read "x * - y" as "x - y"; it negates the next factor.
    None of the three is grouplike, so each refusal names its defect."""
    starred = run_cli("env", l2f3_file, "--json", "--quotient", "x[1,1] * - x[2,2]")
    bracketed = run_cli("env", l2f3_file, "--json", "--quotient", "x[1,1]*(-x[2,2])")
    misread = run_cli("env", l2f3_file, "--json", "--quotient", "x[1,1] - x[2,2]")
    assert starred.returncode == bracketed.returncode == misread.returncode == 2
    assert len(starred.stderr.splitlines()) == len(misread.stderr.splitlines()) == 1
    assert starred.stderr == bracketed.stderr
    assert starred.stderr != misread.stderr


def test_poly_parser_reads_well_formed_input(l2f3_file):
    spec = AlgebraSpec.from_json(open(l2f3_file).read())
    a, b, c, d = (NCPoly.word((g,)) for g in range(4))
    assert cli._parse_poly(spec, "x[1,1]*x[2,2] - x[2,1]*x[1,2]") == a * d - c * b
    assert cli._parse_poly(spec, "-x[1,1] + - x[2,2]") == -a - d
    assert cli._parse_poly(spec, "2 x[1,1] * 3 - -x[1,2]") == a.scaled(6) + b
    assert cli._parse_poly(spec, "x[1,1]x[2,2]") == a * d
    assert cli._parse_poly(spec, "") == NCPoly.zero()
    # a sign after '*' negates the factor; it once read as "x[1,1] - x[2,2]"
    assert cli._parse_poly(spec, "x[1,1] * - x[2,2]") == -(a * d)
    assert cli._parse_poly(spec, "x[1,1]^2 - (x[2,1] + x[1,2])") == a * a - c - b


def test_quotient_minus_then_plus_keeps_the_minus(tmp_path):
    """The flat parser let a '+' reset a pending '-', so this quotient was
    the one by x[1,1]*x[2,2] + x[2,1]*x[1,2].  At n=2 neither is grouplike,
    and the two refusals name different defects."""
    spec = str(tmp_path / "l2f2.json")
    assert run_cli("make-matrix", "--N", "2", "--n", "2", "--f", "0,1", "-o", spec).returncode == 0
    plain = run_cli("env", spec, "--json", "--quotient", "x[1,1]*x[2,2] - x[2,1]*x[1,2]")
    signed = run_cli("env", spec, "--json", "--quotient", "x[1,1]*x[2,2] - + x[2,1]*x[1,2]")
    plus = run_cli("env", spec, "--json", "--quotient", "x[1,1]*x[2,2] + x[2,1]*x[1,2]")
    assert plain.returncode == signed.returncode == plus.returncode == 2
    assert len(signed.stderr.splitlines()) == 1
    assert signed.stderr == plain.stderr
    assert signed.stderr != plus.stderr


@pytest.mark.parametrize("word", ["x[1,3],x[2,1],x[2,3]", "x[1,3],x[2,3],x[2,1]"])
def test_nf_refuses_a_system_that_is_not_confluent(tmp_path, word):
    """Both words are 0 in the algebra, but the rules reduce only the
    second to 0; nf used to print (1)*x[1,3]*x[2,1]*x[2,3] for the first."""
    spec = tmp_path / "d3.json"
    made = run_cli("make-matrix", "--N", "3", "--n", "3", "--f", "0,0,1", "-o", str(spec))
    assert made.returncode == 0
    proc = run_cli("nf", str(spec), word)
    assert proc.returncode == 1
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line == ("error: normal forms are not unique: "
                    "the critical pair at x[1,3]*x[2,3]*x[2,1] diverges")


@pytest.fixture
def bad_counit_file(l2f3_file, tmp_path):
    """l2f3 with a counit on x[1,2], which breaks the grading; the counit
    enters no relation, so the rewrite system is that of l2f3."""
    data = json.loads(open(l2f3_file).read())
    data["eps"].append({"mu": 1, "val": {"order": 1, "terms": [[0, "1"]]}})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    return str(bad)


def assert_refused_unverified(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "grading check" in line and "--force" in line


def test_env_unverified_spec_needs_force(l2f3_file, bad_counit_file, capsys):
    assert main(["env", bad_counit_file]) == 1
    assert_refused_unverified(capsys)
    # --force generates relations anyway
    assert main(["env", bad_counit_file, "--force"]) == 0
    forced = capsys.readouterr().out
    assert main(["env", l2f3_file]) == 0
    assert forced == capsys.readouterr().out


def test_nf_unverified_spec_needs_force(bad_counit_file, capsys):
    assert main(["nf", bad_counit_file, "x[2,1],x[1,2]"]) == 1
    assert_refused_unverified(capsys)
    assert main(["nf", bad_counit_file, "x[2,1],x[1,2]", "--force"]) == 0
    assert capsys.readouterr().out == "(z3)*x[1,2]*x[2,1]\n"


def test_nf_command(l2f3_file, capsys):
    assert main(["nf", l2f3_file, "x[2,1],x[1,2]"]) == 0
    assert "(z3)*x[1,2]*x[2,1]" in capsys.readouterr().out
    assert main(["nf", l2f3_file, "3,1"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["nf", l2f3_file, "x[2,2]*x[1,1]", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    from anylie.cyclotomic import CycNum
    (entry,) = data["nf"]
    assert entry["word"] == [0, 3]
    assert CycNum.from_json(entry["val"]).is_one()


def test_labels_sharing_a_prefix(l2f3_file, tmp_path, capsys):
    """'a' is a prefix of 'ab': 'aba' reads as (ab, a) both as an nf word
    and in a --quotient polynomial, so d*a - c*b gives the usual quotient."""
    names = {"x[1,1]": "a", "x[2,2]": "ab"}
    data = json.loads(open(l2f3_file).read())
    for entry in data["basis"]:
        entry["name"] = names.get(entry["name"], entry["name"])
    path = tmp_path / "prefix.json"
    path.write_text(json.dumps(data))
    spec = AlgebraSpec.from_json(path.read_text())
    assert cli._parse_word(spec, "aba") == (3, 0)
    assert cli._parse_poly(spec, "aba") == NCPoly.word((3, 0))
    assert main(["nf", str(path), "aba"]) == 0
    assert capsys.readouterr().out == "(1)*a*ab\n"
    assert main(["env", str(path), "--quotient", "aba - x[2,1]*x[1,2]"]) == 0
    got = capsys.readouterr().out
    assert main(["env", l2f3_file, "--quotient", "x[1,1]*x[2,2] - x[2,1]*x[1,2]"]) == 0
    want = capsys.readouterr().out
    for old, new in names.items():
        want = want.replace(old, new)
    assert got == want


def test_nf_unknown_generator_exits_2(l2f3_file, capsys):
    assert main(["nf", l2f3_file, "nosuch"]) == 2


def test_anyspace_expand(capsys):
    assert main(["anyspace", "--n", "3", "expand", "(t1+t2)^3"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["anyspace", "--n", "3", "expand", "(t1+t2)^2"]) == 0
    out = capsys.readouterr().out
    assert "(1+z3)*t1*t2" in out
    assert main(["anyspace", "--n", "4", "expand", "t2*t1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["terms"] == [{"exponents": [1, 1], "val": {"order": 4, "terms": [[1, "1"]]}}]


def test_anyspace_bad_expression_exits_2(capsys):
    assert main(["anyspace", "--n", "3", "expand", "(t1+"]) == 2


@pytest.mark.parametrize("args, named", [
    (["t99999999999999999999"], "variable t99999999999999999999"),
    (["t1", "--vars", "99999999999999999999"], "--vars 99999999999999999999"),
    ([f"t{MAX_SLOTS + 1}"], f"variable t{MAX_SLOTS + 1}"),
    (["t1", "--vars", str(MAX_SLOTS + 1)], f"--vars {MAX_SLOTS + 1}"),
])
def test_anyspace_slot_count_past_the_limit_exits_2(args, named, capsys):
    """A slot count above MAX_SLOTS is refused before any exponent tuple
    is built: one stderr line naming the flag or the variable, no traceback."""
    assert main(["anyspace", "--n", "3", "expand"] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {named}") and f"{MAX_SLOTS} tensor slots" in line


@pytest.mark.parametrize("expr, json_flag, named", [
    ("t" + "9" * 5000, [], "error: variable t999"),
    ("1" * 5000, [], "error: integer of 5000 digits at position 0"),
    ("2^99999", [], "error: a coefficient of the expansion has more than"),
    ("2^99999", ["--json"], "error: a coefficient of the expansion has more than"),
])
def test_anyspace_numbers_past_the_digit_limit_exit_2(expr, json_flag, named, capsys):
    """An index or a literal too long for `int`, and a coefficient too long
    to print or encode, end in one line of the command line's own, not
    Python's advice to raise its conversion limit."""
    assert main(["anyspace", "--n", "3", "expand", expr] + json_flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(named) and "set_int_max_str_digits" not in line


ONES = "1" * 5000


@pytest.mark.parametrize("argv, named", [
    (["nf", "{spec}", ONES], f"error: generator index {ONES} out of range: the spec has 4"),
    (["search", "--dim", "1", "--n", "3", "--alphabet", f"z^{ONES}"],
     "error: an integer of 5000 digits in z^k: at most"),
    (["make-matrix", "--N", "2", "--n", "3", "--f", f"0,{ONES}"],
     "error: an integer of 5000 digits in --f: at most"),
])
def test_integers_past_the_digit_limit_in_flags_and_words_exit_2(argv, named, l2f3_file,
                                                                  capsys):
    """An integer too long for `int` in a flag, a word or a z^k exponent is
    refused in the command line's own words, in one line."""
    assert main([l2f3_file if a == "{spec}" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(named) and "set_int_max_str_digits" not in line


@pytest.mark.parametrize("where, text", [
    ("--alphabet", ONES), ("g-file", ONES), ("spec", ONES), ("g-file", "1e5000"),
    ("g-file", "1e999999999"), ("spec", "1e-999999999"),
])
def test_rationals_past_the_digit_limit_exit_2(where, text, l2f3_file, tmp_path, capsys):
    """A rational read from outside (an --alphabet token, a g-file value, a
    spec term) whose numerator, denominator or exponent is too long for the
    interpreter's conversion limit is refused in one line of the command
    line's own.  It is sized before `Fraction` builds anything: 1e5000 was
    read and failed only when printed, and 1e999999999 would be a number of
    about 415 MB."""
    if where == "--alphabet":
        argv = ["search", "--dim", "1", "--n", "3", "--alphabet", text]
    elif where == "g-file":
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({"dim": 1, "c": [{"i": 1, "j": 1, "k": 1, "val": text}]}))
        argv = ["make-ansatz", "--n", "1", "--g-file", str(gpath), "--skip-check"]
    else:
        data = json.loads(open(l2f3_file).read())
        data["eps"][0]["val"] = {"order": 1, "terms": [[0, text]]}
        spec = tmp_path / "long.json"
        spec.write_text(json.dumps(data))
        argv = ["verify", str(spec)]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "set_int_max_str_digits" not in line
    assert "a rational with more than" in line


def test_anyspace_slot_count_at_the_limit_expands(capsys):
    assert main(["anyspace", "--n", "3", "expand", f"t{MAX_SLOTS}"]) == 0
    assert capsys.readouterr().out == f"(1)*t{MAX_SLOTS}\n"
    assert main(["anyspace", "--n", "3", "expand", "t1", "--vars", str(MAX_SLOTS)]) == 0
    assert capsys.readouterr().out == "(1)*t1\n"


def test_search_finds_one_dimensional_case(capsys):
    assert main(["search", "--dim", "1", "--n", "1", "--alphabet", "0,1,-1",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["candidates"] == 27
    assert data["count"] == 2
    ones = {"order": 1, "terms": [[0, "1"]]}
    target = {"grading": {"group": [1], "bichar": [[1]]},
              "basis": [{"name": "x0", "degree": [0]}],
              "eps": [{"mu": 0, "val": ones}],
              "d": [{"mu": 0, "nu": 0, "rho": 0, "val": ones}],
              "c": [{"mu": 0, "nu": 0, "rho": 0, "val": ones}]}
    assert target in data["solutions"]


def test_search_zero_alphabet_empty(capsys):
    assert main(["search", "--dim", "1", "--n", "1", "--alphabet", "0", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 0


def test_search_forced_delta_with_degree_returns_empty(capsys):
    assert main(["search", "--dim", "1", "--n", "3", "--degrees", "1",
                 "--require-nonzero-delta", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 0


def test_search_cap_refusal(capsys):
    assert main(["search", "--dim", "2", "--n", "1", "--alphabet", "0,1,-1",
                 "--cap", "1000"]) == 2
    err = capsys.readouterr().err
    assert "refusing" in err and "387420489" in err


def test_search_solutions_reload_and_verify(capsys):
    assert main(["search", "--dim", "1", "--n", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    for sol in data["solutions"]:
        spec = AlgebraSpec.from_json(sol)
        assert verify_all(spec).passed
        assert AlgebraSpec.from_json(spec.to_json()) == spec


def test_repeated_runs_byte_identical(l2f3_file, capsys):
    main(["env", l2f3_file, "--json"])
    first = capsys.readouterr().out
    main(["env", l2f3_file, "--json"])
    second = capsys.readouterr().out
    assert first == second
    main(["search", "--dim", "1", "--n", "2", "--json"])
    third = capsys.readouterr().out
    main(["search", "--dim", "1", "--n", "2", "--json"])
    assert third == capsys.readouterr().out

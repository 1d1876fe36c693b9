"""Golden-output regression: fixed CLI commands must keep their stdout
byte for byte and their exit code.

Each file `golden/<name>.txt` holds `exit: <code>` on its first line and
the command's exact stdout after it.  The inputs are built in a temporary
directory by `make-matrix` and `make-ansatz` (plus one perturbed counit),
so the commands name only relative files.  To re-record after an intended output change,
run `PYTHONPATH=src python tests/test_golden_cli.py` and review the diff.
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from anylie.cli import main

GOLDEN = Path(__file__).parent / "golden"
DET = "x[1,1]*x[2,2] - x[2,1]*x[1,2]"
# sl(2) on (h, e, f), 1-based: [h,e] = 2e, [h,f] = -2f, [e,f] = h
SL2_G = {"dim": 3, "names": ["h", "e", "f"], "degrees": [0, 0, 0],
         "c": [{"i": i, "j": j, "k": k, "val": v} for (i, j, k), v in (
             ((1, 2, 2), 2), ((2, 1, 2), -2), ((1, 3, 3), -2), ((3, 1, 3), 2),
             ((2, 3, 1), 1), ((3, 2, 1), -1))]}

COMMANDS = {
    "make_matrix": ["make-matrix", "--N", "2", "--n", "3", "--f", "0,1"],
    "verify": ["verify", "l2f3.json"],
    "verify_perturbed_json": ["verify", "bad_counit.json", "--json"],
    "env": ["env", "l2f3.json"],
    "env_json": ["env", "l2f3.json", "--json"],
    "env_quotient_n3": ["env", "l2f3.json", "--quotient", DET],
    "env_quotient_n2": ["env", "l2f2.json", "--quotient", DET],
    "nf": ["nf", "l2f3.json", "x[2,1],x[1,2]"],
    "nf_json": ["nf", "sl2.json", "f,f,e,e", "--json"],
    "env_sl2": ["env", "sl2.json"],
    "env_divergent": ["env", "d3.json"],
    "anyspace": ["anyspace", "--n", "3", "expand", "(t1+t2)^2"],
    "anyspace_vars3_json": ["anyspace", "--n", "5", "expand", "(t1-2*t2+t3)^3",
                            "--vars", "3", "--json"],
    "search_dim1": ["search", "--dim", "1", "--n", "1", "--alphabet", "0,1,-1"],
    "search_dim2": ["search", "--dim", "2", "--n", "2", "--alphabet", "0,1",
                    "--degrees", "0,1"],
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _make_inputs(workdir: Path):
    for name, N, n, f in (("l2f3", "2", "3", "0,1"), ("l2f2", "2", "2", "0,1"),
                          ("d3", "3", "3", "0,0,1")):
        assert _run(["make-matrix", "--N", N, "--n", n, "--f", f,
                     "-o", str(workdir / f"{name}.json")])[0] == 0
    (workdir / "sl2_g.json").write_text(json.dumps(SL2_G))
    assert _run(["make-ansatz", "--n", "1", "--g-file", str(workdir / "sl2_g.json"),
                 "-o", str(workdir / "sl2.json")])[0] == 0
    data = json.loads((workdir / "l2f3.json").read_text())
    for entry in data["eps"]:
        if entry["mu"] == 0:
            entry["val"] = {"order": 1, "terms": [[0, "2"]]}
    (workdir / "bad_counit.json").write_text(json.dumps(data, sort_keys=True))


def _golden_text(code, stdout):
    return f"exit: {code}\n{stdout}"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    _make_inputs(path)
    return path


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    got = _golden_text(*_run(COMMANDS[name]))
    want = (GOLDEN / f"{name}.txt").read_text()
    assert got == want


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(COMMANDS)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _make_inputs(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for name, argv in COMMANDS.items():
                (GOLDEN / f"{name}.txt").write_text(_golden_text(*_run(argv)))
        finally:
            os.chdir(here)
    print(f"recorded {len(COMMANDS)} golden outputs in {GOLDEN}", file=sys.stderr)

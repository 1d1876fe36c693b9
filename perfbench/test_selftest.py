"""Self-test of the benchmark's oracle path: wrong verdicts and wrong
outputs, produced by a stand-in program, must count as failed commands.

    python3 -m unittest perfbench/test_selftest.py
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles as O  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


def fake_program(stdout: str, code: int = 0, crash: bool = False) -> list:
    """A stand-in for `anylie` that prints fixed text and exits."""
    body = f"import sys; sys.stdout.write({stdout!r}); "
    body += "raise RuntimeError('boom')" if crash else f"sys.exit({code})"
    return [sys.executable, "-c", body]


class OraclePath(unittest.TestCase):
    def run_fake(self, cmd: W.Command, program: list) -> list:
        with tempfile.TemporaryDirectory() as tmp:
            runner = run.ChildRunner(None, Path(tmp))
            try:
                code, stdout, stderr, *_ = runner.run(program + cmd.args, tmp)
            finally:
                runner.close()
            return run.check_command(cmd, code, stdout, stderr, Path(tmp), {})

    def perturbed_verify(self) -> W.Command:
        workload = W.build("verify", 7)
        return next(c for c in workload.commands if "eps[" in c.label and "--json" not in c.args)

    def test_wrong_verdict_fails(self):
        cmd = self.perturbed_verify()
        self.assertTrue(self.run_fake(cmd, fake_program("counit: pass\nverdict: pass\n")))

    def test_right_verdict_passes(self):
        cmd = self.perturbed_verify()
        self.assertEqual(self.run_fake(cmd, fake_program("counit: FAIL\nverdict: FAIL\n", 1)),
                         [])

    def test_traceback_fails(self):
        cmd = self.perturbed_verify()
        errors = self.run_fake(cmd, fake_program("counit: FAIL\nverdict: FAIL\n", crash=True))
        self.assertTrue(any("traceback" in e for e in errors))

    def test_wrong_search_count_fails(self):
        cmd = next(c for c in W.build("search", 3).commands if c.label == "search n=1")
        wrong = {"candidates": 27, "count": 0, "solutions": []}
        self.assertTrue(self.run_fake(cmd, fake_program(json.dumps(wrong))))

    def test_wrong_power_fails(self):
        cmd = W.build("braided-line", 3).commands[0]
        self.assertTrue(self.run_fake(cmd, fake_program("0\n")))

    def test_wrong_normal_form_fails(self):
        qc = O.QuasiCommutation(O.SpecModel.matrix_family(2, 3, (0, 1)))
        one = {"order": 1, "terms": [[0, "1"]]}
        z3 = {"order": 3, "terms": [[1, "1"]]}
        # x[2,1] x[1,2] = z3 x[1,2] x[2,1] (README)
        self.assertEqual(O.check_nf_json(qc, (2, 1), json.dumps(
            {"nf": [{"word": [1, 2], "val": z3}]})), [])
        self.assertTrue(O.check_nf_json(qc, (2, 1), json.dumps(
            {"nf": [{"word": [1, 2], "val": one}]})))

    def test_known_defect_still_counts_as_failed(self):
        cmd = next(c for c in W.build("envelope", 1).commands if c.known_defect)
        errors = self.run_fake(cmd, fake_program("", crash=True))
        self.assertTrue(errors)


if __name__ == "__main__":
    unittest.main()

"""The benchmark tools under tools/, run as scripts."""

import subprocess
import sys
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_bench_pairs_refuses_fewer_than_two_pairs_before_any_run(pairs, tmp_path):
    """Quartiles need two runs per side, so fewer pairs are a usage error
    before anything runs: the checkouts given here do not even exist."""
    missing = str(tmp_path / "missing")
    done = subprocess.run([sys.executable, str(BENCH_PAIRS), "--parent", missing, "--change",
                           missing, "--workload", "verify", "--pairs", pairs],
                          capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines()[-1].endswith(f"--pairs must be at least 2, got {pairs}")

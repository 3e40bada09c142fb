"""The benchmark harness's own self-test, run as part of the test suite.

A library change that breaks a check the harness relies on then fails
here, not only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "self-test passed"

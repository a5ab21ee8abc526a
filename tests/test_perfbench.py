"""The benchmark's own self-test runs with the tier-1 suite.

A library change that breaks the benchmark (a renamed function it wraps, a
parameter field it replaces) then fails here instead of only in a benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]

"""The benchmark's own tests, run from tier-1 so that a package change that
breaks the benchmark fails here first.

They run in a subprocess: ``tests/`` and ``perfbench/`` each put their own
``conftest`` on the import path, so one pytest session cannot collect both.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_self_tests_pass():
    r = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        "perfbench"], cwd=ROOT, capture_output=True, text=True,
                       timeout=300)
    assert r.returncode == 0, r.stdout[-3000:] + r.stderr[-3000:]

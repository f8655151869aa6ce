"""One short traced run of the benchmark harness in ``perfbench/``.

The traced pass calls every public stage function by name and checks the
staged pipeline and the scalar oracle against ``solve``, so this guards the
names and outputs the benchmark depends on.  It writes only under the
git-ignored ``perfbench/out/``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# latin-chain has n-1 rotations that each move every man; on uniform-complete
# the minimum-regret cutoff drops most of every list before the generous solve.
@pytest.mark.parametrize("workload", ["latin-chain", "uniform-complete"])
def test_benchmark_traced_smoke_run(workload):
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, proc.stderr
    assert summary["failed"] == 0, proc.stderr

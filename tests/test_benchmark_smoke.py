"""One short run of the benchmark harness in ``perfbench/`` per workload and mode.

The untraced pass times ``solve`` for every criterion and checks each output;
the traced pass calls every public stage function by name and checks the
staged pipeline and the scalar oracle against ``solve``.  So these guard the
names and outputs the benchmark depends on, in both of its modes.  They
write only under the git-ignored ``perfbench/out/``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# latin-chain has n-1 rotations that each move every man; on uniform-complete
# the minimum-regret cutoff drops most of every list before the generous
# solve; sparse-large has few rotations and long instance text.
WORKLOADS = ["latin-chain", "uniform-complete", "sparse-large"]


def _smoke_run(workload, trace):
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, proc.stderr
    assert summary["failed"] == 0, proc.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_traced_smoke_run(workload):
    _smoke_run(workload, "1")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_untraced_smoke_run(workload):
    _smoke_run(workload, "0")

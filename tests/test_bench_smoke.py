"""One block of each benchmark workload runs with no failed op.

The benchmark checks every op's output after the loop; running one block
here makes a wrong answer from an op fail the test suite too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "benchmarks" / "worker.py"


@pytest.mark.parametrize("workload", ["characters", "lambda", "reductions", "cli"])
def test_one_block_of_the_workload_runs_clean(workload):
    proc = subprocess.run([sys.executable, str(WORKER), "run", "--workload", workload,
                           "--seed", "1", "--blocks", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failed_ops"]

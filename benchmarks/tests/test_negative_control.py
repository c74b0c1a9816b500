"""The benchmark's output checks catch wrong outputs (negative controls).

    PYTHONPATH=src python3 -m pytest -q benchmarks/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import worker  # noqa: E402
import workloads  # noqa: E402
from thetasummands import charring, dominance, lambdaring  # noqa: E402
from thetasummands.charring import CharElem  # noqa: E402
from workloads import Op, system  # noqa: E402


def perturbed(ch: CharElem) -> CharElem:
    """ch with one orbit-basis coefficient off by one."""
    coeffs = dict(ch.coeffs)
    mu = max(coeffs)
    coeffs[mu] += 1
    return CharElem(ch.system, coeffs)


def test_perturbed_character_fails_its_check():
    rs = system("C4")
    w = (2, 1, 0, 0)
    op = Op("charring.freudenthal_character", charring.freudenthal_character, (rs, w))
    good = charring.freudenthal_character(rs, w)
    verdicts = workloads.Characters(1).check([(op, good), (op, perturbed(good))])
    assert verdicts == [True, False]


def test_perturbed_lambda_power_fails_both_partners():
    rs = system("C3")
    a = CharElem(rs, {(1, 0, 0): 2})
    virtual = Op("lambdaring.lambda_power_virtual", lambdaring.lambda_power_virtual,
                 (2, a), key=1)
    effective = Op("lambdaring.lambda_power_effective",
                   lambdaring.lambda_power_effective, (2, a), key=1)
    good = lambdaring.lambda_power_effective(2, a)
    wl = workloads.Lambda(1)
    assert wl.check([(virtual, good), (effective, good)]) == [True, True]
    assert wl.check([(virtual, perturbed(good)), (effective, good)]) == [False, False]


def test_exception_and_wrong_exit_code_fail():
    op = Op("dominance.reduce_e6", dominance.reduce_e6, ((0,) * 6,))
    assert workloads.Reductions(1).check([(op, ValueError("boom"))]) == [False]
    cli_op = Op("cli.main", workloads.run_cli, (["classify", "--case", "cubic-threefold"],),
                (0, None))
    assert workloads.Cli(1).check([(cli_op, (1, "", '{"status": "error"}'))]) == [False]


def test_altered_golden_bytes_count_in_failed_ratio(monkeypatch, capsys):
    """A full worker run counts every classification that misses its golden."""
    real = workloads.golden_bytes
    monkeypatch.setattr(workloads, "golden_bytes", lambda case: real(case) + " ")
    worker.main(["run", "--workload", "reductions", "--seed", "1", "--blocks", "3"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # one classify_summands op per block
    assert result["attempted"] == 33 and result["failed"] == 3


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""

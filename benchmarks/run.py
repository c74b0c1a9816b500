"""Run one workload of the benchmark and print its metrics.

    python3 benchmarks/run.py --workload characters --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it builds nothing and uses only the
standard library.  With ``--trace 0`` it prints the end-to-end metrics: the
set-up time is the median over several fresh interpreters, and the ops come
from one closed loop with one client in a further fresh interpreter.  With
``--trace 1`` it runs a fixed prefix of the op stream twice, untraced and
traced, and prints the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("characters", "lambda", "reductions", "cli")
SETUP_SAMPLES = 7  # fresh interpreters timed for setup_s, the run's own included
PROBE_SAMPLES = 5  # fresh interpreters for cli.python_start_ms and cli.import_ms
DEADLINE_S = 170  # the whole run ends within this many seconds
# blocks in the stream prefix of a traced run, a few seconds of ops each
TRACE_BLOCKS = {"characters": 8, "lambda": 100, "reductions": 120, "cli": 2}

UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
         "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".seconds")):
        return "s"
    if name.endswith(".ns_per_call"):
        return "ns"
    if name.endswith(("_ratio", ".share")):
        return "1"
    return "count"


class Runner:
    """Starts children one at a time and keeps the whole run in its deadline."""

    def __init__(self):
        self.deadline = time.monotonic() + DEADLINE_S

    def child(self, argv) -> str:
        # own session, so that a timeout also ends the CLI runs it started
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[1:]} exited with code {proc.returncode}")
        return out

    def worker(self, *args) -> dict:
        return json.loads(self.child([sys.executable, str(WORKER), *args])
                          .strip().splitlines()[-1])

    def setup_seconds(self, workload: str, count: int) -> list[float]:
        return [self.worker("setup", "--workload", workload)["setup_s"]
                for _ in range(count)]

    def python_start_ms(self, count: int) -> float:
        times = []
        for _ in range(count):
            t0 = time.perf_counter()
            self.child([sys.executable, "-c", "pass"])
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1000


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def end_to_end(runner: Runner, args) -> tuple[dict, dict]:
    setups = runner.setup_seconds(args.workload, SETUP_SAMPLES - 1)
    res = runner.worker("run", "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", "0")
    setups.append(res["setup_s"])
    done = res["attempted"] - res["failed"]
    metrics = {"setup_s": statistics.median(setups),
               "ops_per_s": done / res["busy_s"],
               "op_p50_ms": res["op_p50_ms"], "op_p90_ms": res["op_p90_ms"],
               "peak_rss_mb": res["peak_rss_mb"]}
    return metrics, res


def per_layer(runner: Runner, args) -> tuple[dict, dict]:
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--blocks", str(TRACE_BLOCKS[args.workload])]
    plain = runner.worker("run", *common, "--trace", "0")
    res = runner.worker("run", *common, "--trace", "1")
    for key in ("attempted", "failed", "failed_ops"):
        res[key] += plain[key]
    metrics = dict(res["layers"])
    metrics["trace.overhead_ratio"] = res["loop_s"] / plain["loop_s"]
    metrics["cli.python_start_ms"] = runner.python_start_ms(PROBE_SAMPLES)
    metrics["cli.import_ms"] = statistics.median(
        runner.setup_seconds("cli", PROBE_SAMPLES)) * 1000
    metrics["cli.dispatch_ms"] = res.get("cli.dispatch_ms", 0.0)
    return metrics, res



def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "thetasummands" / "__init__.py",
                           ROOT / "tests" / "goldens") if not p.exists()]
    if missing:
        print(f"run.py: cannot find {', '.join(map(str, missing))}; run it from "
              "the root of a thetasummands checkout", file=sys.stderr)
        return 2

    runner = Runner()
    if args.trace:
        metrics, res = per_layer(runner, args)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, res = end_to_end(runner, args)
        units = UNITS
    attempted, failed = res["attempted"], res["failed"]

    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "commit": git_commit(), "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "shape": "closed loop, 1 client, 1 fresh interpreter"}
    print("# env " + json.dumps(env))
    for name, value in metrics.items():
        print(f"{name:52s} {value:14.6g} {units[name]}")
    print(f"{'failed_ratio':52s} {failed / attempted:14.6g} 1 "
          f"({failed} of {attempted} ops)")
    for line in res["failed_ops"]:
        print(f"# failed: {line}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

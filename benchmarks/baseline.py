"""Measure a baseline: repeated runs of every workload, summarised.

    python3 benchmarks/baseline.py --seeds 1-10 --sets 2 --out benchmarks/results/BENCH_0.json

For each set, and each workload in BENCHMARK.json, it runs ``run.py`` once
per seed untraced and once traced (first seed), one run at a time.  It
records every run, and per end-to-end metric the median, the quartiles and
the spread (quartile distance over median).  With two sets it also checks
the benchmark's own acceptance rule: every spread but that of ``setup_s``
within its bound, each second-set median no worse than the first by more
than the bound, and the work counts of the traced runs identical.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# per-layer metrics that are work counts and must repeat exactly
COUNT_UNITS = ("count",)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(bench, workload, seed, trace) -> dict:
    argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                         timeout=300, check=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    return {"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: v["value"] for k, v in res["metrics"].items()}}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def measure_set(bench, seeds) -> dict:
    out = {}
    for wl in bench["workloads"]:
        name = wl["name"]
        runs = []
        for seed in seeds:
            runs.append(run(bench, name, seed, 0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        traced = run(bench, name, seeds[0], 1)
        out[name] = {
            "runs": runs, "traced": traced,
            "summary": {m["name"]: summary([r["metrics"][m["name"]] for r in runs])
                        for m in bench["end_to_end"]}}
    return out


def compare(bench, sets) -> list[str]:
    """Problems found by the acceptance rule; an empty list means accepted."""
    problems = []
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for wl in bench["workloads"]:
        name = wl["name"]
        for s in sets:
            for m in bench["end_to_end"]:
                spread = s[name]["summary"][m["name"]]["spread"]
                if m["name"] != "setup_s" and spread > m["bound"]:
                    problems.append(f"{name}.{m['name']}: spread {spread:.3f} > {m['bound']}")
            if not all(r["correct"] for r in s[name]["runs"] + [s[name]["traced"]]):
                problems.append(f"{name}: a run reported failed ops")
        for first, second in zip(sets, sets[1:]):
            for m in bench["end_to_end"]:
                a = first[name]["summary"][m["name"]]["median"]
                b = second[name]["summary"][m["name"]]["median"]
                worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
                if worse > m["bound"]:
                    problems.append(f"{name}.{m['name']}: second median worse by {worse:.3f}")
            counts = [{k: v for k, v in s[name]["traced"]["metrics"].items()
                       if units.get(k) in COUNT_UNITS} for s in (first, second)]
            if counts[0] != counts[1]:
                problems.append(f"{name}: work counts differ between sets")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or "unknown"
    sets = [measure_set(bench, seeds) for _ in range(args.sets)]
    problems = compare(bench, sets)
    for i, s in enumerate(sets, start=1):
        for name, data in s.items():
            for metric, summ in data["summary"].items():
                print(f"set {i} {name:11s} {metric:12s} median {summ['median']:10.4g} "
                      f"q1 {summ['q1']:10.4g} q3 {summ['q3']:10.4g} "
                      f"spread {summ['spread']:.3f}")
    print("accepted" if not problems else "\n".join(problems))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "run_seconds": bench["run_seconds"],
            "seeds": seeds, "sets": sets, "problems": problems}, indent=1) + "\n")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark client in a fresh interpreter.

    python3 benchmarks/worker.py setup --workload W
    python3 benchmarks/worker.py run --workload W --seed N (--seconds S | --blocks K) --trace 0|1

``setup`` times ``import thetasummands`` plus ``build_root_system`` for the
workload's systems (``import thetasummands.cli`` for ``cli``) and exits.
``run`` does the same set-up, then issues the workload's ops one after the
other (a closed loop with one client) in whole blocks of the workload's op
mix, until the ops have taken S seconds and at least MIN_OPS ops ran, or for
exactly K blocks.  Outputs are checked after the loop.  With
``--trace 1`` it also records one span per op and derives the per-layer
figures.  The result is one JSON line on stdout.  ``run.py`` drives this.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

# root systems built during set-up; the cli workload only imports the CLI
SETUP_SYSTEMS = {
    "characters": ("C4", "A5", "E6"),
    "lambda": ("C3", "A3", "E6"),
    "reductions": tuple(f"C{n}" for n in range(1, 8))
    + tuple(f"A{2 * n - 1}" for n in range(1, 6)) + ("E6",),
    "cli": None,
}
MIN_OPS = 100  # so that at least ten latency samples lie beyond the p90
MODULES = ("rootsys", "weyl", "dominance", "charring", "lambdaring",
           "brillnoether", "cli")
# lru_caches behind the public functions, read through cache_info()
CACHES = {"weyl.orbit": ("weyl", "_orbit_cached"),
          "charring.freudenthal_character": ("charring", "_freudenthal_cached")}


def set_up(workload: str, spans: list) -> float:
    start = time.perf_counter()
    if SETUP_SYSTEMS[workload] is None:
        import thetasummands.cli  # noqa: F401
    else:
        import thetasummands
        for name in SETUP_SYSTEMS[workload]:
            t0 = time.perf_counter()
            thetasummands.build_root_system(thetasummands.parse_kind(name))
            spans.append(("rootsys.build_root_system", t0, time.perf_counter(), -1))
    return time.perf_counter() - start


def cache_counts() -> dict[str, tuple[int, int]]:
    counts = {}
    for name, (module, attr) in CACHES.items():
        fn = getattr(sys.modules.get(f"thetasummands.{module}"), attr, None)
        if hasattr(fn, "cache_info"):
            info = fn.cache_info()
            counts[name] = (info.hits, info.misses)
    return counts


def ns_per_call(calls, reps: int = 5) -> float:
    """Median over reps of the mean time of one call in a tight loop."""
    per_call = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for fn, a, b in calls:
            fn(a, b)
        per_call.append((time.perf_counter() - t0) / len(calls))
    return statistics.median(per_call) * 1e9


def microloops(weights, size: int = 20000) -> dict[str, float]:
    """rootsys.add and rootsys.reflect over the workload's own weights."""
    rng = random.Random(0)
    by_system = defaultdict(list)
    for rs, w in weights:
        by_system[rs].append(w)
    adds, reflects = [], []
    for _ in range(size):
        rs, w = rng.choice(weights)
        adds.append((rs.add, w, rng.choice(by_system[rs])))
        reflects.append((rs.reflect, rng.randrange(rs.rank), w))
    return {"rootsys.add.ns_per_call": ns_per_call(adds),
            "rootsys.reflect.ns_per_call": ns_per_call(reflects)}


def cli_dispatch_ms(records) -> float:
    """In-process cli.main over the command list the loop ran, in ms."""
    from thetasummands import cli
    t0 = time.perf_counter()
    for op, _ in records:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(op.args[0]))
    return (time.perf_counter() - t0) * 1000


def layer_metrics(wl, records, spans, wall, before, after) -> dict:
    busy, calls = defaultdict(float), Counter()
    for name, t0, t1, _ in spans:
        busy[name] += t1 - t0
        calls[name] += 1
    m = {
        "rootsys.build_root_system.busy_s": busy["rootsys.build_root_system"],
        **microloops(wl.sample_weights()),
        "weyl.orbit.calls": calls["weyl.orbit"],
        "weyl.orbit.busy_s": busy["weyl.orbit"],
        "weyl.orbit.elements": 0,
        "weyl.weyl_group_order.busy_s": busy["weyl.weyl_group_order"],
        "dominance.dominant_ideal.calls": calls["dominance.dominant_ideal"],
        "dominance.dominant_ideal.busy_s": busy["dominance.dominant_ideal"],
        "dominance.dominant_ideal.size_total": 0,
        "dominance.brute_force_reduce.busy_s": busy["dominance.brute_force_reduce"],
        "dominance.reduce_hyp.busy_s": busy["dominance.reduce_hyp"],
        "dominance.reduce_nonhyp.busy_s": busy["dominance.reduce_nonhyp"],
        "dominance.reduce_e6.busy_s": busy["dominance.reduce_e6"],
        "dominance.reduce.steps": 0,
        "dominance.dominance_compare.busy_s": busy["dominance.dominance_compare"],
        "charring.freudenthal_character.calls": calls["charring.freudenthal_character"],
        "charring.freudenthal_character.busy_s": busy["charring.freudenthal_character"],
        "charring.freudenthal_character.dim_total": 0,
        "charring.tensor_decompose.busy_s": busy["charring.tensor_decompose"],
        "charring.multiply.calls": calls["charring.multiply"],
        "charring.multiply.busy_s": busy["charring.multiply"],
        "charring.multiply.pairs": 0,
        "lambdaring.lambda_power_effective.calls":
            calls["lambdaring.lambda_power_effective"],
        "lambdaring.lambda_power_effective.busy_s":
            busy["lambdaring.lambda_power_effective"],
        "lambdaring.lambda_power_effective.multiset_terms": 0,
        "lambdaring.lambda_power_virtual.busy_s": busy["lambdaring.lambda_power_virtual"],
        "lambdaring.adams.busy_s": busy["lambdaring.adams"],
        "lambdaring.newton_transforms.busy_s": busy["lambdaring.newton_transforms"],
        "brillnoether.support_of_orbit.busy_s": busy["brillnoether.support_of_orbit"],
        "brillnoether.support_dim.busy_s": busy["brillnoether.support_dim_hyp"]
        + busy["brillnoether.support_dim_nonhyp_bound"],
        "brillnoether.classify_summands.busy_s": busy["brillnoether.classify_summands"],
        "suites.run_suite.seconds": 0.0,
    }
    for name in CACHES:
        if name in before and name in after:  # absent once a cache is removed
            hits = after[name][0] - before[name][0]
            misses = after[name][1] - before[name][1]
            m[f"{name}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for module in MODULES:
        m[f"{module}.share"] = sum(t for name, t in busy.items()
                                   if name.startswith(module + ".")) / wall
    m.update(wl.counts(records))
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_SYSTEMS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--blocks", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spans = []
    start = time.perf_counter()
    setup_s = set_up(args.workload, spans)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    records, latencies = [], []
    trace = args.trace == 1
    before = cache_counts()
    # The timed phase is the sum of the op calls; making the next block's
    # inputs is not timed.  The loop stops at the end of a block, so every
    # run issues the workload's op mix in its exact proportions.
    busy = 0.0
    blocks = 0
    loop_start = time.perf_counter()
    for block in wl.blocks():
        if args.blocks is not None:
            if blocks >= args.blocks:
                break
        elif len(records) >= MIN_OPS and busy >= args.seconds:
            break
        blocks += 1
        for op in block:
            t0 = time.perf_counter()
            try:
                out = op.fn(*op.args)
            except Exception as exc:  # counted as a failed op, the loop goes on
                out = exc
            t1 = time.perf_counter()
            busy += t1 - t0
            latencies.append(t1 - t0)
            if trace:
                spans.append((op.name, t0, t1, len(records)))
            records.append((op, out))
    loop_end = time.perf_counter()
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024

    result = {"setup_s": setup_s, "busy_s": busy, "loop_s": loop_end - loop_start,
              "attempted": len(records), "peak_rss_mb": peak_rss_mb,
              "op_p50_ms": statistics.median(latencies) * 1000,
              "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000}
    if trace:
        if args.workload == "cli":
            result["cli.dispatch_ms"] = cli_dispatch_ms(records)
        after = cache_counts()
        result["layers"] = layer_metrics(wl, records, spans, loop_end - start,
                                         before, after)
    verdicts = wl.check(records)
    result["failed"] = verdicts.count(False)
    result["failed_ops"] = [f"{op.name}{op.args!r}"[:200]
                            for (op, _), ok in zip(records, verdicts) if not ok][:5]
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""The nilbu benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
With --trace 0 the workload runs with tracing off for as many whole rounds
as fill S seconds on the reference machine, and every end-to-end metric of
BENCHMARK.json is printed.  With --trace 1 a
fixed amount of the workload runs once untraced and once traced, and every
per-layer metric is printed, with the tracing overhead.  Lines for people
come first: the environment, the workload, each metric by name with its
unit and how it was taken.  The last line is one JSON object with the keys
correct, attempted, failed and metrics.  --tiny shrinks every input for
the self-test (perfbench/selftest.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

import workloads

WORKLOADS = {
    "verify-sweep": "`nilbu verify --b-max 64 --format json` in a fresh "
                    "process per sweep, cold caches; the seed is unused "
                    "(the sweep is fixed); 1 client, closed loop",
    "large-b": "h1, cover --phi 0, index --phi 0 and involutions on all 15 "
               "family rows per round (60 queries), b log-uniform in "
               "[1e4, 5e4] by strata, 333 b made even with its betas; every "
               "query in-process through nilbu.cli.main after cache_clear() "
               "of the four lru caches; 1 client, closed loop; the seed "
               "places b in its stratum and orders the round",
    "warm-stream": "classify, h1, epis, cover, index, involutions in "
                   "blocks holding every (family row, kind) pair once; b in "
                   "b_min..b_min+200, Zipf s=%.1f over a seeded ranking per "
                   "row; one long-lived process, caches never cleared; 1 "
                   "client, closed loop; the seed orders the blocks, ranks b "
                   "and draws it" % workloads.ZIPF_S,
}


def environment() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "NILBU_THREADS": os.environ.get("NILBU_THREADS", "unset")}


def declared(kind: str) -> dict:
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def end_to_end(workload, seed, seconds, size):
    # set-up is timed before and after the workload, so that its median
    # does not rest on the machine's state at one moment
    setup = workloads.setup_seconds(size["setup_trials"])
    n_rounds = workloads.rounds_for(workload, seconds, size)
    res = workloads.TIMED[workload](n_rounds, seed, size)
    setup += workloads.setup_seconds(size["setup_trials"])
    gate = res["gate"]
    gate.check()
    rounds_ms = [[x * 1000 for x in r] for r in res["rounds"]]
    lat_ms = [x for r in rounds_ms for x in r]
    tail_ms, tail_label = workloads.tail(rounds_ms)
    rounds = len(res["wall"])
    metrics = {
        "setup_s": (statistics.median(setup), "s",
                    "median of %d fresh interpreters" % len(setup)),
        "wall_s": (statistics.median(res["wall"]), "s",
                   "median over %d rounds of %s" % (rounds, res["round_label"])),
        "ops_per_s": (res["ops"] / sum(res["wall"]), "1/s",
                      "%d %s in %.3f s measured" % (res["ops"], res["ops_unit"],
                                                     sum(res["wall"]))),
        "latency_p50_ms": (workloads.hd_quantile(lat_ms, 0.5), "ms",
                           "p50, n=%d, Harrell-Davis" % len(lat_ms)),
        "latency_tail_ms": (tail_ms, "ms", tail_label),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB",
                        "ru_maxrss of the process that ran the workload"),
    }
    return metrics, gate, {}


def per_layer(workload, seed, size):
    metrics, bases, walls, gate = workloads.traced(workload, seed, size)
    notes = {"trace.overhead_s": "traced %.3f s - untraced %.3f s" % (walls[1], walls[0])}
    return ({k: (v, unit, notes.get(k, "")) for k, (v, unit) in metrics.items()},
            gate, bases)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(workloads.SRC, "nilbu", "cli.py")):
        print("error: no nilbu sources under %s; run from the root of a "
              "checkout" % workloads.SRC, file=sys.stderr)
        return 2
    os.environ.pop("NILBU_THREADS", None)
    if workloads.SRC not in sys.path:
        sys.path.insert(0, workloads.SRC)
    size = workloads.TINY if args.tiny else workloads.FULL
    kind = "per_layer" if args.trace else "end_to_end"
    expected_units = declared(kind)

    print("env %s" % json.dumps(environment()))
    print("workload %s seed %d%s: %s" % (args.workload, args.seed,
                                          " (tiny)" if args.tiny else "",
                                          WORKLOADS[args.workload]))
    if args.trace:
        metrics, gate, bases = per_layer(args.workload, args.seed, size)
    else:
        metrics, gate, bases = end_to_end(args.workload, args.seed,
                                          args.seconds, size)
    units = {name: unit for name, (_, unit, _) in metrics.items()}
    if units != expected_units:
        print("error: metrics %s differ from BENCHMARK.json %s"
              % (units, expected_units), file=sys.stderr)
        return 3

    for name, (value, unit, note) in metrics.items():
        print("metric %-40s %14.6g %-6s %s" % (name, value, unit, note))
    print("metric %-40s %14.6g %-6s %d of %d operations"
          % ("failed_ratio", gate.failed / gate.attempted, "ratio",
             gate.failed, gate.attempted))
    if bases:
        print("bases %s" % json.dumps(bases, sort_keys=True))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload it checks that the
timed run and the traced run print each metric of BENCHMARK.json by name
with its unit, on a ``metric`` line and in the result line, with
failed_ratio 0; that two traced runs with one seed give identical counts
and ratio bases; and that a deliberately wrong expected output raises
failed_ratio, which shows the correctness gate is live.  It also checks
that the benchmark refuses to run where the package sources are missing.
Exits 1 at the first problem.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import run
import workloads

SEED = 7


def fail(message):
    print("selftest FAILED: %s" % message)
    sys.exit(1)


def run_tiny(workload, trace):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = run.main(["--workload", workload, "--seed", str(SEED),
                       "--seconds", "1", "--trace", str(trace), "--tiny"])
    lines = buf.getvalue().splitlines()
    if rc != 0:
        fail("%s --trace %d exited %d" % (workload, trace, rc))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(result)))
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            name, value, unit = line.split()[1:4]
            printed[name] = (float(value), unit)
    return result, printed, lines


def check_names(workload, trace, result, printed):
    kind = "per_layer" if trace else "end_to_end"
    declared = run.declared(kind)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        fail("%s --trace %d: result metrics %s, declared %s"
             % (workload, trace, got, declared))
    for name, unit in declared.items():
        if printed.get(name, (None, None))[1] != unit:
            fail("%s: metric %s not printed with unit %s" % (workload, name, unit))
        if not trace and not result["metrics"][name]["value"] > 0:
            fail("%s: end-to-end metric %s is not positive" % (workload, name))
    if printed.get("failed_ratio", (None, None))[1] != "ratio":
        fail("%s: failed_ratio not printed" % workload)
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1 and printed["failed_ratio"][0] == 0):
        fail("%s --trace %d: failed %d of %d" % (workload, trace,
                                                 result["failed"], result["attempted"]))


def traced_counts(workload):
    """The count metrics and the ratio bases of one traced run."""
    result, _, lines = run_tiny(workload, 1)
    return ({k: v["value"] for k, v in result["metrics"].items()
             if v["unit"] == "count"},
            [line for line in lines if line.startswith("bases ")])


def expect_failures(workload, why):
    with redirect_stderr(io.StringIO()):  # the expected failure reports
        result, printed, _ = run_tiny(workload, 0)
    if result["correct"] or result["failed"] == 0 or printed["failed_ratio"][0] <= 0:
        fail("%s: a wrong expected output (%s) did not raise failed_ratio"
             % (workload, why))
    print("ok  gate is live on %s: %s -> failed %d of %d"
          % (workload, why, result["failed"], result["attempted"]))


def check_gate():
    import nilbu
    saved = dict(workloads.EXPECTED_SWEEP)
    depth = workloads.TINY["depth"]
    manifolds, pairs = saved[depth]
    workloads.EXPECTED_SWEEP[depth] = (manifolds, pairs + 1)
    try:
        expect_failures("verify-sweep", "expected pair count off by one")
    finally:
        workloads.EXPECTED_SWEEP.update(saved)

    closed_form = nilbu.h1_closed_form
    nilbu.h1_closed_form = lambda m: (closed_form(m)[0], closed_form(m)[1] + (2,))
    try:
        expect_failures("large-b", "h1 closed form with an extra Z_2")
    finally:
        nilbu.h1_closed_form = closed_form

    diagram = nilbu.expected_quotient_diagram
    nilbu.expected_quotient_diagram = lambda m: ()
    try:
        expect_failures("warm-stream", "every involution diagram empty")
    finally:
        nilbu.expected_quotient_diagram = diagram


def check_refuses_without_sources():
    bare = os.path.join(workloads.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(workloads.ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "large-b",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("the benchmark ran without the package sources")
    print("ok  without sources: exit %d, no result" % proc.returncode)


def main() -> int:
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result, printed, _ = run_tiny(workload, trace)
            check_names(workload, trace, result, printed)
            print("ok  %s --trace %d: %d metrics with units, failed 0 of %d"
                  % (workload, trace, len(result["metrics"]), result["attempted"]))
        first, second = traced_counts(workload), traced_counts(workload)
        if first != second:
            fail("%s: traced counts differ between two runs with seed %d:\n%s\n%s"
                 % (workload, SEED, first, second))
        print("ok  %s: %d counts and the ratio bases repeat exactly"
              % (workload, len(first[0])))
    check_gate()
    check_refuses_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

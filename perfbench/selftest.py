#!/usr/bin/env python3
"""Small-scale self-test of the benchmark.

    python3 perfbench/selftest.py [--seconds 2]

Run from the repository root. Runs every workload in BENCHMARK.json briefly,
untraced and traced, and checks that:
  * the last stdout line is the result JSON, correct, with no failed
    operation and no mismatched output;
  * every end-to-end (untraced) or per-layer (traced) metric of
    BENCHMARK.json is reported with its unit, and end-to-end values are
    non-zero;
  * every metric the workload names is printed as a report line
    "metric <name> <value> <unit> n=<samples>";
  * the traced run wrote a Chrome trace;
  * in a directory holding only BENCHMARK.json and the benchmark's files
    (no program sources) the benchmark exits non-zero without a result.
Exits non-zero on the first failed check.
"""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys

# Report lines each workload must print (its own names for its metrics).
NAMED = {
    "common": ["setup_s", "latency_p50_ms", "latency_p99_ms", "failed_pct", "mismatched",
               "peak_rss_mb", "generator_lateness_p99_ms", "backlog_end"],
    "author": ["edit_to_view_p50_ms", "edit_to_view_p99_ms"],
    "stream": ["ttff_p50_ms", "ttff_p99_ms", "stream_complete_p50_ms"],
}
LINE = re.compile(r"^(metric|layer) (\S+) +(\S+) (\S+) n=(\d+)$")


def fail(why):
    print("selftest: FAIL: " + why)
    sys.exit(1)


def run(workload, seconds, trace, cwd="."):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=900)


def check_run(bench, workload, seconds, trace):
    done = run(workload, seconds, trace)
    if done.returncode != 0:
        fail("%s trace=%d exited %d:\n%s" % (workload, trace, done.returncode, done.stderr[-2000:]))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s trace=%d: correct=%s attempted=%s failed=%s" %
             (workload, trace, result["correct"], result["attempted"], result["failed"]))
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        fail("%s trace=%d: metrics %s" % (workload, trace, sorted(result["metrics"])))
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        if got["unit"] != metric["unit"] or not math.isfinite(got["value"]):
            fail("%s: %s reported as %s" % (workload, metric["name"], got))
        if not trace and got["value"] == 0:
            fail("%s: end-to-end metric %s is zero" % (workload, metric["name"]))
    printed = {}
    for line in lines[:-1]:
        match = LINE.match(line)
        if match:
            printed[match.group(2)] = (float(match.group(3)), match.group(4))
    if trace:
        if not any(line.startswith("trace ") for line in lines):
            fail("%s: no trace file reported" % workload)
        path = os.path.join(".bench_build", "traces", "%s-seed7.json" % workload)
        with open(path) as handle:
            if not json.load(handle)["traceEvents"]:
                fail("%s: empty trace" % workload)
    else:
        for name in NAMED["common"] + NAMED[workload]:
            if name not in printed:
                fail("%s: no report line for %s" % (workload, name))
        if printed["mismatched"][0] != 0:
            fail("%s: %d mismatched outputs" % (workload, printed["mismatched"][0]))
    print("selftest: %s trace=%d ok (%d metrics, %d operations)" %
          (workload, trace, len(result["metrics"]), result["attempted"]))


def check_bare(bench):
    bare = os.path.join(".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bench["workloads"][0]["name"], 1, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip().startswith("{"):
        fail("the benchmark ran without the program's sources")
    print("selftest: bare directory exits %d without a result, ok" % done.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    for workload in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, workload["name"], args.seconds, trace)
    check_bare(bench)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()

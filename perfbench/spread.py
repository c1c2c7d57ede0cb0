#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's median and
spread (interquartile range as a share of the median), the figures the
benchmark's bounds are checked against.

    python3 perfbench/spread.py --workloads paper-sim bus-pipeline --runs 10
    python3 perfbench/spread.py --runs 10 --json spread.json   # all workloads

Run it from the root of the checkout; each run goes through run.py.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d):\n%s%s" % (
            workload, seed, out.returncode, out.stdout[-2000:],
            out.stderr[-2000:]))
    return json.loads(lines[-1])


def summarize(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--json", help="write medians and spreads here")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {}
    for workload in args.workloads:
        samples, failures = {}, 0
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i, args.seconds,
                              args.trace)
            failures += result["failed"] + (0 if result["correct"] else 1)
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
        report[workload] = {"failures": failures, "metrics": {}}
        print("%s (%d runs, %d failures)" % (workload, args.runs, failures))
        for name, values in samples.items():
            med, spread = summarize(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  OVER BOUND"
            elif bound is not None and spread > bound / 3:
                flag = "  over a third of the bound"
            report[workload]["metrics"][name] = {
                "median": med, "spread": spread, "values": values}
            print("  %-32s median %-14.6g spread %.4f%s" % (
                name, med, spread, flag))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()

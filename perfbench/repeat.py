#!/usr/bin/env python3
"""Repeat mode: run one workload N times, one seed per run, and print each
metric's median, quartiles and spread (the distance between the first and
third quartile as a share of the median), next to the metric's bound in
BENCHMARK.json when it has one.

    python3 perfbench/repeat.py --workload scale-ml --runs 10
    python3 perfbench/repeat.py --workload service-eco --runs 5 --trace 1

Run it from the repository root. Each run is a separate process started
through perfbench/run.sh, the benchmark's own command.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["sh", "perfbench/run.sh", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        r = run_once(args.workload, seed, seconds, args.trace)
        share = r["failed"] / r["attempted"]
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']}"
              f" failed={r['failed']} share={share:.6f}", file=sys.stderr)
        results.append(r)

    print(f"{args.workload}: {args.runs} runs, {seconds} s each, "
          f"trace {args.trace}")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name + ' [' + unit + ']':34} {med:14.6g} {q1:14.6g} "
              f"{q3:14.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"correct in every run: {all(r['correct'] for r in results)}; "
          f"failed shares seen: {sorted(shares)}")


if __name__ == "__main__":
    main()

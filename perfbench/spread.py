#!/usr/bin/env python3
"""Run every workload over seeds 1 to 10 and report each metric's spread.

    python3 perfbench/spread.py

This is how the bounds in BENCHMARK.json were checked.  Seeds run in
turn, and for each seed every workload, so a change of host speed
during the set falls on all workloads alike.  Each run's figures are
printed as it ends; then, for every end-to-end
metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to
the metric's bound: "ok" below a third of the bound, "WIDE" up to the
bound, "OVER" beyond it.  Run from the root of a checkout.
"""

import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def run(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            r = run(bench, w, seed)
            results[w].append(r)
            vals = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
            print(f"# {w} seed {seed} correct={r['correct']} {vals}", flush=True)
    for w in workloads:
        rs = results[w]
        bad = [r for r in rs if not r["correct"] or r["failed"]]
        print(f"== {w}: {len(rs)} runs, {len(bad)} with failures")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "OVER")
            print(f"  {name:24s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}"
                  f"  spread {spread:7.4f}  bound {bound}  {flag}")
    sys.stdout.flush()


if __name__ == "__main__":
    main()

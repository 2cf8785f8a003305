#!/usr/bin/env python3
"""Steadiness check: runs every workload repeatedly and reports the spread.

    python3 wsfbench/steady.py [--runs 10] [--seed-base 1000] [--seconds S]

Run r uses seed seed-base + r for every workload of BENCHMARK.json; even
rounds run the workloads in BENCHMARK.json order, odd rounds in reverse, so
slow drift of the machine does not land on one workload. For each end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median against the metric's bound: "ok" below a third
of the bound, "wide" below the bound, "OVER" beyond it. It also prints the
share of failed operations per workload, which must be identical in every
run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            res = run_once(w, args.seed_base + r, args.seconds)
            if not res["correct"]:
                print(f"{w} seed {args.seed_base + r}: output checks failed",
                      file=sys.stderr)
            results[w].append(res)
            print(f"run {r} {w}: done", file=sys.stderr)

    worst = 0.0
    for w in workloads:
        runs = results[w]
        fail = {x["failed"] / x["attempted"] for x in runs}
        print(f"\n{w}: {len(runs)} runs, failed share {sorted(fail)}, "
              f"all correct: {all(x['correct'] for x in runs)}")
        print(f"  {'metric':24s} {'q1':>14s} {'median':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            vals = [x["metrics"][name]["value"] for x in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = ("ok" if spread < bound / 3 else
                       "wide" if spread <= bound else "OVER")
            worst = max(worst, spread / bound)
            print(f"  {name:24s} {q1:14.6g} {med:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound:6.2f} {verdict}")
    print(f"\nworst spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds 40] [--trace 0]

For every metric it prints the median over the seeds and the distance
between the first and third quartile as a share of that median (Python's
statistics.quantiles(values, n=4)), next to the bound BENCHMARK.json
gives it.  A spread within a third of the bound is marked "steady".
Each run's result line is appended to perfbench/out/spread-NAME.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    log = os.path.join(BENCH, "out", f"spread-{a.workload}.jsonl")
    values = {}
    for seed in a.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(a.seconds), "--trace", str(a.trace)],
            cwd=ROOT, capture_output=True, text=True)
        line = out.stdout.rstrip("\n").split("\n")[-1]
        result = json.loads(line)
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, "exit": out.returncode, "result": result}) + "\n")
        print(f"seed {seed}: exit {out.returncode} correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, xs in values.items():
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        mark = "" if bound is None else ("steady" if spread < bound / 3 else "within" if spread <= bound else "OVER")
        print(f"{name:24s} median {med:14.6g}  spread {spread:7.4f}  bound {bound}  {mark}")


if __name__ == "__main__":
    main()

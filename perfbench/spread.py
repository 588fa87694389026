#!/usr/bin/env python3
"""Check that the benchmark's end-to-end metrics are steady across seeds.

Run from the repository root:

    python3 perfbench/spread.py --workloads decode,score --seeds 1-10

Runs each workload once per seed (untraced, BENCHMARK.json's run_seconds
unless --seconds is given), then prints for every end-to-end metric its
median and the distance between the first and third quartiles as a share
of the median, as statistics.quantiles(values, n=4) gives them, against a
third of the metric's bound.  Raw results go to
perfbench/results/spread-<workload>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default="decode,score,toolchain,cluster")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int)
    a = p.parse_args()
    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    seconds = a.seconds or manifest["run_seconds"]
    os.makedirs(os.path.join("perfbench", "results"), exist_ok=True)
    steady = True
    for w in a.workloads.split(","):
        runs = []
        for s in seeds(a.seeds):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(s),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True)
            if out.returncode != 0:
                print(f"{w} seed {s}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                return 1
            r = json.loads(out.stdout.strip().splitlines()[-1])
            r["seed"] = s
            runs.append(r)
            print(f"{w} seed {s}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", file=sys.stderr)
        with open(os.path.join("perfbench", "results", f"spread-{w}.json"), "w") as f:
            json.dump(runs, f, indent=1)
        print(f"{w}: {len(runs)} seeds, attempted {min(r['attempted'] for r in runs)}-"
              f"{max(r['attempted'] for r in runs)}, all correct: "
              f"{all(r['correct'] and r['failed'] == 0 for r in runs)}")
        for m in manifest["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread <= m["bound"] / 3
            steady = steady and ok
            print(f"  {m['name']:<20} median {med:<14.6g} spread {spread:7.4f}  "
                  f"bound/3 {m['bound'] / 3:.4f}  {'ok' if ok else 'WIDE'}")
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())

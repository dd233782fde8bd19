#!/usr/bin/env python3
"""Spread report: runs benchmark workloads repeatedly, one seed per run,
and prints each metric's median and quartiles against its bound.

Run from the repository root:

    python3 perfbench/spread.py --workloads draw_tax --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --json spread.json

It runs the command BENCHMARK.json names with `--workload W --seed N
--seconds <run_seconds> --trace 0`, keeps each run's last stdout line,
and reports, per end-to-end metric, the quartiles as
`statistics.quantiles(values, n=4)` gives them and the spread
(Q3 - Q1) / median. A spread above a third of the metric's bound is
flagged `WIDE`, above the bound `OVER`; `setup_s` is only compared with
its bound. With `--against other.json` it also compares this report's
medians with an earlier one and flags a median that got worse by more
than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect: {lines[-2]}")
    return result, wall


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--spec", default="BENCHMARK.json")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: all in the spec")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from the spec")
    ap.add_argument("--json", default=None, help="write the report here")
    ap.add_argument("--against", default=None,
                    help="an earlier --json report to compare medians with")
    opts = ap.parse_args()

    spec = json.load(open(opts.spec))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = opts.seconds or spec["run_seconds"]
    seeds = parse_seeds(opts.seeds)
    earlier = json.load(open(opts.against)) if opts.against else {}

    report = {}
    ok = True
    for w in workloads:
        values = {name: [] for name in bounds}
        walls = []
        for seed in seeds:
            result, wall = run_once(spec["command"], w, seed, seconds, 0)
            walls.append(wall)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {w}: {len(seeds)} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        report[w] = {}
        for name, m in bounds.items():
            s = summarize(values[name])
            s["values"] = values[name]
            report[w][name] = s
            flag = ""
            if name != "setup_s":
                if s["spread"] > m["bound"]:
                    flag, ok = "OVER", False
                elif s["spread"] > m["bound"] / 3:
                    flag = "WIDE"
            old = earlier.get(w, {}).get(name)
            if old:
                change = (s["median"] - old["median"]) / old["median"]
                worse = change if m["better"] == "lower" else -change
                if worse > m["bound"]:
                    flag, ok = (flag + " DRIFT").strip(), False
            print(f"  {name:24s} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} "
                  f"q3 {s['q3']:<14.6g} spread {s['spread']:.4f} "
                  f"bound {m['bound']} {m['unit']} {flag}")
    if opts.json:
        with open(opts.json, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

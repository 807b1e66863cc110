#!/usr/bin/env python3
"""Runs the benchmark several times per workload and reports its spread.

Run from the repository root:

    python3 easperf/steadiness.py --runs 10 --first-seed 100 > report.md

For every workload it runs BENCHMARK.json's command with --trace 0 and
a different seed each time, then prints, per end-to-end metric, the
median, the first and third quartiles (statistics.quantiles, n=4), the
spread (Q3 - Q1) / median, and the metric's bound; p99, which the
benchmark prints for information only, gets a row without a bound.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workloads", nargs="*")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    for wl in workloads:
        values = {}
        for r in range(args.runs):
            seed = args.first_seed + r
            cmd = bench["command"] + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            p99 = re.search(r"p99_us=([0-9.]+)", out)
            if p99:
                values.setdefault("latency_p99_us", []).append(float(p99.group(1)))
            if not res["correct"]:
                sys.exit(f"{wl} seed {seed}: verdict not correct: {res}")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"<!-- {wl} seed {seed}: {json.dumps(res['metrics'])} -->", flush=True)
        print(f"\n### {wl} ({args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1})\n")
        print("| metric | unit | median | Q1 | Q3 | spread | bound | spread / bound |")
        print("|---|---|---|---|---|---|---|---|")
        rows = bench["end_to_end"] + [{"name": "latency_p99_us", "unit": "us", "bound": None}]
        for m in rows:
            vals = values.get(m["name"])
            if not vals:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else 0.0
            bound = m["bound"]
            ratio = f"{spread / bound:.2f}" if bound else "not gated"
            print(f"| {m['name']} | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.4f} | {bound if bound else '-'} | {ratio} |")


if __name__ == "__main__":
    main()

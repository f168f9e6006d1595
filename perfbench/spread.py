#!/usr/bin/env python3
"""Seed-to-seed spread of the benchmark's metrics.

Runs one workload over several seeds and prints, per metric, the
median and the interquartile range as a share of the median, which is
how a metric's stability is judged against its bound in
BENCHMARK.json.

    python3 perfbench/spread.py --workload chat --seeds 1-10 [--trace 0]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default=None,
                    help="defaults to run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", seconds, "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stdout + out.stderr)
            sys.exit(f"seed {seed}: exit {out.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: outputs failed their checks")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} done", file=sys.stderr)

    print(f"{'metric':34} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        print(f"{name:34} {med:14.6g} {spread:11.4f} "
              f"{bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()

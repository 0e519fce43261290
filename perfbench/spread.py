#!/usr/bin/env python3
"""Run one benchmark workload once per seed and print each metric's median
and quartile spread (IQR / median), the figure the bounds in BENCHMARK.json
are compared against.

Usage: python3 perfbench/spread.py <workload> <seed>... [--trace]
Runs from the repository root; each run lasts BENCHMARK.json's run_seconds.
"""

import json
import os
import statistics
import subprocess
import sys


def main():
    args = [a for a in sys.argv[1:] if a != "--trace"]
    trace = "1" if "--trace" in sys.argv[1:] else "0"
    if len(args) < 2:
        sys.exit(__doc__)
    workload, seeds = args[0], args[1:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    values = {}
    for seed in seeds:
        cmd = bench["command"] + ["--workload", workload, "--seed", seed,
                                  "--seconds", str(bench["run_seconds"]), "--trace", trace]
        out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vs in values.items():
        median = statistics.median(vs)
        if len(vs) >= 2 and median:
            q = statistics.quantiles(vs, n=4)
            print(f"{name:36s} median={median:<12.6g} spread={(q[2] - q[0]) / median:.4f}")
        else:
            print(f"{name:36s} median={median:<12.6g}")


if __name__ == "__main__":
    main()

"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workloads theorem1_quantum,remote_shards \\
        --seeds 0,1,2,3,4,5,6,7,8 [--seconds 25] [--out spread.json]

The held-out seed of ``pinned.json`` is always added to the seed list, so
every steadiness check includes one seed nobody tuned against.  For each
workload and end-to-end metric it prints the median and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as
a share of the median, next to the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """Interquartile distance over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as handle:
        held_out = json.load(handle)["held_out_seed"]
    parser = argparse.ArgumentParser(prog="perfbench/steadiness.py")
    parser.add_argument("--workloads", default=",".join(
        item["name"] for item in benchmark["workloads"]))
    parser.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--out", default=None, help="file for the JSON summary")
    args = parser.parse_args(argv)
    seeds = [int(item) for item in args.seeds.split(",")]
    if held_out not in seeds:
        seeds.append(held_out)
    bounds = {item["name"]: item["bound"] for item in benchmark["end_to_end"]}
    summary = {}
    status = 0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: run failed "
                      f"(status {done.returncode})\n{done.stderr}", file=sys.stderr)
                status = 1
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{name}={values[name][-1]:.5g}" for name in bounds), flush=True)
        rows = {}
        for name, series in values.items():
            if len(series) < 2:
                continue
            rows[name] = {"median": statistics.median(series),
                          "spread": spread(series), "bound": bounds[name],
                          "values": series}
            print(f"  {workload:18s} {name:13s} median {rows[name]['median']:.5g}  "
                  f"spread {rows[name]['spread']:.4f}  bound {bounds[name]}",
                  flush=True)
        summary[workload] = rows
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seeds": seeds, "seconds": args.seconds,
                       "workloads": summary}, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--seconds S]
                                [--trace 0|1] [WORKLOAD ...]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...) for each
workload (default: all) and prints, per metric, the median and the distance
between the first and third quartile as a share of the median, next to the
metric's bound from BENCHMARK.json.  Raw results are appended as JSON lines
to .bench_build/spread.jsonl.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*", default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    log = ROOT / ".bench_build" / "spread.jsonl"
    status = 0
    for workload in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}")
                status = 1
                continue
            result = json.loads(lines[-1])
            with log.open("a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "trace": args.trace, **result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result")
                status = 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({args.runs} seeds from {args.first_seed})")
        for name, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- wide"
            print(f"  {name:32s} median {med:14.6g}  spread {spread:7.4f}"
                  f"  bound {bound if bound is not None else '-'}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())

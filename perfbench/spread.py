#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --runs 10 [--workload sweep ...]

Runs each workload once per seed (seeds 1..N) through run.py and prints,
for every end-to-end metric, the median and the interquartile range as a
share of the median, next to the bound BENCHMARK.json fixes. A spread
above a third of its bound is flagged: the benchmark is meant to stay
well inside its bounds. Run from the repository root.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in manifest["workloads"]])
    p.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    flagged = 0
    for workload in args.workload or [w["name"] for w in manifest["workloads"]]:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(out.stdout.splitlines()[-1])
            if not result["correct"] or out.returncode != 0:
                print(f"{workload} seed {seed}: INCORRECT {result}")
                flagged += 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({args.runs} runs)")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bounds[name] / 3 else "  <-- above bound/3"
            flagged += bool(flag)
            print(f"  {name:<16} median {med:12.6g}  spread {spread:6.3f}  bound {bounds[name]}{flag}")
            print(f"  {'':<16} values {' '.join(f'{v:.6g}' for v in vals)}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                     # every workload, one process each
    python3 perfbench/run.py --write-manifest    # regenerate BENCHMARK.json

Run from the repository root. The build honours CARGO_TARGET_DIR (default:
perfbench/target). One workload prints its report and then, as the last
line, one JSON object with `correct`, `attempted`, `failed` and `metrics`
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1). The
exit code is 0 only if every output checked correct.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["sweep", "record-replay", "serve-mix"]


def build():
    """Builds the release binary and returns its path (exits on failure)."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target")
    if not target.is_absolute():
        target = ROOT / target
    return target / "release" / "perfbench"


def run_one(binary, workload, args):
    """Runs one workload in its own process, so its peak RSS and set-up
    time are its own; returns (exit code, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-manifest", action="store_true",
                   help="write BENCHMARK.json from the benchmark's metric catalog")
    args = p.parse_args()

    binary = build()
    if args.write_manifest:
        text = subprocess.run([str(binary), "manifest"], check=True,
                              stdout=subprocess.PIPE, text=True).stdout
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0

    if args.workload != "all":
        code, lines = run_one(binary, args.workload, args)
        print("\n".join(lines), flush=True)
        return code

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, lines = run_one(binary, workload, args)
        worst = max(worst, code)
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {workload} printed no result", file=sys.stderr)
            return 1
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return worst


if __name__ == "__main__":
    sys.exit(main())

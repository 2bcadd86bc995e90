#!/usr/bin/env python3
"""Run one workload of the benchmark over several seeds and print, per
metric, the median and the quartile spread (Q3 - Q1) / median.

    python3 perfbench/spread.py --workload serve-tpch --seeds 1-10

Run from the repository root; the benchmark binary must be built
(`cargo build --release --offline --manifest-path perfbench/Cargo.toml`)
and is taken from CARGO_TARGET_DIR (default `perfbench/target`). The
seconds per run and the bounds come from BENCHMARK.json; a spread above
a third of its bound is flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    target = os.environ.get("CARGO_TARGET_DIR", "perfbench/target")
    binary = os.path.join(target, "release", "perfbench")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = [binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            sys.exit(1)
        result = json.loads(last)
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect result", file=sys.stderr)
            sys.exit(1)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: ok", file=sys.stderr)
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        flag = " <-- above bound/3" if spread > bound / 3 else ""
        print(f"{name:20s} median {med:14.6g} spread {spread:7.4f} bound {bound}{flag}")
        print("    " + " ".join(f"{v:.4g}" for v in vs))


if __name__ == "__main__":
    main()

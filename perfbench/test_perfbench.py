#!/usr/bin/env python3
"""The benchmark's own tests: a tiny-scale pass of every workload must
emit every metric BENCHMARK.json names, with its unit, and count no
failure; a mismatch injected into the benchmark's check (never into the
program) must be counted and fail the command.

    python3 perfbench/test_perfbench.py

Run from the repository root. Builds the benchmark first; honours
CARGO_TARGET_DIR.
"""
import json
import math
import os
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["tune-tpch", "serve-tpch"]

# The end-to-end metrics with their units and directions. `failed_ratio`
# is not among them: it is 0 on a correct run, and failures are reported
# through the result's `attempted` and `failed` counts instead.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "advise_s": ("s", "lower"),
    "improvement_pct": ("%", "higher"),
    "build_s": ("s", "lower"),
    "stored_bytes_ratio": ("ratio", "lower"),
    "query_ms_p50": ("ms", "lower"),
    "query_ms_p95": ("ms", "lower"),
    "commits_per_s": ("1/s", "higher"),
    "commit_ms_p50": ("ms", "lower"),
    "commit_ms_p95": ("ms", "lower"),
    "read_ms_p50": ("ms", "lower"),
    "read_ms_p95": ("ms", "lower"),
    "checkpoint_ms": ("ms", "lower"),
    "recover_ms": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}


def binary():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "perfbench", "target"))
    return os.path.join(target, "release", "perfbench")


def run(workload, trace, *extra):
    cmd = [binary(), "--workload", workload, "--seed", "5", "--seconds", "0",
           "--trace", str(trace), "--scale", "0.01", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    return out.returncode, json.loads(lines[-1]), out.stdout


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                        "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
                       check=True)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def test_benchmark_json_names_the_metrics(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], WORKLOADS)
        declared = {m["name"]: (m["unit"], m["better"]) for m in self.bench["end_to_end"]}
        self.assertEqual(declared, END_TO_END)
        for m in self.bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25, m["name"])
        setup = [m for m in self.bench["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(m["bound"] for m in self.bench["end_to_end"]))

    def check_metrics(self, result, declared, nonzero):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            got = metrics[m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if nonzero:
                self.assertGreater(got["value"], 0, m["name"])

    def test_every_workload_emits_every_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                code, result, log = run(workload, 0)
                self.assertEqual(code, 0)
                self.check_metrics(result, self.bench["end_to_end"], nonzero=True)
                self.assertIn("(failed_ratio 0)", log)
            with self.subTest(workload=workload, trace=1):
                code, result, _ = run(workload, 1)
                self.assertEqual(code, 0)
                self.check_metrics(result, self.bench["per_layer"], nonzero=False)

    def test_injected_mismatch_is_counted_and_fails(self):
        code, result, _ = run("serve-tpch", 0, "--inject-mismatch")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLessEqual(result["failed"], result["attempted"])

    def test_bad_arguments_are_refused(self):
        out = subprocess.run([binary(), "--workload", "nope", "--seed", "1", "--seconds", "1",
                              "--trace", "0"], capture_output=True, text=True, timeout=60)
        self.assertEqual(out.returncode, 2)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()

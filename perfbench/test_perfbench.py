#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the repository root:

    python3 -m unittest perfbench/test_perfbench.py

Each test drives perfbench/run.py at the minimal size, so the whole file
takes well under a minute once the binary is built.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["rack_scripted", "rack_tcp", "rack_tcp_flows", "fleet_fbflow"]


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def run_min(workload, trace, *extra):
    proc = run("--workload", workload, "--seed", "42", "--seconds", "0.001",
               "--trace", str(trace), "--size", "min", *extra)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                             f"{proc.stdout}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def fingerprint(lines):
    return [l for l in lines if l.startswith("perfbench: fingerprint ")]


class MinimalRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        cls.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    def check_result(self, result, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_emits_every_metric_with_its_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                untraced_lines, untraced = run_min(workload, 0)
                self.check_result(untraced, self.end_to_end)
                for name, metric in untraced["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                report = "\n".join(untraced_lines)
                self.assertIn("failed_ratio", report)
                if workload == "fleet_fbflow":
                    self.assertIn("Mflows/s", report)

                traced_lines, traced = run_min(workload, 1)
                self.check_result(traced, self.per_layer)
                self.assertGreater(traced["metrics"]["trace.overhead_ratio"]["value"], 0)
                # Tracing must not perturb the simulation.
                self.assertEqual(fingerprint(traced_lines), fingerprint(untraced_lines))
                self.assertTrue(fingerprint(untraced_lines))

    def test_perturbed_reference_is_a_failed_operation(self):
        lines, result = run_min("rack_tcp", 0, "--perturb-reference")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["failed"], result["attempted"])
        self.assertTrue(any("does not match reference" in l for l in lines), lines)


class BuildDirectory(unittest.TestCase):
    """Two checkouts that share one CARGO_TARGET_DIR must not share a build:
    CMake pins the first one's source path in its cache."""

    @staticmethod
    def build_dir_of(root, target):
        code = "import run; print(run.build_dir())"
        proc = subprocess.run([sys.executable, "-c", code],
                              cwd=os.path.join(root, "perfbench"), capture_output=True,
                              text=True, timeout=60, check=True,
                              env={**os.environ, "CARGO_TARGET_DIR": target})
        return proc.stdout.strip()

    def test_each_checkout_and_source_version_builds_apart(self):
        base = os.path.join(ROOT, ".bench_build")
        os.makedirs(base, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=base) as tmp:
            target = os.path.join(tmp, "target")
            trees = [os.path.join(tmp, name) for name in ("parent", "change")]
            for tree in trees:
                for top in ("include", "src", "perfbench"):
                    shutil.copytree(os.path.join(ROOT, top), os.path.join(tree, top),
                                    ignore=shutil.ignore_patterns("__pycache__"))
            parent, change = (self.build_dir_of(tree, target) for tree in trees)
            self.assertNotEqual(parent, change)
            for found in (parent, change):
                self.assertEqual(os.path.dirname(found), target)
            self.assertEqual(self.build_dir_of(trees[1], target), change)

            with open(os.path.join(trees[1], "src", "CMakeLists.txt"), "a") as f:
                f.write("\n")
            self.assertNotEqual(self.build_dir_of(trees[1], target), change)


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        base = os.path.join(ROOT, ".bench_build")
        os.makedirs(base, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=base) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                                   "--workload", "rack_tcp", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=180,
                                  env={k: v for k, v in os.environ.items()
                                       if k != "CARGO_TARGET_DIR"})
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

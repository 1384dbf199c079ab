#!/usr/bin/env python3
"""The benchmark's own tests, at tiny size.

    python3 perfbench/tests/test_perfbench.py

Run from the root of a checkout; the first test run builds the benchmark
through perfbench/run.py (into $CARGO_TARGET_DIR, default .bench_build).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Exact counts of the traced runs: equal on equal seeds.
EXACT = {
    "compile_batch": ["core.pipeline.traversals", "core.pipeline.nodes_visited",
                      "core.pipeline.hooks_run", "core.pipeline.subtrees_pruned",
                      "backend.codegen.instrs"],
    "guest_exec": ["backend.link.instrs", "backend.link.superinstrs",
                   "backend.vm.dispatches", "backend.vm.allocs"],
}


def scratch_dir():
    base = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "test-tmp"
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


def bench(workload, seed=1, seconds=1.0, trace=0, extra=()):
    """Runs the benchmark at tiny size; returns (stdout lines, result)."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--tiny",
           "--setup-reps", "1", *extra]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if run.returncode != 0:
        raise AssertionError(f"{cmd} failed:\n{run.stderr[-3000:]}")
    lines = run.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class MetricsTest(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    lines, result = bench(workload, trace=trace)
                    self.assertTrue(result["correct"], "\n".join(lines[-60:]))
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    table = {l.split()[0]: l.split()[-1] for l in lines[:-1]
                             if not l.startswith("#")}
                    for name, unit in want.items():
                        self.assertEqual(table.get(name), unit, name)
                    if trace == 0:
                        for name in want:
                            self.assertGreater(result["metrics"][name]["value"],
                                               0, name)

    def test_traced_layers_add_up(self):
        # The reported per-op layer self times and residual_ms partition
        # trace.op_ms (serve_mixed reports its queue and lag layers as
        # quantiles only, so it is checked on its summary line).
        layers = {
            "compile_batch": ["frontend.self_ms", "core.pipeline.self_ms",
                              "backend.codegen.self_ms"],
            "guest_exec": ["backend.link.self_ms", "backend.vm.init_ms",
                           "backend.vm.run_ms"],
        }
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = bench(workload, trace=1)
                self.assertTrue(result["correct"], "\n".join(lines[-60:]))
                m = {k: v["value"] for k, v in result["metrics"].items()}
                if workload in layers:
                    total = sum(m[k] for k in layers[workload])
                    self.assertGreater(m["residual_ms"], 0)
                    self.assertAlmostEqual(total + m["residual_ms"],
                                           m["trace.op_ms"], delta=1e-6)
                summary = next(l for l in lines if "layers + residual" in l)
                sums = re.findall(r"= ([0-9.]+) ms/op", summary)
                self.assertEqual(len(sums), 2, summary)
                self.assertAlmostEqual(float(sums[0]), float(sums[1]),
                                       delta=1e-3, msg=summary)


class SpeedProbeTest(unittest.TestCase):
    def test_times_are_scaled_to_the_reference_speed(self):
        # Reference time = wall time x ReferenceMs / the median probe time
        # near the op. A 2-s run fits in one probe window, so every op of
        # it is scaled by about ReferenceMs / the overall probe median.
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = bench(workload, seconds=2)
                self.assertTrue(result["correct"])
                line = next(l for l in lines if "wall time:" in l)
                m = re.search(r"p50 ([0-9.]+) p90 [0-9.]+ ms; speed probe "
                              r"median ([0-9.]+) ms \(reference ([0-9.]+) ms\)"
                              r" over ([0-9]+) samples", line)
                self.assertIsNotNone(m, line)
                raw, probe, ref, samples = map(float, m.groups())
                self.assertGreaterEqual(samples, 9, line)
                scaled = result["metrics"]["latency_ms_p50"]["value"]
                self.assertAlmostEqual(scaled / raw, ref / probe,
                                       delta=0.05 * ref / probe, msg=line)


class ExactCountsTest(unittest.TestCase):
    def counts(self, workload, seed):
        _, result = bench(workload, seed=seed, trace=1)
        self.assertTrue(result["correct"])
        return {k: result["metrics"][k]["value"] for k in EXACT[workload]}

    def test_counts_repeat_with_the_same_seed(self):
        for workload in EXACT:
            with self.subTest(workload=workload):
                first = self.counts(workload, 7)
                self.assertTrue(all(v > 0 for v in first.values()), first)
                self.assertEqual(first, self.counts(workload, 7))

    def test_counts_change_with_the_seed(self):
        # guest_exec runs fixed hand-written programs; its seed only
        # permutes the op order, so only compile_batch's inputs change.
        a = self.counts("compile_batch", 7)
        b = self.counts("compile_batch", 8)
        self.assertNotEqual(a, b)


class ChecksAreLiveTest(unittest.TestCase):
    def test_wrong_expected_output_fails_ops(self):
        tmp = scratch_dir()
        try:
            programs = tmp / "programs"
            shutil.copytree(BENCH / "programs", programs)
            path = programs / "sieve.expected"
            path.write_text(path.read_text().replace("9592", "9593"))
            lines, result = bench("guest_exec", extra=["--programs-dir",
                                                       str(programs)])
            self.assertFalse(result["correct"])
            self.assertGreater(result["failed"], 0)
            self.assertTrue(any("fail_share 0." in l for l in lines), lines)
        finally:
            shutil.rmtree(tmp)

    def test_guest_programs_match_the_tree_walker_oracle(self):
        bench("guest_exec")  # builds the binary if needed
        binary = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") \
            / "perfbench" / "perfbench"
        run = subprocess.run([str(binary), "--oracle-check", "--programs-dir",
                              str(BENCH / "programs")],
                             capture_output=True, text=True, timeout=300)
        self.assertEqual(run.returncode, 0, run.stdout)
        self.assertEqual(run.stdout.count("ok  "), 5, run.stdout)

    def test_fails_without_the_compiler_sources(self):
        tmp = scratch_dir()
        try:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, tmp / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            run = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "guest_exec", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(run.returncode, 0)
            self.assertNotIn('"correct"', run.stdout)
        finally:
            shutil.rmtree(tmp)


class ServeMixTest(unittest.TestCase):
    def test_measured_shares_match_the_configuration(self):
        lines, result = bench("serve_mixed", seconds=6, trace=1)
        self.assertTrue(result["correct"], "\n".join(lines[-40:]))
        detail = json.loads(next(l for l in lines if l.startswith("# detail "))
                            [len("# detail "):])
        n = detail["requests"]
        self.assertGreater(n, 500)
        for kind in ("repeat", "adversarial", "interactive"):
            count = detail["repeats" if kind == "repeat" else kind]
            self.assertAlmostEqual(count / n, detail[kind + "_share"],
                                   delta=0.05, msg=kind)
        # Every repeat is answered from the artifact cache.
        self.assertEqual(detail["cache_replays"], detail["repeats"])
        self.assertAlmostEqual(
            result["metrics"]["driver.cache.hit_ratio"]["value"],
            detail["repeats"] / n, delta=1e-12)

if __name__ == "__main__":
    unittest.main(verbosity=2)

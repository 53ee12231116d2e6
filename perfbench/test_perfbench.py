#!/usr/bin/env python3
"""Smoke tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload of BENCHMARK.json at minimal size (--smoke), untraced and
traced, through the benchmark command, and checks that each listed metric is
printed with its unit, that every output check ran and passed, and that the
benchmark refuses to run where it must. The first run builds the benchmark.
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
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# The output checks each workload must run (per-step and end-of-run).
EXPECTED_CHECKS = {
    "cosearch": {"step_outputs", "arch_parses", "accelerator_feasible",
                 "no_skipped_updates", "bit_exact_vs_4_threads"},
    "infer": {"step_outputs", "action_checksum_replay"},
    "das": {"search_result_reevaluates", "search_result_fits_budget"},
}
TRACED_ONLY_CHECKS = {"cosearch": {"traced_step_outputs"}}


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("A3CS_")}


def run(workload, trace, seed=3, cwd=ROOT, env=None):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace),
                             "--smoke"]
    return subprocess.run(cmd, cwd=cwd, env=env or clean_env(),
                          capture_output=True, text=True, timeout=900)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    objs = [json.loads(line) for line in lines if line.startswith("{")]
    meta = next(o["meta"] for o in objs if "meta" in o)
    checks = next(o["checks"] for o in objs if "checks" in o)
    return meta, checks, json.loads(lines[-1])


class BenchmarkSmoke(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                proc = run(w["name"], trace)
                if proc.returncode != 0:
                    raise AssertionError(
                        f"{w['name']} trace={trace} exited "
                        f"{proc.returncode}:\n{proc.stderr[-4000:]}")
                cls.results[(w["name"], trace)] = parse(proc)

    def test_result_line_and_metrics(self):
        for (workload, trace), (_, _, result) in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                listed = SPEC["per_layer" if trace else "end_to_end"]
                self.assertEqual(list(result["metrics"]),
                                 [m["name"] for m in listed])
                for m in listed:
                    got = result["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"], m["name"])
                    self.assertIsInstance(got["value"], (int, float))
                    if not trace:
                        self.assertGreater(got["value"], 0, m["name"])

    def test_every_output_check_ran(self):
        for (workload, trace), (_, checks, _) in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                want = set(EXPECTED_CHECKS[workload])
                if trace:
                    want |= TRACED_ONLY_CHECKS.get(workload, set())
                self.assertEqual(set(checks), want)
                for name, c in checks.items():
                    self.assertGreaterEqual(c["ran"], 1, name)
                    self.assertEqual(c["failed"], 0, name)

    def test_traced_run_attributes_the_step(self):
        for workload in EXPECTED_CHECKS:
            metrics = self.results[(workload, 1)][2]["metrics"]
            with self.subTest(workload=workload):
                self.assertGreater(metrics["core.span_coverage"]["value"], 0)
                self.assertGreater(metrics["obs.trace_overhead"]["value"], 0)

    def test_metadata(self):
        for (workload, trace), (meta, _, _) in self.results.items():
            for key in ("git_sha", "nproc", "cpu_model", "cpu_flags",
                        "backend", "threads", "seed"):
                self.assertIn(key, meta, f"{workload} trace={trace}")

    def test_cosearch_state_repeats_across_runs(self):
        key = "state_at_iter_2"
        self.assertEqual(self.results[("cosearch", 0)][0][key],
                         self.results[("cosearch", 1)][0][key])

    def test_traced_cosearch_reads_the_pool_fan_out(self):
        metrics = self.results[("cosearch", 1)][2]["metrics"]
        self.assertGreater(metrics["util.pool.regions_parallel"]["value"], 0)

    def test_infer_checksum_repeats_across_runs(self):
        again = parse(run("infer", 0))[0]
        self.assertEqual(again["action_checksum"],
                         self.results[("infer", 0)][0]["action_checksum"])

    def test_refuses_tuning_variables(self):
        env = clean_env()
        env["A3CS_PROFILE"] = "1"
        proc = run("das", 0, env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_fails_without_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(tmp, path))
            proc = run("das", 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)

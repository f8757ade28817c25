#!/usr/bin/env python3
"""The end-to-end benchmark's own tests.

    python3 e2ebench/test_e2ebench.py

Builds the benchmark (as run.py does) and checks, on short runs, that the
simulation is a pure function of the seed: the same seed twice gives the
same sim_digest and QoS figures, tracing from outside does not change
them, two seeds differ, every workload passes its correctness checks, and
the metric names the program prints are the ones BENCHMARK.json lists.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's build helper)

BINARY = None
SMOKE_SCALE = {"video_resv": 0.1, "rt_invoke": 0.1, "city_churn": 0.1}


def bench(workload, seed, trace=0, scale=None):
    """Runs one short benchmark; returns (exit code, stdout, parsed JSON)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--scale", str(scale or SMOKE_SCALE[workload])]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, proc.stdout, json.loads(lines[-1])


def digest(stdout):
    return re.search(r"sim_digest ([0-9a-f]{16})", stdout).group(1)


def qos(result):
    return {k: v["value"] for k, v in result["metrics"].items() if k.startswith("qos.")}


class E2EBenchTest(unittest.TestCase):
    def test_same_seed_repeats_exactly(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                _, out1, r1 = bench(w, 5)
                _, out2, r2 = bench(w, 5)
                self.assertEqual(digest(out1), digest(out2))
                self.assertEqual(qos(r1), qos(r2))

    def test_tracing_does_not_perturb_the_simulation(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                code, traced, _ = bench(w, 5, trace=1)
                _, plain, _ = bench(w, 5)
                self.assertEqual(code, 0, traced)
                self.assertEqual(digest(traced), digest(plain))
                self.assertRegex(traced, r"check trace\.digest_matches\s+ok")
                self.assertRegex(traced, r"check trace\.self_sums_to_root\s+ok")

    def test_different_seeds_differ(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                _, out1, _ = bench(w, 5)
                _, out2, _ = bench(w, 6)
                self.assertNotEqual(digest(out1), digest(out2))

    def test_smoke_run_passes_checks(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                code, out, result = bench(w, run.DEFAULT_SEED)
                self.assertEqual(code, 0, out)
                self.assertTrue(result["correct"], out)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertNotIn("FAILED", out)

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        listed = subprocess.run([BINARY, "--list-metrics"], capture_output=True, text=True,
                                check=True).stdout.split("\n")
        printed = {"end_to_end": [], "per_layer": []}
        for line in filter(None, listed):
            kind, name, unit = line.split()
            printed[kind].append({"name": name, "unit": unit})
        for kind in printed:
            self.assertEqual([{"name": m["name"], "unit": m["unit"]} for m in spec[kind]],
                             printed[kind])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_metrics_printed_per_mode(self):
        _, _, plain = bench("rt_invoke", 5)
        _, _, traced = bench("rt_invoke", 5, trace=1)
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(list(plain["metrics"]), [m["name"] for m in spec["end_to_end"]])
        self.assertEqual(list(traced["metrics"]), [m["name"] for m in spec["per_layer"]])
        self.assertEqual(traced["metrics"]["net.send.calls"]["value"], 0)


if __name__ == "__main__":
    BINARY = run.build(run.build_dir())
    unittest.main()

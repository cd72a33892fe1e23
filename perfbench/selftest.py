"""Tests of the benchmark itself, at tiny run sizes.

    python3 perfbench/selftest.py

- every workload runs, is correct and reports exactly the end-to-end
  metrics of BENCHMARK.json, with their units;
- a traced run reports exactly the per-layer metrics of BENCHMARK.json;
- two runs with the same seed give the same output digest, and the same
  values for every count and ratio among the layer metrics;
- without the program's sources the benchmark exits nonzero and prints
  no result.
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
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402
from tracer import TIMED_SUFFIXES  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

# Tiny passes that still call every function each workload must call;
# a checks pass is one round of the sub-checks and is not shortened.
TINY = {"census": 20, "trees": 20, "gins": 2, "checks": None}


def bench(workload, seed, trace, root=ROOT):
    """Run the benchmark once at tiny size; return (exit code, stdout lines)."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--min-passes", "1"]
    if TINY[workload]:
        cmd += ["--pass-ops", str(TINY[workload])]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def result(lines):
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


class BenchmarkTest(unittest.TestCase):

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(sorted(WORKLOADS), sorted(w["name"] for w in BENCH["workloads"]))

    def test_smoke_and_same_seed_repeats(self):
        want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = []
                for _ in range(2):
                    code, lines = bench(workload, 3, 0)
                    self.assertEqual(code, 0)
                    runs.append(result(lines))
                (res, info), (_, info2) = runs
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, want)
                self.assertTrue(all(v["value"] > 0 for v in res["metrics"].values()))
                self.assertEqual(info["digest"], info2["digest"])

    def test_traced_counts_repeat(self):
        want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = []
                for _ in range(2):
                    code, lines = bench(workload, 5, 1)
                    self.assertEqual(code, 0)
                    runs.append(result(lines))
                (res, info), (res2, info2) = runs
                self.assertTrue(res["correct"])
                self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, want)
                exact = [k for k in want if not k.endswith(TIMED_SUFFIXES)]
                self.assertEqual({k: res["metrics"][k]["value"] for k in exact},
                                 {k: res2["metrics"][k]["value"] for k in exact})
                self.assertEqual(info["pass0_digest"], info2["pass0_digest"])
                calls = sum(res["metrics"][k]["value"] for k in want
                            if k.endswith(".calls"))
                self.assertGreater(calls, 0)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("traces", "tmp*", "__pycache__"))
            code, lines = bench("checks", 1, 0, root=tmp)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()

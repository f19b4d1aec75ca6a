"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -v

The smoke test builds the CLI and the helper (minutes on a cold target
directory), then runs every workload at the tiny `smoke` size.
"""

import json
import math
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from stats import quartiles  # noqa: E402

# Per-layer metrics that must be positive where the workload's query path
# runs their layer; elsewhere they read 0.
POSITIVE = {
    "rand1-bin": {
        "bfs_s", "cc_s", "io.load_s", "io.load_mb_per_s", "core.csr_s", "core.transpose_s",
        "core.adjoin_s", "sline.plan_s", "sline.kernel_s", "sline.hashmap_insertions",
        "sline.pairs_examined", "sline.edges_emitted", "sline.yield", "algo.bfs_s",
        "algo.bfs_levels", "algo.cc_s", "algo.cc_components",
    },
    "rand1-pak": {
        "cc_s", "pack_s", "io.load_s", "io.write_packed_s", "store.bytes_per_incidence",
        "io.open_packed_s", "store.row_sweep_s", "store.decode_slowdown", "sline.plan_s",
        "sline.kernel_s", "sline.hashmap_insertions", "sline.pairs_examined",
        "sline.edges_emitted", "sline.yield", "algo.cc_s", "algo.cc_components",
    },
    "skew-sline": {
        "io.load_s", "core.csr_s", "core.transpose_s", "sline.plan_s", "sline.kernel_s",
        "sline.hashmap_insertions", "sline.pairs_examined", "sline.edges_emitted",
        "emit_s", "emit.mb_per_s",
    },
}


class QuartileTest(unittest.TestCase):
    def test_fixed_sample(self):
        sample = [7.0, 2.0, 10.0, 1.0, 4.0, 9.0, 3.0, 6.0, 5.0, 8.0]
        self.assertEqual(quartiles(sample), (3.25, 5.5, 7.75))

    def test_single_sample_is_its_own_quartiles(self):
        self.assertEqual(quartiles([1999157]), (1999157, 1999157, 1999157))

    def test_quartiles_stay_within_the_observed_range(self):
        for sample in ([1.0, 2.0], [5.0, 1.0, 3.0], [0.1, 0.1, 0.1, 0.1, 9.0]):
            q1, p50, q3 = quartiles(sample)
            self.assertTrue(min(sample) <= q1 <= p50 <= q3 <= max(sample), sample)


class SmokeTest(unittest.TestCase):
    def run_bench(self, workload, trace):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--size", "smoke",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=1200)
        self.assertEqual(out.returncode, 0, out.stderr[-2000:])
        return out.stdout

    def test_every_metric_of_every_workload(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        for w in spec["workloads"]:
            for trace, kind in [(0, "end_to_end"), (1, "per_layer")]:
                with self.subTest(workload=w["name"], trace=trace):
                    stdout = self.run_bench(w["name"], trace)
                    doc = json.loads(stdout.strip().splitlines()[-1])
                    self.assertEqual(set(doc), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(doc["correct"])
                    self.assertGreaterEqual(doc["attempted"], 1)
                    self.assertEqual(doc["failed"], 0)
                    frac = re.search(r"^failed_frac\s+\[ratio\] (\S+)", stdout, re.M)
                    self.assertEqual(float(frac.group(1)), 0.0)
                    names = {m["name"] for m in spec[kind]}
                    self.assertEqual(set(doc["metrics"]), names)
                    for m in spec[kind]:
                        got = doc["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        self.assertTrue(math.isfinite(got["value"]), m["name"])
                        self.assertGreaterEqual(got["value"], 0, m["name"])
                        if kind == "end_to_end" or m["name"] in POSITIVE[w["name"]]:
                            self.assertGreater(got["value"], 0, m["name"])


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of wc3d-bench itself, on tiny frames. Run from the checkout root:

    python3 wc3d-bench/test_bench.py

They build the runner the way the benchmark does and take about a minute,
most of it the twelve set-ups of api12-trace. Temporary digests go under
.bench_build/, never into wc3d-bench/digests.json.
"""

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run as bench  # noqa: E402

TEST_DIR = bench.BUILD_DIR / "test"


def invoke(workload, trace, digests, *extra):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny",
         "--digests", str(digests), *extra],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1]), proc.stderr


class PureFunctions(unittest.TestCase):
    def test_every_rotation_renders_the_same_frames(self):
        for frames in (4, 100):
            first = bench.schedule(frames, 0)
            self.assertEqual(len(set(first)), frames)
            for rotation in range(1, bench.VARIANTS):
                other = bench.schedule(frames, rotation)
                self.assertNotEqual(other, first)
                self.assertEqual(sorted(other), sorted(first))

    def test_digest_keys_aggregates_and_series(self):
        text = "hdr\na=1\nb=2\nseries-csv:\nframe,x,y\n0,1,2\n1,3,4\n#end\n"
        d = bench.digest([{"name": "g.", "text": text}])
        self.assertEqual(list(d["stats"]),
                         ["g.a", "g.b", "g.series.x", "g.series.y"])
        swapped = text.replace("0,1,2\n1,3,4", "0,3,2\n1,1,4")
        e = bench.digest([{"name": "g.", "text": swapped}])
        self.assertNotEqual(d["sha256"], e["sha256"])
        self.assertTrue(bench.first_difference(d["stats"], e["stats"])
                        .startswith("g.series.x"))

    def test_lists_match_benchmark_json(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         bench.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         bench.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(bench.WORKLOADS))


class TinyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(TEST_DIR, ignore_errors=True)
        TEST_DIR.mkdir(parents=True)
        cls.digests = TEST_DIR / "digests.json"

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(TEST_DIR, ignore_errors=True)

    def assert_metrics(self, lines, result, names):
        self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertEqual(list(result["metrics"]), [n for n, _ in names])
        for name, unit in names:
            self.assertEqual(result["metrics"][name]["unit"], unit)
            self.assertIn(
                True, [bool(re.fullmatch(re.escape(name) + r" = \S+ " +
                                         re.escape(unit), line))
                       for line in lines], name)

    def check_workload(self, workload):
        code, lines, result, err = invoke(workload, 0, self.digests,
                                          "--record")
        self.assertEqual(code, 0, err)
        self.assertTrue(result["correct"], lines)
        self.assert_metrics(lines, result, bench.END_TO_END)

        code, lines, result, err = invoke(workload, 1, self.digests)
        self.assertEqual(code, 0, err)
        self.assertTrue(result["correct"], lines)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 2)
        self.assert_metrics(lines, result, bench.PER_LAYER)
        return result["metrics"]

    def test_gpu_workload_prints_every_metric(self):
        m = self.check_workload("doom3-4t")
        for name in ("gpu.draw_s", "raster.quads", "raster.merge_s",
                     "raster.tile_busy_s", "texture.bilinears"):
            self.assertGreater(m[name]["value"], 0, name)

        # A perturbed expected digest fails every run and names the counter.
        store = json.loads(self.digests.read_text())
        record = store["doom3-4t"]["scene0-rot0-tiny"]
        record["stats"]["rasterQuads"] = str(
            int(record["stats"]["rasterQuads"]) + 1)
        record["sha256"] = "0" * 64
        perturbed = TEST_DIR / "perturbed.json"
        perturbed.write_text(json.dumps(store))
        code, lines, result, _ = invoke("doom3-4t", 0, perturbed)
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertEqual(result["failed"], result["attempted"])
        fail_ratio = [l for l in lines if l.startswith("fail_ratio = ")]
        self.assertGreater(float(fail_ratio[0].split()[2]), 0)
        self.assertTrue(any("rasterQuads: expected" in l for l in lines))

    def test_api_trace_workload_prints_every_metric(self):
        m = self.check_workload("api12-trace")
        for name in ("api.commands", "api.trace_mb", "api.trace_replay_s",
                     "api.trace_record_s", "workloads.setup_s"):
            self.assertGreater(m[name]["value"], 0, name)

    def test_unrecorded_variant_fails(self):
        code, lines, result, _ = invoke("ut2004-1t", 0,
                                        TEST_DIR / "missing.json")
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()

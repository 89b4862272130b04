"""Schema checks: BENCHMARK.json against the contract, the metrics the
benchmark prints against BENCHMARK.json, and layers.json against both.

  PERFBENCH_BLOCKBENCH=.bench_build/blockbench \\
      python3 -m unittest discover -s perfbench/tests -p 'test_*.py'

(perfbench/run.py --selftest sets the variable and runs this.)
"""

import json
import os
import re
import subprocess
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def printed_metrics(trace):
    binary = os.environ.get("PERFBENCH_BLOCKBENCH", str(ROOT / ".bench_build" / "blockbench"))
    out = subprocess.run([binary, "metrics", "--trace", str(trace)], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout
    return dict(line.split() for line in out.splitlines())


class BenchmarkJsonTest(unittest.TestCase):
    def test_shape(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertEqual(s["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(s["paths"], ["perfbench"])
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]] + \
            [w["name"] for w in s["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in s["end_to_end"]))
        self.assertLessEqual(len((ROOT / "BENCHMARK.json").read_bytes()), 64 << 10)

    def test_serve_rate_recorded(self):
        src = (ROOT / "perfbench" / "src" / "blockbench.cpp").read_text()
        rate = re.search(r"kServeRate = ([0-9.]+);", src).group(1)
        serve = next(w for w in spec()["workloads"] if w["name"] == "serve")
        self.assertIn(f"{float(rate):g} ops/s", serve["why"])


class PrintedMetricsTest(unittest.TestCase):
    def test_end_to_end_match(self):
        want = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
        self.assertEqual(printed_metrics(0), want)

    def test_per_layer_match(self):
        want = {m["name"]: m["unit"] for m in spec()["per_layer"]}
        self.assertEqual(printed_metrics(1), want)


class LayerMapTest(unittest.TestCase):
    def test_every_layer_mapped(self):
        s = spec()
        layers = json.loads((HERE.parent / "layers.json").read_text())
        layers.pop("_about")
        e2e = {m["name"] for m in s["end_to_end"]}
        workloads = {w["name"] for w in s["workloads"]}
        self.assertEqual(set(layers), {m["name"] for m in s["per_layer"]})
        for name, entry in layers.items():
            self.assertTrue(set(entry["moves"]) <= e2e, name)
            self.assertIn(entry["most_work"], workloads, name)
            self.assertIn(entry["flat_on"], workloads | {None}, name)
            self.assertNotEqual(entry["most_work"], entry["flat_on"], name)


if __name__ == "__main__":
    unittest.main()

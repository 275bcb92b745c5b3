"""Self-tests of run.py and spread.py: the output contract and the spread
arithmetic. Run with `python3 perfbench/run.py --selftest`, or directly
with `python3 -m unittest perfbench/test_run.py`."""
import json
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import spread  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())


def fake_raw(kind, correct=True):
    return {"correct": correct, "attempted": 7, "failed": 0,
            "metrics": {m["name"]: 1.5 for m in SPEC[kind]},
            "gates": {"g": correct}}


class ContractTest(unittest.TestCase):
    def test_every_end_to_end_metric_listed_with_unit(self):
        result = run.contract_result(fake_raw("end_to_end"), SPEC, trace=0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in SPEC["end_to_end"]])
        for m in SPEC["end_to_end"]:
            self.assertEqual(result["metrics"][m["name"]],
                             {"value": 1.5, "unit": m["unit"]})

    def test_every_per_layer_metric_listed_with_unit(self):
        result = run.contract_result(fake_raw("per_layer"), SPEC, trace=1)
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in SPEC["per_layer"]])
        for m in SPEC["per_layer"]:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_missing_metric_fails_loudly(self):
        raw = fake_raw("end_to_end")
        del raw["metrics"]["setup_s"]
        with self.assertRaises(SystemExit):
            run.contract_result(raw, SPEC, trace=0)

    def test_report_names_every_metric_and_gate(self):
        raw = fake_raw("end_to_end", correct=False)
        result = run.contract_result(raw, SPEC, trace=0)
        lines = run.report_lines(result, raw, {"nproc": 4})
        for m in SPEC["end_to_end"]:
            self.assertTrue(any(l.startswith(m["name"]) and l.endswith(m["unit"])
                                for l in lines), m["name"])
        self.assertIn("gate g: FAIL", lines)
        self.assertFalse(result["correct"])

    def test_catalog_mismatch_detected(self):
        catalog = {m["name"]: (kind, m["unit"])
                   for kind in ("end_to_end", "per_layer") for m in SPEC[kind]}
        self.assertEqual(run.catalog_mismatches(SPEC, catalog), [])
        catalog["setup_s"] = ("end_to_end", "ms")
        catalog["extra"] = ("per_layer", "s")
        self.assertEqual(len(run.catalog_mismatches(SPEC, catalog)), 2)

    def test_spec_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


class SpreadTest(unittest.TestCase):
    def test_spread_matches_statistics_quantiles(self):
        values = [10, 11, 9, 10.5, 12, 8, 10, 10.2, 9.8, 11.1]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med, rel = spread.spread(values)
        self.assertEqual(med, statistics.median(values))
        self.assertAlmostEqual(rel, (q3 - q1) / med)

    def test_seed_ranges(self):
        self.assertEqual(spread.parse_seeds("1-3,7"), [1, 2, 3, 7])


if __name__ == "__main__":
    unittest.main()

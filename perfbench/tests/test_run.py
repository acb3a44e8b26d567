"""Tests for the result-line check in perfbench/run.py.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


def result_line(trace, drop=None, extra=None, unit=None, **top):
    declared = run.declared_metrics(trace)
    metrics = {name: {"value": 1.5, "unit": u} for name, u in declared.items()}
    if drop:
        del metrics[drop]
    if extra:
        metrics[extra] = {"value": 1.0, "unit": "s"}
    if unit:
        name = sorted(metrics)[0]
        metrics[name]["unit"] = unit
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    result.update(top)
    return json.dumps(result)


class CheckResultTest(unittest.TestCase):
    def test_accepts_every_declared_metric(self):
        for trace in (0, 1):
            self.assertTrue(run.check_result(result_line(trace), trace)["correct"])

    def test_end_to_end_names_include_setup(self):
        self.assertEqual(run.declared_metrics(0)["setup_s"], "s")

    def test_rejects_missing_extra_and_wrong_unit(self):
        with self.assertRaises(run.BenchError):
            run.check_result(result_line(0, drop="setup_s"), 0)
        with self.assertRaises(run.BenchError):
            run.check_result(result_line(0, extra="surprise"), 0)
        with self.assertRaises(run.BenchError):
            run.check_result(result_line(0, unit="furlongs"), 0)
        with self.assertRaises(run.BenchError):
            run.check_result(result_line(0), 1)  # end-to-end set in a traced run

    def test_rejects_bad_top_level(self):
        with self.assertRaises(run.BenchError):
            run.check_result("not json", 0)
        with self.assertRaises(run.BenchError):
            run.check_result(result_line(0, attempted=0), 0)
        with self.assertRaises(run.BenchError):
            run.check_result(result_line(0, failed=1.5), 0)
        with self.assertRaises(run.BenchError):
            run.check_result(result_line(0, correct="yes"), 0)
        line = json.loads(result_line(0))
        line["extra"] = 1
        with self.assertRaises(run.BenchError):
            run.check_result(json.dumps(line), 0)


if __name__ == "__main__":
    unittest.main()

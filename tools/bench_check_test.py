#!/usr/bin/env python3
"""Unit tests for tools/bench_check.py (run by CI before any gating).

The one behavior these tests exist to pin down: a metric present in the
committed baseline but missing from the fresh JSON must hard-fail even
when it is not named via --metric. The old gate only presence-checked
gated keys, so a benchmark could silently stop emitting a column and
nothing noticed until the next regeneration buried it.
"""

import importlib.util
import json
import os
import sys
import tempfile
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "bench_check", os.path.join(_HERE, "bench_check.py"))
bench_check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_check)


def doc(records, benchmark="parallel_scaling"):
    return {"benchmark": benchmark, "records": records}


class BenchCheckTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, payload):
        path = os.path.join(self._dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        return path

    def run_main(self, baseline, fresh=None, metrics=(), extra=()):
        argv = ["--baseline", baseline]
        if fresh is not None:
            argv += ["--fresh", fresh]
        for metric in metrics:
            argv += ["--metric", metric]
        argv += list(extra)
        return bench_check.main(argv)

    def test_identical_runs_pass(self):
        records = [{"name": "t8", "speedup": 4.0, "qps": 100.0}]
        base = self.write("base.json", doc(records))
        fresh = self.write("fresh.json", doc(records))
        self.assertEqual(self.run_main(base, fresh, ["speedup"]), 0)

    def test_ungated_metric_missing_from_fresh_fails(self):
        # The silent-pass bug: "qps" is not gated, but the baseline
        # promises it — a fresh run that stops emitting it must fail.
        base = self.write(
            "base.json",
            doc([{"name": "t8", "speedup": 4.0, "qps": 100.0}]))
        fresh = self.write(
            "fresh.json", doc([{"name": "t8", "speedup": 4.0}]))
        self.assertEqual(self.run_main(base, fresh, ["speedup"]), 1)

    def test_gated_metric_missing_from_fresh_fails(self):
        base = self.write(
            "base.json", doc([{"name": "t8", "speedup": 4.0}]))
        fresh = self.write(
            "fresh.json", doc([{"name": "t8", "qps": 50.0}]))
        self.assertEqual(self.run_main(base, fresh, ["speedup"]), 1)

    def test_record_missing_from_fresh_fails(self):
        base = self.write(
            "base.json", doc([{"name": "t8", "speedup": 4.0}]))
        fresh = self.write(
            "fresh.json", doc([{"name": "t4", "speedup": 4.0}]))
        self.assertEqual(self.run_main(base, fresh, ["speedup"]), 1)

    def test_new_fresh_records_and_metrics_pass(self):
        base = self.write(
            "base.json", doc([{"name": "t8", "speedup": 4.0}]))
        fresh = self.write(
            "fresh.json",
            doc([{"name": "t8", "speedup": 4.1, "extra": 9.0},
                 {"name": "t16", "speedup": 6.0}]))
        self.assertEqual(self.run_main(base, fresh, ["speedup"]), 0)

    def test_regression_beyond_tolerance_fails(self):
        base = self.write(
            "base.json", doc([{"name": "t8", "speedup": 4.0}]))
        fresh = self.write(
            "fresh.json", doc([{"name": "t8", "speedup": 2.0}]))
        self.assertEqual(
            self.run_main(base, fresh, ["speedup"],
                          extra=["--max-regression", "0.25"]), 1)

    def test_regression_within_tolerance_passes(self):
        base = self.write(
            "base.json", doc([{"name": "t8", "speedup": 4.0}]))
        fresh = self.write(
            "fresh.json", doc([{"name": "t8", "speedup": 3.5}]))
        self.assertEqual(
            self.run_main(base, fresh, ["speedup"],
                          extra=["--max-regression", "0.25"]), 0)

    def test_noise_floor_skips_gating_but_metric_must_exist(self):
        base = self.write(
            "base.json",
            doc([{"name": "t8", "speedup": 4.0, "tiny": 0.001}]))
        # Within the noise floor the value may move arbitrarily...
        moved = self.write(
            "moved.json",
            doc([{"name": "t8", "speedup": 4.0, "tiny": 0.0001}]))
        self.assertEqual(
            self.run_main(base, moved, ["speedup", "tiny"]), 1,
            "tiny never compared anywhere -> coverage failure")
        both = self.write(
            "both.json",
            doc([{"name": "t8", "speedup": 4.0, "tiny": 0.001},
                 {"name": "t9", "speedup": 4.0, "tiny": 4.0}]))
        base2 = self.write(
            "base2.json",
            doc([{"name": "t8", "speedup": 4.0, "tiny": 0.001},
                 {"name": "t9", "speedup": 4.0, "tiny": 4.0}]))
        self.assertEqual(self.run_main(base2, both, ["speedup", "tiny"]), 0)
        # ...but it must still be present.
        dropped = self.write(
            "dropped.json", doc([{"name": "t8", "speedup": 4.0}]))
        self.assertEqual(self.run_main(base, dropped, ["speedup"]), 1)

    def test_gated_metric_never_compared_fails(self):
        base = self.write(
            "base.json", doc([{"name": "t8", "speedup": 4.0}]))
        fresh = self.write(
            "fresh.json", doc([{"name": "t8", "speedup": 4.0}]))
        self.assertEqual(
            self.run_main(base, fresh, ["speedup", "renamed_key"]), 1)

    def test_benchmark_name_mismatch_fails(self):
        base = self.write(
            "base.json",
            doc([{"name": "t8", "speedup": 4.0}], benchmark="a"))
        fresh = self.write(
            "fresh.json",
            doc([{"name": "t8", "speedup": 4.0}], benchmark="b"))
        self.assertEqual(self.run_main(base, fresh, ["speedup"]), 1)

    def test_non_numeric_values_are_not_presence_checked(self):
        base = self.write(
            "base.json",
            doc([{"name": "t8", "speedup": 4.0, "note": "hi",
                  "flag": True}]))
        fresh = self.write(
            "fresh.json", doc([{"name": "t8", "speedup": 4.0}]))
        self.assertEqual(self.run_main(base, fresh, ["speedup"]), 0)

    def test_machine_stamps_do_not_affect_the_comparison(self):
        # Every BENCH JSON records the machine it ran on; a baseline from
        # one machine still gates a fresh run from another record by
        # record.
        records = [{"name": "t8", "speedup": 4.0, "qps": 100.0}]
        base = doc(records)
        base.update({"scale": "ci", "nproc": 4, "simd": "avx2"})
        base_path = self.write("base.json", base)
        fresh = doc(records)
        fresh.update({"scale": "ci", "nproc": 2, "simd": "portable"})
        self.assertEqual(
            self.run_main(base_path, self.write("fresh.json", fresh),
                          ["speedup"]), 0)
        fresh["records"] = [{"name": "t8", "speedup": 2.0, "qps": 100.0}]
        self.assertEqual(
            self.run_main(base_path, self.write("slow.json", fresh),
                          ["speedup"], extra=["--max-regression", "0.25"]),
            1)

    def test_list_mode_needs_no_fresh_or_metric(self):
        base = self.write(
            "base.json",
            doc([{"name": "t8", "speedup": 4.0, "qps": 100.0}]))
        self.assertEqual(self.run_main(base, extra=["--list"]), 0)


if __name__ == "__main__":
    sys.exit(unittest.main())

"""Self-tests of the benchmark itself (not of orbiforge).

    PYTHONPATH=src python3 -m unittest discover -s bench -v

TracedCounts starts six traced worker interpreters and takes about two
minutes.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from orbiforge import AbelianGroup, Word, model  # noqa: E402


def span(name, start, end, parent=-1, site="s"):
    return [name, site, start, end, parent, 0]


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            span("a", 0.0, 10.0),
            span("b", 1.0, 3.0, parent=0),
            span("b", 2.0, 5.0, parent=0),    # overlaps its sibling
            span("c", 8.0, 12.0, parent=0),   # runs past its parent's end
            span("d", 1.5, 2.5, parent=1),
        ]
        self.assertEqual(tracing.self_times(spans), [4.0, 1.0, 3.0, 4.0, 1.0])

    def test_inclusive_counts_nested_same_name_once(self):
        spans = [span("f", 0.0, 4.0), span("f", 1.0, 2.0, parent=0),
                 span("g", 5.0, 6.0)]
        inclusive, exclusive = tracing.totals(spans)
        self.assertEqual(inclusive[("f", "s")], 4.0)
        self.assertEqual(exclusive[("f", "s")], 4.0)
        self.assertEqual(inclusive[("g", "s")], 1.0)


class TailRule(unittest.TestCase):
    def test_ten_beyond_at_the_minimum(self):
        value, pct = run.tail([float(x) for x in range(1, 41)], 40)
        self.assertEqual((value, pct), (30.0, 75.0))
        self.assertEqual(sum(1 for x in range(1, 41) if x > value), 10)

    def test_percentile_stays_fixed_with_more_samples(self):
        value, pct = run.tail([float(x) for x in range(1, 81)], 40)
        self.assertEqual((value, pct), (60.0, 75.0))

    def test_median_is_taken_per_pass(self):
        # pooled, the eight samples would give (2.9 + 3.0) / 2
        passes = [[1.0, 2.0, 3.1, 4.0], [1.0, 2.9, 3.0, 4.0]]
        self.assertEqual(run.p50(passes), (2.55 + 2.95) / 2)

    def test_too_few_samples(self):
        with self.assertRaises(run.BenchError):
            run.tail([1.0] * 39, 40)
        with self.assertRaises(run.BenchError):
            run.tail([1.0] * 20, 10)


class HostSpeed(unittest.TestCase):
    def test_each_operation_uses_the_slices_around_it(self):
        ref = worker.REFERENCE_S
        slices = [(0, ref), (2, ref / 2), (3, 2 * ref)]
        factors = worker.op_factors(slices, 3)
        for got, want in zip(factors, [4 / 3, 4 / 3, 0.8]):
            self.assertAlmostEqual(got, want)

    def test_scaled_pass_keeps_the_measured_times(self):
        ops = [workloads.Op("sleep", lambda traced: time.sleep(0.01), lambda r: [])] * 3
        result = worker.run_pass(ops)
        self.assertEqual(len(result.scaled_latencies_ms), 3)
        self.assertAlmostEqual(sum(result.latencies_ms) / 1000.0, result.wall_s)
        unscaled = worker.run_pass(ops, scale=False)
        self.assertEqual(unscaled.scaled_wall_s, unscaled.wall_s)


class Oracles(unittest.TestCase):
    """Each oracle accepts the true answer and rejects a wrong one."""

    def assert_oracle(self, good, bad):
        self.assertEqual(good.check(good.run(False)), [])
        self.assertNotEqual(bad.check(bad.run(False)), [])

    def test_enumeration_index(self):
        s4 = workloads.coxeter_symmetric(4)
        self.assert_oracle(workloads.enumerate_op("S4", s4, [], 24),
                           workloads.enumerate_op("S4", s4, [], 25))

    def test_schreier_generator_count(self):
        p1 = model("p1")
        sub = [Word((1,)) ** 10, Word((2,))]
        self.assert_oracle(workloads.schreier_op("p1", p1.presentation, sub, 10),
                           workloads.schreier_op("p1", p1.presentation, sub, 11))

    def test_reidemeister_schreier_abelianization(self):
        s4 = workloads.coxeter_symmetric(4)
        sub = [Word((1,)), Word((2,))]
        self.assert_oracle(
            workloads.rs_op("S4>S3", s4, sub, 4, AbelianGroup(0, (2,))),
            workloads.rs_op("S4>S3", s4, sub, 4, AbelianGroup(0, (3,))))

    def test_classification(self):
        p6 = model("p6")
        t1, t2 = p6.translation_words
        words = [Word((1,)), t1 ** 2, t2 ** 2]   # order-6 rotation, n = 2
        good = workloads.classify_op("p6", words, "p6", "p6", 4, 4)
        for wrong in (("p3", 4, 4), ("p6", 8, 4), ("p6", 4, 16)):
            self.assert_oracle(good, workloads.classify_op("p6", words, "p6", *wrong))

    def test_every_ladder_slot_has_the_right_answer(self):
        ops = workloads.classify_ladder(7)
        self.assertEqual(len(ops), len(workloads.LADDER))
        for op in ops:
            self.assertEqual(op.check(op.run(False)), [], op.name)

    def test_verify_counts_and_bytes(self):
        good = workloads.verify_op(3)
        report = good.run(False)
        self.assertEqual(good.check(report), [])
        self.assertEqual(good.check(report), [])
        self.assertNotEqual(good.check(dataclasses.replace(report, seed=4)), [])
        wrong = workloads.verify_op(3, {"pass": 13, "fail": 0, "cited": 3})
        self.assertNotEqual(wrong.check(report), [])

    def test_raising_operation_counts_as_failed(self):
        def boom(traced):
            raise RuntimeError("boom")
        result = worker.run_pass([workloads.Op("boom", boom, lambda r: [])])
        self.assertEqual((result.attempted, result.failed), (1, 1))


class Definition(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(list(run.WORKLOADS), list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(run.VERIFY_CHECKS, workloads.MACHINE_CHECKS)

    def test_fails_without_the_program(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "verify-paper",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class TracedCounts(unittest.TestCase):
    def test_counts_repeat_across_two_traced_runs(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        for workload in workloads.WORKLOADS:
            runs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "worker.py"), "traced",
                     "--workload", workload, "--seed", "5", "--seconds", "0"],
                    cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            with self.subTest(workload=workload):
                self.assertEqual(runs[0]["count_runs"][0], runs[1]["count_runs"][0])
                self.assertEqual(runs[0]["failed"], 0)


if __name__ == "__main__":
    unittest.main()

"""Self-tests of the benchmark's own machinery: self-time derivation and
failure accounting.

    python3 bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import sys
import time
import unittest
from pathlib import Path
from types import SimpleNamespace

from run import summarize
from spans import Spans, Tracer, layer_metrics
from worker import SpeedProbe, Stopwatch, checked, run_jobs
from workloads import Job, _expect, build


def tree(rows) -> Spans:
    spans = Spans()
    for name, start, end, parent in rows:
        spans.add(spans.intern(name), start, end, parent)
    return spans


class SelfTime(unittest.TestCase):
    def test_nested_and_sibling_spans(self):
        spans = tree([
            ("root", 0.0, 10.0, -1),
            ("a", 1.0, 4.0, 0),
            ("a1", 2.0, 3.0, 1),
            ("b", 5.0, 9.0, 0),
            ("b1", 5.0, 6.0, 3),
            ("b2", 7.0, 8.5, 3),
            ("root", 11.0, 12.0, -1),
        ])
        for got, want in zip(spans.self_times(), [3.0, 2.0, 1.0, 1.5, 1.0, 1.5, 1.0]):
            self.assertAlmostEqual(got, want)
        calls, self_s = spans.totals()
        self.assertEqual(calls["root"], 2)
        self.assertAlmostEqual(self_s["root"], 4.0)
        self.assertEqual(spans.child_count("b", "b2"), 1)
        self.assertEqual(spans.child_count("root", "b2"), 0)

    def test_tracer_records_parents(self):
        tracer = Tracer()
        inner = tracer.span("inner", lambda: None)
        outer = tracer.span("outer", lambda: [inner(), inner()])
        outer()
        outer()
        spans = tracer.spans
        calls, self_s = spans.totals()
        self.assertEqual((calls["outer"], calls["inner"]), (2, 4))
        self.assertEqual(spans.child_count("outer", "inner"), 4)
        roots = [i for i in range(len(spans)) if spans.parent[i] < 0]
        total = sum(spans.end[i] - spans.start[i] for i in roots)
        self.assertAlmostEqual(sum(self_s.values()), total, places=9)
        self.assertTrue(all(s >= 0 for s in spans.self_times()))

    def test_layer_times_are_scaled_before_ratios(self):
        tracer = Tracer()
        reversal = SimpleNamespace(host=SimpleNamespace(state_count=1000))
        step = tracer._counting("game.reversal.step", lambda self: None)
        tracer.spans.add(tracer.spans.intern("game.reversal.step"), 0.0, 2e-3, -1)
        step(reversal)
        layers = layer_metrics(tracer, {}, scale=0.5)
        self.assertAlmostEqual(layers["game.reversal.step_s"], 1e-3)
        self.assertAlmostEqual(layers["game.reversal.ns_per_state_step"], 1e3)


def _raise():
    raise RuntimeError("injected")


PASS = {"trace": False, "setup_s": 0.1, "peak_rss_mb": 10.0}


class FailRatio(unittest.TestCase):
    def test_wrong_value_and_raising_job_fail(self):
        jobs = [Job("right", lambda: 62, _expect(lambda: 62)),
                Job("wrong expected value", lambda: 62, _expect(lambda: 61)),
                Job("raises", _raise, _expect(lambda: 62))]
        bad = {**PASS, **checked(jobs, *run_jobs(jobs), 1.0)}
        self.assertEqual(bad["failed"], 2)
        self.assertIsNone(bad["wall_s"])

        good = {**PASS, **checked(jobs[:1], *run_jobs(jobs[:1]), 1.0)}
        summary = summarize([good, bad, {**bad}])
        self.assertGreater(summary["fail_ratio"], 0)
        self.assertEqual(summary["fail_ratio"], 4 / 7)
        self.assertEqual(summary["timed_passes"], 1)
        self.assertEqual(summary["end_to_end"]["wall_s"], (1.0, 1.0, 1.0))

        only_bad = summarize([bad])
        self.assertIsNone(only_bad["end_to_end"]["wall_s"])

    def test_real_references_catch_a_wrong_answer(self):
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        import winset

        jobs = [j for j in build("wdfa-wide", winset, 1) if j.name.startswith("random#")][:3]
        right = jobs[1].run()
        complement = frozenset(range(right.state_count)) - right.finals
        wrong = dataclasses.replace(right, finals=complement)
        jobs[1] = jobs[1]._replace(run=lambda: wrong)
        jobs[2] = jobs[2]._replace(run=_raise)
        result = checked(jobs, *run_jobs(jobs), 1.0)
        self.assertEqual(result["failed"], 2, result["failures"])
        self.assertIsNone(result["wall_s"])


class Probe(unittest.TestCase):
    def test_samples_while_busy_and_scales(self):
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.3:
                pass
        self.assertGreater(probe.count, 3)
        probe.total, probe.count = 0.004, 4  # twice the reference time per sample
        self.assertAlmostEqual(probe.speed, SpeedProbe.REFERENCE_S / 0.001)
        self.assertAlmostEqual(probe.scale(1.5, 0.5), probe.speed)

    def test_stopwatch_counts_only_its_calls(self):
        with SpeedProbe() as probe:
            watch = Stopwatch(probe)
            self.assertEqual(watch(time.sleep, 0.12), None)
            time.sleep(0.2)
        self.assertGreater(watch.elapsed, 0.12)
        self.assertLess(watch.elapsed, 0.2)
        self.assertGreater(watch.sampled, 0)
        self.assertAlmostEqual(watch.seconds(), probe.scale(watch.elapsed, watch.sampled))


if __name__ == "__main__":
    unittest.main()

"""Fast self-test of the benchmark harness (no workload is run).

    python3 perfbench/test_harness.py

Checks the self-time arithmetic on nested synthetic calls under a fake
clock, that the time of work counts leaves the parent span's self time,
that installing the tracer rebinds and then restores ucdl's names, and
that every workload and metric the command can print is declared in
BENCHMARK.json with the same unit.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from run import Op  # noqa: E402
from tracer import OPERATION_TARGETS, Tracer, array_bytes, ucdl_targets  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)

        def leaf():
            clock.advance(1.0)

        def inner():
            clock.advance(2.0)
            traced_leaf()
            clock.advance(0.5)

        def outer():
            clock.advance(3.0)
            traced_inner()
            traced_inner()
            traced_leaf()

        traced_leaf = tracer.wrap("leaf", leaf)
        traced_inner = tracer.wrap("inner", inner)
        tracer.span("op", outer)

        self.assertEqual(tracer.self_s["leaf"], 3.0)
        self.assertEqual(tracer.self_s["inner"], 5.0)
        self.assertEqual(tracer.self_s["op"], 3.0)
        self.assertEqual(tracer.calls["leaf"], 3)
        self.assertEqual(sum(tracer.self_s.values()), clock.now)

    def test_span_closes_on_exception(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)

        def failing():
            clock.advance(1.0)
            raise RuntimeError("boom")

        def outer():
            clock.advance(1.0)
            with self.assertRaises(RuntimeError):
                tracer.wrap("failing", failing)()

        tracer.span("op", outer)
        self.assertEqual(tracer.self_s["failing"], 1.0)
        self.assertEqual(tracer.self_s["op"], 1.0)

    def test_count_time_leaves_the_parent(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        leaf = tracer.wrap("leaf", lambda: clock.advance(1.0),
                           count=lambda *_: clock.advance(0.25))
        tracer.span("op", lambda: (clock.advance(2.0), leaf()))

        self.assertEqual(tracer.self_s["leaf"], 1.0)
        self.assertEqual(tracer.self_s["count"], 0.25)
        self.assertEqual(tracer.self_s["op"], 2.0)
        self.assertEqual(sum(tracer.self_s.values()), clock.now)

    def test_per_layer_adds_up(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        adjoint = tracer.wrap("operators.adjoint_apply", lambda: clock.advance(0.25),
                              count=lambda *_: clock.advance(0.05))

        def op():
            clock.advance(0.45)
            adjoint()

        for _ in range(4):
            tracer.span("op", op)
        setup_tracer = Tracer(clock=clock)
        setup_tracer.span("data.make_phantom", clock.advance, 3.0)
        ops = ([Op("step", 0.6, traced=False, ref_seconds=0.1)] * 4
               + [Op("step", 0.75, traced=True, ref_seconds=0.1)] * 4)
        metrics = run.per_layer(tracer, ops, setup_tracer, n_setups=2)
        layers = sum(metrics[name] for name in run.LAYER_TIMES.values())
        self.assertAlmostEqual(layers + metrics["trace.count_ms"] + metrics["trace.remainder_ms"],
                               metrics["trace.op_ms"])
        self.assertAlmostEqual(metrics["trace.count_ms"], 50.0)
        self.assertAlmostEqual(metrics["data.make_phantom.s"], 1.5)
        self.assertAlmostEqual(metrics["trace.op_ms"], 750.0)
        self.assertAlmostEqual(metrics["trace.overhead_ms"], 150.0)
        self.assertAlmostEqual(metrics["trace.overhead_pct"], 25.0)
        self.assertAlmostEqual(run.cost(ops, "step"), 6.0)


class InstallTest(unittest.TestCase):
    def test_rebinds_and_restores(self):
        from ucdl import csc, tensors
        from ucdl.csc import FilterBank

        original = tensors.dft_forward
        tracer = Tracer()
        targets = ucdl_targets([t for t in OPERATION_TARGETS if t[2] == "tensors.dft"])
        with tracer.installed(targets):
            self.assertIsNot(csc.dft_forward, original)
            csc.filter_spectra(FilterBank([[[1.0, 0.0], [0.0, 0.0]]]), (4, 4))
        self.assertIs(csc.dft_forward, original)
        self.assertIs(tensors.dft_forward, original)
        self.assertEqual(tracer.calls["tensors.dft"], 1)
        self.assertEqual(tracer.counts["dft.elems"], 16)

    def test_array_bytes_counts_shared_arrays_once(self):
        import numpy as np
        a = np.zeros(10)
        self.assertEqual(array_bytes((a, [a, np.ones(3)], Op("x", 0.0, False, out=a))), 104)


class DeclaredNamesTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))

    def test_metric_units(self):
        self.assertEqual(run.declared_units(self.spec, "end_to_end"), run.END_TO_END)
        self.assertEqual(run.declared_units(self.spec, "per_layer"), run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()

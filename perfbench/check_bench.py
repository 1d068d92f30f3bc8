"""Tests of the benchmark itself: its checks, its span arithmetic, its inputs.

    python3 perfbench/check_bench.py

The name keeps pytest from collecting these with the package's tests.
"""

from __future__ import annotations

import os
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracles  # noqa: E402
import reference  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from run import percentile  # noqa: E402
from tracing import Recorder, Span, layer_self_times, self_times  # noqa: E402

from newtonosc import cli, polycore, scaling  # noqa: E402
from newtonosc.newton import NewtonPolygon  # noqa: E402
from newtonosc.opnorm import PhaseSpec  # noqa: E402
from newtonosc.scaling import SweepConfig  # noqa: E402


class SmallSweep(workloads.SweepWorkload):
    name = "small_sweep"
    phases = (("x*y", "x*y", 0.5, (16.0, 32.0, 64.0, 128.0)),)


def small_reference() -> dict:
    ref = {}
    for label, text, rho, lams in SmallSweep.phases:
        p = PhaseSpec(polycore.parse_poly(text), rho=rho)
        rep = scaling.verify_theorem(p, SweepConfig(lambdas=lams, seed=0))
        ref[label] = reference.report_dict(rep)
    return {SmallSweep.name: ref}


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ref = small_reference()

    def run_sweep(self, seed=3):
        log = workloads.OpLog()
        SmallSweep(seed, self.ref).run_pass(log)
        return log

    def test_sweep_matches_its_reference_at_another_seed(self):
        ref, samples = self.ref[SmallSweep.name]["x*y"], 0
        while ref is not None:
            samples += len(ref["samples"])
            ref = ref.get("retry")
        log = self.run_sweep()
        self.assertEqual(log.attempted, samples)
        self.assertEqual(log.failed, 0, log.failures)
        self.assertEqual(len(log.latencies), 1)

    def test_perturbed_norm_fails(self):
        original = scaling.operator_norm

        def off_by_one_percent(op, **kwargs):
            value, *rest = original(op, **kwargs)
            return (value * 1.01, *rest)

        scaling.operator_norm = off_by_one_percent
        try:
            log = self.run_sweep()
        finally:
            scaling.operator_norm = original
        self.assertGreater(log.failed / log.attempted, 0)

    def test_perturbed_polygon_fails(self):
        corpus = workloads.AnalyzeCorpus(0, {})
        corpus.phases = corpus.phases[:20]
        log = workloads.OpLog()
        corpus.run_pass(log)
        self.assertEqual(log.failed, 0, log.failures)

        original = cli.build_polygon

        def shifted(F):
            poly = original(F)
            verts = tuple((a + 1, b) for a, b in poly.vertices)
            return NewtonPolygon(verts, poly.edges, poly.A + 1, poly.B)

        cli.build_polygon = shifted
        try:
            log = workloads.OpLog()
            corpus.run_pass(log)
        finally:
            cli.build_polygon = original
        self.assertGreater(log.failed / log.attempted, 0)

    def test_probe_puts_op_times_on_the_reference_clock(self):
        # probes read 2x and then 4x the reference time: the op between
        # them ran at a third of the reference speed on average
        readings = iter([2 * speed.P_REF_S, 4 * speed.P_REF_S])
        log = workloads.OpLog(probe=lambda: next(readings))
        log.start_pass()
        log.timed(lambda: None)()
        log.finish_pass()
        self.assertEqual(len(log.scale), 1)
        self.assertAlmostEqual(log.scale[0], 1 / 3, places=12)

    def test_oracles_on_known_supports(self):
        self.assertEqual(oracles.diagonal_delta([(1, 1)]), Fraction(1, 2))
        self.assertEqual(oracles.diagonal_delta([(0, 3), (2, 1)]), Fraction(2, 5))
        self.assertEqual(oracles.polygon_vertices([(0, 3), (1, 2), (2, 1), (3, 3)]),
                         ((0, 3), (2, 1)))
        self.assertEqual(oracles.branch_count([(1, 2), (3, 0)]), 2)
        self.assertEqual(oracles.branch_count([(1, 1), (2, 3)]), 0)


class SpanArithmetic(unittest.TestCase):
    def tree(self):
        # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping) and
        # c [9, 12] (running past the root); a has child g [2, 3]
        return [
            Span("root", "cli", 0.0, 10.0),
            Span("a", "opnorm", 1.0, 4.0, parent=0),
            Span("b", "puiseux", 3.0, 6.0, parent=0),
            Span("g", "polycore", 2.0, 3.0, parent=1),
            Span("c", "opnorm", 9.0, 12.0, parent=0),
        ]

    def test_self_times_on_hand_built_tree(self):
        self.assertEqual(self_times(self.tree()), [4.0, 2.0, 3.0, 1.0, 3.0])

    def test_layer_self_times(self):
        totals = layer_self_times(self.tree())
        self.assertEqual(totals["cli"], 4.0)
        self.assertEqual(totals["opnorm"], 5.0)
        self.assertEqual(totals["puiseux"], 3.0)
        self.assertEqual(totals["polycore"], 1.0)
        self.assertEqual(totals["dyadpol"], 0.0)

    def test_recorder_nests_spans_and_tags_ops(self):
        rec = Recorder()
        inner = rec.wrap(lambda x: x + 1, "polycore.inner", "polycore")
        outer = rec.wrap(lambda x: inner(x) * 2, "cli.outer", "cli")
        rec.op = 7
        self.assertEqual(outer(1), 4)
        self.assertEqual([s.name for s in rec.spans], ["cli.outer", "polycore.inner"])
        self.assertEqual([s.parent for s in rec.spans], [None, 0])
        self.assertEqual({s.op for s in rec.spans}, {7})
        self.assertLessEqual(sum(layer_self_times(rec.spans).values()), rec.spans[0].duration)

    def test_percentile(self):
        self.assertEqual(percentile([3.0, 1.0, 2.0], 0.5), 2.0)
        self.assertEqual(percentile(range(1, 20), 0.95), 19)
        self.assertEqual(percentile(range(1, 100), 0.95), 95)


class Generators(unittest.TestCase):
    def test_corpus_is_deterministic(self):
        self.assertEqual(workloads.corpus(5), workloads.corpus(5))
        self.assertNotEqual(workloads.corpus(5), workloads.corpus(6))
        self.assertEqual(len(workloads.corpus(5)), workloads.CORPUS_SIZE)

    def test_corpus_respects_its_ranges(self):
        for F in workloads.corpus(1):
            self.assertTrue(1 <= len(F) <= 5)
            for (a, b), c in F.items():
                self.assertTrue(0 <= a <= 3 and 0 <= b <= 3 and 1 <= c <= 4)

    def test_profiles_are_deterministic(self):
        self.assertEqual(workloads.profiles(5), workloads.profiles(5))
        self.assertNotEqual(workloads.profiles(5), workloads.profiles(6))
        for r in workloads.profiles(5):
            self.assertTrue(1 <= len(r) <= 4 and all(0 <= v <= 12 for v in r))


if __name__ == "__main__":
    unittest.main()

"""Tests of the benchmark's own checks and tracer.

    python3 -m unittest discover -s perfbench -t perfbench
"""

from __future__ import annotations

import json
import random
import sys
import unittest

import checks
import run
import tracer
import workloads

sys.path.insert(0, str(run.ROOT / "src"))
import anchorseq  # noqa: E402


class MillerRabinTest(unittest.TestCase):
    def test_agrees_with_anchorseq(self):
        rng = random.Random(7)
        numbers = list(range(-2, 20_000))
        numbers += [10**15 + i for i in range(2_000)]
        numbers += [rng.randrange(10**20, 10**24) | 1 for _ in range(2_000)]
        for n in numbers:
            self.assertEqual(checks.is_prime(n), anchorseq.is_prime(n), n)

    def test_refuses_values_beyond_the_exact_range(self):
        with self.assertRaises(ValueError):
            checks.is_prime(checks.MR_BOUND + 2)


class TamperTest(unittest.TestCase):
    """A tampered output line makes check_op report the op as failed."""

    def setUp(self):
        self.ctx = run.Context()

    def run_op(self, op):
        res = self.ctx.cli(op.args)
        self.assertEqual(run.check_op(op, res, self.ctx, {}), [])
        return res

    def test_tampered_witness_line(self):
        op = workloads.search_op("full", 10**9, "default", 1, 30_000, 1, 10_000)
        res = self.run_op(op)
        lines = res.stdout.decode().splitlines()
        witness = json.loads(lines[0])
        witness["values"]["1"] = str(int(witness["values"]["1"]) + 2)
        lines[0] = json.dumps(witness, sort_keys=True)
        res.stdout = ("\n".join(lines) + "\n").encode()
        self.assertNotEqual(run.check_op(op, res, self.ctx, {}), [])

    def test_dropped_witness_fails_sieve_soundness(self):
        op = workloads.search_op("full", 10**9, "default", 1, 30_000, 1, 10_000)
        res = self.run_op(op)
        lines = res.stdout.decode().splitlines()
        summary = json.loads(lines[-1])
        summary["summary"]["witnesses"] -= 1
        res.stdout = ("\n".join(lines[1:-1] + [json.dumps(summary)]) + "\n").encode()
        problems = run.check_op(op, res, self.ctx, {})
        self.assertTrue(any("sieve soundness" in p for p in problems), problems)

    def test_lost_pool_results_fail_the_serial_comparison(self):
        # The last witnesses go missing, as if a later block's results were
        # lost; the summary is made consistent and the sub-window still matches.
        op = workloads.search_op("full", 10**9, "default", 1, 100_000, 2, 10_000)
        res = self.run_op(op)
        lines = res.stdout.decode().splitlines()
        summary = json.loads(lines[-1])
        summary["summary"]["witnesses"] -= 5
        res.stdout = ("\n".join(lines[:-6] + [json.dumps(summary)]) + "\n").encode()
        problems = run.check_op(op, res, self.ctx, {})
        self.assertEqual(problems, ["output differs from the same search with one worker"])

    def test_known_witnesses_must_be_found(self):
        good = workloads.search_op("w", 10**15, "default", 3, 1_000, 1, 1_000,
                                   known=(125_000, 125_099, [125_060]))
        res = self.run_op(good)
        bad = workloads.search_op("w", 10**15, "default", 3, 1_000, 1, 1_000,
                                  known=(125_000, 125_099, [125_061]))
        problems = run.check_op(bad, res, self.ctx, {})
        self.assertEqual(len(problems), 2, problems)  # sieved and --no-sieve

    def test_tampered_table_row(self):
        for scheme in ("default", "no_prime"):
            op = workloads.table_op(scheme, -40, 40)
            res = self.run_op(op)
            rows = json.loads(res.stdout)
            rows[50]["value"] = str(int(rows[50]["value"]) * 3)
            res.stdout = json.dumps(rows).encode()
            self.assertNotEqual(run.check_op(op, res, self.ctx, {}), [], scheme)

    def test_default_closed_form_catches_consistent_row(self):
        op = workloads.table_op("default", 10, 11)
        res = self.run_op(op)
        rows = json.loads(res.stdout)
        rows[0] = {"s": 10, "value": "57", "factors": [[3, 1], [19, 1]]}
        res.stdout = json.dumps(rows).encode()
        self.assertNotEqual(run.check_op(op, res, self.ctx, {}), [])

    def test_garbage_output_fails_without_raising(self):
        ops = [
            workloads.search_op("full", 10**9, "default", 1, 30_000, 1, 10_000),
            workloads.table_op("default", -3, 3),
            workloads.verify_op("D", "default", 5),
        ]
        for op in ops:
            for junk in (b"", b"\xff\xfe", b"[1, 2]\n", b"5\n", b'{"summary": 1}\n'):
                res = run.Result(0, junk, b"", 0.0, 0)
                self.assertNotEqual(run.check_op(op, res, self.ctx, {}), [], (op.label, junk))

    def test_processes_left_behind_are_killed_and_fail_the_op(self):
        res = self.ctx.launch(["sh", "-c", "sleep 30 >/dev/null 2>&1 &"])
        self.assertEqual(res.rc, 0)
        self.assertTrue(res.leftover)
        op = workloads.verify_op("D", "default", 5)
        self.assertIn("left processes running after it ended", run.check_op(op, res, self.ctx, {}))

    def test_digest_mismatch(self):
        op = workloads.verify_op("D", "default", 5)
        res = self.run_op(op)
        self.assertNotEqual(run.check_op(op, res, self.ctx, {op.label: "0" * 64}), [])


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_lists_match_the_harness(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER_UNITS
        )
        self.assertEqual(
            {m["name"] for m in spec["end_to_end"]},
            {"setup_s", "work_per_s", "latency_s", "peak_rss_mb"},
        )
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))


class TracerTest(unittest.TestCase):
    def test_traced_output_is_byte_identical(self):
        ctx = run.Context()
        ops = [
            workloads.search_op("full", 10**9, "default", 1, 100_000, 2, 10_000),
            workloads.table_op("euler_prime", -300, 300),
            workloads.verify_op("D", "euler_prime", 30),
        ]
        for op in ops:
            plain, traced = ctx.cli(op.args), ctx.cli(op.args, traced=True)
            trace, traced.stderr = run.split_marked(traced.stderr, tracer.TRACE_MARK)
            self.assertIsNotNone(trace, op.label)
            self.assertEqual((traced.rc, traced.stdout), (plain.rc, plain.stdout), op.label)
            self.assertEqual(run.check_op(op, traced, ctx, {}), [])
            layers = tracer.layer_metrics(trace)
            self.assertGreater(layers["cli.self_s"], 0)

    def test_wrappers_cover_every_binding_and_are_restored(self):
        import anchorseq.construction
        import anchorseq.search

        original = anchorseq.search.is_prime
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(anchorseq.search.is_prime, original)
            self.assertIsNot(anchorseq.construction.is_prime, original)
            anchorseq.search.search_tuples(anchorseq.solve_scheme(
                anchorseq.get_scheme("default"), 1), 0, 1000)
        finally:
            t.restore()
        self.assertIs(anchorseq.search.is_prime, original)
        self.assertIs(anchorseq.construction.is_prime, original)
        layers = tracer.layer_metrics({"spans": t.spans, "counts": t.counts})
        self.assertGreater(layers["primality.is_prime.calls"], 0)
        self.assertGreater(layers["construction.is_prime.calls"], 0)
        self.assertEqual(layers["k_full"], 1000)


if __name__ == "__main__":
    unittest.main()

"""The benchmark's own tests.

    python3 orebench/selftest.py

They run a handful of cheap queries, not whole workloads.
"""

import json
import signal
import statistics
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

CLI = run.load_program()
SCHEMA = json.loads(run.SCHEMA.read_text())
CHEAP = {
    workloads.DECIDE: ("named:euler", "named:nilpotent", "named:shamsuddin"),
    workloads.DARBOUX: ("named:euler", "named:x2-y2"),
    workloads.ORE: ("ore-mul:euler:0", "witness:euler:0", "witness:euler:1"),
}


def cheap_queries(workload, seed):
    by_label = {q.label: q for q in workloads.build(workload, seed)}
    return [by_label[label] for label in CHEAP[workload]]


def run_checked(seed):
    """Samples of the cheap queries of every workload, checked; labels
    are unique within a workload, so each is checked on its own."""
    samples = []
    for workload in workloads.WORKLOADS:
        runner = run.Runner(CLI, workloads.DEADLINE_S)
        batch = [runner.run(q) for q in cheap_queries(workload, seed)]
        run.check_answers(batch, SCHEMA)
        samples += batch
    return samples


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.previous = signal.signal(signal.SIGALRM, run._on_alarm)

    @classmethod
    def tearDownClass(cls):
        signal.signal(signal.SIGALRM, cls.previous)

    def test_same_seed_gives_same_inputs_and_digests(self):
        for workload in workloads.WORKLOADS:
            first = [q.argv for q in workloads.build(workload, 7)]
            self.assertEqual(first, [q.argv for q in workloads.build(workload, 7)])
        a, b = run_checked(7), run_checked(7)
        self.assertEqual([s.digest for s in a], [s.digest for s in b])
        self.assertTrue(all(s.digest for s in a))

    def test_second_seed_runs_clean(self):
        self.assertNotEqual(
            [q.argv for q in workloads.build(workloads.ORE, 1)],
            [q.argv for q in workloads.build(workloads.ORE, 2)],
        )
        samples = run_checked(2)
        self.assertEqual([(s.query.label, s.reason, s.detail) for s in samples if s.reason], [])

    def test_wrong_answer_is_caught(self):
        query = cheap_queries(workloads.ORE, 3)[-1]
        sample = run.Runner(CLI, workloads.DEADLINE_S).run(query)
        doc = json.loads(sample.text)
        doc["result"]["r"] = oracle.render(oracle.add(oracle.parse_poly(doc["result"]["r"]), {(0, 0): 1}))
        self.assertTrue(checks.answer_errors(query, doc, SCHEMA))
        doc["result"]["extra"] = 1
        del doc["trace"]
        self.assertTrue(checks.schema_errors(doc, SCHEMA))
        sample.text = json.dumps({**json.loads(sample.text), "result": {}})
        run.check_answers([sample], SCHEMA)
        self.assertEqual(sample.reason, "wrong_answer")
        self.assertIn("could not be checked", sample.detail)

    def test_wrapped_function_counted_through_alias(self):
        import orediamond
        from orediamond import diamond, poly

        original = poly.gcd
        x, y = poly.BiPoly.var_x(), poly.BiPoly.var_y()
        xy = x * y
        tracer = Tracer()
        tracer.install()
        try:
            diamond.gcd(xy, x)  # diamond imports gcd by name
            orediamond.gcd(xy, y)
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.snapshot()["poly.gcd"]["calls"], 2)
        tracer = Tracer()
        tracer.install()
        try:
            1 + x  # __radd__ is an alias of __add__ on the class
            (x + y) * (x - y)
        finally:
            tracer.uninstall()
        layers = tracer.snapshot()
        self.assertEqual(layers["poly.BiPoly.add"]["calls"], 3)
        self.assertEqual(layers["poly.BiPoly.mul"]["calls"], 1)
        self.assertEqual(layers["poly.BiPoly.mul"]["term_products"], 4)
        self.assertIs(diamond.gcd, original)
        self.assertEqual(tracer.absent, [])

    def test_missing_target_reported_absent(self):
        tracer = Tracer(targets=(("gone", "orediamond.poly", "no_such_function", None),
                                 ("gone", "orediamond.no_such_module", "f", None)))
        tracer.install()
        tracer.uninstall()
        self.assertEqual(tracer.absent, ["orediamond.poly.no_such_function", "orediamond.no_such_module.f"])

    def test_forced_timeout_lands_in_fail_ratio(self):
        by_label = {q.label: q for q in workloads.build(workloads.DARBOUX, 1)}
        queries = [by_label["named:final-example"], by_label["named:nilpotent"]]
        runner = run.Runner(CLI, 0.5)
        tracer = Tracer()
        tracer.install()
        try:
            rounds, factors = zip(*(runner.run_pass(queries) for _ in range(2)))
        finally:
            tracer.uninstall()
        self.assertEqual([s.reason for s in rounds[0]], ["timeout", None])
        self.assertEqual(rounds[1][0].seconds, 0.5)  # not run again
        metrics = run.timing_metrics(rounds)
        self.assertEqual(run.fail_ratio(rounds), 0.5)
        self.assertEqual(metrics["success_ratio"]["value"], 0.5)
        # the deadline is not the program's time: only the answered query
        # is timed, scaled by its own speed samples or by its pass's
        self.assertEqual(metrics["pass_s"]["value"], statistics.median(r[1].scaled for r in rounds))
        for r, f in zip(rounds, factors):
            start, end = r[1].units
            local = runner.speed.factor(start, end) if end - start >= run.MIN_UNITS else f
            self.assertEqual(r[1].scaled, r[1].seconds * local)
        self.assertEqual([s.depth for s in tracer.layers.values()], [0] * len(tracer.layers))
        self.assertEqual(tracer._stack, [])

    def test_speed_units_are_scaled_and_not_timed(self):
        query = cheap_queries(workloads.ORE, 3)[0]  # an ore-mul of about 0.2 s
        runner = run.Runner(CLI, workloads.DEADLINE_S)
        tracer = Tracer()
        tracer.install()
        try:
            speed.unit()
            self.assertEqual([s["calls"] for s in tracer.snapshot().values()], [0] * len(tracer.layers))
            start = time.perf_counter()
            [sample], _ = runner.run_pass([query])
            wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        first, last = sample.units
        self.assertGreaterEqual(last - first, run.MIN_UNITS)
        self.assertGreater(runner.speed.spent, 0.0)
        self.assertLess(sample.seconds, wall - runner.speed.spent)
        self.assertEqual(sample.scaled, sample.seconds * runner.speed.factor(first, last))

    def test_benchmark_json_lists_the_printed_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([m["name"] for m in spec["per_layer"]], [m[0] for m in run.PER_LAYER] + ["trace_overhead"])
        rounds = [run_checked(1)]
        for s in rounds[0]:
            s.scaled = s.seconds
        printed = set(run.timing_metrics(rounds)) | {"setup_s", "peak_rss_mb"}
        self.assertEqual({m["name"] for m in spec["end_to_end"]}, printed)


if __name__ == "__main__":
    unittest.main()

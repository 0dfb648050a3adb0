"""Self-tests for the benchmark itself.

    python3 bench/test_bench.py

They check that the workload generators are seeded, that the tracer puts
back every binding it replaces, that self time is computed correctly, and
that every workload runs cleanly at a tiny size, traced and untraced.
"""

import importlib
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
from worker import Tally  # noqa: E402
from workloads import WORKLOADS, run_cli  # noqa: E402


def requests(workload, seed, rnd=0, small=False):
    return [op.request for op in WORKLOADS[workload](seed, rnd, small)]


def bindings():
    """Every attribute of every traced namespace, by identity."""
    out = {}
    for module in tracer.MODULES:
        mod = importlib.import_module(module)
        out.update({(module, k): v for k, v in vars(mod).items()})
    return out


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload):
                self.assertEqual(requests(workload, 7), requests(workload, 7))
                self.assertEqual(requests(workload, 7, 3), requests(workload, 7, 3))

    def test_other_seed_or_round_other_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload):
                self.assertNotEqual(requests(workload, 7), requests(workload, 8))
                self.assertNotEqual(requests(workload, 7, 0), requests(workload, 7, 1))

    def test_round_composition_does_not_depend_on_seed(self):
        for workload in WORKLOADS:
            kinds = {tuple(op.kind for op in WORKLOADS[workload](seed, 0)) for seed in range(5)}
            items = {sum(op.items for op in WORKLOADS[workload](seed, 0)) for seed in range(5)}
            with self.subTest(workload):
                self.assertEqual(len(kinds), 1)
                if workload != "query":
                    self.assertEqual(len(items), 1)


class Timings(unittest.TestCase):
    def test_fastest_tenth_of_rounds_and_windows(self):
        tally = Tally()
        # Five one-op rounds; windows of two rounds, the odd round out joins the last.
        tally.latencies = [[0.004], [0.002], [0.003], [0.001], [0.005]]
        tally.round_rates = [10.0, 30.0, 20.0, 50.0, 40.0]
        got = tally.timings(window_rounds=2)
        self.assertEqual(got["items_per_s"], 50.0)
        # Windows [4, 2] and [3, 1, 5] ms: medians 2 and 3, maxima 4 and 5.
        self.assertAlmostEqual(got["op_p50_ms"], 2.0)
        self.assertAlmostEqual(got["op_p99_ms"], 4.0)


class Tracing(unittest.TestCase):
    def test_restores_every_binding(self):
        before = bindings()
        t = tracer.Tracer()
        with t:
            during = bindings()
            changed = {key for key in before if during[key] is not before[key]}
            # Re-exported names are wrapped too: the package, cli and criteria bind core functions.
            for key in [("multicoh.core", "kunneth_dim"), ("multicoh", "kunneth_dim"),
                        ("multicoh.cli", "sum_cohomology_dim"),
                        ("multicoh.cli", "cohomology_table"),
                        ("multicoh.criteria", "nonvanishing_twist_intervals"),
                        ("multicoh.cli", "main"), ("multicoh.koszul", "euler_exactness_check")]:
                self.assertIn(key, changed)
            wrapped = {name for layer in tracer.LAYERS.values() for name in layer[1]}
            self.assertEqual({name for _, name in changed}, wrapped)
        after = bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_self_times_on_a_synthetic_tree(self):
        # root [0,10] has children [1,3] and [2,4], which overlap, and [5,6];
        # [5,6] has a child [5.5,7] that runs past its parent's end.
        starts = [0.0, 1.0, 2.0, 5.0, 5.5]
        ends = [10.0, 3.0, 4.0, 6.0, 7.0]
        parents = [-1, 0, 0, 0, 3]
        got = tracer.self_times(starts, ends, parents)
        for g, want in zip(got, [10 - 3 - 1, 2, 2, 1 - 0.5, 1.5]):
            self.assertAlmostEqual(g, want)

    def test_counts_calls_errors_and_outcomes(self):
        t = tracer.Tracer()
        with t:
            ok = run_cli(["cohomology", "--t", "4", "--bundle",
                          '{"shape":[2,2],"summands":[{"degree":[-3,-3]}]}'])
            refused = run_cli(["check", "thm12", "--bundle",
                               '{"shape":[1,2],"summands":[{"degree":[0,0]}]}'])
        self.assertEqual((ok[0], refused[0]), (0, 2))
        m = t.metrics(audit_degrees=0)
        self.assertEqual(m["cli.calls"][0], 2)
        self.assertEqual(m["cli.errors"][0], 1)
        self.assertEqual(m["criteria.check.errors"][0], 1)
        self.assertEqual(m["core.kunneth.calls"][0], 2)  # sum_cohomology_dim and its kunneth_dim
        self.assertEqual(m["core.kunneth.nonzero_ratio"][0], 1.0)
        self.assertEqual(len(t.kept), 5)  # two cli.main, two kunneth, one thm12_violations
        root_time = sum(end - start for _, _, start, end, parent in t.kept if parent < 0)
        self.assertAlmostEqual(sum(t.self_s), root_time)


class Smoke(unittest.TestCase):
    """Every workload at a tiny size: no failures, and the traced layers are reached."""

    REACHES = {
        "audit": ("cli", "criteria.audit", "criteria.check", "criteria.conclusion",
                  "core.intervals", "core.kunneth"),
        "query": ("cli", "regularity", "criteria.check", "core.intervals", "core.kunneth"),
        "table": ("cli", "core.table", "core.kunneth"),
        "koszul": ("koszul",),
    }

    def test_each_workload(self):
        for workload, make_ops in WORKLOADS.items():
            with self.subTest(workload):
                plain, traced, t = Tally(), Tally(), tracer.Tracer()
                plain.run_round(make_ops(3, 0, small=True))
                with t:
                    traced.run_round(make_ops(3, 1, small=True))
                self.assertEqual(plain.failed + traced.failed, 0, plain.problems + traced.problems)
                self.assertGreater(plain.items, 0)
                m = t.metrics(traced.audit_degrees)
                for layer in self.REACHES[workload]:
                    self.assertGreater(m[f"{layer}.calls"][0], 0, layer)
                if workload == "audit":
                    self.assertGreater(m["criteria.audit.evals_per_degree"][0], 0)


if __name__ == "__main__":
    unittest.main()

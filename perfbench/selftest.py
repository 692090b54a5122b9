"""Self-tests of the benchmark itself.  From the repository root:

    python3 perfbench/selftest.py

Inputs must follow from the seed alone, every output check must be able to
fail, span self times must add up to each op's duration, counts must repeat
exactly, and each workload's dominant layer must be the one it was chosen
for.  Takes about half a minute; not part of the library's test suite.
"""

from __future__ import annotations

import json
import tempfile
import unittest
from pathlib import Path

import run
from tracing import OP, Tracer
from workloads import WORKLOADS

run.import_program(needs_networkx=True)
import nmgraph.cli  # noqa: E402
import nmgraph.nm  # noqa: E402
import nmgraph.verify  # noqa: E402


def scratch_dir() -> tempfile.TemporaryDirectory:
    run.OUT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.OUT, prefix="selftest-")


def input_bytes(name: str, seed: int) -> dict[str, bytes]:
    with scratch_dir() as tmp:
        workload = WORKLOADS[name](seed, Path(tmp))
        workload.setup()
        return {p.name: p.read_bytes() for p in workload.input_files()}


def traced_ops(name: str, indices: list[int]) -> Tracer:
    tracer = Tracer()
    with scratch_dir() as tmp:
        workload = WORKLOADS[name](seed=3, workdir=Path(tmp))
        workload.setup()
        tracer.install()
        try:
            for op_id, index in enumerate(indices):
                why = tracer.run_op(op_id, workload.op, index)
                assert why is None, why
        finally:
            tracer.uninstall()
    return tracer


def layer(span_name: str) -> str:
    return span_name.split(".")[0]


class InputTests(unittest.TestCase):
    def test_same_seed_gives_identical_files(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first = input_bytes(name, 5)
                self.assertTrue(first)
                self.assertEqual(first, input_bytes(name, 5))

    def test_other_seed_gives_other_inputs(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.assertNotEqual(input_bytes(name, 5), input_bytes(name, 6))


class OutputCheckTests(unittest.TestCase):
    """Negative controls: a wrong expectation must turn into a failed op."""

    TAMPER = {
        "analyze-sparse": lambda w: w.expected[0].update(triangleCount=-1),
        "analyze-paley": lambda w: w.expected[0].update(srgParameters=[128, 64, 63]),
        "roundtrip": lambda w: w.canonical.__setitem__(0, w.canonical[0] + "0 1\n"),
        "verify-corpus": lambda w: w.expected.__setitem__(0, "dual-path-identityFAIL"),
    }

    def test_tampered_expectation_fails(self):
        for name, tamper in self.TAMPER.items():
            with self.subTest(workload=name), scratch_dir() as tmp:
                workload = WORKLOADS[name](seed=4, workdir=Path(tmp))
                workload.setup()
                self.assertIsNone(workload.op(0))
                tamper(workload)
                self.assertIsNotNone(workload.op(0))


class TraceTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tracers = {name: traced_ops(name, [0, 0]) for name in WORKLOADS}

    def test_uninstall_restores_every_binding(self):
        self.assertIs(nmgraph.cli.build_nm, nmgraph.nm.build_nm)
        self.assertFalse(hasattr(nmgraph.cli.main, "__wrapped__"))
        self.assertFalse(any(hasattr(check, "__wrapped__")
                             for _, check in nmgraph.verify.INVARIANTS))

    def test_self_times_add_up_to_op_duration(self):
        for name, tracer in self.tracers.items():
            with self.subTest(workload=name):
                ops = {s[3]: s for s in tracer.spans if s[2] == OP}
                self.assertEqual(sorted(ops), [0, 1])
                for sid, parent, span_name, op, start, end in tracer.spans:
                    if span_name == OP:
                        self.assertEqual(parent, -1)
                    else:
                        self.assertEqual(tracer.spans[parent][3], op)
                        self.assertLessEqual(tracer.spans[parent][4], start)
                        self.assertLessEqual(end, tracer.spans[parent][5])
                for op, self_ns in tracer.self_times().items():
                    _, _, _, _, start, end = ops[op]
                    self.assertEqual(sum(self_ns.values()), end - start)

    def test_counts_repeat_exactly(self):
        for name, tracer in self.tracers.items():
            with self.subTest(workload=name):
                calls = tracer.call_counts()
                self.assertEqual(calls[0], calls[1])
                self.assertEqual(tracer.counts[0], tracer.counts[1])

    def test_count_metrics_do_not_depend_on_run_length(self):
        ops = list(range(run.COUNT_OPS))
        self.assertEqual(run.count_metrics(traced_ops("verify-corpus", ops)),
                         run.count_metrics(traced_ops("verify-corpus", ops + [8, 9])))

    def test_every_library_layer_is_seen(self):
        seen = {layer(n) for t in self.tracers.values() for n in t.call_counts()[0]}
        self.assertEqual(seen - {OP}, {"cli", "graph", "nm", "analytics", "oracles",
                                       "matio", "verify", "random_graphs"})

    def test_dominant_layer_matches_workload_choice(self):
        def ranked(name):
            self_ns = self.tracers[name].self_times()[1]
            return sorted((n for n in self_ns if n != OP), key=self_ns.get, reverse=True)

        self.assertEqual(ranked("analyze-sparse")[0], "analytics.four_cycle_count")
        self.assertEqual(set(ranked("analyze-paley")[:2]),
                         {"nm.build_nm", "analytics.srg_parameters"})
        self.assertEqual(ranked("verify-corpus")[0], "oracles.subgraph_census")
        self_ns = self.tracers["roundtrip"].self_times()[1]
        by_layer: dict[str, int] = {}
        for span_name, ns in self_ns.items():
            by_layer[layer(span_name)] = by_layer.get(layer(span_name), 0) + ns
        self.assertEqual(max(by_layer, key=by_layer.get), "matio")
        self.assertGreater(by_layer["matio"], sum(by_layer.values()) / 2)
        self.assertNotIn("analytics", by_layer)


class ContractTests(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual(set(run.TAIL_PERCENTILE), set(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_rescaling_is_identity_at_reference_speed(self):
        self.assertEqual(run.at_reference_speed(5_000, run.REF_NOMINAL_NS, run.REF_NOMINAL_NS),
                         5_000)
        self.assertEqual(run.at_reference_speed(5_000, run.REF_NOMINAL_NS,
                                                3 * run.REF_NOMINAL_NS), 2_500)

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 41))
        self.assertEqual(run.percentile(values, 75), (30, 10))
        self.assertEqual(run.percentile(values, 50), (20, 20))
        self.assertEqual(run.percentile([7], 90), (7, 0))


if __name__ == "__main__":
    unittest.main()

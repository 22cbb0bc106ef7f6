"""Self-tests of the benchmark harness, on a tiny grid (k <= 2, m = n = 2).

    python3 perfbench/selftest.py

They run the real harness end to end (children, gate, tracer), check that
a wrong expected eigenvalue or verdict count makes it fail, and check that
it refuses to run in a directory without the library sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from dataclasses import replace

import run
import tracer
from oracle import immanant_eigenvalue, partitions, standard_tableaux
from workloads import WORKLOADS, Immanant, Sweep, Theorem, sweep_verdicts

TINY = {
    "sweep": Sweep(max_k=2, max_m=2, max_n=2, expected=sweep_verdicts(2, 2, 2)),
    "theorem": Theorem(k=2, m=2, n=2, expected=2),
    "immanant": Immanant(k=2, m=2, weights_per_shape=2, expected=6),
}


def invoke(workloads: dict, name: str, trace: int = 0) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(
            ["--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            workloads=workloads,
        )
    return code, out.getvalue()


def result_line(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    return result


class Counts(unittest.TestCase):
    def test_expected_counts_follow_from_the_grids(self):
        self.assertEqual(sweep_verdicts(3, 3, 3), WORKLOADS["sweep-k3"].expected)
        self.assertEqual(len(WORKLOADS["theorem-k4"].job(0)["pairs"]), 24)
        imm = WORKLOADS["immanant-k4m3"]
        self.assertEqual(len(partitions(4)) * (1 + imm.weights_per_shape), imm.expected)

    def test_inputs_depend_only_on_the_seed(self):
        for workload in WORKLOADS.values():
            self.assertEqual(workload.job(3), workload.job(3))
        for name in ("theorem-k4", "immanant-k4m3"):
            self.assertNotEqual(WORKLOADS[name].job(3), WORKLOADS[name].job(4))

    def test_weights_are_weakly_decreasing_in_range(self):
        for case in WORKLOADS["immanant-k4m3"].job(5)["cases"]:
            self.assertIn(case["T"], standard_tableaux(tuple(case["shape"])))
            for w in case["weights"]:
                self.assertEqual(w, sorted(w, reverse=True))
                self.assertTrue(all(4 <= v <= 10 for v in w))

    def test_benchmark_json_matches_the_harness(self):
        spec_path = run.ROOT / "BENCHMARK.json"
        if not spec_path.is_file():
            self.skipTest("no BENCHMARK.json beside the benchmark")
        spec = json.loads(spec_path.read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


class Oracle(unittest.TestCase):
    def test_shifted_schur_small_values(self):
        # s*_(1)(x) = x_1 + ... + x_m; the immanant of (1) is the trace of E
        self.assertEqual(immanant_eigenvalue((1,), [5, 3]), 8)
        # s*_(1,1)(x1, x2) = x2 (x1 + 1), scaled by 2!/1
        self.assertEqual(immanant_eigenvalue((1, 1), [5, 3]), 2 * 3 * 6)
        # more rows than variables: the immanant vanishes
        self.assertEqual(immanant_eigenvalue((1, 1, 1), [5, 3]), 0)


class Tracer(unittest.TestCase):
    def test_self_time_excludes_children_and_their_counting(self):
        # name, parent, start, end, post, case, counts
        spans = [
            ["a", -1, 0.0, 10.0, 10.0, 0, None],
            ["b", 0, 1.0, 4.0, 5.0, 0, {"terms": 2}],
            ["b", 0, 6.0, 7.0, 7.0, 0, {"terms": 3}],
        ]
        stats = tracer._aggregate(spans)
        self.assertEqual(stats["a"]["self_s"], 10.0 - 4.0 - 1.0)
        self.assertEqual(stats["b"]["self_s"], 4.0)
        self.assertEqual(stats["b"]["counts"], {"terms": 5})

    def test_missing_memo_reads_as_null(self):
        sys.path.insert(0, str(run.ROOT / "src"))
        original = dict(tracer.MEMOS)
        try:
            tracer.MEMOS["gone.memo.entries"] = ("capelli.enveloping", "_NO_SUCH_MEMO")
            sizes = tracer.memo_sizes()
        finally:
            tracer.MEMOS.clear()
            tracer.MEMOS.update(original)
        self.assertIsNone(sizes["gone.memo.entries"])
        self.assertIsInstance(sizes["enveloping.straighten_memo.entries"], int)


class EndToEnd(unittest.TestCase):
    def test_tiny_workloads_pass(self):
        for name in TINY:
            code, stdout = invoke(TINY, name)
            result = result_line(stdout)
            self.assertEqual(code, 0, stdout)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            # the workload repeats for the whole second, each time in full
            self.assertEqual(result["attempted"] % TINY[name].expected, 0)
            self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
            for metric in result["metrics"].values():
                self.assertGreater(metric["value"], 0)

    def test_traced_run_reports_every_layer_metric(self):
        code, stdout = invoke(TINY, "immanant", trace=1)
        self.assertEqual(code, 0, stdout)
        result = result_line(stdout)
        self.assertEqual(set(result["metrics"]), set(run.PER_LAYER))
        values = {name: m["value"] for name, m in result["metrics"].items()}
        self.assertGreater(values["enveloping.ugl_multiply.calls"], 0)
        self.assertEqual(values["weyl.weyl_multiply.calls"], 0)
        self.assertGreater(values["tensors.full_trace.kept"], 0)

    def test_wrong_expected_eigenvalue_fails(self):
        def wrong(shape, weights):
            return immanant_eigenvalue(shape, weights) + 1

        workloads = {"immanant": replace(TINY["immanant"], oracle=wrong)}
        code, stdout = invoke(workloads, "immanant")
        result = result_line(stdout)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        # every eigenvalue of every repetition fails; centrality still holds
        self.assertEqual(result["failed"], result["attempted"] * 4 // 6)

    def test_wrong_verdict_count_fails(self):
        for name in ("sweep", "theorem"):
            workloads = {name: replace(TINY[name], expected=TINY[name].expected + 1)}
            code, stdout = invoke(workloads, name)
            result = result_line(stdout)
            self.assertNotEqual(code, 0)
            self.assertGreater(result["failed"], 0)

    def test_refuses_to_run_without_the_library(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(
            run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
        )
        if (run.ROOT / "BENCHMARK.json").is_file():
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep-k3"]
                + ["--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare,
                capture_output=True,
                text=True,
                timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()

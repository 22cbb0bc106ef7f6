"""Benchmark of the ``capelli`` verifier: cold child processes, one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src``.
Each repetition of a workload runs in a fresh child process, so memo tables
start cold, as for a ``capelli`` CLI user.

With ``--trace 0`` the workload repeats until ``--seconds`` have passed
(at least once), set-up is also sampled in extra children that only import
the library (15 samples in all), and the end-to-end metrics are medians
over the children:

  wall_s       first library call to last verdict, timed in the child
  cpu_s        user + system CPU of the child, from os.wait4
  peak_rss_mb  maximum RSS of the child, from os.wait4
  setup_s      spawn until ``import capelli`` is done and the child is ready

With ``--trace 1`` the workload runs once untraced and once traced; the
per-layer metrics come from the traced child's spans, and
``trace.overhead_s`` is traced minus untraced ``wall_s``.

Every verdict is checked by the benchmark (see ``workloads.py``). The
failed fraction of verdicts is printed and carried in ``attempted`` and
``failed``; any failure makes the exit code 1. The last stdout line is the
JSON result; the line before it is a detailed report, also written under
``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from tracer import layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "tensors.right_mul.self_s": "s",
    "tensors.right_mul.calls": "count",
    "tensors.right_mul.yield": "ratio",
    "tensors.right_mul.integral_fraction_share": "ratio",
    "tensors.full_trace.self_s": "s",
    "tensors.full_trace.entries": "count",
    "tensors.full_trace.kept": "count",
    "tensors.tensor_product.self_s": "s",
    "tensors.tensor_product.terms": "count",
    "tensors.tensor_matmul.self_s": "s",
    "weyl.weyl_multiply.self_s": "s",
    "weyl.weyl_multiply.calls": "count",
    "enveloping.ugl_multiply.self_s": "s",
    "enveloping.ugl_multiply.calls": "count",
    "enveloping.is_central.self_s": "s",
    "enveloping.hc_eigenvalue.self_s": "s",
    "enveloping.straighten_memo.entries": "count",
    "tableaux.psi.self_s": "s",
    "tableaux.psi.calls": "count",
    "tableaux.psi_memo.entries": "count",
    "tableaux.seminormal_memo.entries": "count",
    "permutations.ga_multiply.self_s": "s",
    "identities.compare.self_s": "s",
    "identities.lhs.s": "s",
    "identities.rhs.s": "s",
    "identities.shifted_product_memo.entries": "count",
    "identities.xd_product_memo.entries": "count",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

SETUP_SAMPLES = 15  # children whose set-up time is sampled in one run
RUN_BUDGET_S = 150.0  # no further repetition starts past this point
CHILD_TIMEOUT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def spawn(job: dict) -> dict:
    """Run one child on the job; return its result with setup_s, cpu_s and
    peak_rss_mb added. The child is always reaped before this returns."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        if ready.strip() == "ready":
            proc.stdin.write(json.dumps(job))
        proc.stdin.close()
        output = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if ready.strip() != "ready" or proc.returncode != 0:
        raise ChildFailed(f"child exited with {proc.returncode} (ready line {ready!r})")
    result = json.loads(output) if job["kind"] != "none" else {}
    result["setup_s"] = setup
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    return result


def measure(workload, job: dict, seconds: int) -> dict:
    """Repeat the workload in fresh children for ``seconds`` (at least once).

    Set-up is sampled before the repetitions, in each of them and after
    them, so that one slow spell of the machine does not set the median."""
    setups = [spawn({"kind": "none"})["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
    runs, checks = [], []
    start = perf_counter()
    while True:
        rep_start = perf_counter()
        result = spawn(job)
        checks.append(workload.check(job, result))
        runs.append({key: result[key] for key in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")})
        elapsed = perf_counter() - start
        rep = perf_counter() - rep_start
        if elapsed >= seconds or elapsed + rep > RUN_BUDGET_S:
            break
    setups += [run["setup_s"] for run in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn({"kind": "none"})["setup_s"])
    metrics = {
        name: statistics.median(run[name] for run in runs)
        for name in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(setups)
    return {"metrics": metrics, "runs": runs, "setup_samples": setups, "checks": checks}


def trace(workload, job: dict, name: str, seed: int) -> dict:
    """One untraced and one traced child; per-layer metrics from the spans."""
    OUT.mkdir(exist_ok=True)
    untraced = spawn(job)
    spans_path = OUT / f"spans-{name}-seed{seed}.json"
    traced_job = dict(job, trace_path=str(spans_path), run_id=f"{name}:{seed}")
    traced = spawn(traced_job)
    with open(spans_path) as fh:
        spans = json.load(fh)
    metrics = layer_metrics(spans, traced["memos"])
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return {
        "metrics": metrics,
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "checks": [workload.check(job, untraced), workload.check(job, traced)],
    }


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "capelli" / "__init__.py").is_file():
        print(f"no capelli sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    job = workload.job(args.seed)
    try:
        if args.trace:
            report = trace(workload, job, args.workload, args.seed)
        else:
            report = measure(workload, job, args.seconds)
    except ChildFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    attempted = sum(c[0] for c in report["checks"])
    failed = sum(c[1] for c in report["checks"])
    problems = [p for c in report["checks"] for p in c[2]]
    for problem in problems[:20]:
        print(f"FAIL {args.workload}: {problem}", file=sys.stderr)
    report.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        attempted=attempted,
        failed=failed,
        fail_frac=failed / attempted,
        problems=problems,
    )
    del report["checks"]
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": report["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

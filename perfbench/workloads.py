"""Workload inputs, generated from the seed, and the independent output gate.

Each workload turns a seed into one child job (only generated inputs go to
the program) and checks a child's result against the benchmark's own
expectations: the verdict count, the exit code, the exact key set of every
JSON report, centrality, and each eigenvalue against the shifted Schur
oracle. ``check`` returns (attempted, failed, problems); every mismatch or
exception counts as a failed verdict.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from oracle import immanant_eigenvalue, partitions, standard_tableaux

WEIGHT_RANGE = (4, 10)  # highest weights: entries drawn from 4..10, inclusive
REPORT_KEYS = {"case", "outcome", "lhs_terms", "rhs_terms", "first_diff", "millis"}


def _report_problem(report) -> str | None:
    if not isinstance(report, dict) or set(report) != REPORT_KEYS:
        keys = sorted(report) if isinstance(report, dict) else type(report).__name__
        return f"report keys {keys}"
    if report["outcome"] != "pass":
        return f"{report['case']}: outcome {report['outcome']} ({report['first_diff']})"
    return None


def _tally(expected: int, problems: list[str], verdicts: int) -> tuple[int, int, list[str]]:
    """Each problem is one failed verdict, and so is each verdict missing
    from, or in excess of, the expected count."""
    attempted = max(expected, verdicts, 1)
    failed = min(attempted, len(problems) + abs(expected - verdicts))
    if verdicts != expected:
        problems.append(f"{verdicts} verdicts, expected {expected}")
    return attempted, failed, problems


def sweep_verdicts(max_k: int, max_m: int, max_n: int) -> int:
    """Reports ``capelli verify sweep`` prints: per shape, 2 d^2 proof steps
    (k >= 2) and, per (m, n), d^2 theorem pairs, d corollaries and one
    tableau-independence check, where d is the number of tableaux."""
    total = 0
    for k in range(1, max_k + 1):
        for shape in partitions(k):
            d = len(standard_tableaux(shape))
            total += 2 * d * d if k >= 2 else 0
            total += max_m * max_n * (d * d + d + 1)
    return total


@dataclass(frozen=True)
class Sweep:
    """``capelli verify sweep --json`` in-process; the grid is fixed, the seed unused."""

    max_k: int
    max_m: int
    max_n: int
    expected: int

    def job(self, seed: int) -> dict:
        argv = ["verify", "sweep", "--max-k", str(self.max_k), "--max-m", str(self.max_m)]
        argv += ["--max-n", str(self.max_n), "--json"]
        return {"kind": "cli", "argv": argv}

    def check(self, job: dict, result: dict):
        problems = []
        if result.get("error"):
            problems.append(result["error"])
        if result.get("exit") != 0:
            problems.append(f"exit code {result.get('exit')}")
        lines = result.get("stdout", "").splitlines()
        for line in lines:
            try:
                problem = _report_problem(json.loads(line))
            except json.JSONDecodeError:
                problem = f"not JSON: {line[:80]}"
            if problem:
                problems.append(problem)
        return _tally(self.expected, problems, len(lines))


@dataclass(frozen=True)
class Theorem:
    """Every ordered tableau pair of every shape of size k, one
    ``verify_theorem(shape, m, n, T, T2)`` call each; the seed shuffles the order."""

    k: int
    m: int
    n: int
    expected: int

    def job(self, seed: int) -> dict:
        pairs = [
            [shape, T, T2]
            for shape in partitions(self.k)
            for T in standard_tableaux(shape)
            for T2 in standard_tableaux(shape)
        ]
        random.Random(seed).shuffle(pairs)
        return {"kind": "theorem", "m": self.m, "n": self.n, "pairs": pairs}

    def check(self, job: dict, result: dict):
        problems = []
        verdicts = result.get("verdicts", [])
        for out in verdicts:
            if isinstance(out, str):
                problems.append(out)
            elif len(out) != 1:
                problems.append(f"{len(out)} reports for one tableau pair")
            else:
                problem = _report_problem(out[0])
                if problem:
                    problems.append(problem)
        return _tally(self.expected, problems, len(verdicts))


@dataclass(frozen=True)
class Immanant:
    """For each shape of size k: ``quantum_immanant`` with a seeded tableau,
    ``is_central``, and ``hc_eigenvalue`` at seeded weakly decreasing weights,
    each eigenvalue checked against (k!/dim mu) s*_mu(l)."""

    k: int
    m: int
    weights_per_shape: int
    expected: int
    oracle: Callable = field(default=immanant_eigenvalue, compare=False)

    def job(self, seed: int) -> dict:
        rng = random.Random(seed)
        cases = []
        for shape in partitions(self.k):
            T = rng.choice(standard_tableaux(shape))
            weights = [
                sorted((rng.randint(*WEIGHT_RANGE) for _ in range(self.m)), reverse=True)
                for _ in range(self.weights_per_shape)
            ]
            cases.append({"shape": shape, "T": T, "weights": weights})
        return {"kind": "immanant", "m": self.m, "cases": cases}

    def check(self, job: dict, result: dict):
        problems = []
        verdicts = result.get("verdicts", [])
        count = 0
        for case, out in zip(job["cases"], verdicts):
            count += 1
            if out["central"] is not True:
                problems.append(f"shape {case['shape']}: central = {out['central']}")
            for weights, got in zip(case["weights"], out["eigenvalues"]):
                count += 1
                want = self.oracle(tuple(case["shape"]), weights)
                if not isinstance(got, str) or Fraction(got) != want:
                    problems.append(f"shape {case['shape']} at {weights}: {got} != {want}")
        return _tally(self.expected, problems, count)


WORKLOADS = {
    "sweep-k3": Sweep(max_k=3, max_m=3, max_n=3, expected=214),
    "theorem-k4": Theorem(k=4, m=2, n=2, expected=24),
    "immanant-k4m3": Immanant(k=4, m=3, weights_per_shape=3, expected=20),
}

"""Layer tracing from outside the library.

``Tracer.install`` replaces the public functions of each layer, at the
module attribute through which the library itself calls them, by wrappers
that record one span per call: name, parent span, start, end, and the case
(the unit of work the benchmark was running). Counters are computed after a
span's end is taken and before its ``post`` time, so neither the span nor
its parent is charged for them. Spans stay in memory until ``dump``.

``layer_metrics`` turns a dumped trace into per-layer metrics. A layer's self
time is its span durations minus the intervals its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
from fractions import Fraction
from time import perf_counter

__all__ = ["Tracer", "memo_sizes", "layer_metrics"]


def _count_right_mul(args, out) -> dict:
    u, g = args[0], args[1]
    coefficients = integral = 0
    for _, coeff in out.items():
        values = [c for _, c in coeff.items()] if hasattr(coeff, "items") else [coeff]
        coefficients += len(values)
        integral += sum(1 for c in values if isinstance(c, Fraction) and c.denominator == 1)
    return {
        "products": len(u) * len(g),
        "out_terms": len(out),
        "coefficients": coefficients,
        "integral_fractions": integral,
    }


def _count_trace(args, out) -> dict:
    u = args[0]
    return {"entries": len(u), "kept": sum(1 for (rows, cols), _ in u.items() if rows == cols)}


def _count_terms(args, out) -> dict:
    return {"terms": len(out)}


# (module, attribute, span name, counter). The module is where the library
# looks the function up: ``identities`` binds the tensor, tableau and group
# algebra functions by from-import, while the Weyl and PBW products and the
# centrality check are reached through their own module globals.
WRAPS = [
    ("capelli.cli", "main", "cli.main", None),
    ("capelli.identities", "verify_theorem", "identities.verify_theorem", None),
    ("capelli.identities", "verify_corollary", "identities.verify_corollary", None),
    ("capelli.identities", "verify_proof_steps", "identities.verify_proof_steps", None),
    ("capelli.identities", "lhs_theorem", "identities.lhs_theorem", None),
    ("capelli.identities", "rhs_theorem", "identities.rhs_theorem", None),
    ("capelli.identities", "right_mul_group_algebra", "tensors.right_mul_group_algebra", _count_right_mul),
    ("capelli.identities", "tensor_product", "tensors.tensor_product", _count_terms),
    ("capelli.identities", "tensor_matmul", "tensors.tensor_matmul", None),
    ("capelli.identities", "full_trace", "tensors.full_trace", _count_trace),
    ("capelli.identities", "psi", "tableaux.psi", None),
    ("capelli.identities", "character_element", "tableaux.character_element", None),
    ("capelli.identities", "ga_multiply", "permutations.ga_multiply", None),
    ("capelli.weyl", "weyl_multiply", "weyl.weyl_multiply", None),
    ("capelli.enveloping", "ugl_multiply", "enveloping.ugl_multiply", None),
    ("capelli.enveloping", "is_central", "enveloping.is_central", None),
    ("capelli.enveloping", "hc_eigenvalue", "enveloping.hc_eigenvalue", None),
]

# Memo tables, read with len() or cache_info() after the run.
MEMOS = {
    "enveloping.straighten_memo.entries": ("capelli.enveloping", "_STRAIGHTEN_CACHE"),
    "tableaux.psi_memo.entries": ("capelli.tableaux", "_psi_cached"),
    "tableaux.seminormal_memo.entries": ("capelli.tableaux", "_seminormal_cached"),
    "identities.shifted_product_memo.entries": ("capelli.identities", "_shifted_product"),
    "identities.xd_product_memo.entries": ("capelli.identities", "_xd_product"),
}


def memo_sizes() -> dict:
    """Entries in each memo table; None for a memo the library no longer has."""
    sizes = {}
    for metric, (module, attr) in MEMOS.items():
        memo = getattr(importlib.import_module(module), attr, None)
        if hasattr(memo, "cache_info"):
            sizes[metric] = memo.cache_info().currsize
        elif hasattr(memo, "__len__"):
            sizes[metric] = len(memo)
        else:
            sizes[metric] = None
    return sizes


class Tracer:
    """In-memory span recorder for one child process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.case = 0
        self.wrapped: list[str] = []
        # each span: [name, parent, start, end, post, case, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for module, attr, name, counter in WRAPS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            setattr(mod, attr, self._wrap(fn, name, counter))
            self.wrapped.append(name)

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, self.case, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = span[4] = perf_counter()
                stack.pop()
            if counter is not None:
                span[6] = counter(args, out)
                span[4] = perf_counter()
            return out

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"run_id": self.run_id, "wrapped": self.wrapped, "spans": self.spans},
                fh,
                separators=(",", ":"),
            )


def _aggregate(spans: list[list]) -> dict:
    covered = [0.0] * len(spans)
    for name, parent, start, end, post, case, counts in spans:
        if parent >= 0:
            covered[parent] += post - start
    stats: dict[str, dict] = {}
    for i, (name, parent, start, end, post, case, counts) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
        st["calls"] += 1
        st["total_s"] += end - start
        st["self_s"] += end - start - covered[i]
        for key, value in (counts or {}).items():
            st["counts"][key] = st["counts"].get(key, 0) + value
    return stats


def layer_metrics(trace: dict, memos: dict) -> dict:
    """Per-layer metrics from a dumped trace and the memo sizes.

    A metric is None when its function is no longer wrapped (the library
    dropped it) or when it is a ratio whose base is zero on this workload.
    """
    stats = _aggregate(trace["spans"])
    wrapped = set(trace["wrapped"])

    def stat(field, *names):
        if not any(n in wrapped for n in names):
            return None
        zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        return sum(stats.get(n, zero)[field] for n in names)

    def count(name, key):
        if name not in wrapped:
            return None
        return stats.get(name, {"counts": {}})["counts"].get(key, 0)

    def ratio(top, base):
        return None if top is None or not base else top / base

    rm, ft = "tensors.right_mul_group_algebra", "tensors.full_trace"
    metrics = {
        "tensors.right_mul.self_s": stat("self_s", rm),
        "tensors.right_mul.calls": stat("calls", rm),
        "tensors.right_mul.yield": ratio(count(rm, "out_terms"), count(rm, "products")),
        "tensors.right_mul.integral_fraction_share": ratio(
            count(rm, "integral_fractions"), count(rm, "coefficients")
        ),
        "tensors.full_trace.self_s": stat("self_s", ft),
        "tensors.full_trace.entries": count(ft, "entries"),
        "tensors.full_trace.kept": count(ft, "kept"),
        "tensors.full_trace.kept_frac": ratio(count(ft, "kept"), count(ft, "entries")),
        "tensors.tensor_product.self_s": stat("self_s", "tensors.tensor_product"),
        "tensors.tensor_product.terms": count("tensors.tensor_product", "terms"),
        "tensors.tensor_matmul.self_s": stat("self_s", "tensors.tensor_matmul"),
        "weyl.weyl_multiply.self_s": stat("self_s", "weyl.weyl_multiply"),
        "weyl.weyl_multiply.calls": stat("calls", "weyl.weyl_multiply"),
        "enveloping.ugl_multiply.self_s": stat("self_s", "enveloping.ugl_multiply"),
        "enveloping.ugl_multiply.calls": stat("calls", "enveloping.ugl_multiply"),
        "enveloping.is_central.self_s": stat("self_s", "enveloping.is_central"),
        "enveloping.hc_eigenvalue.self_s": stat("self_s", "enveloping.hc_eigenvalue"),
        "tableaux.psi.self_s": stat("self_s", "tableaux.psi", "tableaux.character_element"),
        "tableaux.psi.calls": stat("calls", "tableaux.psi", "tableaux.character_element"),
        "permutations.ga_multiply.self_s": stat("self_s", "permutations.ga_multiply"),
        "identities.compare.self_s": stat(
            "self_s",
            "identities.verify_theorem",
            "identities.verify_corollary",
            "identities.verify_proof_steps",
        ),
        "identities.lhs.s": stat("total_s", "identities.lhs_theorem"),
        "identities.rhs.s": stat("total_s", "identities.rhs_theorem"),
        "cli.main.self_s": stat("self_s", "cli.main"),
        "trace.spans": len(trace["spans"]),
    }
    metrics.update(memos)
    return metrics

"""One cold benchmark process.

Protocol on stdin/stdout: the child imports ``capelli`` from the checkout's
``src`` directory, prints ``ready``, reads one JSON job from stdin, runs it,
and prints one JSON result line. A job of kind ``none`` only measures
set-up. With ``trace_path`` set, the layers are traced and the spans are
written to that file after the run.

The child drives only the public API, through the module attributes the
tracer wraps: ``capelli.cli.main``, ``capelli.identities.verify_theorem`` and
``quantum_immanant``, ``capelli.enveloping.is_central`` and ``hc_eigenvalue``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def _error() -> str:
    return traceback.format_exc(limit=4)


def run_cli(job: dict, tracer) -> dict:
    from capelli import cli

    captured = io.StringIO()
    error = None
    code = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(job["argv"])
    except Exception:
        error = _error()
    wall = perf_counter() - start
    return {"wall_s": wall, "exit": code, "stdout": captured.getvalue(), "error": error}


def run_theorem(job: dict, tracer) -> dict:
    from capelli import identities
    from capelli.tableaux import Partition, StandardTableau

    m, n = job["m"], job["n"]
    pairs = [
        (Partition(shape), StandardTableau(t1), StandardTableau(t2))
        for shape, t1, t2 in job["pairs"]
    ]
    outcomes = []
    start = perf_counter()
    for case, (shape, T, T2) in enumerate(pairs):
        if tracer is not None:
            tracer.case = case
        try:
            outcomes.append(identities.verify_theorem(shape, m, n, T, T2))
        except Exception:
            outcomes.append(_error())
    wall = perf_counter() - start
    verdicts = [
        out if isinstance(out, str) else [report.to_dict() for report in out]
        for out in outcomes
    ]
    return {"wall_s": wall, "verdicts": verdicts}


def run_immanant(job: dict, tracer) -> dict:
    from capelli import enveloping, identities
    from capelli.tableaux import Partition, StandardTableau

    m = job["m"]
    cases = [
        (Partition(case["shape"]), StandardTableau(case["T"]), case["weights"])
        for case in job["cases"]
    ]
    verdicts = []
    start = perf_counter()
    for case, (shape, T, weight_list) in enumerate(cases):
        if tracer is not None:
            tracer.case = case
        out = {"central": None, "eigenvalues": []}
        verdicts.append(out)
        try:
            element = identities.quantum_immanant(shape, T, m)
            out["central"] = bool(enveloping.is_central(element))
        except Exception:
            out["central"] = _error()
            continue
        for weights in weight_list:
            try:
                out["eigenvalues"].append(str(enveloping.hc_eigenvalue(element, weights)))
            except Exception:
                out["eigenvalues"].append({"error": _error()})
    wall = perf_counter() - start
    return {"wall_s": wall, "verdicts": verdicts}


RUNNERS = {"cli": run_cli, "theorem": run_theorem, "immanant": run_immanant}


def main() -> int:
    sys.path.insert(0, str(SRC))
    import capelli

    if Path(capelli.__file__).resolve().parent.parent != SRC:
        print(f"capelli imported from {capelli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    job = json.loads(sys.stdin.read())
    if job["kind"] == "none":
        return 0
    tracer = None
    if job.get("trace_path"):
        from tracer import Tracer, memo_sizes

        tracer = Tracer(job["run_id"])
        tracer.install()
    result = RUNNERS[job["kind"]](job, tracer)
    if tracer is not None:
        result["memos"] = memo_sizes()
        tracer.dump(job["trace_path"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

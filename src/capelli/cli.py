"""Command-line front end for the verification harness."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .enveloping import hc_eigenvalue, is_central
from .identities import (
    VerificationReport,
    quantum_immanant,
    sweep,
    verify_corollary,
    verify_proof_steps,
    verify_theorem,
)
from .tableaux import Partition, StandardTableau, enumerate_standard_tableaux


def _print_reports(reports: list[VerificationReport], as_json: bool) -> int:
    for report in reports:
        if as_json:
            print(json.dumps(report.to_dict()))
        else:
            mark = "PASS" if report.outcome else "FAIL"
            line = (
                f"{mark}  {report.case}  "
                f"(lhs {report.lhs_terms} terms, rhs {report.rhs_terms} terms, "
                f"{report.millis:.1f} ms)"
            )
            if report.first_diff:
                line += f"  first diff: {report.first_diff}"
            print(line)
    return 0 if all(r.outcome for r in reports) else 1


def _cmd_theorem(args) -> int:
    shape = Partition.parse(args.shape)
    tableau = StandardTableau.parse(args.tableau) if args.tableau else None
    tableau2 = StandardTableau.parse(args.tableau2) if args.tableau2 else None
    reports = verify_theorem(shape, args.m, args.n, tableau, tableau2)
    return _print_reports(reports, args.json)


def _cmd_corollary(args) -> int:
    reports = verify_corollary(Partition.parse(args.shape), args.m, args.n)
    return _print_reports(reports, args.json)


def _cmd_proof_steps(args) -> int:
    reports = verify_proof_steps(Partition.parse(args.shape))
    return _print_reports(reports, args.json)


def _cmd_sweep(args) -> int:
    reports = sweep(args.max_k, args.max_m, args.max_n)
    return _print_reports(reports, args.json)


def _cmd_immanant(args) -> int:
    shape = Partition.parse(args.shape)
    element = quantum_immanant(shape, enumerate_standard_tableaux(shape)[0], args.m)
    central = is_central(element)
    if args.json:
        payload = {
            "shape": str(shape),
            "m": args.m,
            "terms": len(element),
            "central": bool(central),
        }
        if args.print_pbw:
            payload["pbw"] = str(element)
        print(json.dumps(payload))
    else:
        print(
            f"quantum immanant shape={shape} m={args.m}: "
            f"{len(element)} PBW terms, "
            f"{'central' if central else 'NOT central'}"
        )
        if args.print_pbw:
            print(element)
    return 0 if central else 1


def _weight(text: str) -> Fraction:
    if "e" in text.lower():  # Fraction would build the integer 10**exponent
        raise ValueError(f"weight {text!r}: use an integer, p/q or a decimal, no exponent")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"weight {text!r} has a zero denominator") from None


def _cmd_eigenvalue(args) -> int:
    shape = Partition.parse(args.shape)
    weights = [_weight(w) for w in args.weights.split(",")]
    # refused before the immanant is built; an m below 1 is left to
    # quantum_immanant, which names it
    if args.m >= 1 and len(weights) != args.m:
        raise ValueError(f"expected {args.m} weights, got {len(weights)}")
    T = enumerate_standard_tableaux(shape)[0]
    value = hc_eigenvalue(quantum_immanant(shape, T, args.m), weights)
    if args.json:
        print(
            json.dumps(
                {
                    "shape": str(shape),
                    "m": args.m,
                    "weights": [str(w) for w in weights],
                    "eigenvalue": str(value),
                }
            )
        )
    else:
        print(f"eigenvalue shape={shape} m={args.m} weights={args.weights}: {value}")
    return 0


def _cmd_tableaux(args) -> int:
    shape = Partition.parse(args.shape)
    tableaux = enumerate_standard_tableaux(shape)
    if args.json:
        for T in tableaux:
            print(
                json.dumps(
                    {
                        "tableau": str(T),
                        "contents": [T.content(r) for r in range(1, T.size + 1)],
                    }
                )
            )
    else:
        print(f"{len(tableaux)} standard tableaux of shape {shape}:")
        for T in tableaux:
            contents = ",".join(str(T.content(r)) for r in range(1, T.size + 1))
            print(f"  {T}  contents {contents}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capelli",
        description="exact verification of the higher Capelli identities",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="one JSON object per case")
    shaped = argparse.ArgumentParser(add_help=False, parents=[common])
    shaped.add_argument("--shape", required=True)
    on_m = argparse.ArgumentParser(add_help=False, parents=[shaped])
    on_m.add_argument("--m", type=int, required=True)
    on_mn = argparse.ArgumentParser(add_help=False, parents=[on_m])
    on_mn.add_argument("--n", type=int, required=True)
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run identity checks")
    vsub = verify.add_subparsers(dest="check", required=True)

    theorem = vsub.add_parser("theorem", parents=[on_mn])
    theorem.add_argument("--tableau")
    theorem.add_argument("--tableau2")
    theorem.set_defaults(func=_cmd_theorem)

    vsub.add_parser("corollary", parents=[on_mn]).set_defaults(func=_cmd_corollary)
    vsub.add_parser("proof-steps", parents=[shaped]).set_defaults(func=_cmd_proof_steps)

    sweep_p = vsub.add_parser("sweep", parents=[common])
    sweep_p.add_argument("--max-k", type=int, default=3)
    sweep_p.add_argument("--max-m", type=int, default=3)
    sweep_p.add_argument("--max-n", type=int, default=3)
    sweep_p.set_defaults(func=_cmd_sweep)

    immanant = sub.add_parser("immanant", parents=[on_m])
    immanant.add_argument("--print-pbw", action="store_true")
    immanant.set_defaults(func=_cmd_immanant)

    eigen = sub.add_parser("eigenvalue", parents=[on_m])
    eigen.add_argument("--weights", required=True)
    eigen.set_defaults(func=_cmd_eigenvalue)

    sub.add_parser("tableaux", parents=[shaped]).set_defaults(func=_cmd_tableaux)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # a certificate or a runtime guard failed on valid input
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

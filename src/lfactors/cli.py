"""Command line interface: `lc gamma`, `lc verify`, `lc print`.

Exit codes: 0 success, 2 validation error, 3 unsupported (rep, omega)
pair or a value past the float range, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .doubling import UnsupportedPairError
from .fields import UnsupportedFieldError, UnsupportedOperationError
from .mero import format_expr, from_json, parse_expr, to_json
from .query import QueryValidationError, run_query

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNSUPPORTED = 3
EXIT_VERIFY_FAILED = 4


def _load_doc(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cmd_gamma(args) -> int:
    try:
        doc = _load_doc(args.file)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, or an int past 4300 digits
        print(f"error: cannot read query: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.shifted:
        doc["shifted"] = True
    if args.eval:
        doc.setdefault("eval_points", [])
        for text in args.eval:
            try:
                v = complex(text.replace("i", "j"))
            except ValueError:
                print(f"error: bad evaluation point {text!r}", file=sys.stderr)
                return EXIT_VALIDATION
            doc["eval_points"].append([v.real, v.imag])
    if args.output:
        doc["outputs"] = args.output
    try:
        result = run_query(doc)
    except QueryValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (UnsupportedPairError, UnsupportedFieldError, UnsupportedOperationError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except OverflowError as exc:  # an inexact value, such as a complex z to a large power
        print(f"unsupported: a value left the float range ({exc})", file=sys.stderr)
        return EXIT_UNSUPPORTED
    for name, payload in result["results"].items():
        if "text" in payload:
            print(f"{name}: {payload['text']}")
        elif "exact" in payload:
            shown = payload["exact"] if payload["exact"] is not None else payload["value"]
            print(f"{name}: {shown}")
        else:
            print(f"{name}:")
            for key, sub in payload.items():
                if isinstance(sub, dict) and "text" in sub:
                    print(f"  {key}: {sub['text']}")
                else:
                    print(f"  {key}: {sub}")
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_verify  # numpy: imported by `lc verify` alone
    try:
        report = run_verify(args.suite, seed=args.seed, corrupt=args.corrupt)
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    text = sys.stderr if args.json else sys.stdout  # --json keeps stdout pure JSON
    for line in report.lines():
        print(line, file=text)
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    if not report.passed:
        print("verification FAILED", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print("all checks passed", file=text)
    return EXIT_OK


def _cmd_print(args) -> int:
    try:
        if args.file.endswith(".json"):
            expr = from_json(_load_doc(args.file))
        else:
            with open(args.file, "r", encoding="utf-8") as fh:
                expr = parse_expr(fh.read().strip())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, or an expression the readers refuse
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.canonical:
        print(format_expr(expr))
    if args.json:
        print(json.dumps(to_json(expr), indent=2, sort_keys=True))
    if not args.canonical and not args.json:
        print(format_expr(expr))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lc",
        description="Local constants of quaternionic unitary groups: gamma-, "
                    "L- and epsilon-factors, root numbers and spherical data.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gamma", help="evaluate a query document")
    g.add_argument("-f", "--file", required=True, help="query JSON file")
    g.add_argument("--shifted", action="store_true",
                   help="report in the Gamma-side variable (shift s by 1/2)")
    g.add_argument("--eval", nargs="*", default=None, metavar="S",
                   help="evaluation points, e.g. 0.5+0i")
    g.add_argument("-o", "--output", nargs="*", default=None,
                   help="override the requested outputs")
    g.set_defaults(func=_cmd_gamma)

    v = sub.add_parser("verify", help="run an identity suite")
    v.add_argument("--suite", default="all", help="a suite name, or all (the default)")
    v.add_argument("--seed", type=int, default=7)
    v.add_argument("--json", action="store_true",
                   help="print the JSON report on stdout, the check lines on stderr")
    v.add_argument("--corrupt", action="store_true",
                   help="perturb the first right-hand side of every check; every check must fail")
    v.set_defaults(func=_cmd_verify)

    p = sub.add_parser("print", help="re-print an expression (text or JSON tree)")
    p.add_argument("-f", "--file", required=True)
    p.add_argument("--canonical", action="store_true", help="print canonical text")
    p.add_argument("--json", action="store_true", help="print the JSON tree")
    p.set_defaults(func=_cmd_print)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

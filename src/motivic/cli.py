"""Command line front end.

Subcommands: eval, eff-table, abelianize, euler, check.  Exit codes:
0 success, 1 evaluation or check failure, 2 usage, syntax or size-guard
errors.  No environment variable is read, so the output depends only on
the arguments.
"""

from __future__ import annotations

import argparse
import json
import sys

from .coefficients import ECoeffTable
from .checks import SUITES, run_suite
from .errors import ExprSyntaxError, GuardError, MotivicError, TooLarge
from .expr import eval_class, parse
from .ratfield import canonical_str, pi_eval, specialize
from .stackcalc import abelianize_bgl, gen_euler

__all__ = ["main", "entry"]


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="motivic",
        description="Exact calculator for motivic classes of quotient stacks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a class expression")
    p_eval.add_argument("expr", help="expression, e.g. '[pt / GL(2)]'")
    p_eval.add_argument("--at-one", action="store_true", help="also evaluate at l = 1")
    p_eval.add_argument(
        "--poincare", action="store_true", help="also print the l -> z^2 specialization"
    )
    p_eval.add_argument("--json", action="store_true")

    p_table = sub.add_parser("eff-table", help="print E(m), F(m) rows")
    p_table.add_argument("--max", type=int, default=3, metavar="M")
    p_table.add_argument("--json", action="store_true")

    p_ab = sub.add_parser("abelianize", help="torus-basis class of the GL(m) point stack")
    p_ab.add_argument("m", type=int)

    p_eu = sub.add_parser("euler", help="generalized Euler characteristic of the same")
    p_eu.add_argument("m", type=int)

    p_check = sub.add_parser("check", help="run an invariant suite")
    p_check.add_argument("suite", choices=sorted(SUITES))
    p_check.add_argument(
        "--max", type=int, metavar="M", help="default: 4, or the suite's limit if smaller"
    )
    p_check.add_argument("--json", action="store_true")

    return ap


def _cmd_eval(args):
    ast = parse(args.expr)
    value = eval_class(ast)
    payload = {"input": args.expr, "class": value.to_json(), "text": canonical_str(value)}
    if args.at_one:
        payload["at_one"] = str(pi_eval(value))
    if args.poincare:
        payload["poincare"] = specialize(value, "poincare_z")
    if args.json:
        print(json.dumps(payload))
    else:
        print(payload["text"])
        if args.at_one:
            print("at l=1: %s" % payload["at_one"])
        if args.poincare:
            print("poincare: %s" % payload["poincare"])
    return 0


def _cmd_eff_table(args):
    if args.max < 1:
        raise GuardError("--max must be positive")
    table = ECoeffTable.build(args.max)
    rows = [
        {"m": m, "E": canonical_str(table.e(m)), "F": str(table.f(m))}
        for m in range(1, args.max + 1)
    ]
    if args.json:
        print(json.dumps({"max": args.max, "rows": rows}))
        return 0
    width = max(len(r["E"]) for r in rows)
    header = "%-3s %-*s %s" % ("m", width, "E(m)", "F(m)")
    print(header)
    for r in rows:
        print("%-3d %-*s %s" % (r["m"], width, r["E"], r["F"]))
    return 0


def _cmd_abelianize(args):
    if args.m < 1:
        raise GuardError("m must be positive")
    print(str(abelianize_bgl(args.m)))
    return 0


def _cmd_euler(args):
    if args.m < 1:
        raise GuardError("m must be positive")
    print(str(gen_euler(abelianize_bgl(args.m))))
    return 0


def _cmd_check(args):
    bound = args.max if args.max is not None else min(4, SUITES[args.suite][0])
    report = run_suite(args.suite, bound)
    if args.json:
        print(
            json.dumps(
                {
                    "suite": report.suite,
                    "max": bound,
                    "instances": report.instances,
                    "failures": report.failures,
                    "ok": report.ok,
                }
            )
        )
    else:
        print(
            "%s: %d instances, %d failures"
            % (report.suite, report.instances, len(report.failures))
        )
        for f in report.failures:
            print("  FAIL %s" % f)
    if report.instances == 0:
        print("suite ran no instances", file=sys.stderr)
        return 1
    return 0 if report.ok else 1


_COMMANDS = {
    "eval": _cmd_eval,
    "eff-table": _cmd_eff_table,
    "abelianize": _cmd_abelianize,
    "euler": _cmd_euler,
    "check": _cmd_check,
}


def _error_payload(kind, err):
    payload = {"error": {"type": kind, "message": str(err)}}
    if isinstance(err, ExprSyntaxError):
        payload["error"]["position"] = err.position
        payload["error"]["expected"] = list(err.expected)
    return payload


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code else 0
    wants_json = getattr(args, "json", False)
    try:
        return _COMMANDS[args.command](args)
    except MotivicError as err:
        kind = type(err).__name__
        if wants_json:
            print(json.dumps(_error_payload(kind, err)))
        else:
            print("error (%s): %s" % (kind, err), file=sys.stderr)
        # syntax and size-guard errors (GuardError is a TooLarge) are usage errors
        return 2 if isinstance(err, (ExprSyntaxError, TooLarge)) else 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

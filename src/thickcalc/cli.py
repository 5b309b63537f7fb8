"""The ``thickcalc`` command line tool.

    thickcalc eval    -e "d*(Pf(H(x))), bump(1)"
    thickcalc derive  -e "H(x) * Pf(H(x))"
    thickcalc project -e "dstar, bump(1)"
    thickcalc expand  -e "poly([0,0,0,1], 1), 4"
    thickcalc check   [suite]           # expansion, pairing, paskusz,
                                        # projection, a-independence, all
    thickcalc eval program.tc           # file of let-bindings and queries

Flags: ``--A R`` split radius (a number such as 0.5 or 1/2) and ``--tol T``
quadrature absolute tolerance, the only two settings; ``--json`` one JSON
record per query.  Exit codes: 0 ok, 1 a check failed, 2 parse error or bad
configuration, 3 evaluation error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import warnings
from fractions import Fraction
from pathlib import Path

from .checks import outcome_line
from .dsl import Program, parse_program, parse_query, run
from .errors import DslError
from .pairing import DEFAULT_CONFIG, QuadratureConfig

# The imports above leave some 14,700 objects (modules, classes, functions,
# tables) that live as long as the process in the collector's young
# generations, and the first collection that reaches generation 1 would
# traverse them all (about 0.9 ms on a 2-vCPU x86_64 VM, inside the first
# statement that allocates enough).  Take them out of the collector's view.
gc.freeze()


def _number(text) -> float:
    """The ``--A`` setting (a text such as 1/2, or the default float) as a
    float; ValueError when it has no finite float value."""
    try:
        return float(Fraction(text))
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"{text!r} is not a finite number") from None


def _print_record(rec: dict, out) -> None:
    if "error" in rec:
        print(f"{rec['source']}\n  error: {rec['error']}", file=out)
        return
    if rec["query"] in ("eval", "project"):
        print(rec["source"], file=out)
        exact = f" (exact {rec['value_exact']})" if "value_exact" in rec else ""
        print(f"  value = {rec['value']!r}{exact}", file=out)
        print(f"  A = {rec['split_radius']!r}  quad_error = {rec['quad_error']!r}",
              file=out)
        if rec["series_terms"]:
            terms = ", ".join(f"r^{j}: {v!r}" for j, v in rec["series_terms"])
            print(f"  series = [{terms}]", file=out)
        if rec["log_term"]:
            print(f"  log_term = {rec['log_term']!r}", file=out)
    elif rec["query"] in ("derive", "expand"):
        print(f"{rec['source']}\n  -> {rec['result']}", file=out)
    elif rec["query"] == "check":
        for o in rec["outcomes"]:
            print(outcome_line(**o), file=out)
        overall = "ok" if rec["passed"] else "FAILED"
        print(f"check {rec['suite']}: {overall}", file=out)


def _warn_negative_orders(program: Program) -> None:
    for q in program.queries:
        if q.command in ("eval", "project") and q.testfn is not None:
            e = q.testfn.expansion
            if not e.is_zero() and e.start < 0:  # then each D lowers it by one
                print(f"note: test function has leading order {e.start - q.derivatives} < 0",
                      file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="thickcalc",
        description="evaluate pairings of one-dimensional thick distributions",
    )
    parser.add_argument("command",
                        choices=["eval", "derive", "project", "expand", "check"])
    parser.add_argument("source", nargs="?",
                        help="program file (or suite name for check)")
    parser.add_argument("-e", "--expr", help="inline query arguments")
    parser.add_argument("--json", action="store_true", help="one JSON record per query")
    parser.add_argument("--A", default=DEFAULT_CONFIG.split_radius,
                        help="split radius for the finite-part formulas")
    parser.add_argument("--tol", type=float, default=DEFAULT_CONFIG.abs_tol,
                        help="quadrature absolute tolerance")
    args = parser.parse_args(argv)

    try:
        cfg = QuadratureConfig(args.tol, _number(args.A))
    except ValueError as exc:
        print(f"thickcalc: bad configuration: {exc}", file=sys.stderr)
        return 2

    # a warning the input triggers (a glambda side weight outside [0, 1])
    # is a one-line note, not Python's warning with its source line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.command == "check" and not args.expr:
            # a check argument that is not a program file names a suite
            args.source = args.source or "all"
            args.expr = None if os.path.isfile(args.source) else args.source
        try:
            if args.expr is not None:
                program = parse_query(f"{args.command} {args.expr}")
            elif args.source is not None:
                program = parse_program(Path(args.source).read_text(encoding="utf-8"))
            else:
                print("thickcalc: give -e <expr> or a program file", file=sys.stderr)
                return 2
        except DslError as exc:
            where = "" if exc.line is None else f"{args.source}:{exc.line}: "
            print(f"thickcalc: parse error: {where}{exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"thickcalc: {exc}", file=sys.stderr)
            return 2
        except UnicodeDecodeError:  # from reading the program file of eval or check
            print(f"thickcalc: {args.source}: not UTF-8 text", file=sys.stderr)
            return 2
    for w in caught:
        print(f"note: {w.message}", file=sys.stderr)
    _warn_negative_orders(program)
    report = run(program, cfg)
    for rec in report.records:
        if args.json:
            print(json.dumps(rec, sort_keys=True))
        else:
            _print_record(rec, sys.stdout)
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())

"""The ``thickcalc`` command line tool.

    thickcalc eval    -e "d*(Pf(H(x))), bump(1)"
    thickcalc derive  -e "H(x) * Pf(H(x))"
    thickcalc project -e "dstar, bump(1)"
    thickcalc expand  -e "poly([0,0,0,1], 1), 4"
    thickcalc check   [suite]           # expansion, pairing, paskusz,
                                        # projection, a-independence, all
    thickcalc eval program.tc           # file of let-bindings and queries

Flags: ``--config FILE`` (key = value lines for the quadrature settings),
``--A R`` split radius, ``--tol T`` quadrature tolerance, ``--json`` one JSON
record per query.  Exit codes: 0 ok, 1 a check failed, 2 parse error,
3 evaluation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction

from .checks import outcome_line
from .dsl import Program, parse_program, parse_query, run
from .errors import DslError
from .pairing import DEFAULT_CONFIG, QuadratureConfig


def load_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def build_config(args) -> QuadratureConfig:
    cfg = DEFAULT_CONFIG
    if args.config:
        raw = load_config_file(args.config)
        known = {"abs_tol": float, "max_subdivisions": int, "split_radius": float}
        fields = {}
        for key, value in raw.items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            fields[key] = int(value) if key == "max_subdivisions" \
                else float(Fraction(value))
        cfg = replace(cfg, **fields)
    if args.A is not None:
        cfg = replace(cfg, split_radius=float(Fraction(args.A)))
    if args.tol is not None:
        cfg = replace(cfg, abs_tol=args.tol)
    return cfg


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
    parser.add_argument("--config", help="file of key = value quadrature settings")
    parser.add_argument("--json", action="store_true", help="one JSON record per query")
    parser.add_argument("--A", help="split radius for the finite-part formulas")
    parser.add_argument("--tol", type=float, help="quadrature absolute tolerance")
    args = parser.parse_args(argv)

    try:
        cfg = build_config(args)
    except (ValueError, OSError) as exc:
        print(f"thickcalc: bad configuration: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "check" and not args.expr:
            name = args.source or "all"
            if os.path.isfile(name):
                program = parse_program(open(name, encoding="utf-8").read())
            else:
                program = parse_query(f"check {name}")
        elif args.expr is not None:
            program = parse_query(f"{args.command} {args.expr}")
        elif args.source is not None:
            program = parse_program(open(args.source, encoding="utf-8").read())
        else:
            print("thickcalc: give -e <expr> or a program file", file=sys.stderr)
            return 2
    except DslError as exc:
        print(f"thickcalc: parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"thickcalc: {exc}", file=sys.stderr)
        return 2

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

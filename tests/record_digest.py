"""Digests of the records that three fixed statement sets give.

Run it as ``python tests/record_digest.py`` (with ``src`` on the path). It
prints one line for each set: the number of statements and the sha1 of
their records, each record dumped as JSON with sorted keys. The lines
must not depend on the Python version. Not a test module: pytest does not
collect it.

With ``--reverse`` it runs the statements of each set last to first, in
one process, and prints their records first to last: its output is the
plain run's unless a record depends on what ran before it in the process
(through a cache such as the parser's operand memo or the ramp
moments kept per exponent).

With ``--cold`` it empties those caches, the operand memo
(``dsl._OPERANDS``) and the ramp moments (``ramp_moment`` and
``ramp_square_moment``), before each statement: its output is the plain
run's unless a record depends on a cache having been filled.  A statement
whose operands an earlier statement built is warm in both orders of
``--reverse``; here no statement is.

With ``--records`` it prints, in place of the digests, one JSON line for
each record of the pool and near-field sets, ``{"set", "split_radius",
"record"}`` with sorted keys (``split_radius`` is null for the default
configuration), so that two source trees' outputs compare line by line.

- The pool set is every statement of ``perfbench/refs/symbolic.json``,
  ``eval-mix.json`` and ``deep-derivative.json``, in that order and in file
  order, run with the default configuration.
- The near-field set pairs each density of ``NEAR_DENSITIES`` with each test
  function of ``NEAR_FUNCTIONS`` (``eval D, F``), under each split radius of
  ``NEAR_RADII``. These statements reach the expansion-subtracted quadrature
  between the plateau edge and the split radius, which no pool statement
  reaches.
- The parse set is every distinct nonempty proper prefix of each pool
  statement, then every distinct one-character deletion of each
  ``symbolic`` statement not already listed, each parsed with
  ``parse_query``. Its record is the ``DslError``'s message, position and
  line, or the number of queries of a statement that parses, so it pins
  where and how the parser refuses a malformed statement.
"""

import argparse
import hashlib
import itertools
import json
import pathlib
import warnings

from thickcalc import dsl
from thickcalc.dsl import parse_query, run
from thickcalc.errors import DslError
from thickcalc.pairing import QuadratureConfig, ramp_moment, ramp_square_moment

REFS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "refs"
POOL_WORKLOADS = ("symbolic", "eval-mix", "deep-derivative")

NEAR_RADII = (1.0, 0.3, 0.75, 2.0)
NEAR_DENSITIES = tuple(f"Pf(abs(x)^{lam})" for lam in (
    "-5/2", "-2", "-1", "-1/2", "0", "3/2", "2", "-3.5", "0.25")) + (
    "Pf(pair(1,-1) * r^-3/2)", "d*(Pf(H(x)))", "x^1 * Pf(abs(x)^-2)")
NEAR_FUNCTIONS = (
    "bump(1)*bump(3/2) + bump(3)",
    "mono(1,pair(1,2),1)*bump(3/2) + poly([1,2,3],4)",
    "D(bump(1)*bump(3/2)) + bump(3)",
    "D(D(mono(2,pair(1,3),2)*poly([1,1],2))) * bump(3/2)",
    "bump(1)*bump(1)*bump(1) + mono(-1,pair(1,1),4)",
    "D(D(bump(2)*bump(2))) + poly([0,1],5)",
    "poly([1,0,2],1)*bump(3/2)*bump(7/4) + mono(-2,pair(2,1),6)",
)


def digest(records):
    """(count, sha1 hex) of ``records``."""
    h = hashlib.sha1()
    count = 0
    for record in records:
        h.update(json.dumps(record, sort_keys=True).encode())
        count += 1
    return count, h.hexdigest()


def run_record(statement):
    """The record list of one ``(text, cfg)`` statement."""
    text, cfg = statement
    return run(parse_query(text), cfg).records


def parse_record(text):
    """``[message, position, line]`` of the error ``text`` is refused with,
    or the number of queries of a text that parses."""
    try:
        return len(parse_query(text).queries)
    except DslError as exc:
        return [str(exc), exc.position, exc.line]


def cold(record):
    """``record`` with the operand memo and the ramp moments emptied before each item."""
    def cold_record(item):
        dsl._OPERANDS.clear()
        ramp_moment.cache_clear()
        ramp_square_moment.cache_clear()
        return record(item)
    return cold_record


def in_order(record, items, reverse=False):
    """``record(item)`` of each item, listed in the items' order; with
    ``reverse`` they are computed last to first."""
    items = list(items)
    if not reverse:
        return map(record, items)
    return reversed([record(item) for item in reversed(items)])


def pool_texts(name):
    return [item["text"] for item in json.loads((REFS / f"{name}.json").read_text())["items"]]


def pool_statements():
    for name in POOL_WORKLOADS:
        for text in pool_texts(name):
            yield text, None


def near_field_statements():
    for radius in NEAR_RADII:
        cfg = QuadratureConfig(split_radius=radius)
        for d, f in itertools.product(NEAR_DENSITIES, NEAR_FUNCTIONS):
            yield f"eval {d}, {f}", cfg


def record_lines(record=run_record, reverse=False):
    """The ``--records`` lines, one for each record of the pool and near-field sets."""
    for name, statements in (("pool", pool_statements()), ("near", near_field_statements())):
        statements = list(statements)
        for (_, cfg), records in zip(statements, in_order(record, statements, reverse)):
            for rec in records:
                yield json.dumps({"set": name, "split_radius": cfg and cfg.split_radius,
                                  "record": rec}, sort_keys=True)


def parse_texts():
    texts = [text[:k] for name in POOL_WORKLOADS for text in pool_texts(name)
             for k in range(1, len(text))]
    texts += [text[:k] + text[k + 1:] for text in pool_texts("symbolic")
              for k in range(len(text))]
    return dict.fromkeys(texts)  # distinct, in first-seen order


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--records", action="store_true",
                        help="print each pool and near-field record as one JSON line")
    parser.add_argument("--reverse", action="store_true",
                        help="run each set's statements last to first, print them first to last")
    parser.add_argument("--cold", action="store_true",
                        help="empty the operand memo and the ramp moments before each statement")
    args = parser.parse_args()
    warnings.filterwarnings("ignore", "side weight")  # glambda(q) outside [0, 1] parses
    run_each, parse_each = (cold(run_record), cold(parse_record)) if args.cold \
        else (run_record, parse_record)
    if args.records:
        print(*record_lines(run_each, args.reverse), sep="\n")
    else:
        for record, items in ((run_each, pool_statements()), (run_each, near_field_statements()),
                              (parse_each, parse_texts())):
            print(*digest(in_order(record, items, args.reverse)))

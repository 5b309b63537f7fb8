"""Digests of the records that two fixed statement sets give.

Run it as ``python tests/record_digest.py`` (with ``src`` on the path). It
prints one line for each set: the number of statements and the sha1 of
their records, each record list dumped as JSON with sorted keys. The lines
must not depend on the Python version. Not a test module: pytest does not
collect it.

- The pool set is every statement of ``perfbench/refs/symbolic.json``,
  ``eval-mix.json`` and ``deep-derivative.json``, in that order and in file
  order, run with the default configuration.
- The near-field set pairs each density of ``NEAR_DENSITIES`` with each test
  function of ``NEAR_FUNCTIONS`` (``eval D, F``), under each split radius of
  ``NEAR_RADII``. These statements reach the expansion-subtracted quadrature
  between the plateau edge and the split radius, which no pool statement
  reaches.
"""

import hashlib
import itertools
import json
import pathlib

from thickcalc.dsl import parse_query, run
from thickcalc.pairing import QuadratureConfig

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


def digest(statements):
    """(count, sha1 hex) of the records of ``(text, cfg)`` statements."""
    h = hashlib.sha1()
    count = 0
    for text, cfg in statements:
        h.update(json.dumps(run(parse_query(text), cfg).records, sort_keys=True).encode())
        count += 1
    return count, h.hexdigest()


def pool_statements():
    for name in POOL_WORKLOADS:
        for item in json.loads((REFS / f"{name}.json").read_text())["items"]:
            yield item["text"], None


def near_field_statements():
    for radius in NEAR_RADII:
        cfg = QuadratureConfig(split_radius=radius)
        for d, f in itertools.product(NEAR_DENSITIES, NEAR_FUNCTIONS):
            yield f"eval {d}, {f}", cfg


if __name__ == "__main__":
    for statements in (pool_statements(), near_field_statements()):
        count, sha1 = digest(statements)
        print(count, sha1)

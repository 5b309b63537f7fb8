"""Statement pools and the seeded program generator of the benchmark.

Every workload that runs DSL statements draws them from a fixed pool.  The
pools are written out here as text; ``record_refs.py`` runs each statement
once on the current code and stores its reference result and its cost in
``refs/<workload>.json``.  A pass program is drawn from that file only, so
the program depends on the seed and the file, never on the code under test.

The draw is stratified by recorded cost: the pool, sorted by cost, is cut
into as many strata as the pass has statements and one statement is taken
from each.  Every seed therefore gets the same cost profile, so the spread
between seeds stays well below the spread a plain random draw would give.
This module imports nothing from thickcalc.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

REFS_DIR = Path(__file__).resolve().parent / "refs"

#: Statements per pass.  ``None`` runs the whole pool every pass, in seeded order.
PASS_SIZE = {"eval-mix": 200, "deep-derivative": None, "symbolic": 1000}

DSL_WORKLOADS = tuple(PASS_SIZE)


# -- eval-mix ---------------------------------------------------------------------

_POWERS = ["-3", "-2", "-1", "0", "1", "2",
           "-5/2", "-3/2", "-1/2", "1/2", "3/2",
           "-2.4", "-1.3", "-0.7", "0.25", "1.6"]

_MIX_DISTS = (
    [f"Pf(abs(x)^{p})" for p in _POWERS]
    + ["Pf(pair(1,-1) * r^-1)", "Pf(pair(2,1) * r^-3/2)", "Pf(pair(1,0) * r^-2)",
       "Pf(pair(3,-2) * r^0.5)", "Pf(pair(0,1) * r^-1/2)", "Pf(H(x))"]
    + ["d*(Pf(H(x)))", "d*(Pf(abs(x)^-1/2))", "d*(Pf(pair(1,-1) * r^-1))",
       "d*(Pf(abs(x)^1.6))"]
    + ["H(x) * Pf(abs(x)^-1/2)", "H(x) * Pf(abs(x)^-2)", "x^2 * Pf(abs(x)^-3)",
       "x^1 * Pf(abs(x)^-2)", "H(x) * Pf(H(x))", "x^1 * Pf(abs(x)^-0.7)"]
    + ["Pf(abs(x)^-1/2) + 2 * Pf(H(x))", "Pf(abs(x)^-2) - 3 * dstar",
       "1/2 * Pf(abs(x)^-3/2) - Pf(abs(x)^1)", "Pf(abs(x)^-1.3) + Pf(pair(1,-1) * r^-1)"]
    + ["dilate(Pf(abs(x)^-1/2), 2)", "dilate(Pf(H(x)), -1)", "dilate(Pf(abs(x)^-2), 3/2)",
       "dilate(Pf(pair(2,1) * r^-3/2), -2)"]
)

_ORDINARY_FNS = ["bump(1)", "bump(2)", "bump(3)", "poly([1,2,3], 2)", "poly([1,0,-1], 1)",
                 "poly([1/3,0,0,0,1], 3)", "poly([1,2], 2) + bump(1)", "D(bump(2))"]

_MIX_FNS = _ORDINARY_FNS + ["D(poly([1,2,1], 2))",
    "mono(0, pair(3,1), 2)", "mono(1, pair(1,-1), 2)", "mono(-1, pair(1,2), 3)",
    "mono(2, pair(1,1), 1)", "mono(-2, pair(2,5), 2)",
    "mono(0, pair(5,2), 2) + mono(-2, pair(1,4), 2)",
    "poly([0,1], 3) - mono(1, pair(2,0), 3)",
    "D(mono(1, pair(2,0), 3))", "D(mono(0, pair(1,-1), 2))",
]


def eval_mix_pool():
    out = [(f"eval {d}, {f}", "eval") for d in _MIX_DISTS for f in _MIX_FNS]
    out += [(f"project {d}, {f}", "project") for d in _MIX_DISTS for f in _ORDINARY_FNS]
    return out


# -- deep-derivative ----------------------------------------------------------------

_DEEP_DISTS = ["Pf(abs(x)^-3/2)", "d*(Pf(H(x)))"]
#: (product, highest derivative order).  The first is the 5-leaf body whose
#: derivatives grow 5 -> 13 -> 34 -> 88 leaves; it keeps k = 3.
_DEEP_PRODUCTS = [("mono(2,pair(1,3),2)*poly([1,1],2)", 3),
                  ("mono(1,pair(1,2),2)*poly([1,1],2)", 1),
                  ("mono(2,pair(2,1),2)*poly([1,-1],2)", 1),
                  ("mono(2,pair(1,-1),2)*poly([3,1],2)", 1)]


def _nth_derivative(fn: str, k: int) -> str:
    for _ in range(k):
        fn = f"D({fn})"
    return fn


def deep_derivative_pool():
    return [(f"eval {d}, {_nth_derivative(p, k)}", "eval")
            for p, top in _DEEP_PRODUCTS for k in range(top + 1) for d in _DEEP_DISTS]


# -- symbolic -----------------------------------------------------------------------

_DELTAS = ["dstar", "glambda(1)·delta[0]", "glambda(0)·delta[1]", "glambda(1/2)·delta[2]",
           "glambda(1/4)·delta[0]", "glambda(3/4)·delta[3]", "delta[0](pair(1,0))",
           "delta[1](pair(2,-1))", "delta[2](pair(1/2,3))", "delta[3](pair(-1,1))"]
_MULTS = ["H(x)", "x^1", "x^2", "x^3", "mult(pair(1,-1), 1)", "mult(pair(2,1), 2)"]
_SYM_FNS = ["bump(2)", "poly([1,2,3], 2)", "mono(-1, pair(1,2), 2)", "mono(0, pair(3,1), 2)",
            "mono(2, pair(1,-1), 3)", "poly([0,1,0,2], 1) + mono(1, pair(2,0), 1)",
            "D(mono(1, pair(2,0), 3))", "mono(2,pair(1,3),2)*poly([1,1],2)",
            "D(D(poly([1,1,1,1], 2)))", "poly([1/2,0,1], 3) * bump(2)"]
_SYM_ORDINARY_FNS = ["bump(2)", "poly([1,2,3], 2)", "D(D(poly([1,1,1,1], 2)))",
                     "poly([1/2,0,1], 3) * bump(2)"]
_LET_NAMES = ["h", "phi", "g", "u", "psi", "t0"]
_LET_EXPRS = (["H(x)", "x^2", "mult(pair(2,1), 2)", "Pf(H(x))", "H(x) * Pf(H(x))"]
              + _DELTAS + _SYM_FNS + [f"{m} * {d}" for m in _MULTS[:3] for d in _DELTAS[:4]])


def symbolic_pool():
    products = [f"{m} * {d}" for m in _MULTS for d in _DELTAS]
    combos = [f"{a} + 2 * {b}" for a, b in zip(_DELTAS, _DELTAS[1:] + _DELTAS[:1])]
    combos += [f"{a} - 1/3 * {b}" for a, b in zip(_DELTAS, _DELTAS[3:] + _DELTAS[:3])]
    derive_inputs = (_DELTAS + products + combos + [f"d*({d})" for d in _DELTAS]
                     + [f"{m} * d*({d})" for m in _MULTS for d in _DELTAS]
                     + ["Pf(H(x))", "H(x) * Pf(H(x))", "d*(Pf(H(x)))", "x^1 * Pf(H(x))"])
    out = [(f"let {n} = {e}", "let") for n in _LET_NAMES for e in _LET_EXPRS]
    out += [(f"derive {d}", "derive") for d in derive_inputs]
    out += [(f"expand {f}, {k}", "expand") for f in _SYM_FNS for k in range(8)]
    out += [(f"eval {d}, {f}", "eval") for d in _DELTAS + products for f in _SYM_FNS]
    out += [(f"project {d}, {f}", "project") for d in _DELTAS + products[::2]
            for f in _SYM_ORDINARY_FNS]
    return out


POOLS = {"eval-mix": eval_mix_pool, "deep-derivative": deep_derivative_pool,
         "symbolic": symbolic_pool}


# -- the seeded draw ------------------------------------------------------------------


def generate(workload: str, seed: int) -> list:
    """The pass program of ``workload`` for ``seed``: a list of pool items."""
    # the recorded pool, sorted by recorded cost
    items = json.loads((REFS_DIR / f"{workload}.json").read_text(encoding="utf-8"))["items"]
    rng = random.Random(f"{workload}:{seed}")
    n = PASS_SIZE[workload]
    if n is None:
        chosen = list(items)
    else:
        if n > len(items):
            raise ValueError(f"{workload}: pool of {len(items)} cannot fill {n} strata")
        chosen = [rng.choice(items[i * len(items) // n:(i + 1) * len(items) // n])
                  for i in range(n)]
    rng.shuffle(chosen)
    return chosen

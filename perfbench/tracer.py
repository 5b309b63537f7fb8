"""Per-layer spans, recorded from outside the program.

``Tracer.install`` replaces each traced public function at the name its
caller looks it up under (``thickcalc.pairing.integrate``,
``thickcalc.testfn.smoothstep_deriv``, ...) with a wrapper that opens a span,
calls the original and closes the span.  A span is (name, start, end,
parent, op id).  Spans are kept in memory and written out by ``dump``.

The two hottest layers, ``testfn.smoothstep`` and ``testfn.integrand`` (the
callback handed to ``integrate``), run once per scalar evaluation; they are
aggregated into call counts and times instead of being kept one by one.

Self time of a layer is the duration of its spans minus the time covered by
their child spans.  Inclusive time counts only the outermost span of a name,
so the recursive ``pair`` and ``print_distribution`` are not counted twice.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import time
from collections import defaultdict

#: layer name -> the (module, attribute) pairs its callers look it up under.
TARGETS = {
    "testfn.smoothstep": [("thickcalc.testfn", "smoothstep_deriv")],
    "testfn.derivative": [("thickcalc.testfn", "derivative"),
                          ("thickcalc.pairing", "derivative"),
                          ("thickcalc.checks", "derivative"),
                          ("thickcalc.dsl", "fn_derivative"),
                          ("thickcalc.distributions", "fn_derivative")],
    "quadrature.integrate": [("thickcalc.pairing", "integrate")],
    "pairing.pair": [("thickcalc.pairing", "pair"), ("thickcalc.checks", "pair")],
    "pairing.oracle": [("thickcalc.pairing", "fp_pair_oracle"),
                       ("thickcalc.checks", "fp_pair_oracle")],
    "pairing.fp_limit": [("thickcalc.pairing", "fp_limit"), ("thickcalc.checks", "fp_limit")],
    "dsl.parse": [("thickcalc.cli", "parse_query"), ("thickcalc.cli", "parse_program")],
    "dsl.run": [("thickcalc.cli", "run")],
    "dsl.print": [("thickcalc.dsl", "print_distribution")],
    "distributions.simplify": [("thickcalc.dsl", "simplify"), ("thickcalc.checks", "simplify")],
    "distributions.project": [("thickcalc.distributions", "project"),
                              ("thickcalc.checks", "project")],
    "expansion.multiply": [("thickcalc.expansion", "multiply")],
    "expansion.differentiate": [("thickcalc.expansion", "differentiate"),
                                ("thickcalc.checks", "differentiate")],
    "expansion.render": [("thickcalc.expansion", "render")],
}

SUITES = ("expansion", "pairing", "paskusz", "projection", "a-independence")

#: Aggregated, not kept span by span.
HOT = frozenset({"testfn.smoothstep", "testfn.integrand"})


def count_leaves(node, memo) -> int:
    """Leaves of a test-function body tree: nodes with no body children.

    A child is any field (or tuple field) holding an object with ``value``
    and ``derivative`` methods, so the count follows the body classes
    without naming them.
    """
    key = id(node)
    if key in memo:
        return memo[key][1]
    kids = []
    has_tuple = False
    for field in dataclasses.fields(node):
        v = getattr(node, field.name)
        if isinstance(v, tuple):
            has_tuple = True
            kids.extend(x for x in v if _is_body(x))
        elif _is_body(v):
            kids.append(v)
    n = sum(count_leaves(k, memo) for k in kids) if kids or has_tuple else 1
    memo[key] = (node, n)  # holding the node keeps its id from being reused
    return n


def _is_body(v) -> bool:
    return dataclasses.is_dataclass(v) and hasattr(v, "value") and hasattr(v, "derivative")


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start_ns, end_ns, parent_index, op_id]
        self.stack = []      # open frames: [name, start_ns, child_ns, span_index]
        self.open = defaultdict(int)
        self.calls = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.op_id = -1
        self.leaves_max = 0
        self.leaf_memo = {}
        self.missing = []
        self._saved = []

    # -- spans ---------------------------------------------------------------------

    def enter(self, name):
        idx = -1
        if name not in HOT:
            idx = len(self.spans)
            self.spans.append([name, 0, 0, self.stack[-1][3] if self.stack else -1, self.op_id])
        self.open[name] += 1
        frame = [name, 0, 0, idx]
        self.stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def exit(self, frame):
        end = time.perf_counter_ns()
        name, start, child, idx = frame
        dur = end - start
        self.stack.pop()
        self.calls[name] += 1
        self.self_ns[name] += dur - child
        self.open[name] -= 1
        if not self.open[name]:
            self.incl_ns[name] += dur
        if self.stack:
            self.stack[-1][2] += dur
        if idx >= 0:
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)

        traced.__wrapped__ = fn
        return traced

    def start_op(self, op_id):
        self.op_id = op_id
        self.leaf_memo = {}

    # -- patching ------------------------------------------------------------------

    def install(self):
        for layer, targets in TARGETS.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._layer_wrapper(layer, fn))
        checks = importlib.import_module("thickcalc.checks")
        for suite in SUITES:
            fn = checks.SUITES.get(suite)
            if fn is None:
                self.missing.append(f"thickcalc.checks.SUITES[{suite!r}]")
                continue
            self._saved.append((checks.SUITES, suite, fn))
            checks.SUITES[suite] = self.wrap(f"checks.{suite}", fn)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
        self._saved = []

    def _layer_wrapper(self, layer, fn):
        if layer == "quadrature.integrate":
            def integrate(f, *args, **kwargs):
                return fn(self.wrap("testfn.integrand", f), *args, **kwargs)
            return self.wrap(layer, integrate)
        traced = self.wrap(layer, fn)
        if layer == "pairing.pair":
            # counted before the span opens, so the count stays out of pair's time
            def pair(f, phi, *args, **kwargs):
                body = getattr(phi, "body", None)
                if body is not None:
                    self.leaves_max = max(self.leaves_max, count_leaves(body, self.leaf_memo))
                return traced(f, phi, *args, **kwargs)
            return pair
        return traced

    # -- results -------------------------------------------------------------------

    def layers(self) -> dict:
        """The per-layer metrics of everything traced so far."""
        s = 1e-9
        out = {
            "testfn.smoothstep_calls": self.calls["testfn.smoothstep"],
            "testfn.smoothstep_s": self.incl_ns["testfn.smoothstep"] * s,
            "testfn.integrand_s": self.incl_ns["testfn.integrand"] * s,
            "testfn.body_leaves_max": self.leaves_max,
            "testfn.derivative_calls": self.calls["testfn.derivative"],
            "testfn.derivative_s": self.incl_ns["testfn.derivative"] * s,
            "quadrature.integrate_calls": self.calls["quadrature.integrate"],
            "quadrature.evals": self.calls["testfn.integrand"],
            "quadrature.integrate_self_s": self.self_ns["quadrature.integrate"] * s,
            "pairing.pair_calls": self.calls["pairing.pair"],
            "pairing.pair_self_s": self.self_ns["pairing.pair"] * s,
            "pairing.oracle_calls": self.calls["pairing.oracle"],
            "pairing.oracle_self_s": self.self_ns["pairing.oracle"] * s,
            "pairing.fp_limit_s": self.incl_ns["pairing.fp_limit"] * s,
        }
        for suite in SUITES:
            out[f"checks.{suite}_s"] = self.incl_ns[f"checks.{suite}"] * s
        out.update({
            "dsl.parse_s": self.incl_ns["dsl.parse"] * s,
            "dsl.print_s": self.incl_ns["dsl.print"] * s,
            "dsl.run_self_s": self.self_ns["dsl.run"] * s,
            "distributions.simplify_calls": self.calls["distributions.simplify"],
            "distributions.simplify_s": self.incl_ns["distributions.simplify"] * s,
            "distributions.project_s": self.incl_ns["distributions.project"] * s,
            "expansion.multiply_s": self.incl_ns["expansion.multiply"] * s,
            "expansion.differentiate_s": self.incl_ns["expansion.differentiate"] * s,
            "expansion.render_s": self.incl_ns["expansion.render"] * s,
        })
        return out

    def dump(self, path):
        """Write the kept spans, one JSON list a line, plus the aggregated ones."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for name in sorted(HOT):
                fh.write(json.dumps({"aggregate": name, "calls": self.calls[name],
                                     "ns": self.incl_ns[name]}) + "\n")

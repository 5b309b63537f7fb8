"""One benchmark pass in a fresh interpreter.

    worker.py probe              import thickcalc.cli, print the monotonic time
    worker.py dsl                run the pass program read as JSON from stdin
    worker.py cli SPANS ARGS...  run ``thickcalc ARGS`` traced, spans to SPANS

``dsl`` times each statement alone through the entry points ``thickcalc eval
FILE --json`` uses (``parse_query`` and ``run`` as the cli module holds
them), then, outside the timed loop, checks every result against its
reference.  An untraced pass samples the machine's speed (``speed.py``)
between statements, at most every 50 ms, and leaves those samples out of
its pass time.  A ``derive`` result is re-paired only the first time the run
sees it: the payload lists the (statement, result) pairs earlier passes of
the run verified, and the output lists those this pass verified.  It prints
one JSON object.  The parent puts ``src`` on PYTHONPATH; nothing is imported
before ``thickcalc.cli``, so the time from the parent's spawn to ``READY`` is
the interpreter's set-up time.
"""

import sys
import time

import thickcalc.cli

READY = time.monotonic()

import contextlib  # noqa: E402  (after READY, so that set-up time is thickcalc's alone)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Test functions a ``derive`` result is paired against, next to d*(input).
DERIVE_CHECK_FNS = ("bump(2)", "poly([1,2,3], 2)", "mono(-1, pair(1,2), 2)",
                    "mono(0, pair(3,1), 2) + mono(2, pair(1,-1), 2)")


def run_op(text):
    """(program, report, error) of one statement; an exception is a failed op."""
    try:
        program = thickcalc.cli.parse_query(text)
        return program, thickcalc.cli.run(program), None
    except Exception as exc:  # noqa: BLE001 - the pass goes on, the op counts as failed
        return None, None, f"{type(exc).__name__}: {exc}"


def close(got, ref) -> bool:
    return abs(got - ref) <= max(1e-8, 1e-8 * abs(ref))


def _agree(a, b) -> bool:
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return a == b
    return close(float(a), float(b))


def derive_mismatch(program, result: str):
    """Pair the parsed-back derive result and d*(input) against fixed functions."""
    from thickcalc.distributions import Derivative
    from thickcalc.pairing import pair

    source = program.queries[0].dist
    printed = thickcalc.cli.parse_query(f"derive {result}").queries[0].dist
    for fn in DERIVE_CHECK_FNS:
        phi = thickcalc.cli.parse_query(f"expand {fn}, 0").queries[0].testfn
        a, b = pair(printed, phi).value, pair(Derivative(source), phi).value
        if not _agree(a, b):
            return f"derive result pairs to {a!r} against {fn}, d*(input) to {b!r}"
    return None


def check(item, program, report, error, memo):
    """None when the op's output is right, else the reason it is not."""
    if error is not None:
        return error
    kind, ref = item["kind"], item["ref"]
    if kind == "let":
        if ref["name"] in program.bindings and not report.records:
            return None
        return "let bound nothing"
    if len(report.records) != 1:
        return f"expected one record, got {len(report.records)}"
    rec = report.records[0]
    if "error" in rec:
        return rec["error"]
    if kind in ("eval", "project"):
        if ref.get("value_exact") is not None:
            if rec.get("value_exact") is None or \
                    Fraction(rec["value_exact"]) != Fraction(ref["value_exact"]):
                return f"exact value {rec.get('value_exact')} != {ref['value_exact']}"
        elif not close(rec["value"], ref["value"]):
            return f"value {rec['value']!r} != {ref['value']!r}"
        return None
    if kind == "expand":
        from thickcalc.expansion import parse_expansion
        if parse_expansion(rec["result"], exact=True) != parse_expansion(ref["result"], exact=True):
            return f"expansion {rec['result']} != {ref['result']}"
        return None
    if kind == "derive":
        key = (item["text"], rec["result"])
        if key not in memo:
            memo[key] = derive_mismatch(program, rec["result"])
        return memo[key]
    return f"unknown statement kind {kind!r}"


def run_dsl(payload):
    program = payload["program"]
    tracer = Tracer() if payload["trace"] else None
    lat_ns = []
    results = []
    if tracer is not None:
        tracer.install()
    clock = time.perf_counter_ns
    speed_ns = []
    last = None
    start = clock()
    for i, item in enumerate(program):
        if tracer is None:
            if last is None or clock() - last >= speed.GAP_NS:
                speed_ns.append(speed.sample_ns())
                last = clock()
            t0 = clock()
            results.append(run_op(item["text"]))
            lat_ns.append(clock() - t0)
        else:
            tracer.start_op(i)
            t0 = clock()
            frame = tracer.enter("op")
            results.append(run_op(item["text"]))
            tracer.exit(frame)
            lat_ns.append(clock() - t0)
    if tracer is None:
        speed_ns.append(speed.sample_ns())
    pass_ns = clock() - start - sum(speed_ns)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"ready": READY, "pass_s": pass_ns * 1e-9, "lat_ms": [t * 1e-6 for t in lat_ns],
           "maxrss_kb": maxrss_kb, "speed_ns": speed_ns, "layers": None, "missing": []}
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(Path(payload["spans"]))
        out["layers"], out["missing"] = tracer.layers(), tracer.missing
    memo = {tuple(key): None for key in payload.get("verified", ())}
    out["failures"] = [[i, reason] for i, (item, res) in enumerate(zip(program, results))
                       for reason in [check(item, *res, memo)] if reason is not None]
    out["verified"] = [list(key) for key, reason in memo.items() if reason is None]
    return out


def run_cli(spans, argv):
    tracer = Tracer()
    tracer.install()
    captured = io.StringIO()
    tracer.start_op(0)
    frame = tracer.enter("op")
    with contextlib.redirect_stdout(captured):
        status = thickcalc.cli.main(argv)
    tracer.exit(frame)
    tracer.uninstall()
    tracer.dump(Path(spans))
    return {"ready": READY, "status": status, "stdout": captured.getvalue(),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "layers": tracer.layers(), "missing": tracer.missing}


def main(argv):
    mode = argv[0]
    if mode == "probe":
        print(READY)
    elif mode == "dsl":
        print(json.dumps(run_dsl(json.loads(sys.stdin.read()))))
    elif mode == "cli":
        print(json.dumps(run_cli(argv[1], argv[2:])))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])

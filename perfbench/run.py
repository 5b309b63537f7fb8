"""thickcalc benchmark: run one workload for a fixed time, check it, print metrics.

    python3 perfbench/run.py --workload eval-mix --seed 1 --seconds 30 --trace 0

Workloads (the reasons are in BENCHMARK.json and README.md):

* ``check-all``: ``thickcalc check all --json``; one op is one whole process,
  a pass runs it twice and the two records must be byte-identical.
* ``eval-mix``, ``deep-derivative``, ``symbolic``: a seeded DSL program
  (``workloads.py``), run by ``worker.py`` in a fresh interpreter per pass,
  one op per statement.

Closed loop, one client: passes run back to back until the next one would
overrun ``--seconds``.  With ``--trace 0`` the last line of stdout carries the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and it carries the per-layer metrics of the traced passes.  The line before
it holds the details (tail percentile and sample counts, failures, span
files, the measured wall-clock times).  The DSL workloads report times at
the reference machine speed of ``speed.py``: each untraced pass samples the
machine's speed and its times are divided by the slowness it measured.
Spans and every pass's raw numbers go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

WORKLOADS = ("check-all",) + workloads.DSL_WORKLOADS

#: Tail percentile per workload, fixed so that a faster commit, which fits
#: more passes in a run, is compared at the same percentile.  Passes repeat
#: one program, so a sample beyond the percentile counts once per distinct
#: statement: eval-mix uses the highest percentile with ten statements of a
#: pass beyond it.  symbolic uses p98 (20 statements): beyond p99 lie the
#: 4-12 cheap statements a garbage collection falls on (2-3 ms each, the
#: count depends on the seed), so p99 jumps between that cluster and the
#: costliest statements (about 0.9 ms) from seed to seed.  deep-derivative
#: runs the same 20 statements for every seed; p75 has 15 samples beyond it
#: in a run of three passes.  It lies inside the group of four k = 1 ``d*``
#: statements of about equal cost that follow the four k >= 2 ones, where
#: p80 fell on the slowest of their 12-16 samples, a maximum, and moved by
#: a quarter from run to run.  check-all has too few ops for any and
#: reports its slowest.
TAIL_PCT = {"check-all": 100.0, "eval-mix": 95.0, "deep-derivative": 75.0,
            "symbolic": 98.0}

#: Set-up probes before the first pass; every pass adds one more sample.
SETUP_PROBES = 3
#: A child still running this long after the run started is killed.
CHILD_DEADLINE_S = 170.0

#: Counts that must repeat exactly between traced passes of one program.
EXACT_COUNTS = ("quadrature.evals", "quadrature.integrate_calls", "pairing.oracle_calls",
                "testfn.smoothstep_calls", "testfn.body_leaves_max")

UNITS = {"setup_s": "s", "pass_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
         "op_tail_ms": "ms", "ok_frac": "ratio", "peak_rss_mb": "MiB"}


class Child:
    """Spawns children with a shared kill deadline."""

    def __init__(self, env, deadline):
        self.env = env
        self.deadline = deadline

    def run(self, argv, stdin=b""):
        """(exit status, stdout bytes, rusage) of one child process."""
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                env=self.env, cwd=ROOT)
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            # Children read all of stdin before they write, so this cannot deadlock.
            proc.stdin.write(stdin)
            proc.stdin.close()
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, usage


def probe_setup(child):
    """Seconds from spawning an interpreter until ``import thickcalc.cli`` returns."""
    start = time.monotonic()
    status, out, _ = child.run([sys.executable, str(WORKER), "probe"])
    if status != 0:
        raise RuntimeError(f"set-up probe exited with {status}")
    return float(out) - start


def check_all_pass(child, trace, spans):
    """Two ``thickcalc check all --json`` processes; both PASS, same bytes."""
    setup = probe_setup(child)
    lat, failures, layers, records = [], [], [], []
    rss = 0.0
    start = time.perf_counter()
    for i in range(2):
        if trace:
            argv = [sys.executable, str(WORKER), "cli", str(spans.with_suffix(f".{i}.jsonl")),
                    "check", "all", "--json"]
        else:
            argv = [sys.executable, "-m", "thickcalc", "check", "all", "--json"]
        t0 = time.perf_counter()
        status, out, usage = child.run(argv)
        lat.append((time.perf_counter() - t0) * 1e3)
        rss = max(rss, usage.ru_maxrss / 1024)
        if trace and status == 0:
            envelope = json.loads(out)
            status, out = envelope["status"], envelope["stdout"].encode()
            layers.append(envelope["layers"])
        records.append(out)
        reason = _check_all_mismatch(status, out)
        if reason is None and i == 1 and out != records[0]:
            reason = "record differs from the first op of the pass"
        if reason is not None:
            failures.append([i, reason])
    pass_s = time.perf_counter() - start
    summed = {k: sum(d[k] for d in layers) for k in layers[0]} if len(layers) == 2 else None
    if summed is not None:
        summed["testfn.body_leaves_max"] = max(d["testfn.body_leaves_max"] for d in layers)
    return {"pass_s": pass_s, "lat_ms": lat, "failures": failures, "rss_mb": rss,
            "layers": summed, "missing": [], "setup_s": setup}


def _check_all_mismatch(status, out):
    if status != 0:
        return f"exit status {status}"
    try:
        rec = json.loads(out)
    except ValueError:
        return "output is not one JSON record"
    bad = [o["name"] for o in rec.get("outcomes", []) if not o["passed"]]
    if not rec.get("passed") or bad or not rec.get("outcomes"):
        return f"not every outcome passed: {bad}"
    return None


def dsl_pass(child, program, trace, spans, verified=None):
    """One pass in a fresh worker; ``verified`` collects the run's checked derive results."""
    verified = set() if verified is None else verified
    payload = {"program": program, "trace": trace, "spans": str(spans.with_suffix(".jsonl")),
               "verified": sorted(verified)}
    start = time.monotonic()
    status, out, usage = child.run([sys.executable, str(WORKER), "dsl"],
                                   json.dumps(payload).encode())
    if status != 0:
        return {"pass_s": None, "lat_ms": [], "rss_mb": usage.ru_maxrss / 1024,
                "failures": [[-1, f"worker exited with {status}"]] * len(program),
                "layers": None, "missing": [], "setup_s": None, "speed_ns": []}
    res = json.loads(out)
    verified.update(tuple(key) for key in res["verified"])
    return {"pass_s": res["pass_s"], "lat_ms": res["lat_ms"], "failures": res["failures"],
            "rss_mb": res["maxrss_kb"] / 1024, "layers": res["layers"],
            "missing": res["missing"], "setup_s": res["ready"] - start,
            "speed_ns": res["speed_ns"]}


def nearest_rank(values, pct):
    ordered = sorted(values)
    k = max(1, -(-len(ordered) * pct // 100))  # ceil, without float rounding at 100
    return ordered[int(k) - 1]


def time_metrics(timed, ops_per_pass, tail_pct, slowness):
    """The four time metrics of ``timed``, each pass's times divided by its ``slowness``.

    Pass time and throughput are totals over the run: the machine's speed
    changes over seconds, and a total covers all of it where a median of a
    few passes lands on whichever speed most of them met.
    """
    pass_s = [p["pass_s"] / f for p, f in zip(timed, slowness)]
    lat = [x / f for p, f in zip(timed, slowness) for x in p["lat_ms"]]
    tail = nearest_rank(lat, tail_pct)
    return {"pass_s": sum(pass_s) / len(pass_s),
            "ops_per_s": sum(ops_per_pass - len(p["failures"]) for p in timed) / sum(pass_s),
            "op_p50_ms": statistics.median(lat), "op_tail_ms": tail,
            "tail_samples": len(lat), "tail_beyond": sum(1 for x in lat if x > tail)}


def run(workload, seed, seconds, trace):
    OUT.mkdir(exist_ok=True)
    env = dict(os.environ)
    # An installed package runs from its bytecode cache; so do the children.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    child = Child(env, time.monotonic() + CHILD_DEADLINE_S)
    probe_setup(child)  # untimed: fills the bytecode cache
    setup = [probe_setup(child) for _ in range(SETUP_PROBES)]
    program = None if workload == "check-all" else workloads.generate(workload, seed)
    ops_per_pass = 2 if program is None else len(program)

    passes = {False: [], True: []}
    took = {False: [], True: []}
    verified = set()
    start = time.monotonic()
    kind = False
    while True:
        spans = OUT / f"{workload}-seed{seed}-pass{len(passes[True])}"
        t0 = time.monotonic()
        if program is None:
            res = check_all_pass(child, kind, spans)
        else:
            res = dsl_pass(child, program, kind, spans, verified)
        took[kind].append(time.monotonic() - t0)
        passes[kind].append(res)
        if trace:
            kind = not kind
        elapsed = time.monotonic() - start
        need = statistics.fmean(took[kind]) if took[kind] else took[not kind][-1]
        if (not trace or passes[True]) and elapsed + need > seconds:
            break

    every = passes[False] + passes[True]
    setup += [p["setup_s"] for p in every if p["setup_s"] is not None]
    raw = {"untraced": passes[False], "traced": passes[True], "setup_s": setup}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}-passes.json").write_text(json.dumps(raw))
    attempted = ops_per_pass * len(every)
    failures = [f for p in every for f in p["failures"]]
    plain = passes[False]
    timed = [p for p in plain if p["pass_s"]]
    # Times at the reference speed (speed.py): each pass's times divided by
    # the slowness its own speed samples measured.  check-all's ops are whole
    # processes that cannot take samples, and samples taken in this process
    # between them did not track their speed (README.md), so its times stay
    # wall-clock.
    slowness = [1.0 if program is None else speed.factor(p["speed_ns"]) for p in timed]
    scaled = time_metrics(timed, ops_per_pass, TAIL_PCT[workload], slowness)
    wall = time_metrics(timed, ops_per_pass, TAIL_PCT[workload], [1.0] * len(timed))
    detail = {"workload": workload, "seed": seed, "passes": len(plain),
              "traced_passes": len(passes[True]), "ops_per_pass": ops_per_pass,
              "tail_pct": TAIL_PCT[workload], "tail_samples": scaled.pop("tail_samples"),
              "tail_beyond": scaled.pop("tail_beyond"),
              "failed_frac": f"{len(failures)}/{attempted}",
              "failures": failures[:5], "setup_samples_s": setup}
    if not trace:
        detail["slowness"] = slowness
        detail["wall_clock"] = {k: v for k, v in wall.items() if not k.startswith("tail_")}
        metrics = {
            "setup_s": statistics.median(setup),
            **scaled,
            "ok_frac": (attempted - len(failures)) / attempted,
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
        repeat = True
    else:
        traced = [p["layers"] for p in passes[True] if p["layers"] is not None]
        repeat = bool(traced) and all(t[k] == traced[0][k] for t in traced for k in EXACT_COUNTS)
        metrics = {}
        for name in traced[0] if traced else ():
            values = [t[name] for t in traced]
            exact = isinstance(values[0], int)
            metrics[name] = {"value": values[0] if exact else statistics.median(values),
                             "unit": "count" if exact else "s"}
        plain_s = statistics.median(p["pass_s"] for p in plain if p["pass_s"])
        traced_s = statistics.median(p["pass_s"] for p in passes[True] if p["pass_s"])
        metrics["trace.overhead_frac"] = {"value": traced_s / plain_s - 1, "unit": "ratio"}
        detail["counts_repeat"] = repeat
        detail["missing_targets"] = sorted({m for p in passes[True] for m in p["missing"]})
        detail["span_files"] = sorted(str(p.relative_to(ROOT)) for p in OUT.glob(
            f"{workload}-seed{seed}-pass*.jsonl"))
    print(json.dumps(detail))
    print(json.dumps({"correct": not failures and repeat, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "thickcalc" / "cli.py").is_file():
        print(f"run.py: no thickcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

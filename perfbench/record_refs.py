"""Record the reference pools in ``refs/`` from the code in ``src/``.

    python3 perfbench/record_refs.py [workload ...]

Runs every pool statement of ``workloads.py`` once through the same op and
check as a benchmark pass, stores its result as the reference and its median
time over a few runs as its cost, and drops statements that fail (they are
listed under ``dropped``).  The committed files were recorded on the commit
that introduced the benchmark; re-recording on a later commit would move the
reference with the code, so do it only when a pool changes.
"""

import json
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy  # noqa: E402

import workloads  # noqa: E402
from worker import check, run_op  # noqa: E402

REPEATS = 3


def reference(kind, text, report):
    if kind == "let":
        return {"name": text.split()[1]}
    rec = report.records[0]
    if kind in ("eval", "project"):
        return {"value": rec["value"], "value_exact": rec.get("value_exact")}
    return {"result": rec["result"]}


def record(workload):
    items, dropped = [], []
    for text, kind in workloads.POOLS[workload]():
        program, report, error = run_op(text)
        reason = error or (report.records[0].get("error") if report.records else None)
        if reason is None:
            item = {"text": text, "kind": kind, "ref": reference(kind, text, report)}
            reason = check(item, program, report, None, {})
        if reason is not None:
            dropped.append({"text": text, "reason": reason})
            continue
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            run_op(text)
            times.append(time.perf_counter() - t0)
        item["cost_ms"] = round(statistics.median(times) * 1e3, 3)
        items.append(item)
    items.sort(key=lambda it: (it["cost_ms"], it["text"]))
    out = {"workload": workload,
           "recorded_with": {"python": platform.python_version(), "numpy": numpy.__version__},
           "dropped": dropped, "items": items}
    path = workloads.REFS_DIR / f"{workload}.json"
    path.write_text(json.dumps(out, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"{workload}: {len(items)} items, {len(dropped)} dropped -> {path}")


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.DSL_WORKLOADS:
        record(name)

"""Run every workload over several seeds and record medians and quartiles.

    python3 perfbench/baseline.py --seeds 1-10 --trace-seeds 1-5 [--workloads a,b]

Writes ``perfbench/baseline.json``: per workload and metric the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (quartile
distance over median) and the raw values, next to the Python and numpy
versions and ``nproc``.  End-to-end spreads are compared with a third of the
bound in BENCHMARK.json, the steadiness the benchmark was tuned to.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    if not text:
        return []
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         capture_output=True, text=True, cwd=ROOT, check=True)
    *_, detail, result = out.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace-seeds", type=seed_list, default=seed_list("1-5"))
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    report = {"python": platform.python_version(), "numpy": numpy.__version__,
              "nproc": os.cpu_count(), "machine": platform.machine(),
              "run_seconds": bench["run_seconds"], "seeds": args.seeds,
              "trace_seeds": args.trace_seeds, "date": time.strftime("%Y-%m-%d"),
              "workloads": {}}
    if args.out.exists():
        report["workloads"] = json.loads(args.out.read_text()).get("workloads", {})
    for workload in names:
        entry = {"end_to_end": {}, "per_layer": {}, "failed": 0, "attempted": 0}
        for trace, seeds, key in ((0, args.seeds, "end_to_end"), (1, args.trace_seeds, "per_layer")):
            values = {}
            for seed in seeds:
                detail, result = one_run(workload, seed, bench["run_seconds"], trace)
                entry["failed"] += result["failed"]
                entry["attempted"] += result["attempted"]
                if not result["correct"]:
                    print(f"{workload} seed {seed}: not correct: {detail}", file=sys.stderr)
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            entry[key] = {name: summarise(v) for name, v in values.items()}
        for name, s in entry["end_to_end"].items():
            flag = "" if name == "setup_s" or s["spread"] < bounds[name] / 3 else "  > bound/3"
            print(f"{workload:16s} {name:12s} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f} bound {bounds[name]}{flag}")
        report["workloads"][workload] = entry
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()

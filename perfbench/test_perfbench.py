"""The benchmark's own checks: seeded generation and exact per-layer counts.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import time

import pytest

import run
import workloads


def _child():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(run.ROOT / "src")
    return run.Child(env, time.monotonic() + 600)


@pytest.mark.parametrize("workload", workloads.DSL_WORKLOADS)
def test_same_seed_gives_byte_identical_program(workload):
    first = json.dumps(workloads.generate(workload, 7), ensure_ascii=False)
    again = json.dumps(workloads.generate(workload, 7), ensure_ascii=False)
    other = json.dumps(workloads.generate(workload, 8), ensure_ascii=False)
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", ["eval-mix", "symbolic"])
def test_stratified_draw_keeps_the_cost_profile(workload):
    costs = [sum(it["cost_ms"] for it in workloads.generate(workload, seed))
             for seed in range(10)]
    assert max(costs) / min(costs) < 1.05


def _traced(workload, program):
    res = run.dsl_pass(_child(), program, True, run.OUT / f"test-{workload}")
    assert res["failures"] == []
    return res["layers"]


@pytest.mark.parametrize("workload", workloads.DSL_WORKLOADS)
def test_counts_repeat_exactly_between_traced_runs(workload):
    program = [it for it in workloads.generate(workload, 11) if it["cost_ms"] < 200][:60]
    first, again = _traced(workload, program), _traced(workload, program)
    assert {k: first[k] for k in run.EXACT_COUNTS} == {k: again[k] for k in run.EXACT_COUNTS}
    assert first["pairing.oracle_calls"] == 0
    if workload == "symbolic":
        assert first["quadrature.evals"] == 0
    else:
        assert first["quadrature.evals"] > 0


def test_check_all_counts_repeat_and_reach_the_oracle():
    first = run.check_all_pass(_child(), True, run.OUT / "test-check-all")
    again = run.check_all_pass(_child(), True, run.OUT / "test-check-all")
    assert first["failures"] == [] and again["failures"] == []
    counts = [{k: p["layers"][k] for k in run.EXACT_COUNTS} for p in (first, again)]
    assert counts[0] == counts[1]
    assert counts[0]["pairing.oracle_calls"] > 0


def test_time_metrics_divide_by_the_slowness():
    passes = [{"pass_s": 2.0, "lat_ms": [1.0, 3.0], "failures": []},
              {"pass_s": 4.0, "lat_ms": [2.0, 6.0], "failures": []}]
    wall = run.time_metrics(passes, 2, 100.0, [1.0, 1.0])
    scaled = run.time_metrics(passes, 2, 100.0, [1.0, 2.0])
    assert wall["pass_s"] == 3.0 and scaled["pass_s"] == 2.0
    assert scaled["ops_per_s"] == 1.0
    assert scaled["op_tail_ms"] == 3.0

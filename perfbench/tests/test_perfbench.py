"""Tests of the benchmark itself, on grids small enough to run in seconds.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (imports the package from this checkout's src/)
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from isoembed import pipeline  # noqa: E402

# the smallest grids at which each shipped workload still passes; the
# example needs its full 201^2 grid for g_match_rel_interior
TINY = {
    "flat-write": dict(grid_n=21, chart_n=21),
    "cos2-solve": dict(grid_n=61, chart_n=41),
    "example-cos2": dict(grid_n=201, chart_n=41),
    "verify": dict(grid_n=21, chart_n=21),
}


def tiny(name, **changes):
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name], **changes)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_passes_its_checks_at_a_tiny_grid(name):
    result, record = run.measure(tiny(name), seed=5, seconds=0, trace=True)
    assert result["correct"], [o["problems"] for o in record["ops"]]
    assert result["attempted"] == run.MIN_OPS and result["failed"] == 0
    assert set(result["metrics"]) == {m for m, _, _ in tracing.LAYER_METRICS}
    assert record["sha256"]
    assert len(record["setup_runs_s"]) == run.SETUP_REPEATS
    # one probe before the set-ups, one after each, one before the operations, one after each
    assert len(record["speed"]["probe_s"]) == run.SETUP_REPEATS + 2 + result["attempted"]
    assert record["speed"]["setup_probes"] == run.SETUP_REPEATS + 1


def test_untraced_run_reports_the_end_to_end_metrics():
    result, _ = run.measure(tiny("flat-write"), seed=0, seconds=0, trace=False)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_the_probe_rescales_to_the_reference_speed_and_its_child_ends():
    with speed.Probe() as probe:
        assert probe.sample() > 0
        probe.samples[:] = [speed.REFERENCE_S, speed.REFERENCE_S * 3, speed.REFERENCE_S * 2]
        assert probe.factor() == pytest.approx(0.5)
        assert probe.factor(0, 1) == pytest.approx(1.0)
        assert probe.factor(1) == pytest.approx(0.4)
    assert probe._child.returncode == 0


def test_a_wrong_expected_verdict_counts_as_a_failed_operation():
    result, record = run.measure(tiny("flat-write", expect="FAIL"), seed=0, seconds=0,
                                 trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == run.MIN_OPS
    assert "expected FAIL" in record["ops"][0]["problems"][0]


def test_traced_self_times_sum_to_no_more_than_the_wall_time():
    tracer = tracing.Tracer()
    op = tiny("cos2-solve").start(*workloads.slopes(0))
    with tracer.operation(0):
        verdict, _ = op()
    assert verdict == "PASS"
    root = tracer.spans[0]
    assert root.name == tracing.ROOT
    total, own = tracer.times(0)
    layers = sum(v for k, v in own.items() if k != tracing.ROOT)
    assert 0 < layers <= root.end - root.start
    assert total["pipeline.run_pipeline"] <= root.end - root.start
    # every wrapped name is restored once the operation ends
    assert pipeline.solve_f.__module__ == "isoembed.ivp"
    assert not hasattr(pipeline.run_pipeline, "__wrapped__")


def test_tail_is_the_highest_percentile_with_ten_operations_beyond_it():
    assert run.tail([1.0] * 10) is None
    walls = [float(i) for i in range(20, 0, -1)]
    assert run.tail(walls) == {"percentile": 50.0, "wall_s": 10.0}


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    # every gated workload is defined here; `verify` is defined but not gated
    gated = {w["name"]: w["why"] for w in spec["workloads"]}
    assert gated == {n: w.why for n, w in workloads.WORKLOADS.items() if n != "verify"}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.LAYER_METRICS)

"""isoembed benchmark: one workload in one process, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The process pins BLAS/OpenMP to one
thread, imports the package from this checkout's `src/`, times set-up in
fresh child processes, then repeats the workload's operation for S seconds
(at least three times) and checks every one. A speed probe runs between
set-ups and between operations, and the end-to-end times are rescaled by
it (see speed.py), because this host's speed drifts for longer than a run.
The last line of standard output is {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. Work files and a record of each run (diagnostics, output
sha256, probe times, spans) go under `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import bootstrap

if __name__ == "__main__":
    bootstrap.pin_threads()
bootstrap.import_package()

import speed  # noqa: E402  (these need the threads pinned and the package path set)
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
STATE = HERE.parent / ".perfbench"
BASELINE = HERE / "baseline.json"
SETUP_REPEATS = 3
MIN_OPS = 3
END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def timed_setups(w, seed, workdir, probe):
    """Set-up times of SETUP_REPEATS fresh processes, and the verify inputs.

    The probe samples the machine's speed before the first and after each.
    Every child writes its own copy of the inputs; they must be identical.
    The first copy moves to `workdir/gen` for the operations to read.
    """
    times, copies = [], []
    probe.sample()
    for k in range(SETUP_REPEATS):
        d = workdir / f"setup-{k}"
        d.mkdir()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "prepare.py"), json.dumps(asdict(w)),
                        str(seed)], cwd=d, check=True)
        times.append(time.perf_counter() - t0)
        probe.sample()
        copies.append(workloads.tree_sha256(d / workloads.GEN))
    problems = [] if all(c == copies[0] for c in copies) else [
        "set-up processes wrote different verify inputs"]
    gen = workdir / "setup-0" / workloads.GEN
    if gen.exists():
        gen.rename(workdir / workloads.GEN)
    for k in range(SETUP_REPEATS):
        shutil.rmtree(workdir / f"setup-{k}")
    return times, problems


def run_operations(w, eps, delta, seconds, tracer, probe):
    """Repeat the operation until the next one would overrun `seconds`.

    Every operation is timed, the first too: a CLI user pays its page
    faults and lazy imports on every run. The probe samples the machine's
    speed before the first operation and after each. With a tracer, every
    second operation is traced and the others are not, so both kinds run
    under the same conditions.
    """
    op = w.start(eps, delta)
    ops = []
    deadline = time.perf_counter() + seconds
    probe.sample()
    while len(ops) < MIN_OPS or (
            time.perf_counter() + statistics.median(o["wall_s"] for o in ops)
            + probe.samples[-1] <= deadline):
        i = len(ops)
        ops.append(_operation(w, op, i, tracer if i % 2 == 1 else None))
        probe.sample()
    reference = next((o["sha256"] for o in ops if o["sha256"] is not None), {})
    for o in ops:
        if o["sha256"] is not None and o["sha256"] != reference:
            o["problems"].append("output bytes differ from the first operation's")
    return ops, reference


def _operation(w, op, i, tracer):
    """Run and check operation i, traced when a tracer is given."""
    shutil.rmtree(workloads.OUT, ignore_errors=True)
    os.mkdir(workloads.OUT)
    # a fresh CLI process holds no garbage; do not make this operation free the last one's
    gc.collect()
    t0 = time.perf_counter()
    try:
        with tracer.operation(i) if tracer else contextlib.nullcontext():
            verdict, result = op()
        wall = time.perf_counter() - t0
        problems = w.check(verdict, result)
        sha = w.outputs(result)
    except Exception:
        wall = time.perf_counter() - t0
        problems, sha = [traceback.format_exc()], None
    return {"wall_s": wall, "traced": tracer is not None,
            "problems": problems, "sha256": sha}


def tail(walls):
    """Highest percentile with at least 10 operations beyond it, or None."""
    k = len(walls) - 10
    if k < 1:
        return None
    return {"percentile": 100.0 * k / len(walls), "wall_s": sorted(walls)[k - 1]}


def changed_outputs(w, seed, sha):
    """Output files whose sha256 differs from the recorded baseline, or None."""
    if w != workloads.WORKLOADS.get(w.name) or not BASELINE.exists():
        return None
    point = str(seed % len(workloads.SLOPE_POINTS))
    expected = json.loads(BASELINE.read_text()).get(w.name, {}).get("sha256", {}).get(point)
    if expected is None:
        return None
    return sorted(k for k in expected.keys() | sha.keys() if expected.get(k) != sha.get(k))


def measure(w, seed, seconds, trace):
    """Run one workload; return (result line, record of the run)."""
    eps, delta = workloads.slopes(seed)
    workdir = STATE / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    tracer = tracing.Tracer() if trace else None
    try:
        with speed.Probe() as probe:
            setup_times, setup_problems = timed_setups(w, seed, workdir, probe)
            setup_probes = len(probe.samples)
            os.chdir(workdir)
            sha = {f"{workloads.GEN}/{k}": v
                   for k, v in workloads.tree_sha256(workloads.GEN).items()}
            ops, outputs = run_operations(w, eps, delta, seconds, tracer, probe)
            sha.update(outputs)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    # end-to-end times at the reference speed; span times stay as measured
    factor = probe.factor(setup_probes)
    setup_factor = probe.factor(0, setup_probes)
    untraced = [o["wall_s"] * factor for o in ops if not o["traced"]]
    if trace:
        per_op = [tracer.layer_values(i) for i, o in enumerate(ops) if o["traced"]]
        values = {name: statistics.median(v[name] for v in per_op)
                  for name, _, _ in tracing.LAYER_METRICS if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            statistics.median(o["wall_s"] * factor for o in ops if o["traced"])
            - statistics.median(untraced))
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    else:
        values = {
            "wall_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_times) * setup_factor,
        }
        units = dict(END_TO_END)
    failed = sum(1 for o in ops if o["problems"])
    result = {
        "correct": failed == 0 and not setup_problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": w.name, "seed": seed, "epsilon": eps, "delta": delta, "trace": trace,
        "environment": bootstrap.environment(),
        "operations": len(ops),
        "untraced_operations": len(untraced),
        "wall_tail": tail(untraced),
        "speed": {"factor": factor, "setup_factor": setup_factor,
                  "setup_probes": setup_probes, "probe_s": probe.samples,
                  "measured_wall_s": statistics.median(
                      o["wall_s"] for o in ops if not o["traced"])},
        "setup_runs_s": setup_times,
        "setup_problems": setup_problems,
        "sha256": sha,
        "outputs_changed": changed_outputs(w, seed, sha),
        "ops": ops,
    }
    if trace:
        record["spans"] = tracer.to_json()
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, record = measure(workloads.WORKLOADS[args.workload], args.seed,
                             args.seconds, bool(args.trace))
    out = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"result": result, **record}, indent=1) + "\n")

    for i, o in enumerate(record["ops"]):
        for problem in o["problems"]:
            print(f"operation {i} failed: {problem}", file=sys.stderr)
    if record["outputs_changed"]:
        print("output bytes differ from perfbench/baseline.json: "
              + ", ".join(record["outputs_changed"]), file=sys.stderr)
    summary = {k: record[k] for k in ("workload", "seed", "epsilon", "delta", "environment",
                                      "operations", "wall_tail", "setup_runs_s",
                                      "outputs_changed")}
    summary["speed_factor"] = record["speed"]["factor"]
    print("perfbench " + json.dumps(summary))
    print(f"record: {out}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

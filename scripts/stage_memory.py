#!/usr/bin/env python3
"""Memory and wall time of each pipeline stage.

Runs run_pipeline, then write_outputs into a temporary directory, twice
with each stage wrapped, and prints one row per call in call order; the
write_outputs row is this process's, not its forked writer's. The first
run is traced: the stage's tracemalloc peak above its entry (numpy
registers its array buffers with tracemalloc, so they count) and the
process high-water mark VmHWM, read from /proc/self/status, after the
stage returns. The tracemalloc figures
are deterministic; VmHWM also counts the interpreter, the libraries and the
allocator's slack, and only ever rises. The second run is untraced and
gives each stage's wall time: tracemalloc's hooks on every allocation, like
a profiler's on every call, would inflate the stages that allocate often.
A last line gives the traced bytes the result of run_pipeline holds once it
returns, the heap a run carries into its writers.

The config takes the flags of `isoembed run`; with none it is the default
201^2 run. For the cos2 benchmark grid:

    PYTHONPATH=src python scripts/stage_memory.py --metric cos2 --v-half 0.03 --grid-n 801
"""

import argparse
import dataclasses
import functools
import sys
import tempfile
import time
import tracemalloc

from isoembed import cli, pipeline
from isoembed.config import RunConfig, load_config

# the stages run_pipeline calls by these names, and then write_outputs; none
# calls another
STAGES = (
    "solve_f", "validate_metric", "solve_g", "build_param_change", "solve_system_grid",
    "resolve_chart_source", "chart_grid_for", "build_chart", "chart_checks", "compose",
    "isometry_residual", "curvature_from_samples", "curvature_field",
    "compatibility_residual", "c2_defect_scan", "write_outputs",
)
MB = 1e6


def vm_hwm_mb():
    """The process's peak resident set in MB, or NaN where /proc is missing."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / MB
    except OSError:
        pass
    return float("nan")


def _run_wrapped(cfg: RunConfig, wrap):
    """Run run_pipeline on cfg once and write its outputs into a temporary
    directory, each stage fn called through wrap(name, fn). Returns the
    traced bytes the result holds after run_pipeline returns (0 untraced)."""
    saved = {name: getattr(pipeline, name) for name in STAGES}
    for name, fn in saved.items():
        setattr(pipeline, name, functools.wraps(fn)(wrap(name, fn)))
    try:
        entry = tracemalloc.get_traced_memory()[0]
        result = pipeline.run_pipeline(cfg)
        held = tracemalloc.get_traced_memory()[0] - entry
        with tempfile.TemporaryDirectory() as out_dir:
            pipeline.write_outputs(dataclasses.replace(
                result, config=dataclasses.replace(cfg, out_dir=out_dir)))
    finally:
        for name, fn in saved.items():
            setattr(pipeline, name, fn)
    return held


def stage_memory(cfg: RunConfig):
    """([(stage, tracemalloc peak above entry MB, VmHWM after MB)], bytes the
    result holds) of one run."""
    rows = []

    def wrap(name, fn):
        def stage(*args, **kwargs):
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn(*args, **kwargs)
            rows.append((name, (tracemalloc.get_traced_memory()[1] - entry) / MB, vm_hwm_mb()))
            return out
        return stage

    tracemalloc.start()
    try:
        held = _run_wrapped(cfg, wrap)
    finally:
        tracemalloc.stop()
    return rows, held


def stage_times(cfg: RunConfig):
    """[(stage, wall s)] of one untraced run."""
    rows = []

    def wrap(name, fn):
        def stage(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            rows.append((name, time.perf_counter() - start))
            return out
        return stage

    _run_wrapped(cfg, wrap)
    return rows


def stage_table(cfg: RunConfig):
    """([(stage, peak above entry MB, VmHWM after MB, wall s)], one row per
    call, and the bytes the result holds)."""
    (memory, held), times = stage_memory(cfg), stage_times(cfg)
    if [m[0] for m in memory] != [t[0] for t in times]:
        raise RuntimeError("the traced and the untraced run called different stages")
    return [(*m, t[1]) for m, t in zip(memory, times)], held


def main(argv=()):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="INI config file")
    cli._add_run_overrides(parser)
    args = parser.parse_args(argv)
    cfg = load_config(args.config) if args.config else RunConfig()
    cfg = cli._apply_overrides(cfg, args)
    print(f"grid {cfg.n_u}x{cfg.n_v}, metric {cfg.metric}, "
          f"chart {cfg.chart_n_u}x{cfg.chart_n_v}")
    print(f"{'stage':<24}{'peak above entry MB':>21}{'VmHWM after MB':>16}{'wall s':>10}")
    rows, held = stage_table(cfg)
    for name, peak, hwm, wall in rows:
        print(f"{name:<24}{peak:>21.1f}{hwm:>16.1f}{wall:>10.4f}")
    print(f"result of run_pipeline holds {held / MB:.1f} MB")


if __name__ == "__main__":
    main(sys.argv[1:])

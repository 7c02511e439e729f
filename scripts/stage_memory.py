#!/usr/bin/env python3
"""Memory of each pipeline stage: tracemalloc peak and process high-water mark.

Runs run_pipeline once with each stage it calls wrapped, and prints one row
per call in call order: the stage's tracemalloc peak above its entry (numpy
registers its array buffers with tracemalloc, so they count) and the
process high-water mark VmHWM, read from /proc/self/status, after the stage
returns. The tracemalloc figures are deterministic; VmHWM also counts the
interpreter, the libraries and the allocator's slack, and only ever rises.

The config takes the flags of `isoembed run`; with none it is the default
201^2 run. For the cos2 benchmark grid:

    PYTHONPATH=src python scripts/stage_memory.py --metric cos2 --v-half 0.03 --grid-n 801
"""

import argparse
import functools
import sys
import tracemalloc

from isoembed import cli, pipeline
from isoembed.config import RunConfig, load_config

# the stages run_pipeline calls by these names; none calls another
STAGES = (
    "solve_f", "validate_metric", "solve_g", "build_param_change", "solve_system_grid",
    "resolve_chart_source", "chart_grid_for", "build_chart", "chart_checks", "lift",
    "compose", "isometry_residual", "curvature_from_samples", "curvature_field",
    "compatibility_residual", "c2_defect_scan",
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


def _measured(name, fn, rows):
    @functools.wraps(fn)
    def stage(*args, **kwargs):
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args, **kwargs)
        rows.append((name, (tracemalloc.get_traced_memory()[1] - entry) / MB, vm_hwm_mb()))
        return out
    return stage


def stage_memory(cfg: RunConfig):
    """[(stage, tracemalloc peak above entry MB, VmHWM after MB)] of one run."""
    rows = []
    saved = {name: getattr(pipeline, name) for name in STAGES}
    for name, fn in saved.items():
        setattr(pipeline, name, _measured(name, fn, rows))
    tracemalloc.start()
    try:
        pipeline.run_pipeline(cfg)
    finally:
        tracemalloc.stop()
        for name, fn in saved.items():
            setattr(pipeline, name, fn)
    return rows


def main(argv=()):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="INI config file")
    cli._add_run_overrides(parser)
    args = parser.parse_args(argv)
    cfg = load_config(args.config) if args.config else RunConfig()
    cfg = cli._apply_overrides(cfg, args)
    print(f"grid {cfg.n_u}x{cfg.n_v}, metric {cfg.metric}, "
          f"chart {cfg.chart_n_u}x{cfg.chart_n_v}")
    print(f"{'stage':<24}{'peak above entry MB':>21}{'VmHWM after MB':>16}")
    for name, peak, hwm in stage_memory(cfg):
        print(f"{name:<24}{peak:>21.1f}{hwm:>16.1f}")


if __name__ == "__main__":
    main(sys.argv[1:])

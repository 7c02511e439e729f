#!/usr/bin/env python3
"""Memory and wall time of each pipeline stage.

Runs run_pipeline, then write_outputs into a temporary directory, twice
with each stage wrapped, and prints one row per call in call order; the
write_outputs row is this process's, not its forked writers'. The first
run is traced: the stage's tracemalloc peak above its entry (numpy
registers its array buffers with tracemalloc, so they count) and the
process high-water mark VmHWM, read from /proc/self/status, after the
stage returns. The tracemalloc figures
are deterministic; VmHWM also counts the interpreter, the libraries and the
allocator's slack, and only ever rises. The second run is untraced and
gives each stage's wall time: tracemalloc's hooks on every allocation, like
a profiler's on every call, would inflate the stages that allocate often.
A line then gives the traced bytes the result of run_pipeline holds once
it returns, the heap a run carries into its writers.

After the untraced run's write_outputs, each file group of
pipeline.output_writers is written again on its own, in this process, and
timed. write_outputs then runs once more while a thread samples, every
2 ms, the proportional set size (Pss) of this process and of each of its
children: Pss splits a page among the processes that map it, so the sum
counts the pages the forked writers share with this process once and is
the memory the whole group holds. Its peak is printed next to this
process's VmHWM; the sum is sampled, so a spike shorter than a sample can
be missed. A last line gives RUSAGE_CHILDREN's maxrss: the peak resident
set of the largest one forked writer so far, not the writers' total, with
the pages it shares with this process counted in full.

The config takes the flags of `isoembed run`; with none it is the default
201^2 run. For the cos2 benchmark grid:

    PYTHONPATH=src python scripts/stage_memory.py --metric cos2 --v-half 0.03 --grid-n 801
"""

import argparse
import dataclasses
import functools
import resource
import sys
import os
import tempfile
import threading
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


def _proc_kb_mb(path, key):
    """The `key:` line of the /proc file at path, given in kB, in MB; NaN
    where the file cannot be read (no /proc, or the process has ended)."""
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) * 1024 / MB
    except OSError:
        pass
    return float("nan")


def vm_hwm_mb():
    """The process's peak resident set in MB, or NaN where /proc is missing."""
    return _proc_kb_mb("/proc/self/status", "VmHWM")


def group_pss_mb(pid):
    """Pss of process pid and of each of its children summed, in MB; a child
    that ends while it is read adds nothing. NaN where /proc is missing."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            children = fh.read().split()
    except OSError:
        children = []
    total = _proc_kb_mb(f"/proc/{pid}/smaps_rollup", "Pss")
    for child in children:
        pss = _proc_kb_mb(f"/proc/{child}/smaps_rollup", "Pss")
        total += 0.0 if pss != pss else pss
    return total


def peak_group_pss_mb(write, interval=0.002):
    """Call write() while a thread samples group_pss_mb of this process every
    `interval` s; return the peak sample in MB (NaN where /proc is missing)."""
    pid = os.getpid()
    samples = []
    done = threading.Event()

    def sample():
        samples.append(group_pss_mb(pid))
        while not done.wait(interval):
            samples.append(group_pss_mb(pid))

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        write()
    finally:
        done.set()
        sampler.join()
    return max(samples)


def _run_wrapped(cfg: RunConfig, wrap, after=None):
    """Run run_pipeline on cfg once and write its outputs into a temporary
    directory, each stage fn called through wrap(name, fn), and then call
    after(result) there when it is given. Returns the traced bytes the
    result holds after run_pipeline returns (0 untraced)."""
    saved = {name: getattr(pipeline, name) for name in STAGES}
    for name, fn in saved.items():
        setattr(pipeline, name, functools.wraps(fn)(wrap(name, fn)))
    try:
        entry = tracemalloc.get_traced_memory()[0]
        result = pipeline.run_pipeline(cfg)
        held = tracemalloc.get_traced_memory()[0] - entry
        with tempfile.TemporaryDirectory() as out_dir:
            result = dataclasses.replace(result, config=dataclasses.replace(cfg, out_dir=out_dir))
            pipeline.write_outputs(result)
            if after is not None:
                after(result)
    finally:
        for name, fn in saved.items():
            setattr(pipeline, name, fn)
    return held


def writer_times(result):
    """[(file group, wall s)]: each group of pipeline.output_writers written
    on its own in this process, in the serial order."""
    rows = []
    for name, job in pipeline.output_writers(result):
        start = time.perf_counter()
        job()
        rows.append((name, time.perf_counter() - start))
    return rows


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


def stage_times(cfg: RunConfig, after=None):
    """[(stage, wall s)] of one untraced run; after(result) as _run_wrapped."""
    rows = []

    def wrap(name, fn):
        def stage(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            rows.append((name, time.perf_counter() - start))
            return out
        return stage

    _run_wrapped(cfg, wrap, after)
    return rows


def stage_table(cfg: RunConfig):
    """([(stage, peak above entry MB, VmHWM after MB, wall s)], one row per
    call, the bytes the result holds, [(file group, wall s)] of the writers
    each on its own, the peak Pss MB of this process and its writers
    together while write_outputs runs, and RUSAGE_CHILDREN's maxrss MB)."""
    memory, held = stage_memory(cfg)
    writers, group = [], []

    def after(result):
        writers.extend(writer_times(result))
        # the stage wrapper's __wrapped__, so the rerun adds no stage row
        write = pipeline.write_outputs.__wrapped__
        group.append(peak_group_pss_mb(lambda: write(result)))

    times = stage_times(cfg, after=after)
    if [m[0] for m in memory] != [t[0] for t in times]:
        raise RuntimeError("the traced and the untraced run called different stages")
    # ru_maxrss is in kB: the largest child this process has reaped
    children_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / MB
    return [(*m, t[1]) for m, t in zip(memory, times)], held, writers, group[0], children_mb


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
    rows, held, writers, group_mb, children_mb = stage_table(cfg)
    for name, peak, hwm, wall in rows:
        print(f"{name:<24}{peak:>21.1f}{hwm:>16.1f}{wall:>10.4f}")
    print(f"result of run_pipeline holds {held / MB:.1f} MB")
    print(f"{'writer, on its own':<24}{'wall s':>10}")
    for name, wall in writers:
        print(f"{name:<24}{wall:>10.4f}")
    print(f"write_outputs: this process and its writers hold at most {group_mb:.1f} MB "
          f"(peak summed Pss), this process's VmHWM {vm_hwm_mb():.1f} MB")
    print(f"largest forked writer's peak RSS (RUSAGE_CHILDREN maxrss) {children_mb:.1f} MB")


if __name__ == "__main__":
    main(sys.argv[1:])

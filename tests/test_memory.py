"""Bounded transients of the per-node stages, and what the system keeps.

tracemalloc counts numpy's array buffers deterministically, so these bounds
do not depend on the host's speed or allocator. The blocked stages peak at
about 105 (system) and 84 (compose) bytes per node on cos2 at 401^2, 24 of
compose's being its output; their whole-grid forms peaked at about 420 and
205. compose's per-block temporaries are fixed, so its share falls with the
grid: about 40 bytes per node at 801^2. The system's result keeps 55 bytes
per node, six fields and its mask; with its three row-residual fields it
kept 82.

The finished default run holds about 7.4 MB; with the chart's x, y and G0
samples on its 401^2 grid it held 11.8.

write_outputs forks one child per file group; what a child needs it
inherits, and the lift it exports it builds itself, so the parent formats
nothing: its peak is a few kB, against about 3.0 MB for the inline route
writing no mesh.
"""

import dataclasses
import os
import tracemalloc

import pytest

from isoembed.config import RunConfig
from isoembed.pipeline import run_pipeline, write_outputs
from isoembed.surface import compose
from isoembed.system_s import solve_system_grid


@pytest.fixture(scope="module")
def cos2_401():
    return run_pipeline(RunConfig(metric="cos2", v_half=0.03, n_u=401, n_v=401))


def peak_bytes_per_node(call, nodes):
    """tracemalloc peak of call() above its entry, per node."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - entry) / nodes


def test_system_solve_peak_per_node(cos2_401):
    nodes = cos2_401.grid.nu * cos2_401.grid.nv
    per_node = peak_bytes_per_node(
        lambda: solve_system_grid(cos2_401.pc, cos2_401.f_report.gbar), nodes)
    assert per_node <= 250.0


def test_system_solve_result_per_node(cos2_401):
    # what the result keeps: six float fields (8 bytes a node each) and the
    # system mask (1 byte a node)
    nodes = cos2_401.grid.nu * cos2_401.grid.nv
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        sr = solve_system_grid(cos2_401.pc, cos2_401.f_report.gbar)
        kept = tracemalloc.get_traced_memory()[0] - entry
    finally:
        tracemalloc.stop()
    assert sr.mask.any()
    assert kept / nodes <= 50.0


def test_finished_run_holds_no_chart_samples():
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        result = run_pipeline(RunConfig())
        held = tracemalloc.get_traced_memory()[0] - entry
    finally:
        tracemalloc.stop()
    assert result.passed
    assert held <= 9e6


def test_compose_peak_per_node(cos2_401):
    nodes = cos2_401.grid.nu * cos2_401.grid.nv
    per_node = peak_bytes_per_node(lambda: compose(cos2_401.chart, cos2_401.pc), nodes)
    assert per_node <= 150.0


def test_forked_writers_add_no_parent_memory(flat_run, tmp_path, monkeypatch, forks):
    # flat 201^2: the forked parent, whose children write every file and
    # the meshes too, peaks at about 16 kB; one process writing no mesh
    # peaks at about 3.0 MB, and one writing the meshes also lifts the
    # chart (about 9.2 MB)
    def peak(route, mesh_out):
        cfg = dataclasses.replace(flat_run.config, out_dir=str(tmp_path / route),
                                  mesh_out=mesh_out)
        result = dataclasses.replace(flat_run, config=cfg)
        return peak_bytes_per_node(lambda: write_outputs(result), 1)

    forked = peak("fork", "mesh")
    assert forks == [1] * 4
    monkeypatch.delattr(os, "fork")
    inline = peak("inline", "")
    assert forked <= 0.02 * inline

"""Bounded transients of the per-node stages, and what the system keeps.

tracemalloc counts numpy's array buffers deterministically, so these bounds
do not depend on the host's speed or allocator. The blocked stages peak at
about 105 (system) and 84 (compose) bytes per node on cos2 at 401^2, 24 of
compose's being its output; their whole-grid forms peaked at about 420 and
205. compose's per-block temporaries are fixed, so its share falls with the
grid: about 40 bytes per node at 801^2. The system's result keeps 55 bytes
per node, six fields and its mask; with its three row-residual fields it
kept 82.
"""

import tracemalloc

import pytest

from isoembed.config import RunConfig
from isoembed.pipeline import run_pipeline
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
    # what the result keeps: six fields of values and mask (9 bytes a node
    # each) and the system mask
    nodes = cos2_401.grid.nu * cos2_401.grid.nv
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        sr = solve_system_grid(cos2_401.pc, cos2_401.f_report.gbar)
        kept = tracemalloc.get_traced_memory()[0] - entry
    finally:
        tracemalloc.stop()
    assert sr.mask.any()
    assert kept / nodes <= 60.0


def test_compose_peak_per_node(cos2_401):
    nodes = cos2_401.grid.nu * cos2_401.grid.nv
    per_node = peak_bytes_per_node(lambda: compose(cos2_401.lifted, cos2_401.pc), nodes)
    assert per_node <= 150.0

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isoembed.config import RunConfig
from isoembed.fields import Grid2D, ScalarField2D
from isoembed.initial import make_initial
from isoembed.ivp import solve_f, solve_g
from isoembed.metric import make_metric
from isoembed.pipeline import run_pipeline
from isoembed.reparam import ParamChange, build_param_change, jacobian

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, cwd):
    """Run `python -m isoembed *args` in a child process from `cwd`.

    The child imports this checkout's package from any working directory:
    the absolute `src` path goes ahead of whatever `PYTHONPATH` held.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "isoembed", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def param_change_of(grid, f_fn=lambda u, v: u, g_fn=lambda u, v: v):
    """Hand-built change (u, v) = (f_fn, g_fn)(ubar, vbar) on `grid`, the
    identity by default, certified wherever J is valid.

    Its stencil derivatives are taken here, as solve_f and solve_g take
    them for a solved change.
    """
    f = ScalarField2D.from_function(grid, f_fn)
    g = ScalarField2D.from_function(grid, g_fn)
    derivs = (f.d_u().values, f.d_v().values, g.d_u().values, g.d_v().values)
    jac = jacobian(f, g, derivs)
    return ParamChange(f=f, g=g, derivs=derivs, jac=jac, certified=jac.mask.copy(),
                       orientation=1, init_node=(grid.nu // 2, grid.row_index_of_v(0.0)))


@pytest.fixture(scope="session")
def flat_run():
    """Full default pipeline run (flat metric, ramps, 201x201)."""
    return run_pipeline(RunConfig())


@pytest.fixture(scope="session")
def cos2_run():
    """Pipeline run for the curved metric on the narrow box."""
    return run_pipeline(RunConfig(metric="cos2", v_half=0.03))


@pytest.fixture(scope="session")
def cos2_solved_full():
    """Solver-level artifacts for the curved metric on the full default box."""
    grid = Grid2D.centered(0.1, 0.1, 201, 201)
    metric = make_metric("cos2")
    init = make_initial("linear_ramp", 0.1, 0.1)
    fr = solve_f(metric, init, grid)
    gr = solve_g(metric, fr, init, grid)
    pc = build_param_change(fr, gr)
    return metric, init, grid, fr, gr, pc


@pytest.fixture
def small_grid():
    return Grid2D.centered(0.1, 0.1, 41, 41)


def interior_of(mask, grid, depth=2):
    """Erode a mask by `depth` nodes per row interval and v-edges."""
    out = mask.copy()
    out[:, :depth] = False
    out[:, -depth:] = False
    for j in range(grid.nv):
        cols = np.flatnonzero(mask[:, j])
        if cols.size:
            out[cols[:depth], j] = False
            out[cols[-depth:], j] = False
    return out

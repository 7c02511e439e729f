import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isoembed.config import RunConfig, example_cos2_config
from isoembed.fields import SNAP_EPS, Grid2D, first_derivative
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
    f, g = (field_of(grid, fn) for fn in (f_fn, g_fn))
    derivs = (*derivatives(f, grid), *derivatives(g, grid))
    jac = jacobian(derivs)
    return ParamChange(grid=grid, f=f, g=g, derivs=derivs, jac=jac, certified=np.isfinite(jac),
                       orientation=1, init_node=(grid.nu // 2, grid.row_index_of_v(0.0)))


def field_of(grid, fn):
    """fn(u, v) on every node of grid, as a (nu, nv) float array."""
    U, V = grid.meshgrid()
    return np.asarray(fn(U, V), dtype=float) * np.ones_like(U)


def derivatives(values, grid):
    """(d_u, d_v) of a field by the masked stencils, on its finite set."""
    ok = np.isfinite(values)
    return (first_derivative(values, ok, grid.du, 0), first_derivative(values, ok, grid.dv, 1))


def closed_form_differences(chart):
    """(x_u, y_u, x_v, y_v) of a chart c(v) + u n(v) from its generator:
    (x_u, y_u) = n = (-ty, tx) and (x_v, y_v) = (A + B u) t."""
    src = chart.source
    vs = chart.grid.v_coords
    tx, ty = src.tangent(vs)
    ruling = src.speed(vs) + chart.grid.u_coords[:, None] * src.slope(vs)
    return -ty, tx, ruling * tx, ruling * ty


def closed_form_identities(chart):
    """Sups of |E0 - 1|, |F0| and |G0 - G0 sampled| from the closed-form
    derivatives: the oracle for plane.chart_checks' stencil triple."""
    xu, yu, xv, yv = closed_form_differences(chart)
    _, _, g0 = chart.sample()
    return (float(np.max(np.abs(xu * xu + yu * yu - 1.0))),
            float(np.max(np.abs(xu * xv + yu * yv))),
            float(np.max(np.abs(xv * xv + yv * yv - g0))))


@pytest.fixture(scope="session")
def flat_run():
    """Full default pipeline run (flat metric, ramps, 201x201)."""
    return run_pipeline(RunConfig())


@pytest.fixture(scope="session")
def cos2_run():
    """Pipeline run for the curved metric on the narrow box."""
    return run_pipeline(RunConfig(metric="cos2", v_half=0.03))


@pytest.fixture(scope="session")
def example_cos2_run():
    """Pipeline run of the shipped example-cos2 config."""
    return run_pipeline(example_cos2_config())


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
def forks(monkeypatch):
    """List that gains an entry each time this process calls os.fork."""
    calls = []
    real_fork = os.fork

    def counted():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


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


def reference_interp(g, w, u, v):
    """Bilinear interpolation of the samples w on grid g as one whole-array
    pass: the earlier unblocked interpolation, kept as the reference for
    fields.bilinear."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)

    finite_q = np.isfinite(u) & np.isfinite(v)
    su = np.where(finite_q, (u - g.u0) / g.du, 0.0)
    sv = np.where(finite_q, (v - g.v0) / g.dv, 0.0)
    iu = np.floor(su).astype(int)
    iv = np.floor(sv).astype(int)
    fu = su - iu
    fv = sv - iv

    hi_u = fu > 1.0 - SNAP_EPS
    iu = np.where(hi_u, iu + 1, iu)
    fu = np.where(hi_u, 0.0, fu)
    fu = np.where(fu < SNAP_EPS, 0.0, fu)
    hi_v = fv > 1.0 - SNAP_EPS
    iv = np.where(hi_v, iv + 1, iv)
    fv = np.where(hi_v, 0.0, fv)
    fv = np.where(fv < SNAP_EPS, 0.0, fv)

    on_u = fu == 0.0
    on_v = fv == 0.0

    inside = (
        finite_q
        & (iu >= 0)
        & (iv >= 0)
        & (iu + np.where(on_u, 0, 1) <= g.nu - 1)
        & (iv + np.where(on_v, 0, 1) <= g.nv - 1)
    )
    iu_c = np.clip(iu, 0, g.nu - 1)
    iv_c = np.clip(iv, 0, g.nv - 1)
    iu_n = np.clip(iu + np.where(on_u, 0, 1), 0, g.nu - 1)
    iv_n = np.clip(iv + np.where(on_v, 0, 1), 0, g.nv - 1)

    m = np.isfinite(w)
    ok = inside & m[iu_c, iv_c] & m[iu_n, iv_c] & m[iu_c, iv_n] & m[iu_n, iv_n]

    v00 = w[iu_c, iv_c]
    v10 = w[iu_n, iv_c]
    v01 = w[iu_c, iv_n]
    v11 = w[iu_n, iv_n]
    out = (
        v00 * (1 - fu) * (1 - fv)
        + v10 * fu * (1 - fv)
        + v01 * (1 - fu) * fv
        + v11 * fu * fv
    )
    out = np.where(on_u & on_v, v00, out)
    out = np.where(on_u & ~on_v, v00 * (1 - fv) + v01 * fv, out)
    out = np.where(~on_u & on_v, v00 * (1 - fu) + v10 * fu, out)
    out = np.where(ok, out, np.nan)
    return out, ok

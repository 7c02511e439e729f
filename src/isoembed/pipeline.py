"""End-to-end pipeline: solve, change parameters, solve the system, build
the chart, compose, measure; then write, lifting the chart only for its OBJ.

Chart selection: `base_curve = "auto"` fits a speed/slope profile to the
compatibility target G - 1 (G solved per node by the linear system) over
the image of the certified region, which is the only way the composite can
come close to reproducing the given metric; named curves ("line",
"circle:R", "kinked:R", "file:<path>") are taken verbatim at unit speed
and generally leave a large, honestly-reported compatibility gap.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .errors import IoFailure, NonPositiveMetric
from .fields import Grid2D, sup_mean_abs
from .initial import make_initial
from .ivp import c2_defect_scan, solve_f, solve_g
from .metric import Rect, curvature_field, curvature_from_samples, make_metric, validate_metric
from .plane import build_chart, chart_checks, fit_chart_profile, make_base_curve
from .report import (
    NodeTable,
    ResidualStat,
    VerificationReport,
    compatibility_residual,
    isometry_residual,
    write_report,
    write_system_csv,
)
from .reparam import build_param_change, jacobian_initial_closed_form
from .surface import compose, export_obj, lift
from .system_s import solve_system_grid


@dataclass
class PipelineResult:
    config: RunConfig
    report: VerificationReport
    metric: object
    grid: Grid2D
    f_report: object
    g_report: object
    pc: object
    sys_report: object
    chart: object
    composite: object
    defect: object
    table: NodeTable

    @property
    def passed(self):
        return self.report.all_passed


def _interior_mask(mask):
    """Nodes of `mask` that are neither on the first or last two v-lines
    nor among the first or last two nodes of `mask` on their v-line."""
    before = np.cumsum(mask, axis=0)  # nodes of mask on the v-line up to here
    after = before[-1] - before + mask  # ... and from here on
    out = mask & (before > 2) & (after > 2)
    out[:, :2] = False
    out[:, -2:] = False
    return out


def _curvature_stencil_dev(metric, gbar, grid):
    """sup |K_fd - K| with K_fd from the samples gbar and K the metric's
    closed form; NaN, with nothing computed, where it has none."""
    if not metric.has_analytic_curvature:
        return float("nan")
    return sup_mean_abs(curvature_from_samples(gbar, grid) - curvature_field(metric, grid))[0]


def resolve_chart_source(cfg: RunConfig, pc, sys_report):
    """Chart generator for the compose step (fitted profile or named curve)."""
    if cfg.base_curve == "auto":
        sel = pc.certified & np.isfinite(sys_report.g_val)
        return fit_chart_profile(pc.f[sel], pc.g[sel], sys_report.g_val[sel])
    return make_base_curve(cfg.base_curve)


def chart_grid_for(pc, cfg: RunConfig) -> Grid2D:
    """Chart rectangle: bounding box of the certified image plus 10% margin,
    sampled by the configured chart_n_u x chart_n_v lines.
    """
    u_img = pc.f[pc.certified]
    v_img = pc.g[pc.certified]
    u_lo, u_hi = float(u_img.min()), float(u_img.max())
    v_lo, v_hi = float(v_img.min()), float(v_img.max())
    du = u_hi - u_lo
    dv = v_hi - v_lo
    pad_u = 0.1 * du if du > 0 else 1e-6
    pad_v = 0.1 * dv if dv > 0 else 1e-6
    nu, nv = cfg.chart_n_u, cfg.chart_n_v
    return Grid2D(
        u0=u_lo - pad_u, v0=v_lo - pad_v,
        du=(du + 2 * pad_u) / (nu - 1), dv=(dv + 2 * pad_v) / (nv - 1),
        nu=nu, nv=nv,
    )


def run_pipeline(cfg: RunConfig) -> PipelineResult:
    cfg.validate()
    tol = cfg.tolerances

    metric = make_metric(
        cfg.metric, domain=Rect(-cfg.metric_u_half, cfg.metric_u_half,
                                -cfg.metric_v_half, cfg.metric_v_half)
    )
    grid = Grid2D.centered(cfg.u_half, cfg.v_half, cfg.n_u, cfg.n_v)
    init = make_initial(cfg.family, cfg.epsilon, cfg.delta)
    # solve_f samples G on the grid once; every stage below reads those samples
    f_report = solve_f(metric, init, grid)
    gbar = f_report.gbar
    validation = validate_metric(gbar, grid, tol=tol.positivity_floor, slope_bound=tol.slope_bound)
    if any(v.kind == "nonpositive" for v in validation.violations):
        raise NonPositiveMetric(
            f"metric '{cfg.metric}' is not positive on the requested grid"
        )
    g_report = solve_g(metric, f_report, init, grid)
    # nothing past the g march reads lam: free it before the chart fit's peak
    f_report.lam = None

    pc = build_param_change(f_report, g_report, jac_tol=tol.jacobian_tol)

    # two routes to J on the initial line
    j0 = grid.row_index_of_v(0.0)
    us = grid.u_coords
    cf = jacobian_initial_closed_form(init.dh(us), init.dk(us), metric.eval(us, 0.0))
    rel = np.abs(pc.jac[:, j0] - cf) / np.abs(cf)
    oracle_rel = sup_mean_abs(np.where(pc.certified[:, j0], rel, np.nan))[0]

    sys_report = solve_system_grid(pc, gbar)
    interior = _interior_mask(sys_report.mask)

    source = resolve_chart_source(cfg, pc, sys_report)
    cgrid = chart_grid_for(pc, cfg)
    chart = build_chart(source, cgrid)
    # one differencing of the chart grid gives every chart verdict
    s0_num, chart_jac_min, reg_min = chart_checks(chart)
    # a C^1-only base curve kinks G0: the stencil comparison against the
    # closed form is resolution-limited in the kink cell, so s0_numeric
    # gates only the E0/F0 identities there and lift_identity only the
    # exact E part; smooth sources gate the full triple in both. The two
    # minima are stencil values too, and the 5-point stencils reach across
    # the kink on three v-lines: on kinked:1, chart_jacobian_min reads
    # 0.85908 against 0.86992 in closed form. No verdict flips
    chart_smooth = source.regularity == "analytic"
    s0_gate_val = max(s0_num) if chart_smooth else max(s0_num[:2])
    lift_dev = max(s0_num) if chart_smooth else s0_num[0]

    composite = compose(chart, pc)
    iso = isometry_residual(composite, gbar)

    curv_dev = _curvature_stencil_dev(metric, gbar, grid)
    dg_field = compatibility_residual(sys_report.g_val, chart, pc)

    defect = c2_defect_scan(f_report.field, grid, threshold=tol.detector_tol)
    expect_defect = cfg.family == "c1_not_c2"
    if expect_defect:
        near = defect.near_initial_u()
        detector_ok = defect.found and near is not None and abs(near) <= 3 * grid.du
    else:
        detector_ok = not defect.found

    rank_and_det_ok = (
        (sys_report.rank_coeff == 2)
        & (sys_report.rank_aug == 2)
        & (np.abs(sys_report.aug_det) < tol.aug_det_tol)
    )
    rank_frac = float(rank_and_det_ok[sys_report.mask].sum() / max(1, sys_report.mask.sum()))
    e_dev_sup = sup_mean_abs(sys_report.e_val - 1.0)[0]

    residuals = {
        "pde_f": ResidualStat(f_report.max_residual, f_report.mean_residual,
                              tol.residual_tol, gated=True),
        "pde_g": ResidualStat(g_report.max_residual, g_report.mean_residual,
                              tol.residual_tol, gated=True),
        "jacobian_oracle_rel": ResidualStat(oracle_rel, tol=tol.jacobian_oracle_tol, gated=True),
        "aug_det": ResidualStat(*sup_mean_abs(sys_report.aug_det)),
        "pullback_rows": ResidualStat(sys_report.row_residual_sup, tol=tol.pullback_tol,
                                      gated=True),
        "e_val_dev": ResidualStat(e_dev_sup, tol=tol.e_val_tol, gated=True),
        "g_match_rel_interior": ResidualStat(sys_report.g_match_rel_sup(interior),
                                             tol=tol.g_match_rel_tol, gated=True),
        "g_match_rel_full": ResidualStat(sys_report.g_match_rel_sup()),
        "s0_numeric": ResidualStat(s0_gate_val, tol=tol.s0_tol, gated=True),
        "lift_identity": ResidualStat(lift_dev, tol=tol.lift_tol, gated=True),
        "curvature_stencil": ResidualStat(curv_dev, tol=tol.curvature_tol,
                                          gated=metric.has_analytic_curvature),
        **iso.stats(tol.e_res_tol, tol.f_res_tol, gated=tol.gate_isometry),
        "compat_dG": ResidualStat(*sup_mean_abs(dg_field)),
    }

    checks = {
        "metric_valid": validation.ok,
        "rank_fraction": rank_frac >= tol.rank_fraction,
        "chart_injective": chart_jac_min > 0.0,
        "lift_regular": np.isfinite(reg_min) and reg_min >= 1.0 - 1e-9,
        "detector": detector_ok,
    }

    total = grid.nu * grid.nv
    g_center = sys_report.g_val[grid.nu // 2, j0]
    meta = {
        "config": cfg.to_meta(),
        "orientation": pc.orientation,
        "certified_count": int(pc.certified.sum()),
        "composite_valid_count": int(composite.mask.sum()),
        "rank_ok_fraction": rank_frac,
        "lift_eg_f2_min": reg_min,
        "chart_jacobian_min": chart_jac_min,
        "chart_smooth_source": chart_smooth,
        "s0_numeric_triple": list(s0_num),
        "solver_steps": int(f_report.steps + g_report.steps),
        "detector_hits": len(defect.hits),
        "detector_near_initial_u": defect.near_initial_u(),
        # the flagged second-difference-jump locus, thinned for the report
        "defect_locus": [
            {"vbar": h.v, "ubar": h.u, "jump": h.jump}
            for h in defect.hits[:: max(1, len(defect.hits) // 20)]
        ],
        "g_cramer_center": float(g_center) if np.isfinite(g_center) else None,
    }

    report = VerificationReport(
        meta=meta,
        residuals=residuals,
        checks=checks,
        masked_count=int(total - pc.certified.sum()),
    )
    table = NodeTable(
        grid=grid, f=f_report.field, g=g_report.field, jac=pc.jac,
        e_res=iso.e_res, f_res=iso.f_res, g_res=iso.g_res,
        aug_det=sys_report.aug_det, dg=dg_field,
    )

    return PipelineResult(
        config=cfg, report=report, metric=metric, grid=grid,
        f_report=f_report, g_report=g_report, pc=pc, sys_report=sys_report,
        chart=chart, composite=composite, defect=defect, table=table,
    )


def _start_writer(job):
    """Run job() in a forked child; return a call that reaps the child and
    returns the exception the child raised, or None.

    The child inherits the finished result, so nothing is copied or pickled
    to start it; only an exception it raises crosses back, pickled, through
    a pipe. Every path in the child ends in os._exit, after its writers have
    closed their files: it never flushes this process's stdio, runs its
    exit hooks or returns into the caller.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                job()
                status = 0
            except BaseException as exc:  # forwarded: the parent re-raises it
                payload = pickle.dumps(exc)
                with os.fdopen(write_fd, "wb") as fh:
                    fh.write(payload)
        finally:
            os._exit(status)
    os.close(write_fd)

    def reap():
        try:
            with os.fdopen(read_fd, "rb") as fh:
                payload = fh.read()
        finally:
            _, wait_status = os.waitpid(pid, 0)
        if payload:
            return pickle.loads(payload)
        code = os.waitstatus_to_exitcode(wait_status)
        return IoFailure(f"output writer process ended with exit code {code}") if code else None

    return reap


def _reap_all(reaps):
    """[error or None] of each reap() in order. Every child is reaped even
    when reaping an earlier one raises (an interrupt during its read, an
    error that will not unpickle); the first such exception is raised once
    all are reaped."""
    errors, failure = [], None
    for reap in reaps:
        try:
            errors.append(reap())
        except BaseException as exc:  # raised below, after the rest are reaped
            if failure is None:
                failure = exc
    if failure is not None:
        raise failure
    return errors


def make_parent_dirs(paths):
    """Create the directory each output path lies in, before any is written."""
    for path in paths:
        parent = os.path.dirname(path)
        try:
            os.makedirs(parent or os.curdir, exist_ok=True)
        except OSError as exc:
            raise IoFailure(f"cannot create output directory {parent}: {exc}") from exc


def output_writers(result: PipelineResult):
    """[(file group, job)] of the run's output files in the serial order:
    report.json with residuals.csv, system_s.csv, the lifted OBJ and the
    composite OBJ, each group present when the config asks for its files.
    The lifted OBJ's job lifts the chart itself."""
    cfg = result.config
    paths = cfg.output_paths()
    writers = [("report", lambda: write_report(result.report, paths["report_json"],
                                                paths["residual_csv"], result.table))]
    if cfg.system_csv:
        writers.append(("system_s", lambda: write_system_csv(
            paths["system_csv"], result.grid, result.sys_report)))
    if cfg.mesh_out:
        writers.append(("lifted_obj", lambda: export_obj(
            lift(result.chart), paths["mesh_out lifted OBJ"])))
        writers.append(("composite_obj", lambda: export_obj(
            result.composite, paths["mesh_out composite OBJ"])))
    return writers


def write_outputs(result: PipelineResult):
    """Write report JSON, residual CSV, system CSV and optional meshes, at
    the paths cfg.output_paths() gives, creating their directories first;
    an empty out_dir is the current directory.

    Each file group of output_writers is written by its own child, forked
    here in the serial order; the children inherit the finished result,
    so this process formats nothing, and it reaps every child before it
    returns or raises. Each file has the bytes the serial writers give. Of
    several failing groups, the error raised is that of the first in the
    serial order, with the type and message its child raised. Where
    os.fork does not exist, the groups are written in turn in this process.
    """
    paths = result.config.output_paths()
    make_parent_dirs(paths.values())
    jobs = [job for _, job in output_writers(result)]
    if not hasattr(os, "fork"):
        for job in jobs:
            job()
    else:
        reaps = []
        try:
            for job in jobs:
                reaps.append(_start_writer(job))
        finally:
            errors = _reap_all(reaps)
        for error in errors:
            if error is not None:
                raise error
    return paths["report_json"], paths["residual_csv"]

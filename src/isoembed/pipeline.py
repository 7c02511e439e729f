"""End-to-end pipeline: solve, change parameters, solve the system, build
the chart, lift, compose, measure.

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
from .fields import Grid2D, ScalarField2D
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
    lifted: object
    composite: object
    iso: object
    defect: object
    dg: ScalarField2D

    @property
    def passed(self):
        return self.report.all_passed


def _interior_mask(mask, grid):
    """Nodes of `mask` whose four first-derivative stencils are central."""
    out = mask.copy()
    out[:, :2] = False
    out[:, -2:] = False
    for j in range(grid.nv):
        cols = np.flatnonzero(mask[:, j])
        if cols.size:
            out[cols[:2], j] = False
            out[cols[-2:], j] = False
    return out


def _sup_on(values, mask):
    sel = np.where(mask, values, np.nan)
    return float(np.nanmax(sel)) if mask.any() else float("nan")


def _curvature_stencil_dev(metric, gbar):
    """sup |K_fd - K| with K_fd from the samples gbar and K the metric's
    closed form; NaN, with nothing computed, where it has none."""
    if not metric.has_analytic_curvature:
        return float("nan")
    k_fd = curvature_from_samples(gbar)
    k = curvature_field(metric, gbar.grid)
    return _sup_on(np.abs(k_fd.values - k.values), k_fd.mask & k.mask)


def resolve_chart_source(cfg: RunConfig, pc, sys_report):
    """Chart generator for the compose step (fitted profile or named curve)."""
    if cfg.base_curve == "auto":
        sel = pc.certified & sys_report.g_val.mask
        u_pts = pc.f.values[sel]
        v_pts = pc.g.values[sel]
        target = sys_report.g_val.values[sel]
        return fit_chart_profile(u_pts, v_pts, target)
    return make_base_curve(cfg.base_curve)


def chart_grid_for(pc, cfg: RunConfig) -> Grid2D:
    """Chart rectangle: bounding box of the certified image plus 10% margin,
    sampled by the configured chart_n_u x chart_n_v lines.
    """
    sel = pc.certified
    u_img = pc.f.values[sel]
    v_img = pc.g.values[sel]
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
    validation = validate_metric(gbar, tol=tol.positivity_floor, slope_bound=tol.slope_bound)
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
    row_ok = pc.certified[:, j0] & pc.jac.mask[:, j0]
    oracle_rel = _sup_on(np.abs(pc.jac.values[:, j0] - cf) / np.abs(cf), row_ok)

    sys_report = solve_system_grid(pc, gbar)
    interior = _interior_mask(sys_report.mask, grid)

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

    lifted = lift(chart)
    composite = compose(lifted, pc)
    iso = isometry_residual(composite, gbar)

    curv_dev = _curvature_stencil_dev(metric, gbar)
    dg_field = compatibility_residual(sys_report.g_val, chart, pc)

    defect = c2_defect_scan(f_report.field, threshold=tol.detector_tol)
    expect_defect = cfg.family == "c1_not_c2"
    if expect_defect:
        near = defect.near_initial_u()
        detector_ok = defect.found and near is not None and abs(near) <= 3 * grid.du
    else:
        detector_ok = not defect.found

    rank_and_det_ok = (
        (sys_report.rank_coeff.values == 2)
        & (sys_report.rank_aug.values == 2)
        & (np.abs(sys_report.aug_det.values) < tol.aug_det_tol)
    )
    rank_frac = float(rank_and_det_ok[sys_report.mask].sum() / max(1, sys_report.mask.sum()))
    e_dev_sup = _sup_on(np.abs(sys_report.e_val.values - 1.0), sys_report.mask)

    iso_e_sup, iso_f_sup, iso_g_sup = iso.sups()
    iso_e_mean, iso_f_mean, iso_g_mean = iso.means()

    residuals = {
        "pde_f": ResidualStat(f_report.max_residual, f_report.mean_residual,
                              tol.residual_tol, gated=True),
        "pde_g": ResidualStat(g_report.max_residual, g_report.mean_residual,
                              tol.residual_tol, gated=True),
        "jacobian_oracle_rel": ResidualStat(oracle_rel, tol=tol.jacobian_oracle_tol, gated=True),
        "aug_det": ResidualStat(sys_report.aug_det.sup(), sys_report.aug_det.mean_abs()),
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
        "isometry_e": ResidualStat(iso_e_sup, iso_e_mean, tol.e_res_tol,
                                   gated=tol.gate_isometry),
        "isometry_f": ResidualStat(iso_f_sup, iso_f_mean, tol.f_res_tol,
                                   gated=tol.gate_isometry),
        "isometry_g": ResidualStat(iso_g_sup, iso_g_mean),
        "compat_dG": ResidualStat(dg_field.sup(), dg_field.mean_abs()),
    }

    verdicts = {
        "metric_valid": validation.ok,
        "rank_fraction": rank_frac >= tol.rank_fraction,
        "chart_injective": chart_jac_min > 0.0,
        "lift_regular": np.isfinite(reg_min) and reg_min >= 1.0 - 1e-9,
        "detector": detector_ok,
    }
    for name, stat in residuals.items():
        if stat.passed is not None:
            verdicts[name] = stat.passed

    total = grid.nu * grid.nv
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
        "g_cramer_center": float(sys_report.g_val.values[grid.nu // 2, j0])
        if sys_report.g_val.mask[grid.nu // 2, j0] else None,
    }

    report = VerificationReport(
        meta=meta,
        residuals=residuals,
        verdicts=verdicts,
        masked_count=int(total - pc.certified.sum()),
    )

    return PipelineResult(
        config=cfg, report=report, metric=metric, grid=grid,
        f_report=f_report, g_report=g_report, pc=pc, sys_report=sys_report,
        chart=chart, lifted=lifted, composite=composite, iso=iso, defect=defect,
        dg=dg_field,
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


def write_outputs(result: PipelineResult):
    """Write report JSON, residual CSV, system CSV and optional meshes.

    Two processes write them. A child forked here inherits the finished
    result and writes system_s.csv and the lifted OBJ, while this process
    writes report.json, residuals.csv and the composite OBJ and then always
    reaps the child. Each file has the bytes the serial writers give. Where
    os.fork does not exist, or the child would have nothing to write, the
    writers run in turn in this process. Of several failing writers, the
    error raised is that of the first file in the serial order: report.json,
    residuals.csv, system_s.csv, lifted OBJ, composite OBJ; a child's error
    is raised here with its type and message.
    """
    cfg = result.config
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create output directory {cfg.out_dir}: {exc}") from exc
    json_path = os.path.join(cfg.out_dir, cfg.report_json)
    csv_path = os.path.join(cfg.out_dir, cfg.residual_csv)
    table = NodeTable(
        grid=result.grid,
        f=result.f_report.field,
        g=result.g_report.field,
        jac=result.pc.jac,
        e_res=result.iso.e_res,
        f_res=result.iso.f_res,
        g_res=result.iso.g_res,
        aug_det=result.sys_report.aug_det,
        dg=result.dg,
    )

    def child_files():
        if cfg.system_csv:
            write_system_csv(os.path.join(cfg.out_dir, cfg.system_csv),
                             result.grid, result.sys_report)
        if cfg.mesh_out:
            export_obj(result.lifted, os.path.join(cfg.out_dir, cfg.mesh_out + "_lifted.obj"))

    def composite_file():
        if cfg.mesh_out:
            export_obj(result.composite,
                       os.path.join(cfg.out_dir, cfg.mesh_out + "_composite.obj"))

    if not hasattr(os, "fork") or not (cfg.system_csv or cfg.mesh_out):
        write_report(result.report, json_path, csv_path, table)
        child_files()
        composite_file()
        return json_path, csv_path

    reap = _start_writer(child_files)
    composite_error = None
    try:
        write_report(result.report, json_path, csv_path, table)
        try:
            composite_file()
        except IoFailure as exc:  # the child's files come first
            composite_error = exc
    finally:
        child_error = reap()
    if child_error is not None:
        raise child_error
    if composite_error is not None:
        raise composite_error
    return json_path, csv_path

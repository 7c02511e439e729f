"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is pinned here, not in helper code.
"""

import time

import numpy as np
import pytest

from conftest import closed_form_identities, interior_of, param_change_of, run_cli
from isoembed.config import RunConfig
from isoembed.fields import Grid2D, ScalarField2D
from isoembed.initial import make_initial
from isoembed.ivp import c2_defect_scan, solve_f, solve_g
from isoembed.metric import curvature_field, curvature_from_samples, make_metric
from isoembed.pipeline import run_pipeline
from isoembed.plane import build_chart, chart_checks, make_base_curve
from isoembed.report import isometry_residual
from isoembed.reparam import jacobian_initial_closed_form
from isoembed.surface import compose, induced_metric, lift
from isoembed.system_s import from_derivatives, augmented_det_residual, solve_system_grid

EPS = 0.1


def _line(n, ok, text):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_c01_curvature_of_cos2():
    t0 = time.monotonic()
    grid = Grid2D.centered(0.1, 0.1, 201, 201)
    m = make_metric("cos2")
    k_ana = curvature_field(m, grid)
    dev_ana = float(np.nanmax(np.abs(k_ana.values - 1.0)))
    k_fd = curvature_from_samples(m.sample(grid))
    dev_fd = float(np.nanmax(np.abs(k_fd.values[k_fd.mask] - 1.0)))
    elapsed = time.monotonic() - t0
    ok = dev_ana < 1e-6 and dev_fd < 1e-4 and elapsed < 1.0
    _line(1, ok, f"sup|K-1| analytic {dev_ana:.2e} < 1e-6, stencil {dev_fd:.2e} < 1e-4, "
                 f"{elapsed:.2f}s < 1s")


def test_c02_pde_oracle_equivalence():
    t0 = time.monotonic()
    metric = make_metric("flat")
    init = make_initial("linear_ramp", EPS, EPS)
    lam = EPS / np.sqrt(1 - EPS**2)
    errs = {}
    for n in (101, 201):
        grid = Grid2D.centered(0.1, 0.1, n, n)
        fr = solve_f(metric, init, grid)
        gr = solve_g(metric, fr, init, grid)
        U, V = grid.meshgrid()
        f_exact = EPS * U - np.sqrt(1 - EPS**2) * V
        g_exact = EPS * (U + lam * V)
        ef = np.nanmax(np.abs(fr.field.values - f_exact)[fr.mask])
        eg = np.nanmax(np.abs(gr.field.values - g_exact)[gr.mask])
        errs[n] = (ef, eg)
    elapsed = time.monotonic() - t0
    ef, eg = errs[201]
    sup_ok = ef < 1e-6 and eg < 1e-6
    # the marched flat/ramp case is exact to roundoff at every resolution,
    # so the refinement clause degenerates; it applies whenever the errors
    # are above the noise floor
    floor = 1e-12
    if errs[101][0] > floor or errs[201][0] > floor:
        ratio_ok = errs[101][0] / max(errs[201][0], 1e-300) >= 3.5 \
            and errs[101][1] / max(errs[201][1], 1e-300) >= 3.5
        ratio_note = f"halving ratio f {errs[101][0]/errs[201][0]:.1f}, g {errs[101][1]/errs[201][1]:.1f}"
    else:
        ratio_ok = True
        ratio_note = f"errors at roundoff floor ({errs[101][0]:.1e}, {errs[201][0]:.1e})"
    ok = sup_ok and ratio_ok and elapsed < 2.0
    _line(2, ok, f"sup-error f {ef:.2e}, g {eg:.2e} < 1e-6 at 201x201; {ratio_note}; "
                 f"{elapsed:.2f}s < 2s")


def test_c03_jacobian_cross_oracle(flat_run):
    grid = flat_run.grid
    pc = flat_run.pc
    init = make_initial("linear_ramp", EPS, EPS)
    j0 = grid.row_index_of_v(0.0)
    us = grid.u_coords
    cf = jacobian_initial_closed_form(init.dh(us), init.dk(us),
                                      flat_run.metric.eval(us, 0.0))
    sel = pc.certified[:, j0]
    rel = np.nanmax(np.abs(pc.jac.values[:, j0] - cf)[sel] / np.abs(cf)[sel])
    target = EPS / np.sqrt(1 - EPS**2)
    both_near = (abs(float(np.nanmax(np.abs(pc.jac.values[sel, j0] - target))) ) < 1e-6
                 and abs(float(np.nanmax(np.abs(cf[sel] - target)))) < 1e-6)
    ok = rel < 1e-4 and both_near and abs(target - 0.1005038) < 1e-7
    _line(3, ok, f"initial-row J: numeric vs closed form rel {rel:.2e} < 1e-4, "
                 f"both equal {target:.7f}")


@pytest.mark.parametrize("case", ["flat", "cos2"])
def test_c04_theorem1_identities(case, flat_run, cos2_solved_full, request):
    if case == "flat":
        pc, metric = flat_run.pc, flat_run.metric
        sr = flat_run.sys_report
    else:
        metric, _, _, _, _, pc = cos2_solved_full
        sr = solve_system_grid(pc, metric.sample(pc.grid))
    ok_nodes = (
        (sr.rank_coeff.values == 2)
        & (sr.rank_aug.values == 2)
        & (np.abs(sr.aug_det.values) < 1e-6)
    )
    frac = ok_nodes[sr.mask].sum() / sr.mask.sum()
    # corruption detection: shift g_v by 1e-2 at a representative node
    lam = EPS / np.sqrt(1 - EPS**2)
    s = from_derivatives(EPS, -np.sqrt(1 - EPS**2), EPS, EPS * lam + 1e-2, 1.0)
    det = abs(augmented_det_residual(s))
    ok = frac >= 0.99 and det > 1e-4
    _line(4, ok, f"[{case}] ranks (2,2) and |aug det|<1e-6 on {frac:.2%} >= 99% "
                 f"of certified nodes; 1e-2 corruption -> {det:.2e} > 1e-4")


@pytest.mark.parametrize("case", ["flat", "cos2"])
def test_c05_theorem2_pullback(case, flat_run, cos2_solved_full):
    if case == "flat":
        pc, metric, grid = flat_run.pc, flat_run.metric, flat_run.grid
        sr = flat_run.sys_report
    else:
        metric, _, grid, _, _, pc = cos2_solved_full
        sr = solve_system_grid(pc, metric.sample(pc.grid))
    rows = sr.row_residual_sup
    e_dev = float(np.nanmax(np.abs(sr.e_val.values - 1.0)[sr.mask]))
    interior = interior_of(sr.mask, grid)
    rel = np.abs(sr.g_val.values - sr.g_closed.values) / np.maximum(
        1.0, np.abs(sr.g_closed.values))
    g_match = float(np.nanmax(np.where(interior, rel, np.nan)))
    ok = rows < 1e-4 and e_dev < 1e-4 and g_match < 1e-6
    _line(5, ok, f"[{case}] system rows sup {rows:.2e} < 1e-4; |E-1| {e_dev:.2e} < 1e-4; "
                 f"Cramer G vs closed form {g_match:.2e} < 1e-6 (relative)")


def test_c06_chart_and_lift():
    grid = Grid2D.centered(0.1, 0.1, 201, 201)
    worst_ana, worst_num, worst_lift = 0.0, 0.0, 0.0
    min_det = np.inf
    for spec in ("line", "circle:2"):
        chart = build_chart(make_base_curve(spec), grid)
        worst_ana = max(worst_ana, max(closed_form_identities(chart)))
        r, _, _ = chart_checks(chart)
        worst_num = max(worst_num, max(r))
        s = lift(chart)
        e, f, g = induced_metric(s)
        worst_lift = max(worst_lift,
                         float(np.nanmax(np.abs(g.values - (chart.g0.values + 1.0))[g.mask])))
        det = e.values * g.values - f.values**2
        min_det = min(min_det, float(np.nanmin(det[e.mask])))
    ok = worst_ana < 1e-8 and worst_num < 1e-4 and worst_lift < 1e-6 and min_det >= 1.0 - 1e-9
    _line(6, ok, f"S0 residuals: analytic {worst_ana:.2e} < 1e-8, numeric {worst_num:.2e} < 1e-4; "
                 f"lift identity {worst_lift:.2e} < 1e-6; min EG-F^2 = {min_det:.6f} >= 1")


def test_c07_identity_change_control():
    chart = build_chart(make_base_curve("line"), Grid2D.centered(0.1, 0.1, 201, 201))
    surface = lift(chart)
    pc = param_change_of(chart.grid)
    comp = compose(surface, pc)
    iso = isometry_residual(comp, ScalarField2D(comp.grid, chart.g0.values + 1.0))
    sup = max(iso.sups())
    ok = sup < 1e-10
    _line(7, ok, f"identity change of the lift reproduces (1, 0, G0 + 1): "
                 f"triple sup {sup:.2e} < 1e-10")


def test_c08_full_pipeline_isometry():
    results = {}
    for label, cfg in (("flat", RunConfig()),
                       ("cos2", RunConfig(metric="cos2", v_half=0.03))):
        t0 = time.monotonic()
        res = run_pipeline(cfg)
        elapsed = time.monotonic() - t0
        results[label] = (res, elapsed)
    ok = True
    notes = []
    for label, (res, elapsed) in results.items():
        r = res.report.residuals
        e_sup, f_sup = r["isometry_e"].sup, r["isometry_f"].sup
        g_sup, dg_sup = r["isometry_g"].sup, r["compat_dG"].sup
        ok &= e_sup < 1e-3 and f_sup < 1e-3 and elapsed < 5.0
        ok &= np.isfinite(g_sup) and np.isfinite(dg_sup)  # reported, no pass target
        notes.append(f"[{label}] E {e_sup:.2e} F {f_sup:.2e} < 1e-3; "
                     f"G {g_sup:.2e} and dG {dg_sup:.2e} reported; {elapsed:.2f}s < 5s")
    _line(8, ok, "; ".join(notes))


def test_c09_non_analytic_mechanism():
    grid = Grid2D.centered(0.1, 0.1, 201, 201)
    metric = make_metric("cos2")
    kinked = solve_f(metric, make_initial("c1_not_c2", EPS, EPS), grid)
    hits = c2_defect_scan(kinked.field, threshold=1e-2)
    smooth = solve_f(metric, make_initial("linear_ramp", EPS, EPS), grid)
    quiet = c2_defect_scan(smooth.field, threshold=1e-2)
    near = hits.near_initial_u()
    ok = hits.found and near is not None and abs(near) <= 3 * grid.du and not quiet.found
    _line(9, ok, f"C^2-defect locus flagged through u = {near} (kinked data, "
                 f"{len(hits.hits)} rows); smooth control flags nothing")


def test_c10_determinism(tmp_path):
    def run_once(tag):
        wd = tmp_path / tag
        wd.mkdir()
        out = run_cli(["run", "--grid-n", "101", "--n-v", "101", "--out-dir", "out"], cwd=wd)
        assert out.returncode == 0, out.stderr
        return (wd / "out" / "residuals.csv").read_bytes(), (wd / "out" / "report.json").read_bytes()

    csv1, json1 = run_once("first")
    csv2, json2 = run_once("second")
    ok = csv1 == csv2 and json1 == json2
    _line(10, ok, f"two identical runs: residual CSV byte-identical ({len(csv1)} bytes), "
                  f"report JSON byte-identical ({len(json1)} bytes)")

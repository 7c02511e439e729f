import sys
from collections import Counter

import numpy as np
import pytest

from isoembed import fields, ivp, pipeline
from isoembed.config import RunConfig, example_cos2_config
from isoembed.errors import NonPositiveMetric
from isoembed.fields import ScalarField2D, first_derivative_4
from isoembed.metric import GeodesicMetric2D, curvature_field, curvature_from_samples, make_metric
from isoembed.pipeline import chart_grid_for, run_pipeline
from isoembed.surface import regularity_check


def test_flat_run_passes_everything(flat_run):
    assert flat_run.passed
    assert flat_run.report.meta["orientation"] == 1
    assert flat_run.report.meta["g_cramer_center"] == pytest.approx(99.0, abs=1e-6)


def test_cos2_narrow_run_passes(cos2_run):
    assert cos2_run.passed
    r = cos2_run.report.residuals
    assert r["isometry_e"].sup < 1e-3
    # the honest gap stays visible even when the gates pass
    assert r["compat_dG"].sup > 1e-3


def test_named_curve_leaves_honest_gap():
    # a unit-speed straight chart cannot carry the solved coefficient: the
    # composite is far from isometric and the gated E residual says so
    cfg = RunConfig(base_curve="line", n_u=101, n_v=101)
    res = run_pipeline(cfg)
    assert not res.passed
    assert res.report.verdicts["isometry_e"] is False
    assert res.report.residuals["compat_dG"].sup == pytest.approx(97.0, abs=0.5)
    assert res.report.residuals["isometry_e"].sup == pytest.approx(0.97, abs=0.05)


def test_kinked_chart_gating_policy():
    # a C^1-only base curve kinks the chart: s0_numeric gates E0 and F0,
    # lift_identity the exact E part alone, and the full numeric triple
    # stays visible in the metadata
    cfg = RunConfig(base_curve="kinked:1", n_u=101, n_v=101)
    cfg.tolerances.gate_isometry = False
    res = run_pipeline(cfg)
    assert res.passed
    meta = res.report.meta
    assert meta["chart_smooth_source"] is False
    r1, r2, r3 = meta["s0_numeric_triple"]
    assert r1 < 1e-10          # E0 identity is exact in u
    assert r2 < 1e-4           # F0 held to the stencil gate
    assert r3 > 1e-2           # the G0 jump across the kink is visible
    assert res.report.residuals["lift_identity"].sup == r1
    assert res.report.residuals["s0_numeric"].sup == max(r1, r2)


def test_exp_metric_with_documented_gates():
    cfg = RunConfig(metric="exp", v_half=0.03)
    cfg.tolerances.g_match_rel_tol = 1e-4
    res = run_pipeline(cfg)
    assert res.passed
    assert res.report.residuals["isometry_e"].sup < 1e-3


def _near_flat_sampled_metric(tmp_path):
    """file: spec of the sampled metric G = 1 + 0.02 u on a 41^2 lattice."""
    path = tmp_path / "m.csv"
    n = 41
    us = np.linspace(-0.4, 0.4, n)
    vs = np.linspace(-0.4, 0.4, n)
    with open(path, "w") as fh:
        fh.write("ubar,vbar,G\n")
        for u in us:
            for v in vs:
                fh.write(f"{u:.17g},{v:.17g},{1.0 + 0.02 * u:.17g}\n")
    return f"file:{path}"


def test_sampled_metric_pipeline(tmp_path):
    # near-flat sampled metric through the whole pipeline; curvature gate
    # is reported only (no analytic reference for file metrics)
    cfg = RunConfig(metric=_near_flat_sampled_metric(tmp_path), n_u=101, n_v=101)
    res = run_pipeline(cfg)
    assert "curvature_stencil" not in res.report.verdicts
    assert res.report.residuals["pde_f"].sup < 1e-6
    assert res.report.verdicts["rank_fraction"]


def test_sampled_metric_takes_no_curvature_field(tmp_path, monkeypatch):
    # without a closed-form K the stencil check has nothing to compare, so
    # no curvature field is computed; the report is the one taken without
    # the counter
    cfg = RunConfig(metric=_near_flat_sampled_metric(tmp_path), n_u=51, n_v=51)
    plain = run_pipeline(cfg).report.to_json_dict()
    calls = []

    def counted(metric, grid):
        calls.append("closed form")
        return curvature_field(metric, grid)

    def counted_fd(gbar):
        calls.append("fd")
        return curvature_from_samples(gbar)

    monkeypatch.setattr(pipeline, "curvature_field", counted)
    monkeypatch.setattr(pipeline, "curvature_from_samples", counted_fd)
    res = run_pipeline(cfg)
    assert calls == []
    assert res.report.to_json_dict() == plain
    stencil = res.report.residuals["curvature_stencil"]
    assert np.isnan(stencil.sup) and not stencil.gated


# cos2 takes one RK4 substep per level, flat at 21 v-lines six
@pytest.mark.parametrize("cfg", [RunConfig(metric="cos2", v_half=0.03), RunConfig(n_v=21)],
                         ids=["cos2", "flat_substeps"])
def test_run_evaluates_the_metric_once_per_point(cfg, monkeypatch):
    # G is sampled once on the whole solve grid and never on a block of it,
    # the march evaluates sqrt(G) only at stage points off the grid levels
    # (the midpoints, and the ends of substeps that split a level), and the
    # closed-form K is evaluated once
    shapes, sqrt_calls, k_calls = [], [], []

    def counting_metric(*args, **kwargs):
        m = make_metric(*args, **kwargs)
        g_fn, sqrt_g, k_fn = m.g_fn, m.sqrt_g, m.curvature_fn

        def counted_g(u, v):
            shapes.append(np.shape(u))
            return g_fn(u, v)

        def counted_sqrt(u, v):
            sqrt_calls.append(v)
            return sqrt_g(u, v)

        def counted_k(u, v):
            k_calls.append(np.shape(u))
            return k_fn(u, v)

        m.g_fn, m.sqrt_g, m.curvature_fn = counted_g, counted_sqrt, counted_k
        return m

    monkeypatch.setattr(pipeline, "make_metric", counting_metric)
    res = run_pipeline(cfg)
    grid_shape = (cfg.n_u, cfg.n_v)
    assert [s for s in shapes if len(s) == 2] == [grid_shape]
    levels = set(res.grid.v_coords.tolist())
    assert not levels.intersection(sqrt_calls)
    steps = res.report.meta["solver_steps"]
    if cfg.n_v == 21:
        # six substeps a level: each substep's midpoint, and the starts and
        # ends inside the level
        assert steps < len(sqrt_calls) < 3 * steps
    else:
        assert len(sqrt_calls) == steps
    assert k_calls == [grid_shape]


def test_cos2_801_run_calls_metric_eval_1602_times(monkeypatch):
    # one sampling of the grid, one midpoint per RK4 substep of the two
    # marches (one substep a level: 2 x 800 levels) and the Jacobian
    # oracle's initial row; every grid-level stage point reads the samples
    counts = {"march": 0, "other": 0}
    marching = False
    real_eval = GeodesicMetric2D.eval
    real_march = ivp._march

    def counted_eval(self, u, v):
        counts["march" if marching else "other"] += 1
        return real_eval(self, u, v)

    def counted_march(*args, **kwargs):
        nonlocal marching
        marching = True
        try:
            return real_march(*args, **kwargs)
        finally:
            marching = False

    monkeypatch.setattr(GeodesicMetric2D, "eval", counted_eval)
    monkeypatch.setattr(ivp, "_march", counted_march)
    res = run_pipeline(RunConfig(metric="cos2", v_half=0.03, n_u=801, n_v=801))
    assert res.passed
    assert res.report.meta["solver_steps"] == 1600
    assert counts == {"march": 1600, "other": 2}


def test_nonpositive_sampled_metric_refused(tmp_path):
    path = tmp_path / "m.csv"
    n = 21
    coords = np.linspace(-0.4, 0.4, n)
    with open(path, "w") as fh:
        fh.write("ubar,vbar,G\n")
        for u in coords:
            for v in coords:
                g = 1e-12 if (abs(u) < 0.03 and abs(v) < 0.03) else 1.0
                fh.write(f"{u:.17g},{v:.17g},{g:.17g}\n")
    cfg = RunConfig(metric=f"file:{path}", n_u=51, n_v=51)
    with pytest.raises(NonPositiveMetric):
        run_pipeline(cfg)


def test_chart_grid_covers_certified_image(flat_run):
    grid = chart_grid_for(flat_run.pc, flat_run.config)
    sel = flat_run.pc.certified
    u_img = flat_run.pc.f.values[sel]
    v_img = flat_run.pc.g.values[sel]
    assert grid.u0 < u_img.min() and grid.u_max > u_img.max()
    assert grid.v0 < v_img.min() and grid.v_max > v_img.max()


def test_example_cos2_chart_is_the_configured_grid():
    # the fitted profile of the shipped example is differenced on the
    # configured chart grid itself: no refinement, and the lift identity
    # still holds at lift_tol
    cfg = example_cos2_config()
    res = run_pipeline(cfg)
    grid = chart_grid_for(res.pc, cfg)
    assert (grid.nu, grid.nv) == (cfg.chart_n_u, cfg.chart_n_v) == (401, 401)
    assert res.chart.grid == grid
    assert res.report.verdicts["lift_identity"]
    assert res.report.residuals["lift_identity"].sup < 1e-3 * cfg.tolerances.lift_tol


@pytest.mark.parametrize("metric", ["cos2", "exp"])
def test_isometry_e_is_the_compatibility_gap(metric):
    # E of the composite is f_u^2 + g_u^2 (G0 + 1) at the image node, while
    # the solved system has f_u^2 + g_u^2 G = 1; so |E - 1| = g_u^2 |dG| up
    # to the stencil error of the composite's metric, which must stay a
    # negligible share of the gated E residual
    res = run_pipeline(RunConfig(metric=metric, v_half=0.03))
    gu = res.pc.derivs[2]
    shared = res.iso.e_res.mask & res.dg.mask
    e_sup = np.max(res.iso.e_res.values[shared])
    gap_sup = np.max((res.dg.values * gu**2)[shared])
    assert e_sup == pytest.approx(gap_sup, rel=1e-4)
    assert res.report.residuals["isometry_e"].sup == e_sup


def test_composite_does_not_depend_on_the_chart_grid():
    # the composite and dG are evaluated from the chart's generator, so the
    # chart grid's resolution moves none of their bits
    runs = [run_pipeline(RunConfig(metric="cos2", v_half=0.03, chart_n_u=n, chart_n_v=n))
            for n in (101, 401)]
    coarse, fine = runs
    assert coarse.chart.grid.nu == 101 and fine.chart.grid.nu == 401
    assert np.array_equal(coarse.composite.mask, fine.composite.mask)
    assert np.array_equal(coarse.composite.position, fine.composite.position, equal_nan=True)
    assert np.array_equal(coarse.dg.values, fine.dg.values, equal_nan=True)
    for name in ("isometry_e", "isometry_f", "isometry_g", "compat_dG"):
        a, b = coarse.report.residuals[name], fine.report.residuals[name]
        assert (a.sup, a.mean) == (b.sup, b.mean)


@pytest.mark.parametrize("run", ["flat_run", "cos2_run"])
def test_lift_regular_matches_the_node_mask(run, request):
    res = request.getfixturevalue(run)
    grid, x, y = res.chart.grid, res.chart.x.values, res.chart.y.values
    xu, yu = first_derivative_4(x, grid.du, 0), first_derivative_4(y, grid.du, 0)
    xv, yv = first_derivative_4(x, grid.dv, 1), first_derivative_4(y, grid.dv, 1)
    e, f, g = xu * xu + yu * yu, xu * xv + yu * yv, xv * xv + yv * yv + 1.0
    assert res.report.meta["lift_eg_f2_min"] == np.min(e * g - f**2)
    regular = regularity_check(*(ScalarField2D(res.chart.grid, a) for a in (e, f, g)),
                               tol=1.0 - 1e-9)
    assert res.report.verdicts["lift_regular"] == bool(regular.all())


def test_masked_count_matches_certificate(flat_run):
    total = flat_run.grid.nu * flat_run.grid.nv
    assert flat_run.report.masked_count == total - flat_run.pc.certified.sum()


def test_each_sampled_field_is_differenced_once(monkeypatch):
    # the solver owns the stencils of f and g (4 passes on the 201x201
    # solve grid; the other 6 are the composite's metric, and nothing else
    # differences the solve grid) and one 4th-order differencing of the
    # 401x401 chart serves its checks and the lift, whose height is never
    # differenced
    passes = Counter()
    chart_passes = Counter()
    first_derivative = fields._masked_first_derivative
    first_derivative_4 = fields.first_derivative_4

    def counted(values, mask, h, axis):
        passes[values.shape] += 1
        return first_derivative(values, mask, h, axis)

    def counted_4(values, h, axis):
        chart_passes[np.shape(values)] += 1
        return first_derivative_4(values, h, axis)

    monkeypatch.setattr(fields, "_masked_first_derivative", counted)
    for name, module in list(sys.modules.items()):
        if name.startswith("isoembed") and hasattr(module, "first_derivative_4"):
            monkeypatch.setattr(module, "first_derivative_4", counted_4)
    run_pipeline(RunConfig())
    assert chart_passes == {(401, 401): 4}
    assert passes == {(201, 201): 10}

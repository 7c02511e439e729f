from collections import Counter

import numpy as np
import pytest

from isoembed import fields, plane, surface
from isoembed.config import RunConfig, example_cos2_config
from isoembed.errors import NonPositiveMetric
from isoembed.pipeline import chart_grid_for, run_pipeline
from isoembed.plane import chart_differences
from isoembed.surface import lift_metric, regularity_check


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
    # a C^1-only base curve kinks the chart: the analytic identities still
    # gate, the stencil F/G comparisons fall under the s0 tolerance, and
    # the full numeric triple stays visible in the metadata
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
    assert res.report.residuals["s0_analytic"].sup < 1e-8


def test_exp_metric_with_documented_gates():
    cfg = RunConfig(metric="exp", v_half=0.03)
    cfg.tolerances.jacobian_oracle_tol = 2e-3
    cfg.tolerances.g_match_rel_tol = 1e-4
    res = run_pipeline(cfg)
    assert res.passed
    assert res.report.residuals["isometry_e"].sup < 1e-3


def test_sampled_metric_pipeline(tmp_path):
    # near-flat sampled metric through the whole pipeline; curvature gate
    # is reported only (no analytic reference for file metrics)
    path = tmp_path / "m.csv"
    n = 41
    us = np.linspace(-0.4, 0.4, n)
    vs = np.linspace(-0.4, 0.4, n)
    with open(path, "w") as fh:
        fh.write("ubar,vbar,G\n")
        for u in us:
            for v in vs:
                fh.write(f"{u:.17g},{v:.17g},{1.0 + 0.02 * u:.17g}\n")
    cfg = RunConfig(metric=f"file:{path}", n_u=101, n_v=101)
    res = run_pipeline(cfg)
    assert "curvature_stencil" not in res.report.verdicts
    assert res.report.residuals["pde_f"].sup < 1e-6
    assert res.report.verdicts["rank_fraction"]


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
    # to the chart's interpolation and stencil error, which must stay a
    # negligible share of the gated E residual
    res = run_pipeline(RunConfig(metric=metric, v_half=0.03))
    gu = res.pc.derivs[2]
    shared = res.iso.e_res.mask & res.dg.mask
    e_sup = np.max(res.iso.e_res.values[shared])
    gap_sup = np.max((res.dg.values * gu**2)[shared])
    assert e_sup == pytest.approx(gap_sup, rel=1e-3)
    assert res.report.residuals["isometry_e"].sup == e_sup


@pytest.mark.parametrize("run", ["flat_run", "cos2_run"])
def test_lift_regular_matches_the_node_mask(run, request):
    res = request.getfixturevalue(run)
    e, f, g = lift_metric(res.chart, chart_differences(res.chart))
    assert res.report.meta["lift_eg_f2_min"] == np.min(e.values * g.values - f.values**2)
    regular = regularity_check(e, f, g, tol=1.0 - 1e-9)
    assert res.report.verdicts["lift_regular"] == bool(regular.all())


def test_masked_count_matches_certificate(flat_run):
    total = flat_run.grid.nu * flat_run.grid.nv
    assert flat_run.report.masked_count == total - flat_run.pc.certified.sum()


def test_each_sampled_field_is_differenced_once(monkeypatch):
    # the solver owns the stencils of f and g (4 one-sided passes on the
    # 201x201 solve grid; the other 6 are the composite's metric) and one
    # 4th-order differencing of the 401x401 chart serves its checks and the
    # lift
    passes = Counter()
    chart_passes = Counter()
    first_derivative = fields._masked_first_derivative
    first_derivative_4 = fields.first_derivative_4

    def counted(values, mask, h, axis, one_sided=True):
        passes[values.shape, one_sided] += 1
        return first_derivative(values, mask, h, axis, one_sided=one_sided)

    def counted_4(values, h, axis):
        chart_passes[np.shape(values)] += 1
        return first_derivative_4(values, h, axis)

    monkeypatch.setattr(fields, "_masked_first_derivative", counted)
    for module in (plane, surface):
        monkeypatch.setattr(module, "first_derivative_4", counted_4)
    run_pipeline(RunConfig())
    assert chart_passes[401, 401] == 4
    assert not any(shape == (401, 401) for shape, _ in passes)
    assert passes[(201, 201), True] == 10

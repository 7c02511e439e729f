import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import param_change_of
from isoembed.fields import Grid2D, ScalarField2D
from isoembed.metric import make_metric
from isoembed.plane import build_chart, make_base_curve
from isoembed.report import (
    CSV_COLUMNS,
    NodeTable,
    ResidualStat,
    VerificationReport,
    compatibility_residual,
    isometry_residual,
    write_report,
)
from isoembed.surface import compose, lift


def test_identity_control_triple_is_tiny():
    # lifted straight chart composed with the identity change, against the
    # lift's metric (1, 0, G0 + 1): the residual triple vanishes to rounding
    chart = build_chart(make_base_curve("line"), Grid2D.centered(0.1, 0.1, 101, 101))
    s = lift(chart)
    pc = param_change_of(chart.grid)
    comp = compose(s, pc)
    iso = isometry_residual(comp, ScalarField2D(comp.grid, chart.g0.values + 1.0))
    sups = iso.sups()
    assert max(sups) < 1e-10


def test_wrong_metric_detected():
    chart = build_chart(make_base_curve("line"), Grid2D.centered(0.1, 0.1, 101, 101))
    s = lift(chart)
    pc = param_change_of(chart.grid)
    comp = compose(s, pc)
    cos2 = make_metric("cos2").sample(comp.grid)
    # the lift of a unit-speed chart has G = 2; against cos2's G + 1 the
    # residual is sup|cos^2(u) - 1| ~ u_max^2 over the box
    iso = isometry_residual(comp, ScalarField2D(comp.grid, cos2.values + 1.0))
    g_sup = iso.sups()[2]
    assert g_sup > 5e-3
    assert g_sup == pytest.approx(1.0 - np.cos(0.1) ** 2, rel=0.05)


def test_compatibility_residual_flat_line_chart(flat_run):
    # unit-speed straight chart carries G0 = 1, the solved coefficient is
    # 99: the honest gap is 99 - (1 + 1) = 97
    chart = build_chart(make_base_curve("line"),
                        Grid2D(u0=-0.2, v0=-0.2, du=0.002, dv=0.002, nu=201, nv=201))
    dg = compatibility_residual(flat_run.sys_report.g_val, chart, flat_run.pc)
    vals = dg.values[dg.mask]
    assert np.allclose(vals, 97.0, atol=1e-6)


def test_compatibility_residual_exact_match(flat_run):
    # a synthetic coefficient built as G0 + 1 along the image zeroes dG
    pc = flat_run.pc
    chart = flat_run.chart
    src = chart.source
    g0_img = (src.speed(pc.g.values) + src.slope(pc.g.values) * pc.f.values) ** 2
    grid = flat_run.grid
    synth = ScalarField2D(grid, g0_img + 1.0, mask=pc.certified)
    dg = compatibility_residual(synth, chart, pc)
    assert dg.sup() < 1e-12


def test_residual_stat_verdicts():
    s = ResidualStat(1e-5, tol=1e-4, gated=True)
    assert s.passed is True
    s2 = ResidualStat(1e-3, tol=1e-4, gated=True)
    assert s2.passed is False
    s3 = ResidualStat(1e-3)
    assert s3.passed is None


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-12, 1e2), st.floats(1e-12, 1e2), st.floats(1.0, 1e3))
def test_verdicts_monotone_in_tolerance(sup, tol, widen):
    tight = ResidualStat(sup, tol=tol, gated=True)
    loose = ResidualStat(sup, tol=tol * widen, gated=True)
    if tight.passed:
        assert loose.passed  # loosening never flips pass -> fail


def _tiny_report(grid):
    vals = ScalarField2D.constant(grid, 0.5)
    hole = vals.mask.copy()
    hole[0, 0] = False
    masked = ScalarField2D(grid, vals.values, mask=hole)
    table = NodeTable(grid=grid, f=masked, g=masked, jac=masked, e_res=masked,
                      f_res=masked, g_res=masked, aug_det=masked, dg=masked)
    rep = VerificationReport(
        meta={"case": "tiny"},
        residuals={"demo": ResidualStat(0.5, 0.5, tol=1.0, gated=True)},
        verdicts={"demo": True},
        masked_count=1,
    )
    return rep, table


def test_write_report_files(tmp_path):
    grid = Grid2D.centered(0.1, 0.1, 3, 3)
    rep, table = _tiny_report(grid)
    jp = tmp_path / "rep.json"
    cp = tmp_path / "res.csv"
    write_report(rep, str(jp), str(cp), table)
    doc = json.loads(jp.read_text())
    assert doc["schema_version"] == "1"
    assert set(doc) == {"schema_version", "meta", "residuals", "verdicts", "masked_count"}
    lines = cp.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 9
    # masked node row carries NA in every value column
    first = lines[1].split(",")
    assert first[2:] == ["NA"] * 8
    assert "NA" not in lines[-1]


def test_write_report_deterministic(tmp_path):
    grid = Grid2D.centered(0.1, 0.1, 3, 3)
    rep, table = _tiny_report(grid)
    p1, c1 = tmp_path / "a.json", tmp_path / "a.csv"
    p2, c2 = tmp_path / "b.json", tmp_path / "b.csv"
    write_report(rep, str(p1), str(c1), table)
    write_report(rep, str(p2), str(c2), table)
    assert p1.read_bytes() == p2.read_bytes()
    assert c1.read_bytes() == c2.read_bytes()


def test_report_residuals_nonnegative(flat_run):
    for name in ("isometry_e", "isometry_f", "isometry_g", "compat_dG"):
        stat = flat_run.report.residuals[name]
        assert stat.sup >= 0.0


def test_composite_pipeline_residual_fields_nonnegative(flat_run):
    for fld in (flat_run.iso.e_res, flat_run.iso.f_res, flat_run.iso.g_res):
        assert np.nanmin(fld.values[fld.mask]) >= 0.0


def test_flat_report_keys_are_pinned(flat_run, tmp_path):
    # a reported check added or removed shows up as an edit of these sets
    path = tmp_path / "report.json"
    write_report(flat_run.report, str(path), None)
    doc = json.loads(path.read_text())
    assert set(doc["residuals"]) == {
        "pde_f", "pde_g", "jacobian_oracle_rel", "aug_det", "pullback_rows", "e_val_dev",
        "g_match_rel_interior", "g_match_rel_full", "s0_numeric", "lift_identity",
        "curvature_stencil", "isometry_e", "isometry_f", "isometry_g", "compat_dG",
    }
    assert set(doc["verdicts"]) == {
        "metric_valid", "rank_fraction", "chart_injective", "lift_regular", "detector",
        "pde_f", "pde_g", "jacobian_oracle_rel", "pullback_rows", "e_val_dev",
        "g_match_rel_interior", "s0_numeric", "lift_identity", "curvature_stencil",
        "isometry_e", "isometry_f",
    }
    assert set(doc["meta"]) == {
        "config", "orientation", "certified_count", "composite_valid_count",
        "rank_ok_fraction", "lift_eg_f2_min", "chart_jacobian_min", "chart_smooth_source",
        "s0_numeric_triple", "solver_steps", "detector_hits", "detector_near_initial_u",
        "defect_locus", "g_cramer_center",
    }

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoembed.errors import BadParameter, FocalPoint, IoFailure
from isoembed.fields import Grid2D
from isoembed.plane import (
    BaseCurve,
    ChartProfile,
    build_chart,
    chart_jacobian_min,
    fit_chart_profile,
    load_polyline_curve,
    make_base_curve,
    s0_residuals,
)


def chart_grid(u_half=0.1, v_half=0.2, n=81):
    return Grid2D.centered(u_half, v_half, n, n)


def test_line_chart_is_canonical():
    chart = build_chart(make_base_curve("line"), chart_grid())
    U, V = chart.grid.meshgrid()
    # (x, y) = c(v) + u n(v) = (v, u)
    assert np.allclose(chart.x.values, V, atol=1e-14)
    assert np.allclose(chart.y.values, U, atol=1e-14)
    assert np.allclose(chart.g0.values, 1.0, atol=1e-14)
    r = s0_residuals(chart, derivatives="numeric")
    assert max(r) < 1e-10


def test_circle_chart_g0():
    chart = build_chart(make_base_curve("circle:2"), chart_grid())
    # G0 = (1 - u/2)^2: at u = 0.1 this is 0.9025
    i = chart.grid.col_index_of_u(0.1)
    assert np.allclose(chart.g0.values[i, :], 0.9025, atol=1e-12)
    r_ana = s0_residuals(chart, derivatives="analytic")
    assert max(r_ana) < 1e-12
    r_num = s0_residuals(chart, derivatives="numeric")
    assert max(r_num) < 1e-4


def test_circle_g0_matches_ruling_formula():
    curve = make_base_curve("circle:2")
    chart = build_chart(curve, chart_grid(u_half=0.1, v_half=0.1, n=201))
    U, V = chart.grid.meshgrid()
    xv = chart.x.d_v().values
    yv = chart.y.d_v().values
    g0_fd = xv**2 + yv**2
    assert np.nanmax(np.abs(g0_fd - (1.0 - U / 2.0) ** 2)) < 1e-6


def test_unit_speed_and_curvature_sign():
    for spec, kappa in (("line", 0.0), ("circle:2", 0.5), ("kinked:1", None)):
        curve = make_base_curve(spec)
        vs = np.linspace(-0.2, 0.2, 41)
        assert curve.check_unit_speed(vs)
        if kappa is not None:
            assert np.allclose(curve.curvature(vs), kappa)
    # counterclockwise circles carry positive curvature
    assert make_base_curve("circle:3").curvature(0.1) > 0


def test_kinked_chart_curvature_jump():
    curve = make_base_curve("kinked:1")
    assert curve.regularity == "c1_only"
    assert curve.curvature(-1e-6) == 0.0
    assert curve.curvature(1e-6) == 1.0
    chart = build_chart(curve, chart_grid(u_half=0.1, v_half=0.2, n=201))
    r = s0_residuals(chart, derivatives="analytic")
    assert max(r[:2]) < 1e-12  # E0, F0 identities hold across the kink
    # G0 has a kink along v = 0: one-sided v-slopes differ there
    g0 = chart.g0.values
    j0 = chart.grid.row_index_of_v(0.0)
    dv = chart.grid.dv
    right = (g0[:, j0 + 1] - g0[:, j0]) / dv
    left = (g0[:, j0] - g0[:, j0 - 1]) / dv
    assert np.max(np.abs(right - left)) > 0.1


def test_focal_point_raises():
    with pytest.raises(FocalPoint):
        build_chart(make_base_curve("circle:0.05"), chart_grid(u_half=0.1))


def test_bad_curve_specs():
    for spec in ("helix", "circle:-1", "circle:abc", "kinked:", "circle:nan", "circle:inf"):
        with pytest.raises(BadParameter):
            make_base_curve(spec)


def test_perturbed_chart_fails_identities():
    chart = build_chart(make_base_curve("line"), chart_grid())
    rng = np.random.default_rng(3)
    chart.y.values += 1e-3 * rng.standard_normal(chart.y.values.shape)
    r1, r2, _ = s0_residuals(chart, derivatives="numeric")
    assert r1 > 1e-4 and r2 > 1e-4


def test_nonunit_tangent_fails_analytic_identities():
    # a tangent of speed 1.001 breaks E0 = 1 by 2e-3 in the closed-form route
    line = make_base_curve("line")
    fast = BaseCurve(name="fast", point=line.point, curvature=line.curvature,
                     tangent=lambda v: tuple(1.001 * t for t in line.tangent(v)))
    chart = build_chart(fast, chart_grid())
    assert s0_residuals(chart, derivatives="analytic")[0] > 1e-3


def test_chart_jacobian_positive():
    chart = build_chart(make_base_curve("circle:2"), chart_grid())
    assert chart_jacobian_min(chart) > 0.9  # sqrt(G0) stays near 1 here


def test_profile_matches_circle():
    # speed 1, slope -kappa reproduces the unit-speed circle chart
    r = 2.0
    prof = ChartProfile.constant(1.0, -1.0 / r)
    grid = chart_grid()
    chart_p = build_chart(prof, grid)
    chart_c = build_chart(make_base_curve(f"circle:{r}"), grid)
    assert np.nanmax(np.abs(chart_p.g0.values - chart_c.g0.values)) < 1e-12
    # positions agree up to quadrature accuracy
    assert np.nanmax(np.abs(chart_p.x.values - chart_c.x.values)) < 1e-10
    assert np.nanmax(np.abs(chart_p.y.values - chart_c.y.values)) < 1e-10


def test_fit_recovers_exact_profile():
    rng = np.random.default_rng(11)
    u = rng.uniform(-0.1, 0.1, 4000)
    v = rng.uniform(-0.02, 0.02, 4000)
    a_true = 3.0 + 5.0 * v
    b_true = 0.4 - 2.0 * v
    target = (a_true + b_true * u) ** 2 + 1.0
    prof = fit_chart_profile(u, v, target)
    vs = np.linspace(-0.02, 0.02, 7)
    us = np.linspace(-0.1, 0.1, 5)
    for vv in vs:
        for uu in us:
            w_fit = prof.speed(vv) + prof.slope(vv) * uu
            w_true = (3.0 + 5.0 * vv) + (0.4 - 2.0 * vv) * uu
            assert w_fit == pytest.approx(w_true, abs=1e-8)


def test_fit_flat_target_gives_constant_speed():
    rng = np.random.default_rng(5)
    u = rng.uniform(-0.1, 0.1, 1000)
    v = rng.uniform(-0.01, 0.01, 1000)
    prof = fit_chart_profile(u, v, np.full(1000, 99.0))
    assert prof.speed(0.0) == pytest.approx(np.sqrt(98.0), abs=1e-9)
    assert abs(prof.slope(0.0)) < 1e-9


def test_fit_floors_targets_below_one():
    u = np.linspace(-0.1, 0.1, 100)
    v = np.zeros(100)
    prof = fit_chart_profile(u, v, np.full(100, 0.5))
    assert prof.speed(0.0) >= 0.0  # floored, no NaN


def test_profile_focal_point():
    prof = ChartProfile.constant(0.05, -1.0)
    with pytest.raises(FocalPoint):
        build_chart(prof, chart_grid(u_half=0.1))


def test_polyline_curve(tmp_path):
    # quarter arc sampled finely, deliberately non-unit parametrization
    t = np.linspace(0.0, 1.0, 4001)
    x = 2.0 * np.sin(t)
    y = 2.0 * (1.0 - np.cos(t))
    p = tmp_path / "curve.csv"
    with open(p, "w") as fh:
        fh.write("v,x,y\n")
        for tt, xx, yy in zip(t, x, y):
            fh.write(f"{tt:.17g},{xx:.17g},{yy:.17g}\n")
    curve = load_polyline_curve(str(p))
    vs = np.linspace(-0.3, 0.3, 21)
    assert curve.check_unit_speed(vs, tol=1e-6)
    # curvature of the radius-2 circle
    assert np.allclose(curve.curvature(vs), 0.5, atol=1e-3)
    chart = build_chart(curve, chart_grid(u_half=0.05, v_half=0.25, n=61))
    r = s0_residuals(chart, derivatives="numeric")
    assert max(r[:2]) < 1e-4


def test_polyline_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(IoFailure):
        load_polyline_curve(str(p))
    for rows in ("0,1\n", "0,1,y\n"):
        p.write_text("v,x,y\n" + rows)
        with pytest.raises(BadParameter, match="malformed polyline row"):
            load_polyline_curve(str(p))
    p.write_text("")
    with pytest.raises(IoFailure, match="expected header"):
        load_polyline_curve(str(p))


@settings(max_examples=20, deadline=None)
@given(st.floats(0.5, 5.0), st.floats(0.01, 0.08))
def test_circle_chart_identities_property(radius, u_half):
    chart = build_chart(make_base_curve(f"circle:{radius}"),
                        chart_grid(u_half=u_half, v_half=0.1, n=41))
    r = s0_residuals(chart, derivatives="analytic")
    assert max(r) < 1e-10

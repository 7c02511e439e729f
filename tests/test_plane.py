import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import closed_form_differences, closed_form_identities
from isoembed.config import Tolerances
from isoembed.errors import BadParameter, FocalPoint, IoFailure
from isoembed.fields import Grid2D, first_derivative_4
from isoembed.plane import (
    BaseCurve,
    ChartProfile,
    build_chart,
    chart_checks,
    fit_chart_profile,
    load_polyline_curve,
    make_base_curve,
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
    r, _, _ = chart_checks(chart)
    assert max(r) < 1e-10


@pytest.mark.parametrize("source", [
    make_base_curve("circle:2"),
    ChartProfile(a_coeffs=np.array([1.0, 0.3, -0.2]), b_coeffs=np.array([-0.5, 0.8, 0.4])),
], ids=["circle:2", "profile"])
def test_chart_stencils_are_fourth_order(source):
    # halving dv must cut the stencil error of (x_v, y_v) against the closed
    # form by 2^4, on interior v-lines and on the two one-sided lines at each
    # end alike; u-lines are straight, so (x_u, y_u) are exact to rounding
    errs = []
    for nv in (21, 41, 81):
        chart = build_chart(source, Grid2D.centered(0.1, 0.5, 9, nv))
        g = chart.grid
        got = (first_derivative_4(chart.x.values, g.du, 0),
               first_derivative_4(chart.y.values, g.du, 0),
               first_derivative_4(chart.x.values, g.dv, 1),
               first_derivative_4(chart.y.values, g.dv, 1))
        want = closed_form_differences(chart)
        assert max(np.max(np.abs(a - b)) for a, b in zip(got[:2], want[:2])) < 1e-13
        err = np.maximum(np.abs(got[2] - want[2]), np.abs(got[3] - want[3])).max(axis=0)
        errs.append((err[2:-2].max(), err[[0, 1, -2, -1]].max()))
    order = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all((order >= 3.7) & (order <= 4.3)), order


def test_circle_chart_g0():
    chart = build_chart(make_base_curve("circle:2"), chart_grid())
    # G0 = (1 - u/2)^2: at u = 0.1 this is 0.9025
    i = chart.grid.col_index_of_u(0.1)
    assert np.allclose(chart.g0.values[i, :], 0.9025, atol=1e-12)
    assert max(closed_form_identities(chart)) < 1e-12
    r_num, _, _ = chart_checks(chart)
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
        assert np.allclose(np.hypot(*curve.tangent(vs)), 1.0, rtol=0, atol=1e-8)
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
    r = closed_form_identities(chart)
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
    (r1, r2, _), _, _ = chart_checks(chart)
    assert r1 > 1e-4 and r2 > 1e-4


def test_nonunit_tangent_fails_analytic_identities():
    # a tangent of speed 1.001 breaks E0 = 1 by 1.001^2 - 1 = 2.001e-3; the
    # stencil reads x_u exactly on the straight u-lines, so the lift gate
    # sees it at full size
    line = make_base_curve("line")
    fast = BaseCurve(name="fast", point=line.point, curvature=line.curvature,
                     tangent=lambda v: tuple(1.001 * t for t in line.tangent(v)))
    chart = build_chart(fast, chart_grid())
    (r1, _, _), _, _ = chart_checks(chart)
    assert r1 == pytest.approx(1.001**2 - 1.0, rel=1e-6)
    assert r1 > Tolerances().lift_tol


def test_chart_jacobian_positive():
    chart = build_chart(make_base_curve("circle:2"), chart_grid())
    _, jac_min, eg_f2_min = chart_checks(chart)
    assert jac_min > 0.9  # sqrt(G0) stays near 1 here
    # both minima have closed forms: |J| = sqrt(G0) and the lift's
    # EG - F^2 = 1 + G0
    g0_min = chart.g0.values.min()
    assert jac_min == pytest.approx(np.sqrt(g0_min), abs=1e-8)
    assert eg_f2_min == pytest.approx(1.0 + g0_min, abs=1e-8)


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


@pytest.mark.parametrize("speed, slope, v_center", [(0.05, -1.0, 0.0), (2.0, 0.7, 0.0),
                                                      (1.5, 0.0, 0.0), (0.3, -2.5, 0.04)])
def test_constant_profile_is_the_closed_form_arc(speed, slope, v_center):
    # A(v) = A, B(v) = B: c(v) = (A/B) (sin B(v - vc), cos B(v - vc) - 1),
    # and the line (A (v - vc), 0) when B = 0
    prof = ChartProfile.constant(speed, slope)
    prof.v_center = v_center
    vs = v_center + np.linspace(-0.6, 0.6, 241)
    x, y = prof.point(vs)
    t = vs - v_center
    if slope == 0.0:
        want_x, want_y = speed * t, np.zeros_like(t)
    else:
        want_x = speed / slope * np.sin(slope * t)
        want_y = speed / slope * (np.cos(slope * t) - 1.0)
    bound = 4 * np.finfo(float).eps * speed
    assert np.max(np.abs(x - want_x)) <= bound
    assert np.max(np.abs(y - want_y)) <= bound
    if slope == 0.0:
        assert np.all(y == 0.0)


def _mp_point(prof, v):
    """c(v) of a profile by 40-digit quadrature of A (cos theta, sin theta)
    from v_center, with A and theta evaluated exactly from the coefficients."""
    with mpmath.workdps(40):
        vc, sc = mpmath.mpf(prof.v_center), mpmath.mpf(prof.v_scale)
        a = [mpmath.mpf(c) for c in prof.a_coeffs]
        b = [mpmath.mpf(c) for c in prof.b_coeffs]

        def speed(t):
            vt = (t - vc) / sc
            return sum(c * vt**k for k, c in enumerate(a))

        def theta(t):
            vt = (t - vc) / sc
            return -sc * sum(c * vt ** (k + 1) / (k + 1) for k, c in enumerate(b))

        end = mpmath.mpf(float(v))
        x = mpmath.quad(lambda t: speed(t) * mpmath.cos(theta(t)), [vc, end])
        y = mpmath.quad(lambda t: speed(t) * mpmath.sin(theta(t)), [vc, end])
        return float(x), float(y)


@pytest.mark.parametrize("fixture_name", ["flat_run", "cos2_run"])
def test_fitted_profile_point_matches_a_40_digit_quadrature(fixture_name, request):
    run = request.getfixturevalue(fixture_name)
    prof = run.chart.source
    assert isinstance(prof, ChartProfile)
    # the chart's v-lines and every certified image in one call each, as
    # build_chart and compose ask for them; a sample of each is checked
    x, y, want = [], [], []
    for vs, stride in ((run.chart.grid.v_coords, 29), (run.pc.g.values[run.pc.certified], 4001)):
        px, py = prof.point(vs)
        x.append(px[::stride])
        y.append(py[::stride])
        want += [_mp_point(prof, v) for v in vs[::stride]]
    x, y, want = np.concatenate(x), np.concatenate(y), np.array(want)
    # |c| <= 0.12 here: 1e-16 is about 7 roundings
    assert np.max(np.abs(x - want[:, 0])) <= 1e-16
    assert np.max(np.abs(y - want[:, 1])) <= 1e-16


def test_profile_point_at_the_v_scale_floor_is_bounded():
    # every fitted point on one v-line: v_scale sits at its 1e-30 floor, and
    # the anchor table refuses to reach the chart's v-lines rather than
    # tabulate 1e24 anchors
    u = np.linspace(-0.1, 0.1, 100)
    prof = fit_chart_profile(u, np.zeros(100), np.full(100, 99.0))
    assert prof.v_scale == 1e-30
    x, y = prof.point(np.array([0.0]))
    assert (x[0], y[0]) == (0.0, 0.0)
    with pytest.raises(BadParameter):
        prof.point(np.array([1e-6]))
    with pytest.raises(BadParameter):
        build_chart(prof, Grid2D.centered(0.1, 1e-6, 11, 11))


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
    assert np.allclose(np.hypot(*curve.tangent(vs)), 1.0, rtol=0, atol=1e-6)
    # curvature of the radius-2 circle
    assert np.allclose(curve.curvature(vs), 0.5, atol=1e-3)
    chart = build_chart(curve, chart_grid(u_half=0.05, v_half=0.25, n=61))
    r, _, _ = chart_checks(chart)
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
    assert max(closed_form_identities(chart)) < 1e-10

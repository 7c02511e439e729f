import numpy as np
import pytest

from conftest import param_change_of
from isoembed import fields
from isoembed.errors import BadParameter, ImageOutsideChart
from isoembed.fields import Grid2D, ScalarField2D, first_derivative_4
from isoembed.plane import ChartProfile, build_chart, chart_checks, make_base_curve
from isoembed.surface import (
    compose,
    export_obj,
    induced_metric,
    lift,
    load_obj_positions,
    regularity_check,
)


def line_chart(n=81, u_half=0.1, v_half=0.2):
    return build_chart(make_base_curve("line"), Grid2D.centered(u_half, v_half, n, n))


def test_lift_of_line_chart_is_tilted_plane():
    chart = line_chart()
    s = lift(chart)
    U, V = chart.grid.meshgrid()
    assert np.allclose(s.position[:, :, 0], V)
    assert np.allclose(s.position[:, :, 1], U)
    assert np.array_equal(s.position[:, :, 2], V)  # third coordinate == v, exactly
    e, f, g = induced_metric(s)
    assert np.allclose(e.values[e.mask], 1.0, atol=1e-12)
    assert np.allclose(f.values[f.mask], 0.0, atol=1e-12)
    assert np.allclose(g.values[g.mask], 2.0, atol=1e-12)  # G0 + 1


def test_lift_circle_chart_g_value():
    chart = build_chart(make_base_curve("circle:2"), Grid2D.centered(0.1, 0.2, 81, 81))
    s = lift(chart)
    _, _, g = induced_metric(s)
    i = chart.grid.col_index_of_u(0.1)
    # G = G0 + 1 = (1 - 0.05)^2 + 1
    assert np.allclose(g.values[i, 1:-1], 1.9025, atol=1e-6)


def test_lift_identity_and_regularity():
    chart = build_chart(make_base_curve("circle:2"), Grid2D.centered(0.1, 0.1, 201, 201))
    s = lift(chart)
    e, f, g = induced_metric(s)
    dev = np.abs(g.values - (chart.g0.values + 1.0))
    assert np.nanmax(dev[g.mask]) < 1e-6
    det = e.values * g.values - f.values**2
    assert np.nanmin(det[e.mask]) >= 1.0 - 1e-9  # EG - F^2 >= 1
    assert regularity_check(e, f, g).sum() == e.mask.sum()


@pytest.mark.parametrize("spec", ["line", "circle:2", "kinked:1"])
def test_lift_metric_from_chart_differences_matches_differenced_lift(spec):
    # the pipeline forms the lift's metric from the chart's differences
    # with z_u = 0 and z_v = 1 exact; the 4th-order stencils of all three
    # coordinates of lift(chart), one-sided edge rows included, must give
    # the same identity triple and the same min(EG - F^2)
    chart = build_chart(make_base_curve(spec), Grid2D.centered(0.1, 0.2, 41, 57))
    grid = chart.grid
    pos = lift(chart).position
    xu, yu, zu = (first_derivative_4(pos[:, :, k], grid.du, 0) for k in range(3))
    xv, yv, zv = (first_derivative_4(pos[:, :, k], grid.dv, 1) for k in range(3))
    e = xu * xu + yu * yu + zu * zu
    f = xu * xv + yu * yv + zu * zv
    g = xv * xv + yv * yv + zv * zv
    want = (np.max(np.abs(e - 1.0)), np.max(np.abs(f)),
            np.max(np.abs(g - (chart.g0.values + 1.0))))
    got, _, eg_f2_min = chart_checks(chart)
    assert np.max(np.abs(np.subtract(got, want))) < 1e-12
    assert eg_f2_min == pytest.approx(np.min(e * g - f * f), abs=1e-12)
    # and the closed form (1, 0, G0 + 1); a kinked chart's F and G are
    # checked only on v-lines whose stencils do not reach across the kink
    smooth = (np.abs(grid.v_coords) > 2.5 * grid.dv) | (chart.source.regularity == "analytic")
    assert np.max(np.abs(e - 1.0)) < 1e-12
    assert np.max(np.abs(f[:, smooth])) < 1e-8
    assert np.max(np.abs(g - (chart.g0.values + 1.0))[:, smooth]) < 1e-8


def _extrinsic_curvature(surface):
    """(LN - M^2) / (EG - F^2) of a fully valid surface by 4th-order stencils."""
    grid = surface.grid
    x = np.moveaxis(surface.position, 2, 0)
    xu = first_derivative_4(x, grid.du, 1)
    xv = first_derivative_4(x, grid.dv, 2)
    normal = np.cross(xu, xv, axis=0)
    normal /= np.linalg.norm(normal, axis=0)
    second = [(first_derivative_4(a, h, axis) * normal).sum(axis=0)
              for a, h, axis in ((xu, grid.du, 1), (xu, grid.dv, 2), (xv, grid.dv, 2))]
    l, m, n = second
    e, f, g = (xu * xu).sum(axis=0), (xu * xv).sum(axis=0), (xv * xv).sum(axis=0)
    return (l * n - m * m) / (e * g - f * f)


@pytest.mark.parametrize("source", [
    make_base_curve("line"),
    make_base_curve("circle:2"),
    ChartProfile(a_coeffs=np.array([1.0, 0.3, -0.2]), b_coeffs=np.array([0.5, -0.4, 0.7])),
], ids=["line", "circle:2", "profile"])
def test_lift_is_ruled_with_nonpositive_curvature(source):
    # the lift (c(v) + u n(v), v) is ruled by its u-lines, so its Gauss
    # curvature is K = -B^2 / (1 + (A + B u)^2)^2 <= 0 whatever the chart:
    # no lifted chart carries a metric of positive curvature
    errs = []
    for n in (41, 81):
        chart = build_chart(source, Grid2D.centered(0.1, 0.2, n, n))
        vs = chart.grid.v_coords
        a, b = source.speed(vs), source.slope(vs)
        k_law = -(b**2) / (1.0 + (a + b * chart.grid.u_coords[:, None]) ** 2) ** 2
        k_ext = _extrinsic_curvature(lift(chart))
        assert np.all(k_law <= 0.0)
        errs.append(np.max(np.abs(k_ext - k_law)))
    assert max(errs) < 1e-8
    # stencil-limited charts converge at 4th order; the others sit at rounding
    assert errs[1] < errs[0] / 8 or max(errs) < 1e-10


def test_compose_identity_is_bit_exact():
    chart = line_chart()
    s = lift(chart)
    pc = param_change_of(chart.grid)
    comp = compose(s, pc)
    sel = comp.mask
    assert sel.sum() > 0
    assert np.array_equal(comp.position[sel], s.position[sel])


@pytest.mark.parametrize("node_block", [None, 7 * 41 + 5])
def test_compose_on_a_circle_chart_is_the_closed_form(node_block, monkeypatch):
    # the lifted circle:R chart composed with a non-identity change is
    # (R sin(g/R) - f sin(g/R), R (1 - cos(g/R)) + f cos(g/R), g), however
    # the solve grid is split into blocks
    if node_block is not None:
        monkeypatch.setattr(fields, "NODE_BLOCK", node_block)
    r = 2.0
    s = lift(build_chart(make_base_curve(f"circle:{r}"), Grid2D.centered(0.3, 0.3, 21, 21)))
    pc = param_change_of(Grid2D.centered(0.1, 0.1, 41, 41),
                         lambda u, v: 0.8 * u + 0.3 * v, lambda u, v: 0.2 * u - 0.9 * v)
    comp = compose(s, pc)
    assert np.array_equal(comp.mask, pc.certified) and comp.mask.sum() > 0
    f, g = pc.f.values[comp.mask], pc.g.values[comp.mask]
    want = np.stack([r * np.sin(g / r) - f * np.sin(g / r),
                     r * (1.0 - np.cos(g / r)) + f * np.cos(g / r), g], axis=1)
    np.testing.assert_allclose(comp.position[comp.mask], want, rtol=0, atol=1e-15)
    assert np.isnan(comp.position[~comp.mask]).all()


@pytest.mark.parametrize("fixture_name", ["flat_run", "cos2_run"])
def test_compose_bits_do_not_depend_on_the_node_block(fixture_name, request, monkeypatch):
    # a fitted profile's base point integrates from fixed anchors, so the
    # composite is the same to the bit however the solve grid is blocked
    run = request.getfixturevalue(fixture_name)
    assert isinstance(run.chart.source, ChartProfile)
    runs = {}
    for node_block in (1000, 32768):
        monkeypatch.setattr(fields, "NODE_BLOCK", node_block)
        runs[node_block] = compose(run.lifted, run.pc)
    small, large = runs[1000], runs[32768]
    assert run.grid.nu * run.grid.nv > 1000 * 20  # many blocks against one or two
    assert np.array_equal(small.mask, large.mask)
    assert np.array_equal(small.position, large.position, equal_nan=True)
    assert np.array_equal(large.position, run.composite.position, equal_nan=True)


def test_compose_outside_chart_raises():
    chart = line_chart(u_half=0.05, v_half=0.05)
    s = lift(chart)
    big = Grid2D.centered(0.2, 0.2, 21, 21)
    pc = param_change_of(big)
    with pytest.raises(ImageOutsideChart) as err:
        compose(s, pc)
    assert err.value.nodes


def test_regularity_check_degenerate():
    grid = Grid2D.centered(0.1, 0.1, 5, 5)
    zero = ScalarField2D.constant(grid, 0.0)
    assert regularity_check(zero, zero, zero).sum() == 0


def test_obj_export_roundtrip(tmp_path):
    chart = line_chart(n=21)
    s = lift(chart)
    s.mask[0, 0] = False  # punch a hole to exercise the mask encoding
    path = tmp_path / "surf.obj"
    export_obj(s, str(path))
    lines = path.read_text().splitlines()
    n_verts = sum(1 for ln in lines if ln.startswith("v "))
    assert n_verts == 21 * 21  # every grid node gets a vertex slot
    pos, mask = load_obj_positions(str(path), 21, 21)
    assert mask is not None
    assert (mask == s.mask).all()
    assert np.array_equal(pos[s.mask], s.position[s.mask])
    # two triangles per fully valid cell; the corner hole kills one cell
    n_faces = sum(1 for ln in lines if ln.startswith("f "))
    assert n_faces == 2 * (20 * 20 - 1)


def test_obj_export_deterministic(tmp_path):
    chart = line_chart(n=15)
    s = lift(chart)
    p1 = tmp_path / "a.obj"
    p2 = tmp_path / "b.obj"
    export_obj(s, str(p1))
    export_obj(s, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_obj_vertex_count_mismatch(tmp_path):
    chart = line_chart(n=15)
    s = lift(chart)
    p = tmp_path / "s.obj"
    export_obj(s, str(p))
    with pytest.raises(BadParameter):
        load_obj_positions(str(p), 14, 15)
    with pytest.raises(BadParameter, match="expected 210 vertices, found 225"):
        load_obj_positions(str(p), 15, 14)

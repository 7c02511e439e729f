import numpy as np
import pytest

from conftest import param_change_of
from isoembed.errors import BadParameter, ImageOutsideChart
from isoembed.fields import Grid2D, ScalarField2D, first_derivative_4
from isoembed.plane import build_chart, chart_differences, make_base_curve
from isoembed.surface import (
    compose,
    embed_planar,
    export_obj,
    induced_metric,
    lift,
    lift_metric,
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
    # the one-pass route must reproduce the 4th-order stencils of the lift's
    # three coordinates to the bit, one-sided edge rows included (z_u there
    # is a rounded stencil of a u-constant, not a literal 0)
    chart = build_chart(make_base_curve(spec), Grid2D.centered(0.1, 0.2, 41, 57))
    grid = chart.grid
    pos = lift(chart).position
    xu, yu, zu = (first_derivative_4(pos[:, :, k], grid.du, 0) for k in range(3))
    xv, yv, zv = (first_derivative_4(pos[:, :, k], grid.dv, 1) for k in range(3))
    want = (xu * xu + yu * yu + zu * zu, xu * xv + yu * yv + zu * zv,
            xv * xv + yv * yv + zv * zv)
    got = lift_metric(chart, chart_differences(chart))
    for fld, values in zip(got, want):
        assert fld.mask.all()
        assert np.array_equal(fld.values, values)
    # and the closed form (1, 0, G0 + 1); a kinked chart's F and G are
    # checked only on v-lines whose stencils do not reach across the kink
    e, f, g = got
    smooth = (np.abs(grid.v_coords) > 2.5 * grid.dv) | (chart.source.regularity == "analytic")
    assert np.max(np.abs(e.values - 1.0)) < 1e-12
    assert np.max(np.abs(f.values[:, smooth])) < 1e-8
    assert np.max(np.abs(g.values - (chart.g0.values + 1.0))[:, smooth]) < 1e-8


def test_planar_embedding_metric():
    chart = line_chart()
    s = embed_planar(chart)
    assert np.all(s.position[:, :, 2] == 0.0)
    e, f, g = induced_metric(s)
    assert np.allclose(e.values[e.mask], 1.0, atol=1e-12)
    assert np.allclose(g.values[g.mask], 1.0, atol=1e-12)  # G0, no +1


def test_compose_identity_is_bit_exact():
    chart = line_chart()
    s = lift(chart)
    pc = param_change_of(chart.grid)
    comp = compose(s, pc)
    sel = comp.mask
    assert sel.sum() > 0
    assert np.array_equal(comp.position[sel], s.position[sel])


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

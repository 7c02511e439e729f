import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoembed.errors import GridTooSmall
from isoembed.fields import Grid2D, ScalarField2D, first_derivative_4


def test_grid_validation():
    with pytest.raises(GridTooSmall):
        Grid2D(0, 0, -1e-3, 1e-3, 10, 10)
    with pytest.raises(GridTooSmall):
        Grid2D(0, 0, 1e-3, 1e-3, 2, 10)


def test_centered_grid_endpoints():
    g = Grid2D.centered(0.1, 0.2, 11, 21)
    assert g.u_coords[0] == pytest.approx(-0.1)
    assert g.u_coords[-1] == pytest.approx(0.1)
    assert g.v_coords[0] == pytest.approx(-0.2)
    assert g.v_coords[-1] == pytest.approx(0.2)
    assert g.row_index_of_v(0.0) == 10
    assert g.col_index_of_u(0.0) == 5
    assert g.row_index_of_v(0.123) is None


def test_derivatives_exact_on_quadratics():
    g = Grid2D.centered(1.0, 1.0, 21, 21)
    fld = ScalarField2D.from_function(g, lambda u, v: 2.0 + 3.0 * u - 1.5 * v + 0.5 * u * u + u * v)
    U, V = g.meshgrid()
    du = fld.d_u().values
    dv = fld.d_v().values
    assert np.allclose(du, 3.0 + U + V, atol=1e-12)
    assert np.allclose(dv, -1.5 + U, atol=1e-12)
    duu = fld.d_uu().values
    assert np.allclose(duu, 1.0, atol=1e-10)


@pytest.mark.parametrize("axis", [0, 1])
def test_fourth_order_stencil_exact_on_quartics(axis):
    # every stencil row, central and one-sided, differentiates a degree-4
    # polynomial exactly; a wrong coefficient anywhere breaks this
    g = Grid2D.centered(1.0, 0.5, 9, 13)
    U, V = g.meshgrid()
    s, h = (U, g.du) if axis == 0 else (V, g.dv)
    p = 0.7 - 1.3 * s + 0.4 * s**2 + 2.1 * s**3 - 0.9 * s**4
    dp = -1.3 + 0.8 * s + 6.3 * s**2 - 3.6 * s**3
    assert np.max(np.abs(first_derivative_4(p + U * V, h, axis) - (dp + (V, U)[axis]))) < 1e-12


def test_fourth_order_stencil_needs_five_samples():
    with pytest.raises(GridTooSmall):
        first_derivative_4(np.zeros((4, 9)), 0.1, 0)


def test_masked_derivative_falls_back_one_sided():
    g = Grid2D.centered(1.0, 1.0, 21, 5)
    fld = ScalarField2D.from_function(g, lambda u, v: u**2)
    hole = fld.mask.copy()
    hole[10, :] = False
    fld2 = ScalarField2D(g, fld.values, mask=hole)
    du = fld2.d_u().values
    U, _ = g.meshgrid()
    # neighbors of the hole switch to one-sided stencils, still 2nd order
    assert np.isnan(du[10]).all()
    assert np.allclose(du[9], 2 * U[9], atol=1e-10)
    assert np.allclose(du[11], 2 * U[11], atol=1e-10)


def test_central_only_erodes():
    g = Grid2D.centered(1.0, 1.0, 9, 9)
    fld = ScalarField2D.from_function(g, lambda u, v: u + v)
    d = fld.d_u(one_sided=False)
    assert np.isnan(d.values[0]).all() and np.isnan(d.values[-1]).all()
    assert np.allclose(d.values[1:-1], 1.0)


def test_interp_node_exact_is_bit_exact():
    g = Grid2D.centered(0.5, 0.5, 11, 11)
    rng = np.random.default_rng(7)
    fld = ScalarField2D(g, rng.normal(size=(11, 11)))
    U, V = g.meshgrid()
    out, ok = fld.interp(U, V)
    assert ok.all()
    assert np.array_equal(out, fld.values)


def test_interp_reproduces_bilinear_functions():
    g = Grid2D.centered(0.5, 0.5, 11, 11)
    fld = ScalarField2D.from_function(g, lambda u, v: 1 + 2 * u - v + 3 * u * v)
    pts_u = np.array([0.013, -0.49, 0.5, -0.217])
    pts_v = np.array([-0.031, 0.22, -0.5, 0.499])
    out, ok = fld.interp(pts_u, pts_v)
    assert ok.all()
    assert np.allclose(out, 1 + 2 * pts_u - pts_v + 3 * pts_u * pts_v, atol=1e-12)


def test_interp_rejects_outside_and_nan():
    g = Grid2D.centered(0.5, 0.5, 11, 11)
    fld = ScalarField2D.constant(g, 1.0)
    out, ok = fld.interp(np.array([0.7, np.nan, 0.0]), np.array([0.0, 0.0, np.nan]))
    assert not ok[0] and not ok[1] and not ok[2]
    assert np.isnan(out[[0, 1, 2]]).all()


def test_interp_respects_mask():
    g = Grid2D.centered(0.5, 0.5, 11, 11)
    mask = np.ones((11, 11), dtype=bool)
    mask[5, 5] = False
    fld = ScalarField2D(g, np.ones((11, 11)), mask=mask)
    out, ok = fld.interp(np.array([0.01]), np.array([0.01]))  # cell touching (5,5)
    assert not ok[0]


@settings(max_examples=30, deadline=None)
@given(st.floats(-0.49, 0.49), st.floats(-0.49, 0.49), st.integers(0, 2**31 - 1))
def test_interp_stays_in_corner_hull(uq, vq, seed):
    g = Grid2D.centered(0.5, 0.5, 6, 6)
    rng = np.random.default_rng(seed)
    fld = ScalarField2D(g, rng.uniform(-1, 1, size=(6, 6)))
    out, ok = fld.interp(np.array([uq]), np.array([vq]))
    assert ok[0]
    assert fld.values.min() - 1e-12 <= out[0] <= fld.values.max() + 1e-12


def test_values_outside_mask_are_nan():
    g = Grid2D.centered(0.5, 0.5, 5, 5)
    mask = np.zeros((5, 5), dtype=bool)
    mask[2, 2] = True
    fld = ScalarField2D(g, np.full((5, 5), 3.0), mask=mask)
    assert np.isnan(fld.values[0, 0])
    assert fld.values[2, 2] == 3.0
    assert fld.sup() == 3.0

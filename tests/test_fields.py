from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_interp
from isoembed import fields
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


# query coordinates on the 11-line grid over [-0.5, 0.5]: anywhere inside
# or outside it, non-finite, on a grid line, or within and just beyond the
# snapping distance of one
GRID_LINE = st.integers(0, 10).map(lambda i: -0.5 + 0.1 * i)
QUERY = st.one_of(
    st.floats(-0.7, 0.7),
    st.sampled_from([np.nan, np.inf, -np.inf]),
    GRID_LINE,
    st.tuples(GRID_LINE, st.sampled_from([-2e-9, -1e-11, 1e-11, 2e-9]))
    .map(lambda t: t[0] + t[1]),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), block=st.integers(1, 6), seed=st.integers(0, 2**31 - 1),
       kind=st.sampled_from(["0-d", "1-d", "2-d", "1-d u, scalar v"]))
def test_interp_matches_the_whole_grid_reference(data, block, seed, kind):
    # the blocked interp against one whole-array pass, NaNs and all, with
    # a block of `block` queries so that counts fall on both sides of a
    # block boundary; masked corners come from random holes in the mask
    g = Grid2D.centered(0.5, 0.5, 11, 11)
    rng = np.random.default_rng(seed)
    fld = ScalarField2D(g, rng.normal(size=(11, 11)), mask=rng.random((11, 11)) > 0.2)
    if kind == "0-d":
        u, v = data.draw(QUERY), data.draw(QUERY)
    elif kind == "1-d u, scalar v":  # the sampled metric's g_fn(us, v)
        n = data.draw(st.integers(0, 3 * block + 1))
        u, v = np.array(data.draw(st.lists(QUERY, min_size=n, max_size=n))), data.draw(QUERY)
    else:
        shape = ((data.draw(st.integers(0, 3 * block + 1)),) if kind == "1-d"
                 else (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))))
        n = int(np.prod(shape))
        u, v = (np.array(data.draw(st.lists(QUERY, min_size=n, max_size=n))).reshape(shape)
                for _ in range(2))
    with mock.patch.object(fields, "NODE_BLOCK", block):
        out, ok = fld.interp(u, v)
    ref_out, ref_ok = reference_interp(fld, u, v)
    assert np.shape(out) == np.shape(ref_out) and np.shape(ok) == np.shape(ref_ok)
    assert np.array_equal(out, ref_out, equal_nan=True)
    assert np.array_equal(ok, ref_ok)


def test_node_blocks_cover_the_range_in_order(monkeypatch):
    monkeypatch.setattr(fields, "NODE_BLOCK", 10)
    assert list(fields.node_blocks(7, row_len=3)) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    # a row longer than a block still goes one row at a time
    assert list(fields.node_blocks(2, row_len=11)) == [slice(0, 1), slice(1, 2)]
    assert list(fields.node_blocks(20)) == [slice(0, 10), slice(10, 20)]
    assert list(fields.node_blocks(0)) == []


def test_values_outside_mask_are_nan():
    g = Grid2D.centered(0.5, 0.5, 5, 5)
    mask = np.zeros((5, 5), dtype=bool)
    mask[2, 2] = True
    fld = ScalarField2D(g, np.full((5, 5), 3.0), mask=mask)
    assert np.isnan(fld.values[0, 0])
    assert fld.values[2, 2] == 3.0
    assert fld.sup() == 3.0


# Reference: the earlier shift-copy implementation of the masked stencils,
# with its separate fully-valid fast paths. The padded-tap kernel must give
# the same bits, NaNs included, on every mask.
def _ref_shift(a, k, axis, fill):
    out = np.full_like(a, fill)
    src = [slice(None)] * a.ndim
    dst = [slice(None)] * a.ndim
    if k > 0:
        src[axis] = slice(0, a.shape[axis] - k)
        dst[axis] = slice(k, None)
    elif k < 0:
        src[axis] = slice(-k, None)
        dst[axis] = slice(0, a.shape[axis] + k)
    else:
        return a.copy()
    out[tuple(dst)] = a[tuple(src)]
    return out


def _ref_first(values, mask, h, axis):
    if mask.all():
        v = np.moveaxis(values, axis, 0)
        out = np.empty_like(v)
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
        return np.moveaxis(out, 0, axis)
    v = np.where(mask, values, np.nan)
    m = mask
    vm1, vp1 = _ref_shift(v, 1, axis, np.nan), _ref_shift(v, -1, axis, np.nan)
    vm2, vp2 = _ref_shift(v, 2, axis, np.nan), _ref_shift(v, -2, axis, np.nan)
    mm1, mp1 = _ref_shift(m, 1, axis, False), _ref_shift(m, -1, axis, False)
    mm2, mp2 = _ref_shift(m, 2, axis, False), _ref_shift(m, -2, axis, False)
    out = np.full_like(v, np.nan)
    fwd = (-3.0 * v + 4.0 * vp1 - vp2) / (2.0 * h)
    bwd = (3.0 * v - 4.0 * vm1 + vm2) / (2.0 * h)
    out = np.where(m & mm1 & mm2, bwd, out)
    out = np.where(m & mp1 & mp2, fwd, out)
    return np.where(m & mm1 & mp1, (vp1 - vm1) / (2.0 * h), out)


def _ref_second(values, mask, h, axis):
    # the fast path reads four samples at each end, so it needs at least 4
    if mask.all() and values.shape[axis] >= 4:
        v = np.moveaxis(values, axis, 0)
        h2 = h * h
        out = np.empty_like(v)
        out[1:-1] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h2
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
        return np.moveaxis(out, 0, axis)
    v = np.where(mask, values, np.nan)
    m = mask
    h2 = h * h
    vs = {k: _ref_shift(v, -k, axis, np.nan) for k in range(-3, 4)}
    ms = {k: _ref_shift(m, -k, axis, False) for k in range(-3, 4)}
    central = (vs[-1] - 2.0 * v + vs[1]) / h2
    fwd = (2.0 * v - 5.0 * vs[1] + 4.0 * vs[2] - vs[3]) / h2
    bwd = (2.0 * v - 5.0 * vs[-1] + 4.0 * vs[-2] - vs[-3]) / h2
    out = np.full_like(v, np.nan)
    out = np.where(m & ms[-1] & ms[-2] & ms[-3], bwd, out)
    out = np.where(m & ms[1] & ms[2] & ms[3], fwd, out)
    return np.where(m & ms[-1] & ms[1], central, out)


def _mask_case(kind, shape, rng):
    if kind == "all":
        return np.ones(shape, dtype=bool)
    if kind == "isolated":
        mask = np.zeros(shape, dtype=bool)
        mask[::2, ::2] = True
        return mask
    if kind == "holes":
        mask = np.ones(shape, dtype=bool)
        mask[rng.integers(0, shape[0], 3), rng.integers(0, shape[1], 3)] = False
        return mask
    return rng.random(shape) < rng.uniform(0.3, 0.95)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["all", "isolated", "holes", "random"]),
    st.integers(3, 9), st.integers(3, 9), st.sampled_from([0, 1]),
    st.integers(0, 3), st.integers(0, 2**31 - 1),
)
def test_masked_stencils_match_the_shift_reference(kind, n0, n1, axis, n_nan, seed):
    rng = np.random.default_rng(seed)
    shape = (n0, n1)
    values = rng.normal(size=shape)
    mask = _mask_case(kind, shape, rng)
    values[rng.integers(0, n0, n_nan), rng.integers(0, n1, n_nan)] = np.nan  # NaN inside the mask too
    h = rng.uniform(0.01, 1.0)
    got = fields._masked_first_derivative(values, mask, h, axis)
    assert np.array_equal(got, _ref_first(values, mask, h, axis), equal_nan=True)
    got = fields._masked_second_derivative(values, mask, h, axis)
    assert np.array_equal(got, _ref_second(values, mask, h, axis), equal_nan=True)

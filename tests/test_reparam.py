import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import field_of, param_change_of
from isoembed.errors import BadParameter, NoCertifiedRegion
from isoembed.fields import Grid2D
from isoembed.initial import make_initial
from isoembed.reparam import certify_invertible, jacobian, jacobian_initial_closed_form

EPS = 0.1
J_FLAT = 0.1 / np.sqrt(0.99)  # delta / sqrt(1 - eps^2) = 0.1005037815...


def test_jacobian_identity_and_swap():
    pc = param_change_of(Grid2D.centered(0.1, 0.1, 21, 21))
    assert np.allclose(pc.jac, 1.0, atol=1e-12)
    fu, fv, gu, gv = pc.derivs
    assert np.allclose(jacobian((gu, gv, fu, fv)), -1.0, atol=1e-12)


def test_jacobian_is_nan_where_it_is_not_finite():
    # a NaN derivative gives NaN, and so does a product that overflows
    fu, fv, gu, gv = (np.ones(4) for _ in range(4))
    fu[1] = np.nan
    fu[2], gv[2] = 1e200, 1e200
    fv[3], gu[3] = 1e200, -1e200
    with np.errstate(over="ignore"):
        jac = jacobian((fu, fv, gu, gv))
    assert jac[0] == 0.0 and np.isnan(jac[1:]).all()


def test_jacobian_flat_closed_form_value(flat_run):
    jac = flat_run.pc.jac
    sel = flat_run.pc.certified
    assert np.allclose(jac[sel], J_FLAT, atol=1e-10)
    assert abs(J_FLAT - 0.1005038) < 1e-7


def test_closed_form_examples():
    # (0.1, 0.1, 1): delta / sqrt(1 - eps^2)
    assert jacobian_initial_closed_form(0.1, 0.1, 1.0) == pytest.approx(0.1005038, abs=1e-7)
    # vanishing h': sqrt(G0) * k'
    assert jacobian_initial_closed_form(1e-9, 0.2, 4.0) == pytest.approx(0.4, abs=1e-8)
    # (0.5, 0.2, 1): sqrt(0.75) * (0.5 * (0.5*0.2/0.75) + 0.2)
    assert jacobian_initial_closed_form(0.5, 0.2, 1.0) == pytest.approx(0.230940, abs=1e-6)
    # h' != 0 and G0 != 1 tell sqrt(G0) from G0: sqrt(4) * 0.2 / sqrt(0.75)
    assert jacobian_initial_closed_form(0.5, 0.2, 4.0) == pytest.approx(0.4 / np.sqrt(0.75),
                                                                         rel=1e-14)


def test_closed_form_domain_errors():
    with pytest.raises(BadParameter):
        jacobian_initial_closed_form(1.2, 0.1, 1.0)
    with pytest.raises(BadParameter):
        jacobian_initial_closed_form(0.1, -0.1, 1.0)
    with pytest.raises(BadParameter):
        jacobian_initial_closed_form(0.1, 0.1, 0.0)


@pytest.mark.parametrize("fixture_name", ["flat_run", "cos2_solved_full"])
def test_cross_oracle_initial_row(fixture_name, request):
    art = request.getfixturevalue(fixture_name)
    if fixture_name == "flat_run":
        pc, grid, metric, init = art.pc, art.grid, art.metric, make_initial("linear_ramp", EPS, EPS)
    else:
        metric, init, grid, fr, gr, pc = art
    j0 = grid.row_index_of_v(0.0)
    us = grid.u_coords
    cf = jacobian_initial_closed_form(init.dh(us), init.dk(us), metric.eval(us, 0.0))
    rel = np.abs(pc.jac[:, j0] - cf) / np.abs(cf)
    assert np.nanmax(rel[pc.certified[:, j0]]) < 1e-4


def test_certify_flat_full_region(flat_run):
    pc = flat_run.pc
    assert pc.orientation == 1
    # certificate covers the whole jointly-valid solve region
    joint = np.isfinite(flat_run.f_report.field) & np.isfinite(flat_run.g_report.field)
    assert pc.certified.sum() >= 0.99 * joint.sum()


def test_certify_zero_jacobian():
    grid = Grid2D.centered(0.1, 0.1, 11, 11)
    jac = np.zeros((grid.nu, grid.nv))
    with pytest.raises(NoCertifiedRegion):
        certify_invertible(jac, 1e-8, (5, 5))


def test_certify_clips_before_sign_change():
    grid = Grid2D.centered(0.1, 0.1, 201, 201)
    jac = field_of(grid, lambda u, v: 0.05 - u)
    mask, orientation = certify_invertible(jac, 1e-4, (100, 100))
    assert orientation == 1
    U, _ = grid.meshgrid()
    assert not mask[U >= 0.05].any()
    assert mask[U <= 0.0495 - 1e-4].all()


def test_orientation_positive_with_positive_slopes(flat_run, cos2_solved_full):
    assert flat_run.pc.orientation == 1
    assert cos2_solved_full[5].orientation == 1


# The certificate as first written, kept as the reference for the run-sweep
# fill: the region grows by one ring of 4-neighbours per pass, restricted
# to the admissible nodes, until a pass adds nothing.
def dilation_fill(jac, tol, seed_node):
    i0, j0 = seed_node
    vals = jac
    ok = np.isfinite(vals) & (np.abs(vals) > tol)
    ok &= np.sign(vals) == np.sign(vals[i0, j0])
    region = np.zeros_like(ok)
    region[i0, j0] = True
    frontier = region.copy()
    while frontier.any():
        grown = np.zeros_like(ok)
        grown[1:, :] |= frontier[:-1, :]
        grown[:-1, :] |= frontier[1:, :]
        grown[:, 1:] |= frontier[:, :-1]
        grown[:, :-1] |= frontier[:, 1:]
        frontier = grown & ok & ~region
        region |= frontier
    return region


def assert_fill_matches_reference(signs, seed):
    # J in {-1, 0, +1}: 0 is below any tolerance
    jac = signs.astype(float)
    mask, orientation = certify_invertible(jac, 0.5, seed)
    assert orientation == signs[seed]
    assert mask.flags.c_contiguous
    np.testing.assert_array_equal(mask, dilation_fill(jac, 0.5, seed))
    return mask


@settings(max_examples=200, deadline=None)
@given(signs=arrays(np.int8, st.tuples(st.integers(3, 24), st.integers(3, 24)),
                    elements=st.sampled_from([-1, 0, 0, 1, 1, 1])),
       data=st.data())
def test_run_sweep_fill_matches_dilation_on_random_masks(signs, data):
    i0 = data.draw(st.integers(0, signs.shape[0] - 1))
    j0 = data.draw(st.integers(0, signs.shape[1] - 1))
    signs[i0, j0] = data.draw(st.sampled_from([-1, 1]))
    assert_fill_matches_reference(signs, (i0, j0))


def spiral(n):
    """One-node-wide corridor winding inwards from (0, 0) with one-node
    walls; every leg needs one more row or column sweep. Returns the signs
    and the inner end of the corridor."""
    out = np.zeros((n, n), dtype=np.int8)
    i = j = 0
    out[i, j] = 1
    legs = [n - 1, n - 1] + [length for length in range(n - 1, 0, -2) for _ in (0, 1)][1:]
    for leg, (di, dj) in zip(legs, [(0, 1), (1, 0), (0, -1), (-1, 0)] * n):
        for _ in range(leg):
            i, j = i + di, j + dj
            out[i, j] = 1
    return out, (i, j)


def test_run_sweep_fill_matches_dilation_on_a_spiral():
    signs, inner = spiral(41)
    outer = assert_fill_matches_reference(signs, (0, 0))
    assert outer.sum() == (signs == 1).sum() > 800
    np.testing.assert_array_equal(assert_fill_matches_reference(signs, inner), outer)
    # cut the corridor in its middle: each end keeps only its own half
    cut = signs.copy()
    cut[20, 4] = 0
    head = assert_fill_matches_reference(cut, (0, 0))
    tail = assert_fill_matches_reference(cut, inner)
    assert not (head & tail).any() and head.sum() + tail.sum() == outer.sum() - 1


def test_run_sweep_fill_matches_dilation_on_interleaved_combs():
    # two interleaved combs of opposite sign, each tooth ending on the other
    # comb's spine; then a serpentine, which needs one more sweep per turn
    n = 40
    combs = np.zeros((n, n), dtype=np.int8)
    combs[0, :] = 1            # spine of comb A along the first row
    combs[:-1, 0::4] = 1       # its teeth hang down
    combs[-1, 2:] = -1         # spine of comb B, opposite sign, along the last row
    combs[1:, 2::4] = -1       # its teeth reach up between A's
    a = assert_fill_matches_reference(combs, (0, n // 2))
    assert a.sum() == (combs == 1).sum()
    b = assert_fill_matches_reference(combs, (n - 1, n // 2))
    assert b.sum() == (combs == -1).sum() and not (a & b).any()
    serpentine = np.zeros((n, n), dtype=np.int8)
    serpentine[0::2, :] = 1
    serpentine[1::4, -1] = 1
    serpentine[3::4, 0] = 1
    mask = assert_fill_matches_reference(serpentine, (0, 0))
    assert mask.sum() == (serpentine == 1).sum()


@pytest.mark.parametrize("seed", [(0, 7), (9, 0), (16, 4), (5, 12), (0, 0), (16, 12), (0, 12)])
def test_run_sweep_fill_matches_dilation_with_the_seed_on_an_edge_or_corner(seed):
    signs = np.random.default_rng(7).choice(np.array([-1, 0, 1, 1], dtype=np.int8), (17, 13))
    signs[seed] = 1
    assert_fill_matches_reference(signs, seed)


@pytest.mark.parametrize("seed", [(4, 4), (0, 0), (8, 6)])
def test_run_sweep_fill_one_node_region(seed):
    # a checkerboard has no 4-connected pair: the region is the seed alone,
    # though diagonal neighbours are admissible
    i, j = np.indices((9, 7))
    signs = ((i + j) % 2 == 0).astype(np.int8)
    mask = assert_fill_matches_reference(signs, seed)
    assert mask.sum() == 1 and mask[seed]


@pytest.mark.parametrize("fixture_name", ["flat_run", "cos2_solved_full"])
def test_certificate_matches_dilation_on_solved_runs(fixture_name, request):
    art = request.getfixturevalue(fixture_name)
    if fixture_name == "flat_run":
        pc, tol = art.pc, art.config.tolerances.jacobian_tol
    else:
        pc, tol = art[5], 1e-8
    np.testing.assert_array_equal(pc.certified, dilation_fill(pc.jac, tol, pc.init_node))
    assert pc.certified.sum() > 30000

import numpy as np
import pytest

from conftest import param_change_of
from isoembed.errors import BadParameter, NoCertifiedRegion
from isoembed.fields import Grid2D, ScalarField2D
from isoembed.initial import make_initial
from isoembed.reparam import certify_invertible, jacobian, jacobian_initial_closed_form

EPS = 0.1
J_FLAT = 0.1 / np.sqrt(0.99)  # delta / sqrt(1 - eps^2) = 0.1005037815...


def test_jacobian_identity_and_swap():
    pc = param_change_of(Grid2D.centered(0.1, 0.1, 21, 21))
    assert np.allclose(pc.jac.values[pc.jac.mask], 1.0, atol=1e-12)
    fu, fv, gu, gv = pc.derivs
    jac2 = jacobian(pc.g, pc.f, (gu, gv, fu, fv))
    assert np.allclose(jac2.values[jac2.mask], -1.0, atol=1e-12)


def test_jacobian_flat_closed_form_value(flat_run):
    jac = flat_run.pc.jac
    sel = flat_run.pc.certified
    assert np.allclose(jac.values[sel], J_FLAT, atol=1e-10)
    assert abs(J_FLAT - 0.1005038) < 1e-7


def test_closed_form_examples():
    # (0.1, 0.1, 1): delta / sqrt(1 - eps^2)
    assert jacobian_initial_closed_form(0.1, 0.1, 1.0) == pytest.approx(0.1005038, abs=1e-7)
    # vanishing h': sqrt(G0) * k'
    assert jacobian_initial_closed_form(1e-9, 0.2, 4.0) == pytest.approx(0.4, abs=1e-8)
    # (0.5, 0.2, 1): sqrt(0.75) * (0.5 * (0.5*0.2/0.75) + 0.2)
    assert jacobian_initial_closed_form(0.5, 0.2, 1.0) == pytest.approx(0.230940, abs=1e-6)


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
    sel = pc.certified[:, j0] & pc.jac.mask[:, j0]
    rel = np.abs(pc.jac.values[:, j0] - cf) / np.abs(cf)
    assert np.nanmax(rel[sel]) < 1e-4


def test_certify_flat_full_region(flat_run):
    pc = flat_run.pc
    assert pc.orientation == 1
    # certificate covers the whole jointly-valid solve region
    joint = flat_run.f_report.mask & flat_run.g_report.mask
    assert pc.certified.sum() >= 0.99 * joint.sum()


def test_certify_zero_jacobian():
    grid = Grid2D.centered(0.1, 0.1, 11, 11)
    jac = ScalarField2D.constant(grid, 0.0)
    with pytest.raises(NoCertifiedRegion):
        certify_invertible(jac, 1e-8, (5, 5))


def test_certify_clips_before_sign_change():
    grid = Grid2D.centered(0.1, 0.1, 201, 201)
    jac = ScalarField2D.from_function(grid, lambda u, v: 0.05 - u)
    mask, orientation = certify_invertible(jac, 1e-4, (100, 100))
    assert orientation == 1
    U, _ = grid.meshgrid()
    assert not mask[U >= 0.05].any()
    assert mask[U <= 0.0495 - 1e-4].all()


def test_orientation_positive_with_positive_slopes(flat_run, cos2_solved_full):
    assert flat_run.pc.orientation == 1
    assert cos2_solved_full[5].orientation == 1

import numpy as np
import pytest

from conftest import interior_of
from isoembed.errors import RankDeficient, UncertifiedNode
from isoembed.system_s import (
    assemble,
    augmented_det_residual,
    closed_form_G,
    from_derivatives,
    rank_checks,
    solve_for_EG,
    solve_system_grid,
)

EPS = 0.1
SQ = np.sqrt(1.0 - EPS**2)
LAM = EPS / SQ


def flat_exact_system(gbar=1.0):
    """System from the closed-form flat-case derivatives."""
    return from_derivatives(fu=EPS, fv=-SQ, gu=EPS, gv=EPS * LAM, gbar=gbar)


def identity_system(gbar=1.0):
    return from_derivatives(fu=1.0, fv=0.0, gu=0.0, gv=1.0, gbar=gbar)


def test_identity_system_rows_and_solution():
    s = identity_system()
    assert np.allclose(s.coeff, [[1, 0], [0, 0], [0, 1]])
    assert np.allclose(s.rhs, [1, 0, 1])
    assert solve_for_EG(s) == pytest.approx((1.0, 1.0))
    assert rank_checks(s) == (2, 2)


def test_flat_system_rows():
    s = flat_exact_system()
    assert np.allclose(s.coeff[0], [0.01, 0.01], atol=1e-15)
    # second row [f_u f_v, g_u g_v] = [-0.099499, 0.00100504]
    assert s.coeff[1, 0] == pytest.approx(-0.099499, abs=1e-6)
    assert s.coeff[1, 1] == pytest.approx(0.00100504, abs=1e-8)


def test_flat_solution_is_one_and_ninety_nine():
    s = flat_exact_system()
    e_val, g_val = solve_for_EG(s)
    assert e_val == pytest.approx(1.0, abs=1e-12)
    assert g_val == pytest.approx(99.0, abs=1e-9)
    assert closed_form_G(s) == pytest.approx(99.0, abs=1e-9)


def test_augmented_det_zero_on_exact_fields():
    s = flat_exact_system()
    # f_v g_v + G f_u g_u = 0 is forced by the two equations, so the
    # augmented determinant vanishes identically
    assert abs(augmented_det_residual(s)) < 1e-16
    assert abs(s.coeff[2, 0] * 0 + (-SQ) * (EPS * LAM) + 1.0 * EPS * EPS) < 1e-16


def test_corrupted_slope_is_detected():
    s = from_derivatives(fu=EPS, fv=-SQ, gu=EPS, gv=EPS * LAM + 0.01, gbar=1.0)
    res = abs(augmented_det_residual(s))
    assert res > 1e-4  # 1e-2 corruption must fire the detector


def test_augmented_det_scales_linearly_with_perturbation():
    vals = []
    for p in (1e-4, 1e-3):
        s = from_derivatives(fu=EPS, fv=-SQ, gu=EPS, gv=EPS * LAM + p, gbar=1.0)
        vals.append(abs(augmented_det_residual(s)))
    ratio = vals[1] / vals[0]
    assert 8.0 < ratio < 12.0


def test_rank_top_minor_value():
    s = flat_exact_system()
    minor = s.coeff[0, 0] * s.coeff[1, 1] - s.coeff[0, 1] * s.coeff[1, 0]
    # f_u g_u J = 0.1 * 0.1 * 0.1005038
    assert minor == pytest.approx(0.00100504, abs=1e-8)
    assert rank_checks(s) == (2, 2)


def test_rank_degenerate_input():
    s = from_derivatives(fu=0.0, fv=0.0, gu=0.0, gv=0.0, gbar=1.0)
    assert rank_checks(s) == (0, 1)
    with pytest.raises(RankDeficient):
        solve_for_EG(s)


def test_assemble_requires_certified_node(flat_run):
    pc = flat_run.pc
    i, j = 0, 0
    assert not pc.certified[i, j]
    with pytest.raises(UncertifiedNode):
        assemble(pc, flat_run.metric, (i, j))


def test_assemble_center_node(flat_run):
    s = assemble(flat_run.pc, flat_run.metric, (100, 100))
    assert np.allclose(s.coeff[0], [0.01, 0.01], atol=1e-10)
    assert s.rhs[2] == 1.0
    e_val, g_val = solve_for_EG(s)
    assert e_val == pytest.approx(1.0, abs=1e-10)
    assert g_val == pytest.approx(99.0, abs=1e-6)


@pytest.mark.parametrize("fixture_name", ["flat_run", "cos2_solved_full"])
def test_grid_solve_theorem_identities(fixture_name, request):
    art = request.getfixturevalue(fixture_name)
    if fixture_name == "flat_run":
        pc, metric, grid = art.pc, art.metric, art.grid
    else:
        metric, _, grid, _, _, pc = art
    sr = solve_system_grid(pc, metric)
    # ranks (2, 2) and small augmented determinant on >= 99% of nodes
    ok = (
        (sr.rank_coeff.values == 2)
        & (sr.rank_aug.values == 2)
        & (np.abs(sr.aug_det.values) < 1e-6)
    )
    assert ok[sr.mask].sum() / sr.mask.sum() >= 0.99
    # all three rows hold with the solved pair
    assert max(r.sup() for r in sr.row_residuals) < 1e-4
    # the first unknown solves to 1
    assert np.nanmax(np.abs(sr.e_val.values - 1.0)[sr.mask]) < 1e-4
    # solved G agrees with the closed form on central-stencil nodes
    interior = interior_of(sr.mask, grid)
    rel = np.abs(sr.g_val.values - sr.g_closed.values) / np.maximum(
        1.0, np.abs(sr.g_closed.values)
    )
    assert np.nanmax(np.where(interior, rel, np.nan)) < 1e-6


@pytest.mark.parametrize("fixture_name", ["flat_run", "cos2_solved_full"])
def test_grid_solve_matches_the_per_node_oracle(fixture_name, request):
    # the scalar path (assemble, solve_for_EG, rank_checks, ...) is the
    # reference the batched solve is checked against, node by node
    art = request.getfixturevalue(fixture_name)
    if fixture_name == "flat_run":
        pc, metric = art.pc, art.metric
    else:
        metric, _, _, _, _, pc = art
    sr = solve_system_grid(pc, metric)
    nodes = np.argwhere(sr.mask)[::97]
    assert len(nodes) > 100
    for i, j in nodes:
        s = assemble(pc, metric, (i, j))
        e_val, g_val = solve_for_EG(s)
        assert sr.e_val.values[i, j] == pytest.approx(e_val, rel=1e-12)
        assert sr.g_val.values[i, j] == pytest.approx(g_val, rel=1e-12)
        assert sr.g_closed.values[i, j] == pytest.approx(closed_form_G(s), rel=1e-12)
        assert (sr.rank_coeff.values[i, j], sr.rank_aug.values[i, j]) == rank_checks(s)
        assert sr.aug_det.values[i, j] == pytest.approx(augmented_det_residual(s),
                                                        rel=1e-6, abs=1e-15)


def test_grid_solve_g_positive(flat_run):
    sr = solve_system_grid(flat_run.pc, flat_run.metric)
    assert np.nanmin(sr.g_val.values[sr.mask]) > 0.0


def test_cos2_g_value_on_initial_row(cos2_solved_full):
    # on the initial line the solved coefficient is (1 - eps^2)/delta^2
    # independently of the metric
    metric, _, grid, _, _, pc = cos2_solved_full
    sr = solve_system_grid(pc, metric)
    j0 = grid.row_index_of_v(0.0)
    sel = sr.mask[:, j0]
    vals = sr.g_val.values[sel, j0]
    assert np.allclose(vals, 99.0, atol=1e-3)

import numpy as np
import pytest

from conftest import interior_of
from isoembed import fields
from isoembed.config import RunConfig
from isoembed.errors import RankDeficient, UncertifiedNode
from isoembed.fields import ScalarField2D
from isoembed.pipeline import run_pipeline
from isoembed.system_s import (
    RANK_REL_TOL,
    SystemReport,
    _invariant_ranks,
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
    sr = solve_system_grid(pc, metric.sample(pc.grid))
    # ranks (2, 2) and small augmented determinant on >= 99% of nodes
    ok = (
        (sr.rank_coeff.values == 2)
        & (sr.rank_aug.values == 2)
        & (np.abs(sr.aug_det.values) < 1e-6)
    )
    assert ok[sr.mask].sum() / sr.mask.sum() >= 0.99
    # all three rows hold with the solved pair
    assert sr.row_residual_sup < 1e-4
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
    sr = solve_system_grid(pc, metric.sample(pc.grid))
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
    sr = solve_system_grid(flat_run.pc, flat_run.f_report.gbar)
    assert np.nanmin(sr.g_val.values[sr.mask]) > 0.0


def test_cos2_g_value_on_initial_row(cos2_solved_full):
    # on the initial line the solved coefficient is (1 - eps^2)/delta^2
    # independently of the metric
    metric, _, grid, _, _, pc = cos2_solved_full
    sr = solve_system_grid(pc, metric.sample(pc.grid))
    j0 = grid.row_index_of_v(0.0)
    sel = sr.mask[:, j0]
    vals = sr.g_val.values[sel, j0]
    assert np.allclose(vals, 99.0, atol=1e-3)


def invariant_ranks(systems):
    """The grid solve's closed-form ranks of each system, as it takes them."""
    aug = np.stack([s.augmented for s in systems])
    rank_c, rank_a = _invariant_ranks(aug, np.linalg.det(aug))
    return list(zip(rank_c.tolist(), rank_a.tolist()))


def tuned(make, which, k, factor):
    """Derivatives make(t) whose system has singular value k of its `which`
    matrix at factor * RANK_REL_TOL of the largest; the ratio is linear in
    small t."""
    def ratio(t):
        sv = np.linalg.svd(getattr(from_derivatives(*make(t)), which), compute_uv=False)
        return sv[k] / sv[0]
    t = 1e-3 * factor * RANK_REL_TOL / ratio(1e-3)
    assert ratio(t) == pytest.approx(factor * RANK_REL_TOL, rel=0.02)
    return make(t)


def near_threshold_derivatives():
    """(f_u, f_v, g_u, g_v, Gbar) per case."""
    flat = (EPS, -SQ, EPS, EPS * LAM)
    cases = {}
    for factor in (0.5, 2.0):
        # coefficient columns nearly parallel: g almost proportional to f
        cases[f"coeff_sv2_{factor}"] = tuned(
            lambda t: (1.0, 0.3, 1.0, 0.3 + t, 1.0), "coeff", 1, factor)
        # augmented nearly rank 1: both columns nearly along the rhs (1, 0, 0)
        cases[f"aug_sv2_{factor}"] = tuned(
            lambda t: (1.0, 0.0, 1.0, t, 0.0), "augmented", 1, factor)
        # consistent flat system with Gbar corrupted by t
        cases[f"aug_sv3_{factor}"] = tuned(
            lambda t: (*flat, 1.0 + t), "augmented", 2, factor)
    cases["coeff_rank1"] = (1.0, 0.3, 2.0, 0.6, 1.0)
    cases["zero"] = (0.0, 0.0, 0.0, 0.0, 1.0)
    cases["aug_rank3"] = (*flat, 2.0)
    cases["flat_exact"] = (*flat, 1.0)
    cases["identity"] = (1.0, 0.0, 0.0, 1.0, 1.0)
    return cases


def test_invariant_ranks_match_the_svd_oracle_near_the_threshold():
    cases = {name: from_derivatives(*d) for name, d in near_threshold_derivatives().items()}
    got = dict(zip(cases, invariant_ranks(cases.values())))
    assert got == {name: rank_checks(s) for name, s in cases.items()}
    # each case sits on the side of the threshold it was built for
    assert got["coeff_sv2_0.5"][0] == 1 and got["coeff_sv2_2.0"][0] == 2
    assert got["aug_sv2_0.5"][1] == 1 and got["aug_sv2_2.0"][1] == 2
    assert got["aug_sv3_0.5"][1] == 2 and got["aug_sv3_2.0"][1] == 3
    assert got["coeff_rank1"] == (1, 2)
    assert got["zero"] == (0, 1)
    assert got["aug_rank3"] == (2, 3)


@pytest.mark.parametrize("col0, col1", [(1e6, 1.0), (1.0, 1e-6), (1e-6, 1e-6),
                                        (1e6, 1e6), (1e-6, 1e6)])
def test_invariant_ranks_match_the_svd_oracle_on_scaled_columns(col0, col1):
    # scaling f by sqrt(col0) scales the first coefficient column by col0
    r0, r1 = np.sqrt(col0), np.sqrt(col1)
    systems = [from_derivatives(r0 * fu, r0 * fv, r1 * gu, r1 * gv, gbar)
               for fu, fv, gu, gv, gbar in near_threshold_derivatives().values()]
    assert invariant_ranks(systems) == [rank_checks(s) for s in systems]


def batched_svd_ranks(pc, metric, mask):
    """Ranks of every masked node's coefficient and augmented matrices by a
    batched SVD, assembled here from the derivatives and the metric."""
    fu, fv, gu, gv = (d[mask] for d in pc.derivs)
    U, V = pc.grid.meshgrid()
    gbar = metric.g_fn(U, V) * np.ones_like(U)
    aug = np.stack([
        np.stack([fu * fu, gu * gu, np.ones_like(fu)], axis=1),
        np.stack([fu * fv, gu * gv, np.zeros_like(fu)], axis=1),
        np.stack([fv * fv, gv * gv, gbar[mask]], axis=1),
    ], axis=1)

    def rank(m):
        sv = np.linalg.svd(m, compute_uv=False)
        return np.sum(sv > RANK_REL_TOL * sv[:, :1], axis=1)
    return rank(aug[:, :, :2]), rank(aug)


@pytest.fixture(scope="module")
def delta_1e6():
    """Default run with g's slope scaled up: columns 1e12 apart."""
    return run_pipeline(RunConfig(delta=1e6))


def change_and_metric(case, request):
    if case == "cos2_solved_full":
        metric, _, _, _, _, pc = request.getfixturevalue(case)
        return pc, metric
    run = request.getfixturevalue(case)
    return run.pc, run.metric


@pytest.mark.parametrize("case", ["flat_run", "cos2_solved_full", "delta_1e6"])
def test_grid_ranks_equal_batched_svd_ranks_on_every_node(case, request):
    pc, metric = change_and_metric(case, request)
    sr = solve_system_grid(pc, metric.sample(pc.grid))
    rank_c, rank_a = batched_svd_ranks(pc, metric, sr.mask)
    assert sr.mask.sum() > 30000
    np.testing.assert_array_equal(sr.rank_coeff.values[sr.mask], rank_c)
    np.testing.assert_array_equal(sr.rank_aug.values[sr.mask], rank_a)
    if case == "delta_1e6":
        # the unequilibrated columns differ by ~1e12, so both ranks read 1
        # on every node: a false rank deficiency that the SVD shares
        assert (rank_c == 1).all() and (rank_a == 1).all()


def test_grid_solve_calls_no_svd(cos2_solved_full, monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    metric, _, _, _, _, pc = cos2_solved_full
    sr = solve_system_grid(pc, metric.sample(pc.grid))
    assert (sr.rank_coeff.values[sr.mask] == 2).all()
    # the scalar oracle keeps its SVD
    with pytest.raises(AssertionError, match="svd called"):
        rank_checks(identity_system())


def reference_solve_system_grid(pc, metric):
    """The system over the whole grid in one pass: the earlier
    solve_system_grid, kept as the reference for the blocked one."""
    grid = pc.grid
    fu, fv, gu, gv = pc.derivs
    gbar = metric.sample(grid).values

    mask = (
        pc.certified
        & np.isfinite(fu) & np.isfinite(fv) & np.isfinite(gu) & np.isfinite(gv)
    )

    A0, B0 = fu * fu, gu * gu
    A1, B1 = fu * fv, gu * gv
    A2, B2 = fv * fv, gv * gv

    m01 = A0 * B1 - B0 * A1
    m02 = A0 * B2 - B0 * A2
    m12 = A1 * B2 - B1 * A2
    minors = np.stack([m01, m02, m12])
    pick = np.argmax(np.abs(minors), axis=0)

    r0 = np.ones_like(gbar)
    r1 = np.zeros_like(gbar)
    r2 = gbar
    rows_a = (
        (A0, B0, r0, A1, B1, r1),
        (A0, B0, r0, A2, B2, r2),
        (A1, B1, r1, A2, B2, r2),
    )
    e_val = np.full_like(gbar, np.nan)
    g_val = np.full_like(gbar, np.nan)
    for k, (Aa, Ba, ra, Ab, Bb, rb) in enumerate(rows_a):
        m = minors[k]
        safe = np.where(m == 0.0, 1.0, m)
        ek = (ra * Bb - rb * Ba) / safe
        gk = (Aa * rb - Ab * ra) / safe
        sel = (pick == k) & (m != 0.0)
        e_val = np.where(sel, ek, e_val)
        g_val = np.where(sel, gk, g_val)

    g_closed = (gbar - A2) / np.where(B2 == 0.0, np.nan, B2)

    res0 = np.abs(e_val * A0 + g_val * B0 - r0)
    res1 = np.abs(e_val * A1 + g_val * B1 - r1)
    res2 = np.abs(e_val * A2 + g_val * B2 - r2)

    aug_det = np.full_like(gbar, np.nan)
    rank_c = np.full_like(gbar, np.nan)
    rank_a = np.full_like(gbar, np.nan)
    idx = np.flatnonzero(mask.ravel())
    if idx.size:
        aug = np.empty((idx.size, 3, 3))
        for row, cells in enumerate(((A0, B0, r0), (A1, B1, r1), (A2, B2, r2))):
            for col, cell in enumerate(cells):
                aug[:, row, col] = cell.ravel()[idx]
        det = np.linalg.det(aug)
        aug_det.ravel()[idx] = det
        rank_c.ravel()[idx], rank_a.ravel()[idx] = _invariant_ranks(aug, det)

    def fld(arr):
        return ScalarField2D(grid, np.where(mask, arr, np.nan), mask=mask & np.isfinite(arr))

    return SystemReport(
        e_val=fld(e_val),
        g_val=fld(g_val),
        g_closed=fld(g_closed),
        rank_coeff=fld(rank_c),
        rank_aug=fld(rank_a),
        aug_det=fld(aug_det),
        row_residual_sup=max(fld(res).sup() for res in (res0, res1, res2)),
        mask=mask,
    )


def system_fields(sr):
    return (sr.e_val, sr.g_val, sr.g_closed, sr.rank_coeff, sr.rank_aug, sr.aug_det)


# node blocks of 163 u-rows (the default at 201 v-lines) and of 7, neither
# dividing the 201 u-rows, and of one (a block shorter than a row)
@pytest.mark.parametrize("node_block", [None, 7 * 201 + 5, 100])
@pytest.mark.parametrize("case", ["flat_run", "cos2_solved_full", "delta_1e6"])
def test_blocked_grid_solve_matches_the_whole_grid_reference(case, node_block, request,
                                                             monkeypatch):
    pc, metric = change_and_metric(case, request)
    if node_block is not None:
        monkeypatch.setattr(fields, "NODE_BLOCK", node_block)
    rows = max(1, fields.NODE_BLOCK // pc.grid.nv)
    assert rows == 1 or pc.grid.nu % rows
    # the certified region spans several blocks
    certified_rows = np.flatnonzero(pc.certified.any(axis=1))
    assert certified_rows[-1] // rows > certified_rows[0] // rows
    sr = solve_system_grid(pc, metric.sample(pc.grid))
    ref = reference_solve_system_grid(pc, metric)
    assert np.array_equal(sr.mask, ref.mask)
    assert sr.row_residual_sup == ref.row_residual_sup
    for got, want in zip(system_fields(sr), system_fields(ref)):
        assert np.array_equal(got.values, want.values, equal_nan=True)
        assert np.array_equal(got.mask, want.mask)

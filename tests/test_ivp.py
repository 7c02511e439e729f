import math

import numpy as np
import pytest

from conftest import interior_of
from isoembed import ivp
from isoembed.errors import BadParameter, ValidityLoss
from isoembed.fields import Grid2D
from isoembed.initial import InitialData, make_initial
from isoembed.ivp import (
    c2_defect_scan,
    slope_to_lambda,
    solve_f,
    solve_g,
)
from isoembed.metric import make_metric

EPS = 0.1
LAM = EPS / np.sqrt(1.0 - EPS**2)  # 0.100503781525921...


def test_lambda_values():
    lam, ok = slope_to_lambda(np.full((3, 3), 0.1))
    assert ok.all() and np.allclose(lam, 0.1005038, atol=1e-7)
    assert np.allclose(slope_to_lambda(np.full(3, 1.0 / np.sqrt(2.0)))[0], 1.0, atol=1e-12)
    assert np.allclose(slope_to_lambda(np.full(3, 1e-9))[0], 1e-9, atol=1e-15)


def test_lambda_branch_violation():
    # f_u <= 0 is off the positive branch: no slope there
    lam, ok = slope_to_lambda(np.array([-0.1, 0.0, 0.1]))
    assert ok.tolist() == [False, False, True]
    assert np.isnan(lam[:2]).all() and np.isfinite(lam[2])


def test_lambda_masks_near_one():
    vals = np.full((3, 3), 0.5)
    vals[1, 1] = 1.0 - 1e-9  # inside the guard band
    vals[0, 1] = 1.0 - 2e-6  # below it
    lam, ok = slope_to_lambda(vals)
    assert not ok[1, 1] and np.isnan(lam[1, 1])
    assert ok[0, 0] and ok[0, 1]


@pytest.fixture(scope="module")
def flat_solved():
    grid = Grid2D.centered(0.1, 0.1, 201, 201)
    metric = make_metric("flat")
    init = make_initial("linear_ramp", EPS, EPS)
    fr = solve_f(metric, init, grid)
    gr = solve_g(metric, fr, init, grid)
    return metric, init, grid, fr, gr


def test_flat_closed_form_f(flat_solved):
    _, _, grid, fr, _ = flat_solved
    U, V = grid.meshgrid()
    exact = EPS * U - np.sqrt(1.0 - EPS**2) * V
    assert np.nanmax(np.abs(fr.field - exact)) < 1e-6


def test_flat_closed_form_g(flat_solved):
    _, _, grid, _, gr = flat_solved
    U, V = grid.meshgrid()
    exact = EPS * (U + LAM * V)
    assert np.nanmax(np.abs(gr.field - exact)) < 1e-6


def test_initial_row_exact(flat_solved):
    _, init, grid, fr, gr = flat_solved
    j0 = grid.row_index_of_v(0.0)
    assert np.array_equal(fr.field[:, j0], init.h(grid.u_coords))
    assert np.array_equal(gr.field[:, j0], init.k(grid.u_coords))


def test_initial_slope_formulas():
    # f_v(., 0) = -sqrt(G) sqrt(1 - h'^2) and g_v(., 0) = lam k' sqrt(G)
    grid = Grid2D.centered(0.1, 0.02, 201, 41)
    metric = make_metric("flat")
    init = make_initial("linear_ramp", 0.5, 0.1)
    fr = solve_f(metric, init, grid)
    gr = solve_g(metric, fr, init, grid)
    j0 = grid.row_index_of_v(0.0)
    fv = fr.d_v[:, j0]
    assert np.allclose(fv[np.isfinite(fv)], -0.8660254037844386, atol=1e-6)
    gv = gr.d_v[:, j0]
    lam05 = 0.5 / np.sqrt(0.75)
    sel = np.isfinite(gv)
    assert np.allclose(gv[sel], lam05 * 0.1, atol=1e-6)


def test_initial_slope_value_spec_case(flat_solved):
    # h' = k' = 0.1, G = 1: g_v(., 0) = 0.0100504
    _, _, grid, _, gr = flat_solved
    j0 = grid.row_index_of_v(0.0)
    gv = gr.d_v[:, j0]
    assert np.allclose(gv[np.isfinite(gv)], 0.0100504, atol=1e-6)


def test_branch_signs(flat_solved):
    _, _, _, fr, gr = flat_solved
    fv = fr.d_v
    gv = gr.d_v
    assert np.all(fv[np.isfinite(fv)] < 0.0)
    assert np.all(gv[np.isfinite(gv)] > 0.0)


@pytest.mark.parametrize("name", ["flat", "cos2"])
def test_substitution_residual_under_tolerance(name):
    grid = Grid2D.centered(0.1, 0.1, 201, 201)
    metric = make_metric(name)
    init = make_initial("linear_ramp", EPS, EPS)
    fr = solve_f(metric, init, grid)
    gr = solve_g(metric, fr, init, grid)
    assert fr.max_residual < 1e-6
    assert gr.max_residual < 1e-6


def test_mask_is_monotone(flat_solved):
    _, _, grid, fr, _ = flat_solved
    j0 = grid.row_index_of_v(0.0)
    for j in range(j0, grid.nv - 1):
        L0, R0 = fr.intervals[j]
        L1, R1 = fr.intervals[j + 1]
        if L1 > R1:
            continue
        assert L1 >= L0 and R1 <= R0
    for j in range(j0, 0, -1):
        L0, R0 = fr.intervals[j]
        L1, R1 = fr.intervals[j - 1]
        if L1 > R1:
            continue
        assert L1 >= L0 and R1 <= R0


def test_refinement_reduces_error_flat():
    # the marched flat/ramp case is exact to roundoff, so the reduction
    # test degenerates; assert both errors sit at the noise floor
    metric = make_metric("flat")
    init = make_initial("linear_ramp", EPS, EPS)
    errs = []
    for n in (101, 201):
        grid = Grid2D.centered(0.1, 0.1, n, n)
        fr = solve_f(metric, init, grid)
        U, V = grid.meshgrid()
        exact = EPS * U - np.sqrt(1.0 - EPS**2) * V
        errs.append(np.nanmax(np.abs(fr.field - exact)))
    assert all(e < 1e-12 for e in errs) or errs[0] / errs[1] >= 3.5


def test_self_convergence_interior_order_two():
    # observed order >= 2 against a fine reference on a case with O(1)
    # field variation; a fixed physical band is stripped near the moving
    # boundaries so all resolutions compare the same region
    from isoembed.metric import Rect

    metric = make_metric("exp", domain=Rect(-0.5, 0.5, -0.5, 0.5))
    init = make_initial("linear_ramp", 0.3, 0.3)
    half = 0.2
    sols = {}
    for n in (101, 201, 801):
        grid = Grid2D.centered(half, half, n, n)
        fr = solve_f(metric, init, grid)
        gr = solve_g(metric, fr, init, grid)
        sols[n] = (fr, gr, grid)
    ref_f, ref_g, ref_grid = sols[801]
    errs_f, errs_g = [], []
    for n in (101, 201):
        fr, gr, grid = sols[n]
        stride = (ref_grid.nu - 1) // (grid.nu - 1)
        depth = int(round(0.25 * half / grid.du))
        ef = np.abs(fr.field - ref_f.field[::stride, ::stride])
        eg = np.abs(gr.field - ref_g.field[::stride, ::stride])
        core = interior_of(np.isfinite(ef) & np.isfinite(eg), grid, depth=depth)
        errs_f.append(np.nanmax(np.where(core, ef, np.nan)))
        errs_g.append(np.nanmax(np.where(core, eg, np.nan)))
    assert errs_f[0] / errs_f[1] >= 3.5
    assert errs_g[0] / errs_g[1] >= 3.5


def test_characteristic_ode_oracle_cos2():
    """Independent route to the curved-metric solution.

    The nonlinear equation's characteristics satisfy the ODE system
    du/dv = -H_p, dp/dv = H_u, df/dv = H - p H_p with
    H(u, p) = -sqrt(G(u)) sqrt(1 - p^2); the transported value g is
    constant along the same curves. Integrating that system with RK4 and
    shooting for the seed is a wholly different discretization from the
    grid march, so pointwise agreement is a genuine cross-check.
    """
    metric = make_metric("cos2")
    init = make_initial("linear_ramp", EPS, EPS)
    grid = Grid2D.centered(0.1, 0.1, 201, 201)
    fr = solve_f(metric, init, grid)
    gr = solve_g(metric, fr, init, grid)

    def rhs(state):
        u, p, f = state
        sg = np.cos(u)
        dsg = -np.sin(u)
        rad = np.sqrt(1.0 - p * p)
        h_val = -sg * rad
        h_p = sg * p / rad
        h_u = -dsg * rad
        return np.array([-h_p, h_u, h_val - p * h_p])

    def integrate(seed, v_target, n):
        state = np.array([seed, float(init.dh(seed)), float(init.h(seed))])
        h = v_target / n
        for _ in range(n):
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * h * k1)
            k3 = rhs(state + 0.5 * h * k2)
            k4 = rhs(state + h * k3)
            state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return state

    for (i, j) in [(100, 180), (60, 40), (140, 150)]:
        u_t, v_t = grid.u_coords[i], grid.v_coords[j]
        lo, hi = u_t - 0.05, u_t + 0.05
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if integrate(mid, v_t, 400)[0] < u_t:
                lo = mid
            else:
                hi = mid
        seed = 0.5 * (lo + hi)
        state = integrate(seed, v_t, 2000)
        assert abs(state[0] - u_t) < 1e-12  # shooting converged
        assert abs(state[2] - fr.field[i, j]) < 1e-9
        # g is carried unchanged along the characteristic from its foot
        assert abs(float(init.k(seed)) - gr.field[i, j]) < 1e-8


def test_grid_must_contain_initial_line():
    grid = Grid2D(u0=-0.1, v0=0.013, du=1e-3, dv=1e-3, nu=31, nv=31)
    with pytest.raises(BadParameter):
        solve_f(make_metric("flat"), make_initial("linear_ramp", 0.1, 0.1), grid)


def test_solve_rejects_grid_outside_metric_domain():
    from isoembed.errors import OutOfDomain
    from isoembed.metric import Rect, make_metric as mk

    m = mk("flat", domain=Rect(-0.05, 0.05, -0.05, 0.05))
    grid = Grid2D.centered(0.1, 0.1, 21, 21)
    with pytest.raises(OutOfDomain):
        solve_f(m, make_initial("linear_ramp", 0.1, 0.1), grid)


def test_solve_surfaces_nonpositive_metric():
    from isoembed.errors import NonPositiveMetric
    from isoembed.metric import GeodesicMetric2D, Rect

    # positive on the initial line, crosses zero while marching in v
    bad = GeodesicMetric2D(name="draining", domain=Rect(-1, 1, -1, 1),
                           g_fn=lambda u, v: 0.01 - np.asarray(v, dtype=float))
    grid = Grid2D.centered(0.1, 0.1, 21, 21)
    with pytest.raises(NonPositiveMetric):
        solve_f(bad, make_initial("linear_ramp", 0.1, 0.1), grid)


def test_steep_slope_forces_substepping():
    # eps = 0.9 puts the characteristic speed near 2.1, so the CFL bound
    # demands several substeps per level; the solve must stay accurate
    grid = Grid2D.centered(0.05, 0.05, 101, 101)
    metric = make_metric("flat")
    init = make_initial("linear_ramp", 0.9, 0.5)
    fr = solve_f(metric, init, grid)
    gr = solve_g(metric, fr, init, grid)
    assert fr.steps > 2 * (grid.nv - 1)  # more substeps than levels
    U, V = grid.meshgrid()
    lam = 0.9 / np.sqrt(1.0 - 0.81)
    f_exact = 0.9 * U - np.sqrt(1.0 - 0.81) * V
    g_exact = 0.5 * (U + lam * V)
    assert np.nanmax(np.abs(fr.field - f_exact)) < 1e-9
    assert np.nanmax(np.abs(gr.field - g_exact)) < 1e-9
    assert fr.max_residual < 1e-6 and gr.max_residual < 1e-6


def _v_dependent_sampled_metric(tmp_path):
    """file: metric G = cos^2(u) (1 + v/2)^2 sampled on a 101^2 lattice."""
    path = tmp_path / "g.csv"
    coords = np.linspace(-0.5, 0.5, 101)
    with open(path, "w") as fh:
        fh.write("ubar,vbar,G\n")
        for u in coords:
            for v in coords:
                fh.write(f"{u:.17g},{v:.17g},{np.cos(u) ** 2 * (1 + v / 2) ** 2:.17g}\n")
    return f"file:{path}"


@pytest.mark.parametrize("spec, eps, nu, nv", [("flat", 0.1, 101, 101), ("cos2", 0.1, 101, 101),
                                               ("exp", 0.1, 101, 101), ("file", 0.1, 61, 61),
                                               ("flat", 0.9, 41, 41), ("flat", 0.1, 201, 21)],
                         ids=["flat", "cos2", "exp", "file", "flat_substeps", "flat_201x21"])
def test_march_reading_the_samples_keeps_the_per_call_bits(spec, eps, nu, nv, tmp_path,
                                                           monkeypatch):
    # the march reads sqrt(G) at grid levels from the samples; evaluating
    # the metric at every stage point instead must give the same bits
    metric = make_metric(_v_dependent_sampled_metric(tmp_path) if spec == "file" else spec)
    grid = Grid2D.centered(0.1, 0.1, nu, nv)
    init = make_initial("linear_ramp", eps, 0.1)

    def solve():
        fr = solve_f(metric, init, grid)
        return fr, solve_g(metric, fr, init, grid)

    read = solve()
    monkeypatch.setattr(ivp, "_sqrt_g_reader", lambda metric, gbar, grid: (
        lambda v, L, R: metric.sqrt_g(grid.u_coords[L : R + 1], v)))
    called = solve()
    for a, b in zip(read, called):
        assert np.array_equal(a.field, b.field, equal_nan=True)
        assert a.steps == b.steps


def test_flat_201x21_takes_three_substeps_a_level():
    # the default box at 201 x 21: the CFL bound splits each level in three
    grid = Grid2D.centered(0.1, 0.1, 201, 21)
    init = make_initial("linear_ramp", 0.1, 0.1)
    fr = solve_f(make_metric("flat"), init, grid)
    assert fr.steps == 3 * (grid.nv - 1)


def _per_call_lambda(lam, grid, v, L, R):
    """lam on columns L..R at v as solve_g's coefficient took it per call,
    before the filled interval ends were tabulated."""
    t = (v - grid.v0) / grid.dv
    jlo = int(np.clip(math.floor(t), 0, grid.nv - 2))
    w = t - jlo
    lo = lam[L : R + 1, jlo]
    hi = lam[L : R + 1, jlo + 1]
    hi = np.where(np.isfinite(hi), hi, lo)
    lo = np.where(np.isfinite(lo), lo, hi)
    return lo * (1.0 - w) + hi * w


def _stage_points(grid, n_sub):
    """Every v at which the march takes a coefficient with n_sub substeps a
    level, in both directions, by the march's own arithmetic."""
    vs = grid.v_coords
    for j in range(grid.nv):
        for jn in (j - 1, j + 1):
            if 0 <= jn < grid.nv:
                h = (vs[jn] - vs[j]) / n_sub
                for s in range(n_sub):
                    v = vs[j] + s * h
                    yield from (v, v + 0.5 * h, v + h)


def test_lambda_tables_match_the_per_call_interpolation():
    grid = Grid2D.centered(0.1, 0.1, 9, 7)
    lam = np.random.default_rng(3).uniform(0.05, 0.2, (grid.nu, grid.nv))
    lam[1, 2] = np.nan            # the upper end of [v1, v2], the lower of [v2, v3]
    lam[3, 4] = lam[3, 5] = np.nan  # both ends of [v4, v5]
    lam[5, 0] = lam[6, -1] = np.nan  # the first and the last level
    lam[7, :] = np.nan            # a whole column
    lam_at = ivp._lambda_reader(lam, grid)
    # past either end too, where the clipped index extrapolates the end interval
    points = [*grid.v_coords, *_stage_points(grid, 1), *_stage_points(grid, 3),
              grid.v0 - 0.25 * grid.dv, grid.v_max + 0.25 * grid.dv]
    for v in points:
        for L, R in ((0, grid.nu - 1), (2, 6)):
            got = lam_at(v, L, R)
            want = _per_call_lambda(lam, grid, v, L, R)
            assert np.array_equal(got, want, equal_nan=True), (v, L, R)
    # each NaN case was reached: NaN stays only where both ends are NaN
    at_mid = lam_at(grid.v_coords[4] + 0.5 * grid.dv, 0, grid.nu - 1)
    assert np.isnan(at_mid[3]) and np.isnan(at_mid[7])
    assert np.isfinite(np.delete(at_mid, [3, 7])).all()


def test_validity_loss_when_slope_hits_guard():
    grid = Grid2D.centered(0.1, 0.1, 41, 41)
    slope = 1.0 - 1e-9  # inside the guard band
    init = InitialData(
        h=lambda u: slope * u, k=lambda u: 0.1 * u,
        dh=lambda u: slope * np.ones_like(np.asarray(u, dtype=float)),
        dk=lambda u: 0.1 * np.ones_like(np.asarray(u, dtype=float)),
    )
    with pytest.raises(ValidityLoss):
        solve_f(make_metric("flat"), init, grid)


def test_defect_scan_flags_kinked_data():
    grid = Grid2D.centered(0.1, 0.1, 201, 201)
    metric = make_metric("cos2")
    init = make_initial("c1_not_c2", 0.1, 0.1)
    fr = solve_f(metric, init, grid)
    rep = c2_defect_scan(fr.field, grid, threshold=1e-2)
    assert rep.found
    assert abs(rep.near_initial_u()) <= 2 * grid.du
    # the defect locus follows the slope-field characteristic: it drifts
    # leftward as v grows (speed -lam sqrt(G))
    top = [h for h in rep.hits if h.v > 0.08]
    bottom = [h for h in rep.hits if h.v < -0.08]
    assert top and bottom
    assert np.mean([h.u for h in top]) < 0 < np.mean([h.u for h in bottom])


def test_defect_scan_quiet_on_smooth_data():
    grid = Grid2D.centered(0.1, 0.1, 201, 201)
    metric = make_metric("cos2")
    init = make_initial("linear_ramp", 0.1, 0.1)
    fr = solve_f(metric, init, grid)
    rep = c2_defect_scan(fr.field, grid, threshold=1e-2)
    assert not rep.found


def test_solve_g_requires_matching_grid(flat_solved):
    metric, init, grid, fr, _ = flat_solved
    other = Grid2D.centered(0.1, 0.1, 51, 51)
    with pytest.raises(BadParameter):
        solve_g(metric, fr, init, other)

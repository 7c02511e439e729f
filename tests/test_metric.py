import numpy as np
import pytest

from isoembed.errors import BadParameter, GridTooSmall, IoFailure, NonPositiveMetric, OutOfDomain
from isoembed.fields import Grid2D, ScalarField2D
from isoembed.metric import (
    GeodesicMetric2D,
    Rect,
    curvature_field,
    curvature_from_samples,
    load_metric_csv,
    make_metric,
    validate_metric,
)


def test_eval_registry_values():
    cos2 = make_metric("cos2", domain=Rect(-1.0, 1.0, -1.0, 1.0))
    assert cos2.eval(0.0, 0.0) == 1.0
    # direct evaluation cos^2(pi/6) = 3/4
    assert cos2.eval(np.pi / 6, 0.3) == pytest.approx(0.75, abs=1e-15)
    flat = make_metric("flat")
    assert flat.eval(0.123, -0.4) == 1.0
    exp = make_metric("exp")
    assert exp.eval(0.1, 0.0) == pytest.approx(np.exp(0.2), rel=1e-15)


def test_eval_is_pure():
    cos2 = make_metric("cos2")
    a = cos2.eval(0.07, 0.01)
    b = cos2.eval(0.07, 0.01)
    assert a == b  # bit-identical


def test_eval_out_of_domain():
    m = make_metric("cos2")
    with pytest.raises(OutOfDomain):
        m.eval(0.7, 0.0)


def test_eval_nonpositive():
    bad = GeodesicMetric2D(name="bad", domain=Rect(-1, 1, -1, 1),
                           g_fn=lambda u, v: u - 0.5)
    with pytest.raises(NonPositiveMetric):
        bad.eval(0.2, 0.0)


def test_unknown_metric_name():
    with pytest.raises(BadParameter, match="unknown metric 'nope'"):
        make_metric("nope")


def test_curvature_analytic_values():
    grid = Grid2D.centered(0.1, 0.1, 41, 41)
    k_cos = curvature_field(make_metric("cos2"), grid)
    assert np.allclose(k_cos.values, 1.0, atol=1e-12)
    k_flat = curvature_field(make_metric("flat"), grid)
    assert np.allclose(k_flat.values, 0.0, atol=1e-15)
    k_exp = curvature_field(make_metric("exp"), grid)
    assert np.allclose(k_exp.values, -1.0, atol=1e-12)


def test_curvature_stencil_matches_analytic():
    grid = Grid2D.centered(0.1, 0.1, 201, 201)
    for name, target in (("cos2", 1.0), ("exp", -1.0)):
        k = curvature_from_samples(make_metric(name).sample(grid))
        vals = k.values[k.mask]
        assert np.max(np.abs(vals - target)) < 1e-4


@pytest.mark.parametrize("name,target", [("cos2", 1.0), ("exp", -1.0), ("flat", 0.0)])
def test_curvature_stencil_convergence_order(name, target):
    # halving the spacing must cut the curvature error by >= 3.5 (order 2);
    # the flat metric is exact, so its errors sit at the noise floor
    errs = []
    for n in (51, 101, 201):
        grid = Grid2D.centered(0.2, 0.2, n, n)
        k = curvature_from_samples(make_metric(name).sample(grid))
        errs.append(np.nanmax(np.abs(k.values - target)))
    if all(e < 1e-12 for e in errs):
        return
    assert errs[0] / errs[1] >= 3.5
    assert errs[1] / errs[2] >= 3.5


def test_curvature_flat_is_zero_fd():
    grid = Grid2D.centered(0.1, 0.1, 51, 51)
    k = curvature_from_samples(make_metric("flat").sample(grid))
    assert np.nanmax(np.abs(k.values)) < 1e-12


def test_gauss_curvature_entry_points():
    grid = Grid2D.centered(0.1, 0.1, 51, 51)
    m = make_metric("cos2")
    k1 = curvature_field(m, grid)
    assert np.allclose(k1.values, 1.0, atol=1e-12)
    k2 = curvature_from_samples(m.sample(grid))
    assert np.nanmax(np.abs(k2.values - 1.0)) < 1e-4


def test_curvature_rejects_nonpositive_samples():
    grid = Grid2D.centered(0.1, 0.1, 11, 11)
    vals = np.ones((11, 11))
    vals[5, 5] = -0.2
    with pytest.raises(NonPositiveMetric):
        curvature_from_samples(ScalarField2D(grid, vals))


def test_curvature_grid_too_small():
    grid = Grid2D.centered(0.1, 0.1, 4, 5)
    fld = ScalarField2D.constant(grid, 1.0)
    with pytest.raises(GridTooSmall):
        curvature_from_samples(fld)


def test_validate_flat_empty():
    rep = validate_metric(make_metric("flat").sample(Grid2D.centered(0.3, 0.3, 21, 21)),
                          tol=1e-8)
    assert rep.ok


def test_validate_cos2_positive_inside():
    m = make_metric("cos2", domain=Rect(-1.5, 1.5, -1.5, 1.5))
    rep = validate_metric(m.sample(Grid2D.centered(1.5, 1.5, 301, 11)), tol=1e-8)
    assert rep.ok  # cos^2(1.5) ~ 0.0050 > 0


def test_validate_cos2_flags_zero_crossing():
    # place a grid node (numerically) on pi/2, where cos^2 vanishes
    m = make_metric("cos2", domain=Rect(-2.0, 2.0, -1.0, 1.0))
    du = 0.03
    grid = Grid2D(u0=np.pi / 2 - 50 * du, v0=-0.1, du=du, dv=0.1, nu=60, nv=3)
    rep = validate_metric(m.sample(grid), tol=1e-8)
    kinds = {v.kind for v in rep.violations}
    assert "nonpositive" in kinds
    worst = min(rep.violations, key=lambda v: v.value)
    assert abs(worst.coords[0] - np.pi / 2) < du


def test_validate_slope_bound():
    steep = GeodesicMetric2D(name="steep", domain=Rect(-1, 1, -1, 1),
                             g_fn=lambda u, v: 1.0 + 1e7 * np.abs(u))
    rep = validate_metric(steep.sample(Grid2D.centered(0.5, 0.5, 11, 11)), tol=1e-8,
                          slope_bound=1e6)
    assert any(v.kind == "first_difference" for v in rep.violations)


def test_metric_csv_roundtrip(tmp_path):
    grid = Grid2D.centered(0.2, 0.2, 11, 11)
    U, V = grid.meshgrid()
    g = 1.0 + 0.1 * U + 0.05 * V
    path = tmp_path / "metric.csv"
    with open(path, "w") as fh:
        fh.write("ubar,vbar,G\n")
        for i in range(11):
            for j in range(11):
                fh.write(f"{U[i, j]:.17g},{V[i, j]:.17g},{g[i, j]:.17g}\n")
    m = load_metric_csv(str(path))
    assert m.source == "sampled"
    # bilinear interpolation reproduces a bilinear G exactly
    assert m.eval(0.013, -0.027) == pytest.approx(1.0 + 0.1 * 0.013 + 0.05 * -0.027, abs=1e-12)
    m2 = make_metric(f"file:{path}")
    assert m2.eval(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_metric_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(IoFailure):
        load_metric_csv(str(p))
    p2 = tmp_path / "incomplete.csv"
    p2.write_text("ubar,vbar,G\n0,0,1\n0,1,1\n1,0,1\n")
    with pytest.raises(IoFailure):
        load_metric_csv(str(p2))
    p3 = tmp_path / "nonpos.csv"
    rows = ["ubar,vbar,G"]
    for i in range(3):
        for j in range(3):
            rows.append(f"{i},{j},{-1.0 if i == j == 1 else 1.0}")
    p3.write_text("\n".join(rows) + "\n")
    with pytest.raises(NonPositiveMetric):
        load_metric_csv(str(p3))
    p4 = tmp_path / "text.csv"
    p4.write_text("ubar,vbar,G\n0,0,one\n")
    with pytest.raises(BadParameter, match="malformed metric row"):
        load_metric_csv(str(p4))
    p5 = tmp_path / "empty.csv"
    p5.write_text("")
    with pytest.raises(IoFailure, match="expected header"):
        load_metric_csv(str(p5))
    # a node given twice in place of another passes the row count and would
    # leave that other node unset
    p6 = tmp_path / "repeated.csv"
    rows = ["ubar,vbar,G"] + [f"{i},{j},1" for i in range(5) for j in range(5)]
    rows[1 + 2 * 5 + 3] = "2,2,1"
    p6.write_text("\n".join(rows) + "\n")
    with pytest.raises(IoFailure, match="complete 5x5 grid"):
        load_metric_csv(str(p6))

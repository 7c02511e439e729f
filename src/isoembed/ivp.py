"""Marching solver for the two first-order initial-value problems.

The pair of PDEs, written with the characteristic slope
lam(f_u) = f_u / sqrt(1 - f_u^2) (positive branch, valid for 0 < f_u < 1):

    sqrt(G) f_u + lam f_v = 0          (fully nonlinear in f)
    lam sqrt(G) g_u - g_v = 0          (linear transport, lam frozen from f)

With the positive branch the first equation is equivalent to the marched
normal form f_v = -sqrt(G) * sqrt(1 - f_u^2), which is what the solver
advances: classical RK4 in v (sub-stepped under a CFL bound
dv <= CFL * du / max|lam sqrt(G)|) with 2nd-order central differences in
u and one-sided stencils at the interval ends. Both directions away from
the initial line v = 0 are marched. The march evaluates sqrt(G) at 3
points per RK4 substep: start, midpoint (k2 and k3) and end. With more
than one substep in a level, the point where one substep ends and the
next begins is evaluated twice, as the first one's end and the second
one's start. solve_f samples G once on the grid's nodes; both
residuals, and every later stage of a run, read those samples. It also
takes lam from f's stencil once, for g's march and both residuals.

The march works level-major: each v level is one contiguous row. sqrt(G)
at the grid levels, and the two filled ends of each v interval of lam,
are tabulated that way once per run, and the marched levels are
transposed to the (nu, nv) layout once at the end. A stage point then
reads contiguous rows, not one value per row of a (nu, nv) array.

The valid region shrinks laterally by the characteristic cone (the
one-sided boundary stencils are only trustworthy inside the numerical
domain of dependence), producing a trapezoidal mask. Nodes where f_u
comes within GUARD of 1 are masked, never clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BadParameter, ValidityLoss
from .fields import Grid2D, ScalarField2D
from .initial import InitialData
from .metric import GeodesicMetric2D


CFL = 0.5  # substep bound: dv <= CFL * du / max characteristic speed
GUARD = 1e-6  # f_u >= 1 - GUARD is masked: lam blows up at f_u = 1


@dataclass
class SolveReport:
    field: ScalarField2D
    max_residual: float  # sup and mean of the substitution residual
    mean_residual: float
    steps: int
    intervals: np.ndarray  # (nv, 2) valid column interval [L, R] per level, L > R = empty
    d_u: np.ndarray  # the field's stencil derivatives, taken once here for every consumer
    d_v: np.ndarray
    gbar: ScalarField2D  # the metric's G on the grid's nodes, sampled once by solve_f
    # slope_to_lambda of f's d_u, NaN where invalid: taken once by solve_f for
    # the g march and both residuals; g's report holds none, and run_pipeline
    # drops f's once g is marched
    lam: np.ndarray = None

    @property
    def mask(self):
        return self.field.mask


def slope_to_lambda(fu):
    """lam = fu / sqrt(1 - fu^2) on the positive branch; NaN where invalid."""
    fu = np.asarray(fu, dtype=float)
    ok = np.isfinite(fu) & (fu > 0.0) & (fu < 1.0 - GUARD)
    lam = np.full_like(fu, np.nan)
    lam[ok] = fu[ok] / np.sqrt(1.0 - fu[ok] ** 2)
    return lam, ok


def _segment_slope(seg, du):
    """2nd-order slope of a row segment: central interior, one-sided ends."""
    fu = np.empty_like(seg)
    fu[1:-1] = (seg[2:] - seg[:-2]) / (2.0 * du)
    fu[0] = (-3.0 * seg[0] + 4.0 * seg[1] - seg[2]) / (2.0 * du)
    fu[-1] = (3.0 * seg[-1] - 4.0 * seg[-2] + seg[-3]) / (2.0 * du)
    return fu


def _march(grid, seed_row, coeff, rhs, speed_of, guard_check=None, clamp=None):
    """Advance both directions from the v = 0 row, which holds seed_row.

    coeff(v, L, R) -> the equation's coefficient on columns L..R at v, taken
    at the start, midpoint and end of each substep, so a point where two
    substeps of one level meet is taken twice;
    rhs(seg, c) -> dv-derivative of the row segment under coefficient c;
    speed_of(seg, c) -> max characteristic speed (for CFL + cone);
    guard_check(seg, L, R) -> per-column bool of guard violations, or None;
    clamp -> per-level column intervals the march may not exceed (used to
    keep the transport solve inside the coefficient field's support).
    Returns (values, mask, intervals, substep count).
    """
    nu, nv = grid.nu, grid.nv
    du = grid.du
    j0 = grid.row_index_of_v(0.0)
    vs = grid.v_coords
    # level-major while marching: each level is one contiguous row
    values = np.full((nv, nu), np.nan)
    mask = np.zeros((nv, nu), dtype=bool)
    intervals = np.empty((nv, 2), dtype=int)
    intervals[:, 0] = 1
    intervals[:, 1] = 0
    values[j0] = seed_row
    mask[j0] = True
    intervals[j0] = (0, nu - 1)
    steps = 0

    for direction in (+1, -1):
        L, R = 0, nu - 1
        cone = 0.0
        row = values[j0].copy()
        j = j0
        while (direction > 0 and j < nv - 1) or (direction < 0 and j > 0):
            jn = j + direction
            v_from, v_to = vs[j], vs[jn]
            dv_level = v_to - v_from

            seg = row[L : R + 1].copy()
            c = coeff(v_from, L, R)
            smax = speed_of(seg, c)
            n_sub = max(1, int(math.ceil(abs(dv_level) * smax / (CFL * du))) if smax > 0 else 1)
            h = dv_level / n_sub
            for s in range(n_sub):
                v = v_from + s * h
                if s:
                    c = coeff(v, L, R)
                c_mid = coeff(v + 0.5 * h, L, R)
                k1 = rhs(seg, c)
                k2 = rhs(seg + 0.5 * h * k1, c_mid)
                k3 = rhs(seg + 0.5 * h * k2, c_mid)
                k4 = rhs(seg + h * k3, coeff(v + h, L, R))
                seg = seg + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                steps += 1
            row = np.full(nu, np.nan)
            row[L : R + 1] = seg

            # lateral shrink: characteristic cone around the one-sided stencils
            cone += abs(dv_level) * smax / du
            cut = int(math.ceil(cone - 1e-12))
            Ln = max(L, cut)
            Rn = min(R, nu - 1 - cut)
            if clamp is not None:
                Ln = max(Ln, int(clamp[jn, 0]))
                Rn = min(Rn, int(clamp[jn, 1]))

            if Rn - Ln + 1 >= 3:
                viol = ~np.isfinite(row[Ln : Rn + 1])
                if guard_check is not None:
                    viol |= guard_check(row, Ln, Rn)
                if viol.any():
                    i_mid = nu // 2
                    for col in np.flatnonzero(viol) + Ln:
                        if col <= i_mid:
                            Ln = max(Ln, col + 1)
                        else:
                            Rn = min(Rn, col - 1)

            if Rn - Ln + 1 < 3:
                break
            L, R = Ln, Rn
            values[jn, L : R + 1] = row[L : R + 1]
            mask[jn, L : R + 1] = True
            intervals[jn] = (L, R)
            j = jn
    return np.ascontiguousarray(values.T), np.ascontiguousarray(mask.T), intervals, steps


def _sqrt_g_reader(metric: GeodesicMetric2D, gbar: ScalarField2D):
    """sqrt(G) on columns L..R at v, read from the samples gbar where v is
    bitwise one of their grid levels and evaluated by the metric elsewhere.

    metric.sample has checked every grid node for domain and positivity,
    and G is taken per point, so both routes give the same bits. The
    samples' roots are taken once, into a level-major table whose levels
    are contiguous rows."""
    u = gbar.grid.u_coords
    level = {v: j for j, v in enumerate(gbar.grid.v_coords.tolist())}
    root = np.sqrt(np.ascontiguousarray(gbar.values.T))

    def sqrt_g(v, L, R):
        j = level.get(v)
        if j is None:
            return metric.sqrt_g(u[L : R + 1], v)
        return root[j, L : R + 1]

    return sqrt_g


def _lambda_reader(lam, grid: Grid2D):
    """lam on columns L..R at v, linear in v between the two grid levels
    that bracket it; where one end is NaN the other end stands for both.

    Each interval's two filled ends are tabulated once, level-major: the
    tables lo[j], hi[j] hold the ends of [v_j, v_{j+1}] as contiguous rows."""
    rows = np.ascontiguousarray(lam.T)
    hi = np.where(np.isfinite(rows[1:]), rows[1:], rows[:-1])
    lo = np.where(np.isfinite(rows[:-1]), rows[:-1], hi)
    top = grid.nv - 2

    def lam_at(v, L, R):
        t = (v - grid.v0) / grid.dv
        j = min(max(math.floor(t), 0), top)
        w = t - j
        return lo[j, L : R + 1] * (1.0 - w) + hi[j, L : R + 1] * w

    return lam_at


def solve_f(metric: GeodesicMetric2D, init: InitialData, grid: Grid2D) -> SolveReport:
    """March f from f(u, 0) = h(u) by f_v = -sqrt(G) sqrt(1 - f_u^2).

    G is sampled on the grid once (metric.sample); the march reads those
    samples at grid levels, and the report keeps them for the run."""
    if grid.row_index_of_v(0.0) is None:
        raise BadParameter("grid must contain the initial line v = 0 as a grid row")
    gbar = metric.sample(grid)
    u = grid.u_coords
    init.check_grid(u)

    coeff = _sqrt_g_reader(metric, gbar)

    def rhs(seg, sqrt_g):
        fu = _segment_slope(seg, grid.du)
        radicand = np.maximum(1.0 - fu**2, 0.0)
        return -sqrt_g * np.sqrt(radicand)

    def speed_of(seg, sqrt_g):
        fu = np.clip(_segment_slope(seg, grid.du), 0.0, 1.0 - GUARD)
        lam = fu / np.sqrt(1.0 - fu**2)
        return float(np.max(lam * sqrt_g))

    def guard_check(row, L, R):
        fu = _segment_slope(row[L : R + 1], grid.du)
        return (fu >= 1.0 - GUARD) | (fu <= 0.0)

    values, mask, intervals, steps = _march(grid, init.h(u), coeff, rhs, speed_of,
                                            guard_check=guard_check)

    if mask.sum() <= grid.nu:
        raise ValidityLoss("f lost validity immediately off the initial line")

    f = ScalarField2D(grid, values, mask=mask)
    fu, fv = f.d_u().values, f.d_v().values
    lam, _ = slope_to_lambda(fu)
    sup, mean = residual_f(gbar, f, fu, fv, lam)
    return SolveReport(field=f, max_residual=sup, mean_residual=mean, steps=steps,
                       intervals=intervals, d_u=fu, d_v=fv, gbar=gbar, lam=lam)


def solve_g(metric: GeodesicMetric2D, f_report: SolveReport, init: InitialData,
            grid: Grid2D) -> SolveReport:
    """March the transport equation g_v = lam sqrt(G) g_u with lam from f.

    lam is f's report's, and is interpolated linearly in v at RK4 stage
    points; g inherits f's validity. The march at grid levels and the
    residual read the G samples of f's report.
    """
    if grid.row_index_of_v(0.0) is None:
        raise BadParameter("grid must contain the initial line v = 0 as a grid row")
    if f_report.field.grid != grid:
        raise BadParameter("f was solved on a different grid")
    u = grid.u_coords
    init.check_grid(u)

    lam_at = _lambda_reader(f_report.lam, grid)
    sqrt_g = _sqrt_g_reader(metric, f_report.gbar)

    def coeff(v, L, R):
        return lam_at(v, L, R) * sqrt_g(v, L, R)

    def rhs(seg, c):
        return c * _segment_slope(seg, grid.du)

    def speed_of(seg, c):
        return float(np.max(np.abs(np.where(np.isfinite(c), c, 0.0))))

    values, mask, intervals, steps = _march(grid, init.k(u), coeff, rhs, speed_of,
                                            clamp=f_report.intervals)

    # g carries no claim where f carries none
    mask &= f_report.mask

    g = ScalarField2D(grid, values, mask=mask)
    gu, gv = g.d_u().values, g.d_v().values
    sup, mean = residual_g(f_report.gbar, f_report.field, f_report.lam, g, gu, gv)
    return SolveReport(field=g, max_residual=sup, mean_residual=mean, steps=steps,
                       intervals=intervals, d_u=gu, d_v=gv, gbar=f_report.gbar)


def residual_f(gbar: ScalarField2D, f: ScalarField2D, fu, fv, lam) -> tuple:
    """(sup, mean) of the substitution residual |sqrt(G) f_u + lam f_v|
    from G's samples gbar, f's stencils fu, fv and lam = slope_to_lambda(fu)."""
    res = np.sqrt(gbar.values) * fu + lam * fv
    valid = f.mask & np.isfinite(lam) & np.isfinite(fv)
    fld = ScalarField2D(f.grid, np.abs(res), mask=valid & np.isfinite(res))
    return fld.sup(), fld.mean_abs()


def residual_g(gbar: ScalarField2D, f: ScalarField2D, lam, g: ScalarField2D, gu, gv) -> tuple:
    """(sup, mean) of the substitution residual |lam sqrt(G) g_u - g_v|;
    lam frozen from f's stencil (slope_to_lambda), G from its samples gbar."""
    res = lam * np.sqrt(gbar.values) * gu - gv
    valid = g.mask & f.mask & np.isfinite(lam) & np.isfinite(gu) & np.isfinite(gv)
    fld = ScalarField2D(g.grid, np.abs(res), mask=valid & np.isfinite(res))
    return fld.sup(), fld.mean_abs()


@dataclass
class DefectHit:
    row: int
    col: int
    u: float
    v: float
    jump: float


@dataclass
class DefectReport:
    """Output of the C^2-defect scan: rows where the one-sided second
    differences of f disagree beyond threshold, i.e. a curvature kink."""

    threshold: float
    hits: list = dc_field(default_factory=list)

    @property
    def found(self):
        return bool(self.hits)

    def near_initial_u(self):
        """u of the strongest hit on the row closest to v = 0 (or None)."""
        if not self.hits:
            return None
        best = min(self.hits, key=lambda h: (abs(h.v), -abs(h.jump)))
        return best.u


def c2_defect_scan(f: ScalarField2D, threshold=1e-2) -> DefectReport:
    """Scan each marching level for a jump between one-sided second
    differences of f along u; per row, report the strongest super-threshold
    jump. Smooth data stays orders of magnitude below any sane threshold.
    """
    grid = f.grid
    du2 = grid.du**2
    vals = f.values
    m = f.mask
    report = DefectReport(threshold=threshold)
    us = grid.u_coords
    vscoord = grid.v_coords
    for j in range(grid.nv):
        col_ok = m[:, j]
        idx = np.flatnonzero(col_ok)
        if idx.size < 5:
            continue
        L, R = idx[0], idx[-1]
        seg = vals[L : R + 1, j]
        if not np.all(np.isfinite(seg)):
            continue
        # right- and left-sided second differences about each interior column
        right2 = (seg[4:] - 2.0 * seg[3:-1] + seg[2:-2]) / du2
        left2 = (seg[2:-2] - 2.0 * seg[1:-3] + seg[:-4]) / du2
        jump = right2 - left2
        k = int(np.argmax(np.abs(jump)))
        if abs(jump[k]) > threshold:
            col = L + 2 + k
            report.hits.append(
                DefectHit(row=j, col=col, u=float(us[col]), v=float(vscoord[j]),
                          jump=float(jump[k]))
            )
    report.hits.sort(key=lambda h: h.row)
    return report

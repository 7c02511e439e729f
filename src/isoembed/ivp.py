"""Marching solver for the two first-order initial-value problems.

The pair of PDEs, written with the characteristic slope
lam(f_u) = f_u / sqrt(1 - f_u^2) (positive branch, valid for 0 < f_u < 1):

    sqrt(G) f_u + lam f_v = 0          (fully nonlinear in f)
    lam sqrt(G) g_u - g_v = 0          (linear transport, lam frozen from f)

With the positive branch the first equation is equivalent to the marched
normal form f_v = -sqrt(G) * sqrt(1 - f_u^2), which is what the solver
advances: classical RK4 in v (sub-stepped under a CFL bound
dv <= cfl * du / max|lam sqrt(G)|) with 2nd-order central differences in
u and one-sided stencils at the interval ends. Both directions away from
the initial line v = 0 are marched.

The valid region shrinks laterally by the characteristic cone (the
one-sided boundary stencils are only trustworthy inside the numerical
domain of dependence), producing a trapezoidal mask. Nodes where f_u
approaches 1 are masked, never clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BadParameter, BranchViolation, OutOfDomain, ValidityLoss
from .fields import Grid2D, ScalarField2D
from .initial import InitialData
from .metric import GeodesicMetric2D


@dataclass
class SolveOptions:
    residual_tol: float = 1e-6
    cfl: float = 0.5
    guard: float = 1e-6


@dataclass
class SolveReport:
    field: ScalarField2D
    residual: ScalarField2D
    max_residual: float
    steps: int
    intervals: np.ndarray  # (nv, 2) valid column interval [L, R] per level, L > R = empty
    d_u: np.ndarray  # the field's stencil derivatives, taken once here for every consumer
    d_v: np.ndarray

    @property
    def mask(self):
        return self.field.mask


def slope_to_lambda(fu, guard=1e-6):
    """lam = fu / sqrt(1 - fu^2) on the positive branch; NaN where invalid."""
    fu = np.asarray(fu, dtype=float)
    ok = np.isfinite(fu) & (fu > 0.0) & (fu < 1.0 - guard)
    lam = np.full_like(fu, np.nan)
    lam[ok] = fu[ok] / np.sqrt(1.0 - fu[ok] ** 2)
    return lam, ok


def lambda_field(fu_field: ScalarField2D, guard=1e-6) -> ScalarField2D:
    """Characteristic-slope field from a sampled f_u field (a test oracle).

    Raises BranchViolation if f_u <= 0 on a valid node; nodes with
    f_u >= 1 - guard are masked (validity loss, not fatal). The solver
    converts slopes row by row with slope_to_lambda and never calls this;
    tests use it to pin that conversion and its branch rule on whole fields.
    """
    vals = fu_field.values
    valid = fu_field.mask & np.isfinite(vals)
    if np.any(vals[valid] <= 0.0):
        raise BranchViolation("f_u <= 0 on a valid node; positive branch required")
    lam, ok = slope_to_lambda(vals, guard=guard)
    return ScalarField2D(fu_field.grid, lam, mask=valid & ok)


def _interval_slope_from_seg(seg, du):
    """2nd-order slope of a row segment: central interior, one-sided ends."""
    fu = np.empty_like(seg)
    fu[1:-1] = (seg[2:] - seg[:-2]) / (2.0 * du)
    fu[0] = (-3.0 * seg[0] + 4.0 * seg[1] - seg[2]) / (2.0 * du)
    fu[-1] = (3.0 * seg[-1] - 4.0 * seg[-2] + seg[-3]) / (2.0 * du)
    return fu


def _interval_slope(row, L, R, du):
    return _interval_slope_from_seg(row[L : R + 1], du)


def _march(grid, metric, init_row, rhs, speed_of, cfl, direction, values, mask, intervals,
           guard_check=None, clamp=None):
    """Advance one direction from the v = 0 row; returns substep count.

    rhs(v, seg, L, R) -> dv-derivative of the row segment;
    speed_of(v, seg, L, R) -> max characteristic speed (for CFL + cone);
    guard_check(seg, L, R) -> per-column bool of guard violations, or None;
    clamp -> per-level column intervals the march may not exceed (used to
    keep the transport solve inside the coefficient field's support).
    """
    nu, nv = grid.nu, grid.nv
    du = grid.du
    j0 = grid.row_index_of_v(0.0)
    vs = grid.v_coords
    steps = 0

    L, R = 0, nu - 1
    cone = 0.0
    row = init_row.copy()
    j = j0
    while (direction > 0 and j < nv - 1) or (direction < 0 and j > 0):
        jn = j + direction
        v_from, v_to = vs[j], vs[jn]
        dv_level = v_to - v_from

        smax = speed_of(v_from, row, L, R)
        n_sub = max(1, int(math.ceil(abs(dv_level) * smax / (cfl * du))) if smax > 0 else 1)
        h = dv_level / n_sub
        seg = row[L : R + 1].copy()
        for s in range(n_sub):
            v = v_from + s * h
            k1 = rhs(v, seg, L, R)
            k2 = rhs(v + 0.5 * h, seg + 0.5 * h * k1, L, R)
            k3 = rhs(v + 0.5 * h, seg + 0.5 * h * k2, L, R)
            k4 = rhs(v + h, seg + h * k3, L, R)
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
                for c in np.flatnonzero(viol) + Ln:
                    if c <= i_mid:
                        Ln = max(Ln, c + 1)
                    else:
                        Rn = min(Rn, c - 1)

        if Rn - Ln + 1 < 3:
            break
        L, R = Ln, Rn
        values[L : R + 1, jn] = row[L : R + 1]
        mask[L : R + 1, jn] = True
        intervals[jn] = (L, R)
        j = jn
    return steps


def solve_f(metric: GeodesicMetric2D, init: InitialData, grid: Grid2D,
            opts: SolveOptions = None) -> SolveReport:
    """March f from f(u, 0) = h(u) by f_v = -sqrt(G) sqrt(1 - f_u^2)."""
    opts = opts or SolveOptions()
    j0 = grid.row_index_of_v(0.0)
    if j0 is None:
        raise BadParameter("grid must contain the initial line v = 0 as a grid row")
    if not metric.domain.contains_grid(grid):
        raise OutOfDomain("grid does not fit inside the metric domain")
    u = grid.u_coords
    init.check_grid(u)

    guard = opts.guard

    def rhs(v, seg, L, R):
        fu = _interval_slope_from_seg(seg, grid.du)
        radicand = np.maximum(1.0 - fu**2, 0.0)
        return -metric.sqrt_g(u[L : R + 1], v) * np.sqrt(radicand)

    def speed_of(v, row, L, R):
        fu = _interval_slope(row, L, R, grid.du)
        fu = np.clip(fu, 0.0, 1.0 - guard)
        lam = fu / np.sqrt(1.0 - fu**2)
        return float(np.max(lam * metric.sqrt_g(u[L : R + 1], v)))

    def guard_check(row, L, R):
        fu = _interval_slope(row, L, R, grid.du)
        return (fu >= 1.0 - guard) | (fu <= 0.0)

    values = np.full((grid.nu, grid.nv), np.nan)
    mask = np.zeros((grid.nu, grid.nv), dtype=bool)
    intervals = np.empty((grid.nv, 2), dtype=int)
    intervals[:, 0] = 1
    intervals[:, 1] = 0
    values[:, j0] = init.h(u)
    mask[:, j0] = True
    intervals[j0] = (0, grid.nu - 1)

    steps = 0
    for direction in (+1, -1):
        steps += _march(grid, metric, values[:, j0], rhs, speed_of, opts.cfl, direction,
                        values, mask, intervals, guard_check=guard_check)

    if mask.sum() <= grid.nu:
        raise ValidityLoss("f lost validity immediately off the initial line")

    f = ScalarField2D(grid, values, mask=mask)
    fu, fv = f.d_u().values, f.d_v().values
    res = residual_f(metric, f, fu, fv, guard=guard)
    return SolveReport(field=f, residual=res, max_residual=res.sup(), steps=steps,
                       intervals=intervals, d_u=fu, d_v=fv)


def solve_g(metric: GeodesicMetric2D, f_report: SolveReport, init: InitialData,
            grid: Grid2D, opts: SolveOptions = None) -> SolveReport:
    """March the transport equation g_v = lam sqrt(G) g_u with lam from f.

    lam is evaluated per level from the stored f (linear interpolation in v
    at RK4 stage points); g inherits f's validity.
    """
    opts = opts or SolveOptions()
    j0 = grid.row_index_of_v(0.0)
    if j0 is None:
        raise BadParameter("grid must contain the initial line v = 0 as a grid row")
    if f_report.field.grid != grid:
        raise BadParameter("f was solved on a different grid")
    u = grid.u_coords
    init.check_grid(u)

    lam_rows, _ = slope_to_lambda(f_report.d_u, guard=opts.guard)

    def lam_at(v, L, R):
        """Linear interpolation of lam between the two bracketing levels."""
        t = (v - grid.v0) / grid.dv
        jlo = int(np.clip(math.floor(t), 0, grid.nv - 2))
        w = t - jlo
        lo = lam_rows[L : R + 1, jlo]
        hi = lam_rows[L : R + 1, jlo + 1]
        hi = np.where(np.isfinite(hi), hi, lo)
        lo = np.where(np.isfinite(lo), lo, hi)
        return lo * (1.0 - w) + hi * w

    def rhs(v, seg, L, R):
        gu = _interval_slope_from_seg(seg, grid.du)
        return lam_at(v, L, R) * metric.sqrt_g(u[L : R + 1], v) * gu

    def speed_of(v, row, L, R):
        lam = lam_at(v, L, R)
        lam = np.where(np.isfinite(lam), lam, 0.0)
        return float(np.max(np.abs(lam) * metric.sqrt_g(u[L : R + 1], v)))

    values = np.full((grid.nu, grid.nv), np.nan)
    mask = np.zeros((grid.nu, grid.nv), dtype=bool)
    intervals = np.empty((grid.nv, 2), dtype=int)
    intervals[:, 0] = 1
    intervals[:, 1] = 0
    values[:, j0] = init.k(u)
    mask[:, j0] = True
    intervals[j0] = (0, grid.nu - 1)

    steps = 0
    for direction in (+1, -1):
        steps += _march(grid, metric, values[:, j0], rhs, speed_of, opts.cfl, direction,
                        values, mask, intervals, clamp=f_report.intervals)

    # g carries no claim where f carries none
    mask &= f_report.mask

    g = ScalarField2D(grid, values, mask=mask)
    gu, gv = g.d_u().values, g.d_v().values
    res = residual_g(metric, f_report.field, f_report.d_u, g, gu, gv, guard=opts.guard)
    return SolveReport(field=g, residual=res, max_residual=res.sup(), steps=steps,
                       intervals=intervals, d_u=gu, d_v=gv)


def residual_f(metric: GeodesicMetric2D, f: ScalarField2D, fu, fv,
               guard=1e-6) -> ScalarField2D:
    """Substitution residual sqrt(G) f_u + lam f_v from f's stencils fu, fv."""
    lam, ok = slope_to_lambda(fu, guard=guard)
    U, V = f.grid.meshgrid()
    sqrt_g = np.sqrt(np.asarray(metric.g_fn(U, V), dtype=float) * np.ones_like(U))
    res = sqrt_g * fu + lam * fv
    valid = f.mask & ok & np.isfinite(fv)
    return ScalarField2D(f.grid, np.abs(res), mask=valid & np.isfinite(res))


def residual_g(metric: GeodesicMetric2D, f: ScalarField2D, fu, g: ScalarField2D, gu, gv,
               guard=1e-6) -> ScalarField2D:
    """Substitution residual lam sqrt(G) g_u - g_v; lam frozen from f's stencil fu."""
    lam, ok = slope_to_lambda(fu, guard=guard)
    U, V = g.grid.meshgrid()
    sqrt_g = np.sqrt(np.asarray(metric.g_fn(U, V), dtype=float) * np.ones_like(U))
    res = lam * sqrt_g * gu - gv
    valid = g.mask & f.mask & ok & np.isfinite(gu) & np.isfinite(gv)
    return ScalarField2D(g.grid, np.abs(res), mask=valid & np.isfinite(res))


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

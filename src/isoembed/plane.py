"""Geodesic-parallel charts of the Euclidean plane.

A chart is built by sliding unit normals along a base curve:
(x, y)(u, v) = c(v) + u * n(v). Its induced metric is automatically in
geodesic form: E0 = |n|^2 = 1, F0 = n . (c' + u n') = 0, and

    G0(u, v) = (A(v) + B(v) u)^2

where A = |c'| is the base-curve speed and B = -A * kappa its signed
curvature scaled by speed. So a chart is fully described by functions of
v alone, and every chart source (a named `BaseCurve` or a fitted
`ChartProfile`) offers the same generator interface:

    point(v)    -> (cx, cy), the base point c(v)
    tangent(v)  -> (tx, ty), the unit tangent; n = (-ty, tx)
    speed(v)    -> A(v)
    slope(v)    -> B(v)
    regularity  -> 'analytic' or 'c1_only' (G0 kinks along a v-line)

Unit-speed named curves have A = 1, B = -kappa, the classical
G0 = (1 - u kappa)^2. Because every flat geodesic-form coefficient is of
the (A + B u)^2 shape, a chart can also be synthesized directly from a
fitted (A, B) profile; that is how the pipeline matches the chart to the
compatibility target produced by the linear system. A fitted profile's
base point integrates its velocity A(v) (cos theta, sin theta) from a
table at fixed anchors v_center + k H, H = v_scale / ANCHOR_CELLS, so it
depends on the profile and v alone, never on which points are asked for
together. A PlaneChart is the generator on its grid and keeps no samples;
`PlaneChart.sample` evaluates it once per v-line and broadcasts over u, for
`chart_checks` and the written lift.

`chart_checks` differences the sampled chart once with 4th-order stencils
and computes each chart verdict's quantity once from it: the geodesic-form
triple (|E0 - 1|, |F0|, |G0_stencil - G0|), min |J| and the lift's
min(EG - F^2). The u-lines are straight, so the stencil reads x_u exactly
up to rounding and |E0 - 1| catches a tangent that is not unit.

Normal convention: n = rotate(c', +90 deg), so kappa > 0 for
counterclockwise circles.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadParameter, FocalPoint, IoFailure
from .fields import Grid2D, first_derivative_4, sup_mean_abs

# Anchors of a fitted profile's base-point table lie H = v_scale / ANCHOR_CELLS
# apart, at most MAX_ANCHORS of them on each side of v_center
ANCHOR_CELLS = 1024
MAX_ANCHORS = 64 * ANCHOR_CELLS
# fit_chart_profile's polynomial degree in v, and its floor on G - 1
FIT_DEGREE = 2
FIT_FLOOR = 1e-12

# Gauss-Legendre nodes/weights (5-point) on [-1, 1] for the anchor cells
_GL_X = np.array([
    -0.9061798459386640, -0.5384693101056831, 0.0,
    0.5384693101056831, 0.9061798459386640,
])
_GL_W = np.array([
    0.2369268850561891, 0.4786286704993665, 0.5688888888888889,
    0.4786286704993665, 0.2369268850561891,
])


@dataclass
class BaseCurve:
    """Unit-speed plane curve: point, unit tangent and signed curvature."""

    name: str
    point: Callable    # v -> (x, y) arrays
    tangent: Callable  # v -> (tx, ty), unit
    curvature: Callable
    regularity: str = "analytic"  # 'analytic' | 'c1_only'

    def speed(self, v):
        return np.ones_like(np.asarray(v, dtype=float))

    def slope(self, v):
        return -np.asarray(self.curvature(v), dtype=float)


def _radius(spec: str) -> float:
    """Radius of a 'circle:R' or 'kinked:R' spec: a finite positive number."""
    raw = spec.split(":", 1)[1]
    try:
        r = float(raw)
    except ValueError:
        raise BadParameter(f"base curve '{spec}': radius '{raw}' is not a number") from None
    if not (np.isfinite(r) and r > 0):
        raise BadParameter(f"base curve '{spec}': radius must be finite and positive")
    return r


def make_base_curve(spec: str) -> BaseCurve:
    """'line', 'circle:R', 'kinked:R' or 'file:<path>' (polyline CSV v,x,y)."""
    if spec == "line":
        return BaseCurve(
            name="line",
            point=lambda v: (np.asarray(v, dtype=float), np.zeros_like(np.asarray(v, dtype=float))),
            tangent=lambda v: (np.ones_like(np.asarray(v, dtype=float)), np.zeros_like(np.asarray(v, dtype=float))),
            curvature=lambda v: np.zeros_like(np.asarray(v, dtype=float)),
        )
    if spec.startswith("circle:"):
        r = _radius(spec)
        return BaseCurve(
            name=spec,
            point=lambda v: (r * np.sin(v / r), r * (1.0 - np.cos(v / r))),
            tangent=lambda v: (np.cos(v / r), np.sin(v / r)),
            curvature=lambda v: np.full_like(np.asarray(v, dtype=float), 1.0 / r),
        )
    if spec.startswith("kinked:"):
        r = _radius(spec)

        def point(v):
            v = np.asarray(v, dtype=float)
            arc = v >= 0.0
            x = np.where(arc, r * np.sin(v / r), v)
            y = np.where(arc, r * (1.0 - np.cos(v / r)), 0.0)
            return x, y

        def tangent(v):
            v = np.asarray(v, dtype=float)
            arc = v >= 0.0
            tx = np.where(arc, np.cos(v / r), 1.0)
            ty = np.where(arc, np.sin(v / r), 0.0)
            return tx, ty

        def curvature(v):
            v = np.asarray(v, dtype=float)
            return np.where(v >= 0.0, 1.0 / r, 0.0)

        return BaseCurve(name=spec, point=point, tangent=tangent,
                         curvature=curvature, regularity="c1_only")
    if spec.startswith("file:"):
        return load_polyline_curve(spec[len("file:"):])
    raise BadParameter(
        f"unknown base curve '{spec}'; expected line, circle:R, kinked:R or file:<path>"
    )


def load_polyline_curve(path: str) -> BaseCurve:
    """Polyline from CSV 'v,x,y', reparametrized to unit speed.

    Arc length accumulates exactly over segments; tangents come from
    segment directions and curvature from their finite differences, so the
    input must be finely sampled.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if [c.strip() for c in header] != ["v", "x", "y"]:
                raise IoFailure(f"{path}: expected header 'v,x,y'")
            data = np.array([[float(a), float(b), float(c)] for a, b, c in reader])
    except OSError as exc:
        raise IoFailure(f"cannot read polyline {path}: {exc}") from exc
    except (ValueError, csv.Error) as exc:
        raise BadParameter(f"{path}: malformed polyline row: {exc}") from None
    if data.shape[0] < 3:
        raise IoFailure(f"{path}: need at least 3 polyline points")
    order = np.argsort(data[:, 0])
    xs, ys = data[order, 1], data[order, 2]
    seg = np.hypot(np.diff(xs), np.diff(ys))
    if np.any(seg == 0.0):
        raise IoFailure(f"{path}: repeated consecutive points")
    s = np.concatenate([[0.0], np.cumsum(seg)])
    s -= s[s.size // 2]  # center arclength so v = 0 is mid-curve

    def interp_xy(v):
        v = np.asarray(v, dtype=float)
        x = np.interp(v, s, xs)
        y = np.interp(v, s, ys)
        return x, y

    # tangents at vertices: averaged segment directions, then renormalized
    tx_seg = np.diff(xs) / seg
    ty_seg = np.diff(ys) / seg
    tx_v = np.concatenate([[tx_seg[0]], 0.5 * (tx_seg[1:] + tx_seg[:-1]), [tx_seg[-1]]])
    ty_v = np.concatenate([[ty_seg[0]], 0.5 * (ty_seg[1:] + ty_seg[:-1]), [ty_seg[-1]]])
    norm = np.hypot(tx_v, ty_v)
    tx_v /= norm
    ty_v /= norm
    theta = np.unwrap(np.arctan2(ty_v, tx_v))
    dtheta = np.gradient(theta, s)

    def tangent(v):
        v = np.asarray(v, dtype=float)
        th = np.interp(v, s, theta)
        return np.cos(th), np.sin(th)

    def curvature(v):
        v = np.asarray(v, dtype=float)
        return np.interp(v, s, dtheta)

    return BaseCurve(name=f"file:{path}", point=interp_xy, tangent=tangent,
                     curvature=curvature, regularity="c1_only")


def _running_sum(terms):
    """Running sums of `terms` along axis 0, each within about a rounding of
    exact: np.cumsum's sequential sums, corrected by the running sum of the
    rounding error of each of its additions, which TwoSum (Knuth, TAOCP
    vol. 2, 4.2.2) recovers exactly."""
    total = np.cumsum(terms, axis=0)
    prev = np.zeros_like(total)
    prev[1:] = total[:-1]
    back = total - prev
    err = (prev - (total - back)) + (terms - back)
    return total + np.cumsum(err, axis=0)


@dataclass
class ChartProfile:
    """Chart generator G0 = (A(v) + B(v) u)^2 with polynomial A, B.

    Realized by a synthetic base curve of speed A(v) and turning rate
    theta'(v) = -B(v), with c(v_center) = 0. Positions integrate the
    velocity A(v) (cos theta, sin theta): a table holds c at the anchors
    v_center + k H (5-point Gauss per anchor cell, summed outward from
    k = 0), and each point adds Simpson's rule from its nearest anchor.
    """

    a_coeffs: np.ndarray  # A(v) = sum a_k * vt^k, vt = (v - v_center)/v_scale
    b_coeffs: np.ndarray
    v_center: float = 0.0
    v_scale: float = 1.0
    regularity = "analytic"  # class attribute, not a field: polynomials are smooth

    def _vt(self, v):
        return (np.asarray(v, dtype=float) - self.v_center) / self.v_scale

    def speed(self, v):
        return np.polyval(self.a_coeffs[::-1], self._vt(v))

    def slope(self, v):
        return np.polyval(self.b_coeffs[::-1], self._vt(v))

    def theta(self, v):
        # antiderivative of -B, zero at v_center
        k = np.arange(1, self.b_coeffs.size + 1)
        ascending = np.concatenate([[0.0], -self.b_coeffs / k])
        return np.polyval(ascending[::-1], self._vt(v)) * self.v_scale

    def tangent(self, v):
        th = self.theta(v)
        return np.cos(th), np.sin(th)

    def _velocity(self, v):
        """c'(v) = A(v) (cos theta, sin theta)."""
        a = self.speed(v)
        th = self.theta(v)
        return a * np.cos(th), a * np.sin(th)

    def _anchor_table(self, lo, hi):
        """c and c' at the anchors v_center + k H, k = lo..hi (lo <= 0 <= hi).

        c is 0 at k = 0 and sums the Gauss integrals of the anchor cells
        outward from there, one cell at a time, so each entry has the same
        bits however far the table reaches.
        """
        step = self.v_scale / ANCHOR_CELLS
        ks = np.arange(lo, hi + 1, dtype=float)
        anchors = self.v_center + ks * step
        # cell k spans anchors k - 1 .. k to the right of 0, k .. k + 1 to the left
        near = np.where(ks > 0, ks - 1.0, ks + 1.0)
        far = self.v_center + near * step
        mid = 0.5 * (anchors + far)
        half = 0.5 * (anchors - far)
        vq = mid[:, None] + half[:, None] * _GL_X[None, :]  # (anchors, 5)
        w_sp = _GL_W * self.speed(vq)
        th = self.theta(vq)
        cells = np.stack([half * np.sum(w_sp * np.cos(th), axis=1),
                          half * np.sum(w_sp * np.sin(th), axis=1)], axis=1)
        table = np.zeros((ks.size, 2))
        zero = -lo
        table[zero + 1:] = _running_sum(cells[zero + 1:])
        if zero:
            table[zero - 1::-1] = _running_sum(cells[zero - 1::-1])
        return table, self._velocity(anchors)

    def point(self, vs):
        """c(v) on the v-lines `vs`: the anchor table's c at the nearest
        anchor a, plus Simpson's rule for the integral of c' from a to v."""
        vs = np.asarray(vs, dtype=float)
        step = self.v_scale / ANCHOR_CELLS
        k = np.rint((vs - self.v_center) / step)
        reach = float(np.max(np.abs(k), initial=0.0))
        if not reach <= MAX_ANCHORS:
            raise BadParameter(
                f"chart profile queried {reach:.3g} anchor cells from its center "
                f"v = {self.v_center:.6g}, beyond the {MAX_ANCHORS} its table holds"
            )
        lo, hi = int(k.min(initial=0.0)), int(k.max(initial=0.0))
        table, (sx, sy) = self._anchor_table(lo, hi)
        idx = k.astype(np.intp) - lo
        anchor = self.v_center + k * step
        h = vs - anchor
        mx, my = self._velocity(anchor + 0.5 * h)
        ex, ey = self._velocity(vs)
        x = table[idx, 0] + h / 6.0 * (sx[idx] + 4.0 * mx + ex)
        y = table[idx, 1] + h / 6.0 * (sy[idx] + 4.0 * my + ey)
        return x, y

    @classmethod
    def constant(cls, speed, slope=0.0):
        return cls(a_coeffs=np.array([float(speed)]), b_coeffs=np.array([float(slope)]))


def fit_chart_profile(u_pts, v_pts, g_target) -> ChartProfile:
    """Least-squares fit of sqrt(max(g_target - 1, FIT_FLOOR)) by A(v) + B(v) u,
    A and B polynomials of degree FIT_DEGREE.

    The -1 accounts for the vertical lift component added later; targets
    dipping below 1 are floored (no planar chart can reach them) and show
    up honestly in the compatibility residual instead.
    """
    u = np.asarray(u_pts, dtype=float).ravel()
    v = np.asarray(v_pts, dtype=float).ravel()
    w = np.sqrt(np.maximum(np.asarray(g_target, dtype=float).ravel() - 1.0, FIT_FLOOR))
    if u.size < 2 * (FIT_DEGREE + 1):
        raise BadParameter("not enough sample points to fit a chart profile")
    v_center = float(v.mean())
    v_scale = float(max(np.max(np.abs(v - v_center)), 1e-30))
    vt = (v - v_center) / v_scale
    # the design matrix is filled in place: columns vt^k, then u vt^k
    M = np.empty((u.size, 2 * (FIT_DEGREE + 1)))
    for k in range(FIT_DEGREE + 1):
        M[:, k] = vt**k
        M[:, FIT_DEGREE + 1 + k] = u * vt**k
    sol, *_ = np.linalg.lstsq(M, w, rcond=None)
    return ChartProfile(
        a_coeffs=sol[: FIT_DEGREE + 1],
        b_coeffs=sol[FIT_DEGREE + 1 :],
        v_center=v_center,
        v_scale=v_scale,
    )


@dataclass
class PlaneChart:
    """A chart's generator on the rectangle of its grid; it keeps no samples."""

    grid: Grid2D
    source: object  # BaseCurve | ChartProfile

    def sample(self):
        """(x, y, G0) on the grid: c(v) + u n(v) and (A + B u)^2."""
        us, vs = self.grid.u_coords[:, None], self.grid.v_coords
        cx, cy = self.source.point(vs)
        tx, ty = self.source.tangent(vs)
        return cx - us * ty, cy + us * tx, _ruling(self.source, us, vs) ** 2


def _ruling(source, us, vs):
    """A(v) + B(v) u on the broadcast (u, v) lines."""
    return source.speed(vs) + us * source.slope(vs)


def build_chart(source, grid: Grid2D) -> PlaneChart:
    """The chart of a BaseCurve or ChartProfile on the (u, v) grid.

    Raises FocalPoint when the ruling factor A + B u (equivalently
    1 - u kappa for unit-speed curves) is not strictly positive on the grid.
    """
    us, vs = grid.u_coords[:, None], grid.v_coords
    ruling = _ruling(source, us, vs)
    if np.any(ruling <= 0.0):
        i, j = np.unravel_index(int(np.argmin(ruling)), ruling.shape)
        raise FocalPoint(
            f"chart folds at (u, v) = ({us[i, 0]:.6g}, {vs[j]:.6g}); shrink the u-range"
        )
    return PlaneChart(grid=grid, source=source)


def chart_checks(chart: PlaneChart) -> tuple:
    """((r1, r2, r3), jac_min, eg_f2_min) of the chart, from one 4th-order
    differencing of its samples.

    With E = x_u^2 + y_u^2, F = x_u x_v + y_u y_v and G = x_v^2 + y_v^2:
    r1 = sup|E - 1|, r2 = sup|F|, r3 = sup|G - G0| are the geodesic-form
    identities; jac_min = min|x_u y_v - x_v y_u| (sqrt(G0); > 0 iff the
    chart is injective); and eg_f2_min = min(E (G + 1) - F^2) is EG - F^2
    of the lift X = (x, y, v), whose height adds exactly dv^2.
    """
    grid = chart.grid
    # the run's traced peak: drop each sample once it is differenced, G0 once compared
    x, y, g0 = chart.sample()
    xu, xv = first_derivative_4(x, grid.du, 0), first_derivative_4(x, grid.dv, 1)
    del x
    yu, yv = first_derivative_4(y, grid.du, 0), first_derivative_4(y, grid.dv, 1)
    del y
    g = xv * xv + yv * yv
    r3 = sup_mean_abs(g - g0)[0]
    del g0
    e = xu * xu + yu * yu
    f = xu * xv + yu * yv
    jac_min = float(np.nanmin(np.abs(xu * yv - xv * yu)))
    residuals = (sup_mean_abs(e - 1.0)[0], sup_mean_abs(f)[0], r3)
    eg_f2_min = float(np.nanmin(e * (g + 1.0) - f**2))
    return residuals, jac_min, eg_f2_min

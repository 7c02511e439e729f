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
compatibility target produced by the linear system. `build_chart`
evaluates the generator once per v-line and broadcasts over u.

Normal convention: n = rotate(c', +90 deg), so kappa > 0 for
counterclockwise circles.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadParameter, FocalPoint, IoFailure
from .fields import Grid2D, ScalarField2D, first_derivative_4

# Gauss-Legendre nodes/weights (5-point) on [-1, 1] for position quadrature
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


@dataclass
class ChartProfile:
    """Chart generator G0 = (A(v) + B(v) u)^2 with polynomial A, B.

    Realized by a synthetic base curve of speed A(v) and turning rate
    theta'(v) = -B(v); positions come from per-cell Gauss quadrature of
    A(v) * (cos theta, sin theta).
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
        vt = self._vt(v)
        acc = np.zeros_like(vt)
        for k, b in enumerate(self.b_coeffs):
            acc = acc - b * vt ** (k + 1) / (k + 1)
        return acc * self.v_scale

    def tangent(self, v):
        th = self.theta(v)
        return np.cos(th), np.sin(th)

    def point(self, vs):
        """c(v) on the v-lines `vs` by composite Gauss quadrature from v_center."""
        pts = np.concatenate([[self.v_center], vs])
        order = np.argsort(pts)
        sorted_pts = pts[order]

        lo = sorted_pts[:-1]
        hi = sorted_pts[1:]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        vq = mid[:, None] + half[:, None] * _GL_X[None, :]  # (cells, 5)
        sp = self.speed(vq)
        th = self.theta(vq)
        ix = half * np.sum(_GL_W[None, :] * sp * np.cos(th), axis=1)
        iy = half * np.sum(_GL_W[None, :] * sp * np.sin(th), axis=1)
        acc = np.zeros((sorted_pts.size, 2))
        acc[1:, 0] = np.cumsum(ix)
        acc[1:, 1] = np.cumsum(iy)
        # rebase so the anchor v_center integrates to zero
        anchor = int(np.flatnonzero(order == 0)[0])
        acc = acc - acc[anchor]
        out = np.empty_like(acc)
        out[order] = acc
        return out[1:, 0], out[1:, 1]

    @classmethod
    def constant(cls, speed, slope=0.0):
        return cls(a_coeffs=np.array([float(speed)]), b_coeffs=np.array([float(slope)]))


def fit_chart_profile(u_pts, v_pts, g_target, degree: int = 2,
                      floor: float = 1e-12) -> ChartProfile:
    """Least-squares fit of sqrt(max(g_target - 1, floor)) by A(v) + B(v) u.

    The -1 accounts for the vertical lift component added later; targets
    dipping below 1 are floored (no planar chart can reach them) and show
    up honestly in the compatibility residual instead.
    """
    u = np.asarray(u_pts, dtype=float).ravel()
    v = np.asarray(v_pts, dtype=float).ravel()
    w = np.sqrt(np.maximum(np.asarray(g_target, dtype=float).ravel() - 1.0, floor))
    if u.size < 2 * (degree + 1):
        raise BadParameter("not enough sample points to fit a chart profile")
    v_center = float(v.mean())
    v_scale = float(max(np.max(np.abs(v - v_center)), 1e-30))
    vt = (v - v_center) / v_scale
    cols = [vt**k for k in range(degree + 1)]
    cols += [u * vt**k for k in range(degree + 1)]
    M = np.stack(cols, axis=1)
    sol, *_ = np.linalg.lstsq(M, w, rcond=None)
    return ChartProfile(
        a_coeffs=sol[: degree + 1],
        b_coeffs=sol[degree + 1 :],
        v_center=v_center,
        v_scale=v_scale,
    )


@dataclass
class PlaneChart:
    """Sampled planar chart and the generator it was built from."""

    grid: Grid2D
    x: ScalarField2D
    y: ScalarField2D
    g0: ScalarField2D
    source: object  # BaseCurve | ChartProfile


def build_chart(source, grid: Grid2D) -> PlaneChart:
    """Chart fields on the (u, v) grid from a BaseCurve or ChartProfile.

    Raises FocalPoint when the ruling factor A + B u (equivalently
    1 - u kappa for unit-speed curves) is not strictly positive on the grid.
    """
    us = grid.u_coords[:, None]
    vs = grid.v_coords
    cx, cy = source.point(vs)
    tx, ty = source.tangent(vs)
    ruling = source.speed(vs) + us * source.slope(vs)

    if np.any(ruling <= 0.0):
        i, j = np.unravel_index(int(np.argmin(ruling)), ruling.shape)
        raise FocalPoint(
            f"chart folds at (u, v) = ({us[i, 0]:.6g}, {vs[j]:.6g}); shrink the u-range"
        )

    return PlaneChart(
        grid=grid,
        x=ScalarField2D(grid, cx - us * ty),
        y=ScalarField2D(grid, cy + us * tx),
        g0=ScalarField2D(grid, ruling**2),
        source=source,
    )


def chart_differences(chart: PlaneChart) -> tuple:
    """(x_u, y_u, x_v, y_v): 4th-order stencil derivatives of the chart fields."""
    g = chart.grid
    x, y = chart.x.values, chart.y.values
    return (first_derivative_4(x, g.du, 0), first_derivative_4(y, g.du, 0),
            first_derivative_4(x, g.dv, 1), first_derivative_4(y, g.dv, 1))


def s0_residuals(chart: PlaneChart, derivatives: str = "numeric", diffs=None) -> tuple:
    """Sup-norms of the three geodesic-form identities of the chart.

    r1 = sup|x_u^2 + y_u^2 - 1|, r2 = sup|x_u x_v + y_u y_v|,
    r3 = sup|x_v^2 + y_v^2 - G0|.

    'analytic' takes the closed-form derivatives of c(v) + u n(v) from the
    chart's generator: (x_u, y_u) = n = (-ty, tx) and
    (x_v, y_v) = (A + B u) t. 'numeric' differences the sampled fields,
    or takes `diffs` from chart_differences when the caller already has them.
    """
    if derivatives == "analytic":
        src = chart.source
        vs = chart.grid.v_coords
        tx, ty = src.tangent(vs)
        ruling = src.speed(vs) + chart.grid.u_coords[:, None] * src.slope(vs)
        xu, yu = -ty, tx
        xv, yv = ruling * tx, ruling * ty
        g0 = ruling**2
    elif derivatives == "numeric":
        xu, yu, xv, yv = chart_differences(chart) if diffs is None else diffs
        g0 = chart.g0.values
    else:
        raise ValueError("derivatives must be 'numeric' or 'analytic'")
    r1 = float(np.nanmax(np.abs(xu**2 + yu**2 - 1.0)))
    r2 = float(np.nanmax(np.abs(xu * xv + yu * yv)))
    r3 = float(np.nanmax(np.abs(xv**2 + yv**2 - g0)))
    return r1, r2, r3


def chart_jacobian_min(chart: PlaneChart, diffs=None) -> float:
    """min |x_u y_v - x_v y_u| over the grid (equals sqrt(G0); > 0 iff injective)."""
    xu, yu, xv, yv = chart_differences(chart) if diffs is None else diffs
    jac = xu * yv - xv * yu
    return float(np.nanmin(np.abs(jac)))

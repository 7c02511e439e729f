"""Geodesic-form metrics du^2 + G(u,v) dv^2 and their Gaussian curvature.

A metric here is just its G coefficient on a closed rectangle (the other
two coefficients are identically 1 and 0 by the geodesic form and are not
stored). Closed-form registry entries carry an analytic curvature;
sampled metrics interpolate bilinearly and carry none.

For this metric form the intrinsic (Gaussian) curvature reduces to
K = -(sqrt(G))_uu / sqrt(G), which is what both curvature paths compute:
curvature_field in closed form, curvature_from_samples by differences of
samples of G.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BadParameter, GridTooSmall, IoFailure, NonPositiveMetric, OutOfDomain
from .fields import Grid2D, ScalarField2D

DEFAULT_HALF_WIDTH = 0.5  # domain half-width when a config omits it


@dataclass(frozen=True)
class Rect:
    u_min: float
    u_max: float
    v_min: float
    v_max: float

    def contains(self, u, v, tol=0.0):
        return (
            (np.asarray(u) >= self.u_min - tol)
            & (np.asarray(u) <= self.u_max + tol)
            & (np.asarray(v) >= self.v_min - tol)
            & (np.asarray(v) <= self.v_max + tol)
        )


@dataclass
class GeodesicMetric2D:
    """The G coefficient of du^2 + G dv^2 as an evaluable field.

    `g_fn` must accept numpy arrays. Closed-form entries also provide
    `curvature_fn`; sampled ones leave it None.
    """

    name: str
    domain: Rect
    g_fn: Callable
    curvature_fn: Optional[Callable] = None
    source: str = "closed-form"

    def eval(self, u, v):
        """G at (u, v); domain and positivity enforced."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if not np.all(self.domain.contains(u, v, tol=1e-12)):
            raise OutOfDomain(f"point outside domain of metric '{self.name}'")
        g = np.asarray(self.g_fn(u, v), dtype=float) * np.ones_like(u, dtype=float)
        if np.any(g <= 0.0):
            raise NonPositiveMetric(f"metric '{self.name}' non-positive at a queried point")
        return g if g.ndim else float(g)

    def sqrt_g(self, u, v):
        return np.sqrt(self.eval(u, v))

    def sample(self, grid: Grid2D) -> ScalarField2D:
        """G on every node of grid, checked as eval checks it: the one
        sampling of Gbar a run takes, which every later stage reads."""
        U, V = grid.meshgrid()
        return ScalarField2D(grid, self.eval(U, V))

    @property
    def has_analytic_curvature(self):
        return self.curvature_fn is not None


# Each curvature_fn is the ratio -(sqrt G)'' / sqrt G written out from the
# closed-form second derivative of sqrt G, not a stored constant.
_REGISTRY = {
    "flat": dict(
        g_fn=lambda u, v: np.ones_like(np.asarray(u, dtype=float)),
        curvature_fn=lambda u, v: np.zeros_like(np.asarray(u, dtype=float)),
    ),
    "cos2": dict(
        g_fn=lambda u, v: np.cos(u) ** 2,
        curvature_fn=lambda u, v: -(-np.cos(u)) / np.cos(u),
    ),
    "exp": dict(
        g_fn=lambda u, v: np.exp(2.0 * u),
        curvature_fn=lambda u, v: -np.exp(u) / np.exp(u),
    ),
}


def registry_names():
    return sorted(_REGISTRY)


def make_metric(name: str, domain: Rect = None) -> GeodesicMetric2D:
    """Build a metric from a registry name or 'file:<path>'."""
    if domain is None:
        h = DEFAULT_HALF_WIDTH
        domain = Rect(-h, h, -h, h)
    if name.startswith("file:"):
        return load_metric_csv(name[len("file:"):])
    if name not in _REGISTRY:
        raise BadParameter(f"unknown metric '{name}'; expected one of {registry_names()} or file:<path>")
    entry = _REGISTRY[name]
    return GeodesicMetric2D(name=name, domain=domain, **entry)


def load_metric_csv(path: str) -> GeodesicMetric2D:
    """Sampled metric from CSV with header ubar,vbar,G (row-major: v fastest)."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if [c.strip() for c in header] != ["ubar", "vbar", "G"]:
                raise IoFailure(f"{path}: expected header 'ubar,vbar,G'")
            rows = [(float(a), float(b), float(c)) for a, b, c in reader]
    except OSError as exc:
        raise IoFailure(f"cannot read metric file {path}: {exc}") from exc
    except (ValueError, csv.Error) as exc:
        raise BadParameter(f"{path}: malformed metric row: {exc}") from None
    if not rows:
        raise IoFailure(f"{path}: no data rows")
    us = np.array(sorted({r[0] for r in rows}))
    vs = np.array(sorted({r[1] for r in rows}))
    nu, nv = len(us), len(vs)
    pts = np.array(rows)
    i, j = np.searchsorted(us, pts[:, 0]), np.searchsorted(vs, pts[:, 1])
    # every node exactly once: a node given twice leaves another unset
    if nu * nv != len(rows) or np.unique(i * nv + j).size != len(rows):
        raise IoFailure(f"{path}: rows do not form a complete {nu}x{nv} grid")
    du = np.diff(us)
    dv = np.diff(vs)
    if nu < 3 or nv < 3 or np.ptp(du) > 1e-9 * du.mean() or np.ptp(dv) > 1e-9 * dv.mean():
        raise IoFailure(f"{path}: grid must be uniform and at least 3x3")
    grid = Grid2D(u0=us[0], v0=vs[0], du=float(du.mean()), dv=float(dv.mean()), nu=nu, nv=nv)
    values = np.empty((nu, nv))
    values[i, j] = pts[:, 2]
    if np.any(values <= 0.0):
        raise NonPositiveMetric(f"{path}: sampled G must be positive everywhere")
    fld = ScalarField2D(grid, values)

    def g_fn(u, v):
        out, ok = fld.interp(u, v)
        if not np.all(ok):
            raise OutOfDomain("sampled metric queried outside its grid")
        return out

    return GeodesicMetric2D(
        name=f"file:{path}",
        domain=Rect(us[0], us[-1], vs[0], vs[-1]),
        g_fn=g_fn,
        source="sampled",
    )


def curvature_from_samples(g_field: ScalarField2D) -> ScalarField2D:
    """K = -(sqrt G)_uu / sqrt G by central differences, interior nodes only."""
    grid = g_field.grid
    if grid.nu < 5:
        raise GridTooSmall("curvature needs at least 3 interior samples in u")
    vals = g_field.values
    if np.any(vals[g_field.mask] <= 0.0):
        raise NonPositiveMetric("curvature of a non-positive metric sample")
    w = np.where(g_field.mask, np.sqrt(np.where(g_field.mask, vals, 1.0)), np.nan)
    interior = g_field.mask.copy()
    interior[0, :] = False
    interior[-1, :] = False
    wf = ScalarField2D(grid, w, mask=g_field.mask)
    wuu = wf.d_uu().values
    k = np.where(interior, -wuu / w, np.nan)
    return ScalarField2D(grid, k, mask=interior & np.isfinite(k))


def curvature_field(m: GeodesicMetric2D, grid: Grid2D) -> ScalarField2D:
    """The metric's closed-form curvature on a grid."""
    if not m.has_analytic_curvature:
        raise ValueError(f"metric '{m.name}' has no analytic curvature")
    return ScalarField2D.from_function(grid, m.curvature_fn)


@dataclass(frozen=True)
class Violation:
    kind: str  # 'nonpositive' | 'first_difference'
    node: tuple
    coords: tuple
    value: float


@dataclass
class ValidationReport:
    violations: list

    @property
    def ok(self):
        return not self.violations


def validate_metric(gbar: ScalarField2D, tol: float = 1e-8,
                    slope_bound: float = 1e6) -> ValidationReport:
    """Positivity floor (G > tol) and bounded-first-difference checks on
    samples of G, as GeodesicMetric2D.sample takes them.

    sample has already refused points outside the domain and G <= 0. The
    difference bound is a sampling proxy for G being C^1: violations are
    data for the report, not errors.
    """
    grid = gbar.grid
    us, vs = grid.u_coords, grid.v_coords
    g = gbar.values
    su = np.abs(np.diff(g, axis=0)) / grid.du
    sv = np.abs(np.diff(g, axis=1)) / grid.dv
    return ValidationReport([
        Violation(kind, (int(i), int(j)), (float(us[i]), float(vs[j])), float(vals[i, j]))
        for kind, vals, bad in (("nonpositive", g, g <= tol),
                                ("first_difference", su, su >= slope_bound),
                                ("first_difference", sv, sv >= slope_bound))
        for i, j in np.argwhere(bad)
    ])

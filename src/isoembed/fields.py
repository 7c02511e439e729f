"""Uniform rectangular grids and masked scalar fields.

Every numerical quantity in the pipeline (solution surfaces, Jacobians,
curvatures, residuals) lives on a ScalarField2D: samples on a uniform
grid plus a validity mask. Derivatives are 2nd-order central in the
interior and fall back to 2nd-order one-sided stencils wherever a
neighbor is missing (grid edge or masked node). Nodes with no usable
stencil return NaN rather than a degraded estimate.

Fully valid arrays whose derivatives feed tight identity checks (the
planar chart and its lift) are differenced with 4th-order stencils by
first_derivative_4: 5-point central in the interior and 4th-order
one-sided on the two edge rows at each end (Fornberg, Math. Comp. 51,
1988).

Index convention: values[i, j] samples (u_i, v_j), i.e. axis 0 is the
u direction and axis 1 the v direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooSmall

# Relative half-width (in cells) below which an interpolation query snaps
# onto the nearest grid line; keeps node-exact queries bit-exact.
SNAP_EPS = 1e-9


@dataclass(frozen=True)
class Grid2D:
    """Uniform grid: origin corner, positive spacings, node counts."""

    u0: float
    v0: float
    du: float
    dv: float
    nu: int
    nv: int

    def __post_init__(self):
        if self.du <= 0 or self.dv <= 0:
            raise GridTooSmall(f"grid spacing must be positive, got ({self.du}, {self.dv})")
        if self.nu < 3 or self.nv < 3:
            raise GridTooSmall(f"grid needs at least 3x3 nodes, got ({self.nu}, {self.nv})")

    @classmethod
    def centered(cls, u_half, v_half, nu, nv, center=(0.0, 0.0)):
        """Grid spanning center +- (u_half, v_half) inclusive."""
        cu, cv = center
        return cls(
            u0=cu - u_half,
            v0=cv - v_half,
            du=2.0 * u_half / (nu - 1),
            dv=2.0 * v_half / (nv - 1),
            nu=nu,
            nv=nv,
        )

    @property
    def u_coords(self):
        return self.u0 + self.du * np.arange(self.nu)

    @property
    def v_coords(self):
        return self.v0 + self.dv * np.arange(self.nv)

    @property
    def u_max(self):
        return self.u0 + self.du * (self.nu - 1)

    @property
    def v_max(self):
        return self.v0 + self.dv * (self.nv - 1)

    def meshgrid(self):
        return np.meshgrid(self.u_coords, self.v_coords, indexing="ij")

    def row_index_of_v(self, v, tol=1e-9):
        """Index j with v_j == v, or None if v falls between grid lines."""
        j = int(round((v - self.v0) / self.dv))
        if j < 0 or j >= self.nv:
            return None
        if abs(self.v0 + j * self.dv - v) > tol * max(1.0, abs(self.dv)):
            return None
        return j

    def col_index_of_u(self, u, tol=1e-9):
        i = int(round((u - self.u0) / self.du))
        if i < 0 or i >= self.nu:
            return None
        if abs(self.u0 + i * self.du - u) > tol * max(1.0, abs(self.du)):
            return None
        return i


def _shift(a, k, axis, fill):
    """a shifted by k along axis; vacated entries take `fill`."""
    out = np.full_like(a, fill)
    src = [slice(None)] * a.ndim
    dst = [slice(None)] * a.ndim
    if k > 0:
        src[axis] = slice(0, a.shape[axis] - k)
        dst[axis] = slice(k, None)
    elif k < 0:
        src[axis] = slice(-k, None)
        dst[axis] = slice(0, a.shape[axis] + k)
    else:
        return a.copy()
    out[tuple(dst)] = a[tuple(src)]
    return out


def _masked_first_derivative(values, mask, h, axis, one_sided=True):
    """2nd-order derivative along axis; central, else one-sided, else NaN.

    With one_sided=False only central stencils count, so each application
    erodes the valid set by one node per side (useful when stacking
    derivatives: no boundary-order pollution feeds the next pass).
    """
    if mask.all():
        # fully valid: plain slicing, no mask bookkeeping
        v = np.moveaxis(values, axis, 0)
        out = np.empty_like(v)
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        if one_sided:
            out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
            out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
        else:
            out[0] = np.nan
            out[-1] = np.nan
        return np.moveaxis(out, 0, axis)

    v = np.where(mask, values, np.nan)
    m = mask

    vm1 = _shift(v, 1, axis, np.nan)   # value at index-1
    vp1 = _shift(v, -1, axis, np.nan)  # value at index+1
    vp2 = _shift(v, -2, axis, np.nan)
    vm2 = _shift(v, 2, axis, np.nan)
    mm1 = _shift(m, 1, axis, False)
    mp1 = _shift(m, -1, axis, False)
    mp2 = _shift(m, -2, axis, False)
    mm2 = _shift(m, 2, axis, False)

    central = (vp1 - vm1) / (2.0 * h)
    ok_c = m & mm1 & mp1

    out = np.full_like(v, np.nan)
    if one_sided:
        fwd = (-3.0 * v + 4.0 * vp1 - vp2) / (2.0 * h)
        bwd = (3.0 * v - 4.0 * vm1 + vm2) / (2.0 * h)
        ok_f = m & mp1 & mp2
        ok_b = m & mm1 & mm2
        out = np.where(ok_b, bwd, out)
        out = np.where(ok_f, fwd, out)
    out = np.where(ok_c, central, out)
    return out


def first_derivative_4(values, h, axis):
    """4th-order first derivative along axis of a fully valid array.

    Interior nodes take the 5-point central stencil; the two edge rows at
    each end take the 4th-order stencils over the five samples nearest
    that end.
    """
    v = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    if v.shape[0] < 5:
        raise GridTooSmall("4th-order differences need at least 5 samples")
    h12 = 12.0 * h
    out = np.empty(v.shape)
    out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / h12
    out[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / h12
    out[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / h12
    out[-2] = (3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3] + 6.0 * v[-4] - v[-5]) / h12
    out[-1] = (25.0 * v[-1] - 48.0 * v[-2] + 36.0 * v[-3] - 16.0 * v[-4] + 3.0 * v[-5]) / h12
    return np.moveaxis(out, 0, axis)


def _masked_second_derivative(values, mask, h, axis):
    """2nd-order second derivative along axis (central / one-sided / NaN)."""
    if mask.all():
        v = np.moveaxis(values, axis, 0)
        h2 = h * h
        out = np.empty_like(v)
        out[1:-1] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h2
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
        return np.moveaxis(out, 0, axis)

    v = np.where(mask, values, np.nan)
    m = mask
    h2 = h * h

    vm1 = _shift(v, 1, axis, np.nan)
    vp1 = _shift(v, -1, axis, np.nan)
    vp2 = _shift(v, -2, axis, np.nan)
    vp3 = _shift(v, -3, axis, np.nan)
    vm2 = _shift(v, 2, axis, np.nan)
    vm3 = _shift(v, 3, axis, np.nan)
    mm1 = _shift(m, 1, axis, False)
    mp1 = _shift(m, -1, axis, False)
    mp2 = _shift(m, -2, axis, False)
    mp3 = _shift(m, -3, axis, False)
    mm2 = _shift(m, 2, axis, False)
    mm3 = _shift(m, 3, axis, False)

    central = (vm1 - 2.0 * v + vp1) / h2
    fwd = (2.0 * v - 5.0 * vp1 + 4.0 * vp2 - vp3) / h2
    bwd = (2.0 * v - 5.0 * vm1 + 4.0 * vm2 - vm3) / h2

    ok_c = m & mm1 & mp1
    ok_f = m & mp1 & mp2 & mp3
    ok_b = m & mm1 & mm2 & mm3

    out = np.full_like(v, np.nan)
    out = np.where(ok_b, bwd, out)
    out = np.where(ok_f, fwd, out)
    out = np.where(ok_c, central, out)
    return out


@dataclass
class ScalarField2D:
    """Sampled scalar function with validity mask and stencil accessors."""

    grid: Grid2D
    values: np.ndarray
    mask: np.ndarray = field(default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.nu, self.grid.nv):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.nu}, {self.grid.nv})"
            )
        if self.mask is None:
            self.mask = np.isfinite(self.values)
        else:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.values.shape:
                raise ValueError("mask shape does not match values")
        # masked nodes carry no value claim
        self.values = np.where(self.mask, self.values, np.nan)

    @classmethod
    def from_function(cls, grid, fn, mask=None):
        U, V = grid.meshgrid()
        return cls(grid, np.asarray(fn(U, V), dtype=float) * np.ones_like(U), mask=mask)

    @classmethod
    def constant(cls, grid, value, mask=None):
        return cls(grid, np.full((grid.nu, grid.nv), float(value)), mask=mask)

    def copy(self):
        return ScalarField2D(self.grid, self.values.copy(), self.mask.copy())

    def d_u(self, one_sided=True):
        return ScalarField2D(
            self.grid,
            _masked_first_derivative(self.values, self.mask, self.grid.du, 0,
                                     one_sided=one_sided),
        )

    def d_v(self, one_sided=True):
        return ScalarField2D(
            self.grid,
            _masked_first_derivative(self.values, self.mask, self.grid.dv, 1,
                                     one_sided=one_sided),
        )

    def d_uu(self):
        if self.grid.nu < 5:
            raise GridTooSmall("second differences need at least 5 samples in u")
        return ScalarField2D(
            self.grid, _masked_second_derivative(self.values, self.mask, self.grid.du, 0)
        )

    def sup(self):
        """Max |value| over valid nodes (NaN if none)."""
        if not self.mask.any():
            return float("nan")
        return float(np.nanmax(np.abs(self.values)))

    def mean_abs(self):
        if not self.mask.any():
            return float("nan")
        return float(np.nanmean(np.abs(self.values)))

    def interp(self, u, v):
        """Bilinear interpolation.

        Queries within SNAP_EPS cells of a grid line snap onto it, so
        node-exact queries reproduce stored values bit-exactly. Returns
        (values, ok) where ok marks queries whose stencil corners are all
        valid and inside the grid.
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        g = self.grid

        finite_q = np.isfinite(u) & np.isfinite(v)
        su = np.where(finite_q, (u - g.u0) / g.du, 0.0)
        sv = np.where(finite_q, (v - g.v0) / g.dv, 0.0)
        iu = np.floor(su).astype(int)
        iv = np.floor(sv).astype(int)
        fu = su - iu
        fv = sv - iv

        # snap to the nearest grid line
        hi_u = fu > 1.0 - SNAP_EPS
        iu = np.where(hi_u, iu + 1, iu)
        fu = np.where(hi_u, 0.0, fu)
        fu = np.where(fu < SNAP_EPS, 0.0, fu)
        hi_v = fv > 1.0 - SNAP_EPS
        iv = np.where(hi_v, iv + 1, iv)
        fv = np.where(hi_v, 0.0, fv)
        fv = np.where(fv < SNAP_EPS, 0.0, fv)

        on_u = fu == 0.0
        on_v = fv == 0.0

        inside = (
            finite_q
            & (iu >= 0)
            & (iv >= 0)
            & (iu + np.where(on_u, 0, 1) <= g.nu - 1)
            & (iv + np.where(on_v, 0, 1) <= g.nv - 1)
        )
        iu_c = np.clip(iu, 0, g.nu - 1)
        iv_c = np.clip(iv, 0, g.nv - 1)
        iu_n = np.clip(iu + np.where(on_u, 0, 1), 0, g.nu - 1)
        iv_n = np.clip(iv + np.where(on_v, 0, 1), 0, g.nv - 1)

        m = self.mask
        ok = inside & m[iu_c, iv_c] & m[iu_n, iv_c] & m[iu_c, iv_n] & m[iu_n, iv_n]

        w = self.values
        v00 = w[iu_c, iv_c]
        v10 = w[iu_n, iv_c]
        v01 = w[iu_c, iv_n]
        v11 = w[iu_n, iv_n]
        out = (
            v00 * (1 - fu) * (1 - fv)
            + v10 * fu * (1 - fv)
            + v01 * (1 - fu) * fv
            + v11 * fu * fv
        )
        # exact pass-through on snapped lines (avoids 0*nan contamination too)
        out = np.where(on_u & on_v, v00, out)
        out = np.where(on_u & ~on_v, v00 * (1 - fv) + v01 * fv, out)
        out = np.where(~on_u & on_v, v00 * (1 - fu) + v10 * fu, out)
        out = np.where(ok, out, np.nan)
        return out, ok

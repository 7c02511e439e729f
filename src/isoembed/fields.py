"""Uniform rectangular grids and masked scalar fields.

Every numerical quantity in the pipeline (solution surfaces, Jacobians,
curvatures, residuals) lives on a ScalarField2D: samples on a uniform
grid plus a validity mask. Derivatives are 2nd-order central in the
interior and fall back to 2nd-order one-sided stencils wherever a
neighbor is missing (grid edge or masked node). Nodes with no usable
stencil return NaN rather than a degraded estimate. One masked kernel
serves every mask, fully valid or not: it pads the values and the mask
once by the stencil reach and reads each shifted sample as a view.

The planar chart, whose derivatives feed tight identity checks, is
differenced with 4th-order stencils by first_derivative_4: 5-point
central in the interior and 4th-order one-sided on the two edge rows at
each end (Fornberg, Math. Comp. 51, 1988).

ScalarField2D.interp samples a field bilinearly; sampled (file:) metrics
are its one caller. It walks its flattened queries in blocks of
NODE_BLOCK, as solve_system_grid and compose walk the solve grid, so the
temporaries stay bounded however large the grid; every operation is per
query, so the blocks give the same bits as one whole-grid pass.

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

# Nodes a per-node stage takes at once (the system solve, compose, bilinear
# sampling): bounds their temporaries, whatever the grid size
NODE_BLOCK = 32768


def node_blocks(n, row_len=1):
    """Consecutive slices covering range(n) of max(1, NODE_BLOCK // row_len)
    items each: about NODE_BLOCK nodes a block when an item holds row_len."""
    step = max(1, NODE_BLOCK // row_len)
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


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


def _taps(values, mask, axis, reach):
    """Shifted samples of the values and of the mask along axis.

    Returns dicts v, m with v[k], m[k] the value and validity at index + k
    for |k| <= reach; samples past either end read NaN and False. Each is a
    view of one array padded once by `reach` along axis. A stencil is
    selected only where the mask holds at all of its taps, so values at
    masked nodes never reach the result.
    """
    pad = [(0, 0)] * values.ndim
    pad[axis] = (reach, reach)
    vp = np.pad(values, pad, constant_values=np.nan)
    mp = np.pad(mask, pad, constant_values=False)
    n = values.shape[axis]
    v, m = {}, {}
    for k in range(-reach, reach + 1):
        idx = [slice(None)] * values.ndim
        idx[axis] = slice(reach + k, reach + k + n)
        v[k], m[k] = vp[tuple(idx)], mp[tuple(idx)]
    return v, m


def _masked_first_derivative(values, mask, h, axis):
    """2nd-order derivative along axis; central, else one-sided, else NaN."""
    v, m = _taps(values, mask, axis, 2)
    out = np.full(v[0].shape, np.nan)
    np.copyto(out, (3.0 * v[0] - 4.0 * v[-1] + v[-2]) / (2.0 * h),
              where=m[0] & m[-1] & m[-2])
    np.copyto(out, (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h),
              where=m[0] & m[1] & m[2])
    np.copyto(out, (v[1] - v[-1]) / (2.0 * h), where=m[0] & m[-1] & m[1])
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
    v, m = _taps(values, mask, axis, 3)
    h2 = h * h
    out = np.full(v[0].shape, np.nan)
    np.copyto(out, (2.0 * v[0] - 5.0 * v[-1] + 4.0 * v[-2] - v[-3]) / h2,
              where=m[0] & m[-1] & m[-2] & m[-3])
    np.copyto(out, (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2,
              where=m[0] & m[1] & m[2] & m[3])
    np.copyto(out, (v[-1] - 2.0 * v[0] + v[1]) / h2, where=m[0] & m[-1] & m[1])
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

    def d_u(self):
        return ScalarField2D(
            self.grid, _masked_first_derivative(self.values, self.mask, self.grid.du, 0)
        )

    def d_v(self):
        return ScalarField2D(
            self.grid, _masked_first_derivative(self.values, self.mask, self.grid.dv, 1)
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
        """Bilinear interpolation at the broadcast queries (u, v).

        Returns (values, ok) in the broadcast shape: ok marks finite queries
        whose cell corners are all inside the grid and valid, and values are
        NaN elsewhere. Queries within SNAP_EPS cells of a grid line snap onto
        it, so node-exact queries read stored values bit-exactly. The
        queries are taken NODE_BLOCK at a time.
        """
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
        shape = u.shape
        u, v = u.ravel(), v.ravel()
        out = np.empty(u.size)
        ok = np.empty(u.size, dtype=bool)
        g, m, w = self.grid, self.mask, self.values
        for b in node_blocks(u.size):
            finite_q = np.isfinite(u[b]) & np.isfinite(v[b])
            su = np.where(finite_q, (u[b] - g.u0) / g.du, 0.0)
            sv = np.where(finite_q, (v[b] - g.v0) / g.dv, 0.0)
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
            iu_n = iu + np.where(on_u, 0, 1)
            iv_n = iv + np.where(on_v, 0, 1)
            inside = finite_q & (iu >= 0) & (iv >= 0) & (iu_n <= g.nu - 1) & (iv_n <= g.nv - 1)
            iu, iu_n = np.clip(iu, 0, g.nu - 1), np.clip(iu_n, 0, g.nu - 1)
            iv, iv_n = np.clip(iv, 0, g.nv - 1), np.clip(iv_n, 0, g.nv - 1)
            ok[b] = inside & m[iu, iv] & m[iu_n, iv] & m[iu, iv_n] & m[iu_n, iv_n]

            v00 = w[iu, iv]
            v10 = w[iu_n, iv]
            v01 = w[iu, iv_n]
            v11 = w[iu_n, iv_n]
            val = (
                v00 * (1 - fu) * (1 - fv)
                + v10 * fu * (1 - fv)
                + v01 * (1 - fu) * fv
                + v11 * fu * fv
            )
            # exact pass-through on snapped lines (avoids 0*nan contamination too)
            val = np.where(on_u & on_v, v00, val)
            val = np.where(on_u & ~on_v, v00 * (1 - fv) + v01 * fv, val)
            val = np.where(~on_u & on_v, v00 * (1 - fu) + v10 * fu, val)
            out[b] = np.where(ok[b], val, np.nan)
        return out.reshape(shape), ok.reshape(shape)

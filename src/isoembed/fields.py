"""Uniform rectangular grids and the per-node fields on them.

A field is a plain (nu, nv) float array on a Grid2D, NaN exactly at the
nodes where it carries no value: the one rule every per-node quantity of a
run keeps (the marched maps, their derivatives and Jacobian, the system's
solution, the residuals). A field's valid set is np.isfinite of it, and
an array formed from fields whose value overflows to +-inf gets NaN there.
sup_mean_abs folds a field into the sup and mean a report gives.

Derivatives are 2nd-order central in the interior, else 2nd-order
one-sided where a neighbor is missing (grid edge or masked node), else
NaN. One masked kernel, first_derivative, serves every mask: it takes the
central stencil on the interior from shifted slices, and the one-sided
stencils only at the valid nodes with no central one, gathered by one
np.nonzero. It never reads a masked node, so it differences any array on
a mask in place; a field's mask is np.isfinite of it.

The planar chart, whose derivatives feed tight identity checks, is
differenced with 4th-order stencils by first_derivative_4: 5-point
central in the interior and 4th-order one-sided on the two edge rows at
each end (Fornberg, Math. Comp. 51, 1988).

bilinear samples a field between its nodes; sampled (file:) metrics are
its one caller. It walks its flattened queries in blocks of NODE_BLOCK, as
solve_system_grid and compose walk the solve grid, so the temporaries stay
bounded however large the grid; every operation is per query, so the
blocks give the same bits as one whole-grid pass.

Index convention: values[i, j] samples (u_i, v_j), i.e. axis 0 is the
u direction and axis 1 the v direction.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    def centered(cls, u_half, v_half, nu, nv):
        """Grid spanning +- (u_half, v_half) about the origin, inclusive."""
        return cls(
            u0=-u_half,
            v0=-v_half,
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


def _edge_taps(v, m, inner):
    """The valid nodes without a central stencil, and their shifted samples.

    v, m hold the values and the mask with the stencil's axis first; inner
    marks the nodes 1..n-2 whose central stencil is valid. Returns (at,
    taps): at indexes the valid nodes outside inner, found by one
    np.nonzero, and taps(*ks) gathers, for just those nodes, the values at
    index + k along axis 0 for each k, and where the mask holds at all of
    them (False past either end). A stencil is selected only where the mask
    holds at all of its taps, so values at masked nodes never reach the
    result.
    """
    edge = m.copy()
    edge[1:-1] &= ~inner
    i, *rest = np.nonzero(edge)
    n = v.shape[0]

    def taps(*ks):
        vals, ok = [], True
        for k in ks:
            j = i + k
            inside = (j >= 0) & (j < n)
            at = (np.where(inside, j, 0), *rest)
            vals.append(v[at])
            ok = ok & inside & m[at]
        return vals, ok

    return (i, *rest), taps


def first_derivative(values, mask, h, axis):
    """2nd-order derivative along axis on mask; central, else one-sided, else NaN."""
    out = np.full(values.shape, np.nan)
    o, v, m = (np.moveaxis(a, axis, 0) for a in (out, values, mask))
    inner = m[:-2] & m[1:-1] & m[2:]
    np.copyto(o[1:-1], (v[2:] - v[:-2]) / (2.0 * h), where=inner)
    at, taps = _edge_taps(v, m, inner)
    v0 = v[at]
    (f1, f2), fwd_ok = taps(1, 2)
    (b1, b2), bwd_ok = taps(-1, -2)
    fwd = (-3.0 * v0 + 4.0 * f1 - f2) / (2.0 * h)
    bwd = (3.0 * v0 - 4.0 * b1 + b2) / (2.0 * h)
    o[at] = np.where(fwd_ok, fwd, np.where(bwd_ok, bwd, np.nan))
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


def second_derivative(values, mask, h, axis):
    """2nd-order second derivative along axis (central / one-sided / NaN)."""
    h2 = h * h
    out = np.full(values.shape, np.nan)
    o, v, m = (np.moveaxis(a, axis, 0) for a in (out, values, mask))
    inner = m[:-2] & m[1:-1] & m[2:]
    np.copyto(o[1:-1], (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h2, where=inner)
    at, taps = _edge_taps(v, m, inner)
    v0 = v[at]
    (f1, f2, f3), fwd_ok = taps(1, 2, 3)
    (b1, b2, b3), bwd_ok = taps(-1, -2, -3)
    fwd = (2.0 * v0 - 5.0 * f1 + 4.0 * f2 - f3) / h2
    bwd = (2.0 * v0 - 5.0 * b1 + 4.0 * b2 - b3) / h2
    o[at] = np.where(fwd_ok, fwd, np.where(bwd_ok, bwd, np.nan))
    return out


def sup_mean_abs(values):
    """(max, mean) of |values| over its entries that are not NaN, with the
    bits of np.nanmax and np.nanmean of np.abs(values); (NaN, NaN), without
    their warnings, where every entry is NaN. An infinite entry counts, so
    an infinite residual fails its gate."""
    a = np.abs(values)
    skip = np.isnan(a)
    n = a.size - np.count_nonzero(skip)
    if not n:
        return float("nan"), float("nan")
    a[skip] = 0.0
    return float(a.max()), float(a.sum() / n)


def bilinear(grid: Grid2D, values, u, v):
    """Bilinear interpolation of the samples `values` on grid at the
    broadcast queries (u, v).

    Returns (out, ok) in the broadcast shape: ok marks finite queries whose
    cell corners are all inside the grid and have a value, and out is NaN
    elsewhere. Queries within SNAP_EPS cells of a grid line snap onto it,
    so node-exact queries read the samples bit-exactly. The queries are
    taken NODE_BLOCK at a time.
    """
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    shape = u.shape
    u, v = u.ravel(), v.ravel()
    out = np.empty(u.size)
    ok = np.empty(u.size, dtype=bool)
    g, w = grid, values
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

        v00 = w[iu, iv]
        v10 = w[iu_n, iv]
        v01 = w[iu, iv_n]
        v11 = w[iu_n, iv_n]
        ok[b] = (inside & np.isfinite(v00) & np.isfinite(v10) & np.isfinite(v01)
                 & np.isfinite(v11))
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

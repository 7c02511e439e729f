"""Surfaces in E^3: chart lifts, composites, and induced metrics.

The lift places a plane chart at height equal to its second parameter:
X(u, v) = (x(u, v), y(u, v), v). Its induced first fundamental form is
then E = 1, F = 0, G = G0 + 1, so EG - F^2 >= 1 and the lift is always an
immersion. lift_metric forms that metric from the chart's one 4th-order
differencing (plane.chart_differences) and the same stencils of the
height v, which depends on v alone; the lifted surface is never
differenced again. A composite surface re-parametrizes any surface
through a certified parameter change by bilinear interpolation of
positions; its metric is taken by 2nd-order finite differences on the new
parameter grid (induced_metric).

embed_planar places the chart at height zero instead (induced metric
(1, 0, G0)); it is the control surface for identity-change checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, ImageOutsideChart, IoFailure
from .fields import Grid2D, ScalarField2D, first_derivative_4
from .plane import PlaneChart
from .reparam import ParamChange

# u-rows the file writers format per write: bounds the text held in memory
ROW_BLOCK = 16
# per-column texts of an OBJ vertex line, valid and masked, and of the two
# triangle lines of a cell
_VERTEX = ("v %.17g", " %.17g", " %.17g\n")
_MASKED_VERTEX = ("v 0", " 0", " 0\n")
_FACE_PAIR = ("f %d", " %d", " %d\n", "f %d", " %d", " %d\n")


@dataclass
class EmbeddedSurface:
    grid: Grid2D
    position: np.ndarray  # (nu, nv, 3)
    mask: np.ndarray  # (nu, nv) bool
    provenance: str  # 'lifted' | 'planar' | 'composite'
    chart: PlaneChart = None  # the generating chart, when there is one

    def coordinate_field(self, k) -> ScalarField2D:
        return ScalarField2D(self.grid, self.position[:, :, k].copy(), mask=self.mask.copy())


def lift(chart: PlaneChart) -> EmbeddedSurface:
    """X = (x, y, v): third coordinate equals the chart's v parameter exactly."""
    grid = chart.grid
    _, V = grid.meshgrid()
    pos = np.stack([chart.x.values, chart.y.values, V], axis=2)
    return EmbeddedSurface(grid=grid, position=pos,
                           mask=np.ones((grid.nu, grid.nv), dtype=bool),
                           provenance="lifted", chart=chart)


def lift_metric(chart: PlaneChart, diffs) -> tuple:
    """(E, F, G) fields of lift(chart) from diffs = chart_differences(chart).

    The height z = v has the same 4th-order stencils on every u-row but
    the two edge rows at each end, where z_u is a one-sided stencil of a
    u-constant and need not round to 0; so z_u is taken on a 5-row slab and
    broadcast over u, and z_v on the v-coordinates once. The result equals
    first_derivative_4 applied to lift(chart)'s three coordinates, to the bit.
    """
    xu, yu, xv, yv = diffs
    grid = chart.grid
    slab = np.broadcast_to(grid.v_coords, (5, grid.nv))
    zu = np.repeat(first_derivative_4(slab, grid.du, 0), (1, 1, grid.nu - 4, 1, 1), axis=0)
    zv = first_derivative_4(grid.v_coords, grid.dv, 0)
    e = xu * xu + yu * yu + zu * zu
    f = xu * xv + yu * yv + zu * zv
    del zu  # a full chart-grid array: freed before g's temporaries, which set the peak
    g = xv * xv + yv * yv + zv * zv
    mask = np.isfinite(e) & np.isfinite(f) & np.isfinite(g)
    return (
        ScalarField2D(grid, e, mask=mask),
        ScalarField2D(grid, f, mask=mask),
        ScalarField2D(grid, g, mask=mask),
    )


def embed_planar(chart: PlaneChart) -> EmbeddedSurface:
    """X = (x, y, 0): the chart itself as a surface in the z = 0 plane."""
    grid = chart.grid
    pos = np.stack([chart.x.values, chart.y.values, np.zeros((grid.nu, grid.nv))], axis=2)
    return EmbeddedSurface(grid=grid, position=pos,
                           mask=np.ones((grid.nu, grid.nv), dtype=bool),
                           provenance="planar", chart=chart)


def induced_metric(surface: EmbeddedSurface) -> tuple:
    """(E, F, G) fields from finite differences of the position coordinates."""
    xu = []
    xv = []
    for k in range(3):
        c = surface.coordinate_field(k)
        xu.append(c.d_u().values)
        xv.append(c.d_v().values)
    e = sum(a * a for a in xu)
    f = sum(a * b for a, b in zip(xu, xv))
    g = sum(b * b for b in xv)
    mask = surface.mask & np.isfinite(e) & np.isfinite(f) & np.isfinite(g)
    grid = surface.grid
    return (
        ScalarField2D(grid, e, mask=mask),
        ScalarField2D(grid, f, mask=mask),
        ScalarField2D(grid, g, mask=mask),
    )


def compose(surface: EmbeddedSurface, pc: ParamChange) -> EmbeddedSurface:
    """Surface over pc's grid with positions sampled at (f, g)(node).

    Every certified node must map inside the surface's parameter rectangle;
    offenders raise ImageOutsideChart with their indices.
    """
    grid = pc.grid
    u_img = pc.f.values
    v_img = pc.g.values
    cert = pc.certified

    sg = surface.grid
    inside = (
        (u_img >= sg.u0 - 1e-12) & (u_img <= sg.u_max + 1e-12)
        & (v_img >= sg.v0 - 1e-12) & (v_img <= sg.v_max + 1e-12)
    )
    offenders = cert & ~inside
    if offenders.any():
        nodes = [tuple(t) for t in np.argwhere(offenders)[:20]]
        raise ImageOutsideChart(
            f"{int(offenders.sum())} certified nodes map outside the chart rectangle",
            nodes=nodes,
        )

    pos = np.full((grid.nu, grid.nv, 3), np.nan)
    ok_all = cert.copy()
    uq = np.where(cert, u_img, sg.u0)
    vq = np.where(cert, v_img, sg.v0)
    for k in range(3):
        fld = surface.coordinate_field(k)
        vals, ok = fld.interp(uq, vq)
        pos[:, :, k] = vals
        ok_all &= ok
    return EmbeddedSurface(grid=grid, position=pos, mask=ok_all,
                           provenance="composite", chart=surface.chart)


def regularity_check(e: ScalarField2D, f: ScalarField2D, g: ScalarField2D,
                     tol: float = 0.0) -> np.ndarray:
    """Mask of nodes where EG - F^2 > tol (a test oracle).

    The pipeline takes min(EG - F^2) for its lift_regular verdict instead;
    tests check that verdict against this node-wise mask.
    """
    det = e.values * g.values - f.values**2
    return e.mask & f.mask & g.mask & np.isfinite(det) & (det > tol)


def _mask_runs(row):
    """[(start, end)] inclusive runs of True in a 1-D bool array."""
    idx = np.flatnonzero(row)
    if idx.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate([[idx[0]], idx[breaks + 1]])
    ends = np.concatenate([idx[breaks], [idx[-1]]])
    return list(zip(starts, ends))


def row_blocks(n):
    """Consecutive slices of at most ROW_BLOCK rows covering range(n)."""
    for start in range(0, n, ROW_BLOCK):
        yield slice(start, min(start + ROW_BLOCK, n))


def write_rows(fh, values, ok, ok_text, na_text):
    """Write one line per row of the 2-D array `values` with a single %-format.

    Column c reads ok_text[c] % value where `ok` holds and na_text[c] where
    it does not; the texts carry their own separators and line ends.
    """
    if ok.all():
        template = "".join(ok_text) * len(values)
    else:
        cells = np.array([ok_text, na_text])[(~ok).astype(np.intp), np.arange(len(ok_text))]
        template = "".join(cells.ravel().tolist())
    fh.write(template % tuple(values[ok].tolist()))


def export_obj(surface: EmbeddedSurface, path: str):
    """Wavefront OBJ: all grid vertices row-major, faces for fully valid cells.

    Masked vertices are written as the origin and simply not referenced by
    any face; the exact validity mask is preserved in '# valid' comment
    lines (run-length per u-row) so re-verification sees the same node set.
    %.17g formatting keeps round-trips bit-exact. Vertices and faces are
    formatted and written in blocks of ROW_BLOCK u-rows, so memory does not
    grow with the file.
    """
    grid = surface.grid
    nv = grid.nv
    pos = surface.position
    m = surface.mask
    head = [f"# isoembed surface provenance={surface.provenance} nu={grid.nu} nv={grid.nv}"]
    for i in range(grid.nu):
        runs = " ".join(f"{a}:{b}" for a, b in _mask_runs(m[i]))
        head.append(f"# valid {i} {runs}".rstrip())
    cell_ok = m[:-1, :-1] & m[1:, :-1] & m[:-1, 1:] & m[1:, 1:]
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(head) + "\n")
            for rows in row_blocks(grid.nu):
                xyz = pos[rows].reshape(-1, 3)
                ok = np.repeat(m[rows].reshape(-1, 1), 3, axis=1)
                write_rows(fh, xyz, ok, _VERTEX, _MASKED_VERTEX)
            for rows in row_blocks(grid.nu - 1):
                ci, cj = np.nonzero(cell_ok[rows])
                a = (ci + rows.start) * nv + cj + 1  # OBJ indices are 1-based
                b = a + nv
                corners = np.stack([a, b, b + 1, a, b + 1, a + 1], axis=1)
                write_rows(fh, corners, np.ones(corners.shape, dtype=bool),
                           _FACE_PAIR, _FACE_PAIR)
    except OSError as exc:
        raise IoFailure(f"cannot write mesh {path}: {exc}") from exc


def load_obj_positions(path: str, nu: int, nv: int):
    """Positions and validity mask from an OBJ written by export_obj.

    Returns (positions (nu, nv, 3), mask or None when no '# valid' lines).
    """
    verts = []
    mask = None
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith("v "):
                    _, x, y, z = line.split()
                    verts.append((float(x), float(y), float(z)))
                elif line.startswith("# valid "):
                    if mask is None:
                        mask = np.zeros((nu, nv), dtype=bool)
                    parts = line.split()
                    i = int(parts[2])
                    if not 0 <= i < nu:
                        raise BadParameter(f"{path}: mask row {i} out of range for nu={nu}")
                    for run in parts[3:]:
                        a, b = run.split(":")
                        mask[i, int(a): int(b) + 1] = True
    except OSError as exc:
        raise IoFailure(f"cannot read mesh {path}: {exc}") from exc
    except (ValueError, IndexError) as exc:
        raise BadParameter(f"{path}: malformed vertex or '# valid' line: {exc}") from None
    if len(verts) != nu * nv:
        raise BadParameter(f"{path}: expected {nu * nv} vertices, found {len(verts)}")
    return np.array(verts).reshape(nu, nv, 3), mask

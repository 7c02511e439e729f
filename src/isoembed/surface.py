"""Surfaces in E^3: chart lifts, composites, and induced metrics.

The lift places a plane chart at height equal to its second parameter:
X(u, v) = (x(u, v), y(u, v), v). Its induced first fundamental form is
then E = 1, F = 0, G = G0 + 1, so EG - F^2 >= 1 and the lift is always an
immersion. The height has z_u = 0 and z_v = 1 exactly, so the pipeline
takes the lift's metric as the chart's, from its one 4th-order
differencing (plane.chart_checks), plus dv^2; it differences neither the
height nor the lifted surface. The lift is ruled by its u-lines, so
for a chart with G0 = (A(v) + B(v) u)^2 its Gauss curvature is
-B^2 / (1 + (A + B u)^2)^2 <= 0. A composite surface is the chart composed
with a certified parameter change, X(f, g) = (c(g) + f n(g), g), evaluated
from the chart's generator at each node's image; compose walks the new grid
in blocks of about NODE_BLOCK nodes, so its temporaries stay bounded. The
generator gives each image the same bits whichever block holds it (a
fitted profile integrates c from fixed anchors), so the blocks give the
bits of one whole-grid pass. The chart grid enters only through its
rectangle, which bounds the images. The
composite's metric is taken by 2nd-order finite differences on the new
parameter grid (induced_metric).

export_obj reads only its arguments and closes its file before it returns,
so pipeline.write_outputs writes the lifted OBJ from a forked child while
its own process writes the composite one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, ImageOutsideChart, IoFailure
from .fields import Grid2D, ScalarField2D, node_blocks
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
    provenance: str  # 'lifted' | 'composite'
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


def induced_metric(surface: EmbeddedSurface) -> tuple:
    """(E, F, G) fields from finite differences of the position coordinates.

    The sums run one coordinate at a time, from 0 as Python's sum does, so
    only one coordinate's two derivative arrays are live at once.
    """
    e = f = g = 0
    for k in range(3):
        c = surface.coordinate_field(k)
        xu, xv = c.d_u().values, c.d_v().values
        e += xu * xu
        f += xu * xv
        g += xv * xv
    mask = surface.mask & np.isfinite(e) & np.isfinite(f) & np.isfinite(g)
    grid = surface.grid
    return (
        ScalarField2D(grid, e, mask=mask),
        ScalarField2D(grid, f, mask=mask),
        ScalarField2D(grid, g, mask=mask),
    )


def compose(surface: EmbeddedSurface, pc: ParamChange) -> EmbeddedSurface:
    """The surface's chart composed with pc: X(f, g) at every certified node.

    Positions come from the chart's generator, (c(g) + f n(g), g), so they
    carry no sampling error of the chart grid. Every certified node must
    map inside the surface's parameter rectangle, the region build_chart
    checked for folds; offenders raise ImageOutsideChart with their indices.
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

    source = surface.chart.source
    pos = np.full((grid.nu, grid.nv, 3), np.nan)
    for rows in node_blocks(grid.nu, grid.nv):
        c = cert[rows]
        u, v = u_img[rows][c], v_img[rows][c]
        cx, cy = source.point(v)
        tx, ty = source.tangent(v)
        block = pos[rows]
        block[c, 0] = cx - u * ty
        block[c, 1] = cy + u * tx
        block[c, 2] = v
    return EmbeddedSurface(grid=grid, position=pos, mask=cert.copy(),
                           provenance="composite", chart=surface.chart)


def regularity_check(e: ScalarField2D, f: ScalarField2D, g: ScalarField2D,
                     tol: float = 0.0) -> np.ndarray:
    """Mask of nodes where EG - F^2 > tol (a test oracle).

    The pipeline's lift_regular verdict reads the lift's min(EG - F^2)
    from plane.chart_checks instead; tests check that verdict against this
    node-wise mask.
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
    A '# valid i a:b' run must lie in its row: 0 <= a <= b < nv.
    """
    verts = []
    runs = None  # (i, a, b) per '# valid' run, range-checked after the vertex count
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith("v "):
                    _, x, y, z = line.split()
                    verts.append((float(x), float(y), float(z)))
                elif line.startswith("# valid "):
                    if runs is None:
                        runs = []
                    parts = line.split()
                    i = int(parts[2])
                    if not 0 <= i < nu:
                        raise BadParameter(f"{path}: mask row {i} out of range for nu={nu}")
                    for run in parts[3:]:
                        a, b = run.split(":")
                        runs.append((i, int(a), int(b)))
    except OSError as exc:
        raise IoFailure(f"cannot read mesh {path}: {exc}") from exc
    except (ValueError, IndexError) as exc:
        raise BadParameter(f"{path}: malformed vertex or '# valid' line: {exc}") from None
    if len(verts) != nu * nv:
        raise BadParameter(f"{path}: expected {nu * nv} vertices, found {len(verts)}")
    mask = None if runs is None else np.zeros((nu, nv), dtype=bool)
    for i, a, b in runs or ():
        if not 0 <= a <= b < nv:
            raise BadParameter(f"{path}: mask run {a}:{b} of row {i} out of range for nv={nv}")
        mask[i, a: b + 1] = True
    return np.array(verts).reshape(nu, nv, 3), mask

"""Surfaces in E^3: chart lifts, composites, and induced metrics.

The lift places a plane chart at height equal to its second parameter:
X(u, v) = (x(u, v), y(u, v), v). Its induced first fundamental form is
then E = 1, F = 0, G = G0 + 1, so EG - F^2 >= 1 and the lift is always an
immersion. The height has z_u = 0 and z_v = 1 exactly, so the pipeline
takes the lift's metric as the chart's, from its one 4th-order
differencing (plane.chart_checks), plus dv^2; it builds the lifted surface
only to write its OBJ. The lift is ruled by its u-lines, so for a chart
with G0 = (A(v) + B(v) u)^2 its Gauss curvature is
-B^2 / (1 + (A + B u)^2)^2 <= 0. A composite surface is the chart, not
its lift, composed with a certified parameter change,
X(f, g) = (c(g) + f n(g), g), evaluated from the chart's generator at each
node's image; compose walks the new grid in blocks of about NODE_BLOCK
nodes, so its temporaries stay bounded. The generator gives each image the
same bits whichever block holds it (a fitted profile integrates c from
fixed anchors), so the blocks give the bits of one whole-grid pass. The
chart grid enters only through its rectangle, which bounds the images. The
composite's metric is taken by 2nd-order finite differences of its
positions, in place on the new parameter grid (induced_metric).

The lift samples the chart, which keeps no samples of its own. export_obj
reads only its arguments and closes its file before it returns, so
pipeline.write_outputs writes each OBJ in a forked child of its own, and
the lifted OBJ's child builds the lift. Every per-node line of the files,
residuals.csv, system_s.csv and the OBJ vertices, is written by
write_table, a block of ROW_BLOCK u-rows at a time. It formats each text
once by one rule: a column finite everywhere whose bits are the same on
every u-row is formatted once per v-line, one whose bits are the same on
every v-line once per u-row, and any other column once per cell. The OBJ
faces format each vertex index once per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, ImageOutsideChart, IoFailure
from .fields import Grid2D, first_derivative, node_blocks
from .plane import PlaneChart
from .reparam import ParamChange

# u-rows the file writers format per write: bounds the text held in memory
ROW_BLOCK = 16
# per-column texts of an OBJ vertex line, valid and masked
_VERTEX = ("v %.17g", " %.17g", " %.17g\n")
_MASKED_VERTEX = ("v 0", " 0", " 0\n")


@dataclass
class EmbeddedSurface:
    grid: Grid2D
    position: np.ndarray  # (nu, nv, 3)
    mask: np.ndarray  # (nu, nv) bool
    provenance: str  # 'lifted' | 'composite'


def lift(chart: PlaneChart) -> EmbeddedSurface:
    """X = (x, y, v): third coordinate equals the chart's v parameter exactly."""
    grid = chart.grid
    x, y, _ = chart.sample()
    _, V = grid.meshgrid()
    pos = np.stack([x, y, V], axis=2)
    return EmbeddedSurface(grid=grid, position=pos,
                           mask=np.ones((grid.nu, grid.nv), dtype=bool),
                           provenance="lifted")


def induced_metric(surface: EmbeddedSurface) -> tuple:
    """(E, F, G) arrays, NaN off the mask, from finite differences of the
    position coordinates on the mask, each taken in place.

    The sums run one coordinate at a time, from 0 as Python's sum does, so
    only one coordinate's two derivative arrays are live at once.
    """
    grid = surface.grid
    e = f = g = 0
    for k in range(3):
        c = surface.position[:, :, k]
        xu = first_derivative(c, surface.mask, grid.du, 0)
        xv = first_derivative(c, surface.mask, grid.dv, 1)
        e += xu * xu
        f += xu * xv
        g += xv * xv
    return e, f, g


def compose(chart: PlaneChart, pc: ParamChange) -> EmbeddedSurface:
    """The chart composed with pc: X(f, g) at every certified node.

    Positions come from the chart's generator, (c(g) + f n(g), g), so they
    carry no sampling error of the chart grid. Every certified node must
    map inside the chart's rectangle, the region build_chart checked for
    folds; offenders raise ImageOutsideChart with their indices.
    """
    grid = pc.grid
    u_img = pc.f
    v_img = pc.g
    cert = pc.certified

    sg = chart.grid
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

    source = chart.source
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
    return EmbeddedSurface(grid=grid, position=pos, mask=cert.copy(), provenance="composite")


def regularity_check(e, f, g, tol: float = 0.0) -> np.ndarray:
    """Mask of nodes where EG - F^2 of the arrays is > tol (a test oracle).

    The pipeline's lift_regular verdict reads the lift's min(EG - F^2)
    from plane.chart_checks instead; tests check that verdict against this
    node-wise mask.
    """
    det = e * g - f**2
    return np.isfinite(det) & (det > tol)


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


def texts_of(fmt, values):
    """fmt % x for each x of the 1-D array `values`, as an object array."""
    return np.array([fmt % x for x in values.tolist()], dtype=object)


def write_rows(fh, n, cells, values=None):
    """Write n lines, line k joining, for each column, cells[c] where it is
    a str (the same text on every line) or cells[c][k] where it is an array.

    Texts formatted once, ahead of this call, enter as they are; %-specs
    left in the line texts are filled from `values`, row-major, with one
    %-format for all n lines.
    """
    if all(isinstance(c, str) for c in cells):
        template = "".join(cells) * n
    else:
        table = np.empty((n, len(cells)), dtype=object)
        for c, texts in enumerate(cells):
            table[:, c] = texts
        template = "".join(table.ravel().tolist())
    fh.write(template if values is None else template % tuple(values.tolist()))


def _shared_texts(values, text):
    """The (nu, nv) texts of a column finite everywhere whose bits are the
    same on every u-row, formatted once per v-line, or on every v-line,
    formatted once per u-row; None for any other column. Bits compare as
    integers, so -0.0 and 0.0 differ."""
    if not np.isfinite(values).all():
        return None
    bits = values.view(f"u{values.itemsize}")
    if (bits == bits[:1]).all():
        texts = texts_of(text, values[0])[None, :]
    elif (bits == bits[:, :1]).all():
        texts = texts_of(text, values[:, 0])[:, None]
    else:
        return None
    return np.broadcast_to(texts, values.shape)


def write_table(fh, columns, sel=None, ok=None):
    """Write one line per node of the bool array `sel`, or of every node when
    it is None, row-major, ROW_BLOCK u-rows at a time.

    `columns` is [(values, text, na)], each values an (nu, nv) array. A cell
    reads text % value where `ok` holds, np.isfinite(values) unless given,
    and na elsewhere; see _shared_texts for the columns formatted once per
    v-line or u-row, not once per cell.
    """
    nu, nv = columns[0][0].shape
    shared = [_shared_texts(values, text) for values, text, _ in columns]
    for rows in row_blocks(nu):
        take = np.ones((rows.stop - rows.start, nv), dtype=bool) if sel is None else sel[rows]
        given = None if ok is None else ok[rows][take]
        cells, picked = [], []
        for (values, text, na), texts in zip(columns, shared):
            if texts is not None:
                texts = texts[rows][take]
                if given is not None:
                    texts[~given] = na
                cells.append(texts)
                continue
            vals = values[rows][take]
            good = np.isfinite(vals) if given is None else given
            picked.append((vals, good))
            if good.all():
                cells.append(text)
            elif not good.any():
                cells.append(na)
            else:
                cells.append(np.array([text, na], dtype=object)[(~good).astype(np.intp)])
        filled = None
        if picked:
            vals, good = (np.column_stack(a) for a in zip(*picked))
            filled = vals[good]
        write_rows(fh, int(np.count_nonzero(take)), cells, filled)


def export_obj(surface: EmbeddedSurface, path: str):
    """Wavefront OBJ: all grid vertices row-major, faces for fully valid cells.

    Masked vertices are written as the origin and simply not referenced by
    any face; the exact validity mask is preserved in '# valid' comment
    lines (run-length per u-row) so re-verification sees the same node set.
    %.17g formatting keeps round-trips bit-exact. Vertices and faces are
    formatted and written in blocks of ROW_BLOCK u-rows, so memory does not
    grow with the file: the vertex lines by write_table, and the faces
    with each vertex index formatted once per block.
    """
    grid = surface.grid
    nv = grid.nv
    m = surface.mask
    head = [f"# isoembed surface provenance={surface.provenance} nu={grid.nu} nv={grid.nv}"]
    for i in range(grid.nu):
        runs = " ".join(f"{a}:{b}" for a, b in _mask_runs(m[i]))
        head.append(f"# valid {i} {runs}".rstrip())
    cell_ok = m[:-1, :-1] & m[1:, :-1] & m[:-1, 1:] & m[1:, 1:]
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(head) + "\n")
            write_table(fh, [(surface.position[:, :, k], _VERTEX[k], _MASKED_VERTEX[k])
                             for k in range(3)], ok=m)
            for rows in row_blocks(grid.nu - 1):
                ci, cj = np.nonzero(cell_ok[rows])
                # OBJ indices are 1-based; a block's cells reach one row past it
                index = texts_of("%d", np.arange(rows.start * nv + 1, (rows.stop + 1) * nv + 1))
                a = ci * nv + cj
                b = a + nv
                write_rows(fh, a.size, ["f ", index[a], " ", index[b], " ", index[b + 1],
                                        "\nf ", index[a], " ", index[b + 1], " ",
                                        index[a + 1], "\n"])
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

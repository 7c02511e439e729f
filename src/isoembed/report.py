"""Residual measurements and machine-readable run reports.

Everything the construction claims is measured as a non-negative residual
field and folded into sup/mean summaries with explicit tolerances; a
verdict is `value < tol` and nothing else, so loosening a tolerance can
only flip fail -> pass. Reports serialize to one JSON document (summaries,
verdicts, metadata) and one CSV of per-node values whose column set is
fixed; masked cells carry the literal token NA. Identical configurations
produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import IoFailure
from .fields import ScalarField2D
from .reparam import ParamChange
from .surface import EmbeddedSurface, induced_metric, row_blocks, write_rows

CSV_COLUMNS = ("ubar", "vbar", "f", "g", "J", "E_res", "F_res", "G_res", "aug_det", "dG")


@dataclass
class IsometryResiduals:
    e_res: ScalarField2D
    f_res: ScalarField2D
    g_res: ScalarField2D

    def sups(self):
        return self.e_res.sup(), self.f_res.sup(), self.g_res.sup()

    def means(self):
        return self.e_res.mean_abs(), self.f_res.mean_abs(), self.g_res.mean_abs()


def isometry_residual(surface: EmbeddedSurface, gbar: ScalarField2D) -> IsometryResiduals:
    """Per-node |E - 1|, |F|, |G_induced - Gbar| of a surface over (ubar, vbar),
    with Gbar the metric's samples on the surface's grid."""
    e, f, g = induced_metric(surface)
    mask = e.mask
    grid = surface.grid
    return IsometryResiduals(
        e_res=ScalarField2D(grid, np.abs(e.values - 1.0), mask=mask),
        f_res=ScalarField2D(grid, np.abs(f.values), mask=mask),
        g_res=ScalarField2D(grid, np.abs(g.values - gbar.values), mask=mask),
    )


def compatibility_residual(g_cramer: ScalarField2D, chart, pc: ParamChange) -> ScalarField2D:
    """dG(node) = |G_cramer(node) - (G0(f, g)(node) + 1)|.

    Measures how far the chosen chart is from realizing the solved metric
    coefficient; the construction itself leaves this gap unconstrained.
    G0 = (A(g) + B(g) f)^2 comes from the chart's generator at each
    certified node.
    """
    sel = g_cramer.mask & pc.certified
    u, v = pc.f.values[sel], pc.g.values[sel]
    src = chart.source
    dg = np.full(sel.shape, np.nan)
    dg[sel] = np.abs(g_cramer.values[sel] - ((src.speed(v) + src.slope(v) * u) ** 2 + 1.0))
    return ScalarField2D(g_cramer.grid, dg, mask=sel & np.isfinite(dg))


@dataclass
class ResidualStat:
    sup: float
    mean: float = float("nan")
    tol: float = None
    gated: bool = False

    @property
    def passed(self):
        if not self.gated or self.tol is None:
            return None
        return bool(np.isfinite(self.sup) and self.sup < self.tol)

    def to_json(self):
        out = {"sup": _num(self.sup), "mean": _num(self.mean)}
        if self.tol is not None:
            out["tol"] = _num(self.tol)
        out["gated"] = self.gated
        if self.passed is not None:
            out["pass"] = self.passed
        return out


def _num(x):
    if x is None:
        return None
    x = float(x)
    if np.isnan(x):
        return "NA"
    return x


@dataclass
class VerificationReport:
    meta: dict
    residuals: dict  # name -> ResidualStat | plain dict
    verdicts: dict  # name -> bool
    masked_count: int

    @property
    def all_passed(self):
        return all(self.verdicts.values())

    def to_json_dict(self):
        res = {}
        for name, stat in self.residuals.items():
            res[name] = stat.to_json() if isinstance(stat, ResidualStat) else stat
        return {
            "schema_version": "1",
            "meta": self.meta,
            "residuals": res,
            "verdicts": {k: bool(v) for k, v in self.verdicts.items()},
            "masked_count": int(self.masked_count),
        }


@dataclass
class NodeTable:
    """Per-node columns of the residual CSV (None column -> all NA)."""

    grid: object
    f: ScalarField2D = None
    g: ScalarField2D = None
    jac: ScalarField2D = None
    e_res: ScalarField2D = None
    f_res: ScalarField2D = None
    g_res: ScalarField2D = None
    aug_det: ScalarField2D = None
    dg: ScalarField2D = None

    def fields_in_order(self):
        return (self.f, self.g, self.jac, self.e_res, self.f_res, self.g_res,
                self.aug_det, self.dg)


# per-column texts of a residual CSV line, where the cell has a value and
# where it reads NA
_CSV_TEXT = ("%.17g,",) * (len(CSV_COLUMNS) - 1) + ("%.17g\n",)
_CSV_NA = ("NA,",) * (len(CSV_COLUMNS) - 1) + ("NA\n",)
# system_s.csv: node (i;j), E, G, G closed form, two ranks, aug det
_SYSTEM_TEXT = ("(%d;", "%d),", "%.17g,", "%.17g,", "%.17g,", "%d,", "%d,", "%.17g\n")
_SYSTEM_NA = ("", "", "NA,", "NA,", "NA,", "NA,", "NA,", "NA\n")


def _column(fld, rows, sel):
    """(values, ok) of fld at the nodes `sel` picks out of u-rows `rows`.

    Row-major; ok is false for a None field, a masked node or a value that
    is not finite.
    """
    if fld is None:
        n = int(np.count_nonzero(sel))
        return np.zeros(n), np.zeros(n, dtype=bool)
    vals = fld.values[rows][sel]
    return vals, fld.mask[rows][sel] & np.isfinite(vals)


def _write_columns(fh, columns, ok_text, na_text):
    values, ok = zip(*columns)
    write_rows(fh, np.column_stack(values), np.column_stack(ok), ok_text, na_text)


def write_report(report: VerificationReport, json_path, csv_path, table: NodeTable = None):
    """Emit the JSON verdict document and (when a table is given) the node CSV.

    The CSV is formatted and written in blocks of ROW_BLOCK u-rows, one
    %-format per block; a cell reads NA where its field is absent or
    masked or its value is not finite.
    """
    try:
        with open(json_path, "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write report {json_path}: {exc}") from exc
    if csv_path is None or table is None:
        return
    grid = table.grid
    us, vs = grid.u_coords, grid.v_coords
    try:
        with open(csv_path, "w", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for rows in row_blocks(grid.nu):
                n_rows = rows.stop - rows.start
                sel = np.ones((n_rows, grid.nv), dtype=bool)
                columns = [(np.repeat(us[rows], grid.nv), sel.ravel()),
                           (np.tile(vs, n_rows), sel.ravel())]
                columns += [_column(fld, rows, sel) for fld in table.fields_in_order()]
                _write_columns(fh, columns, _CSV_TEXT, _CSV_NA)
    except OSError as exc:
        raise IoFailure(f"cannot write CSV {csv_path}: {exc}") from exc


def write_system_csv(path, grid, sys_report):
    """Side table of the per-node linear-system solve: one line per node of
    the system mask, row-major, written in blocks of ROW_BLOCK u-rows."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write("node,E_val,G_val,G_closed_form,rank_coeff,rank_aug,aug_det\n")
            for rows in row_blocks(grid.nu):
                sel = sys_report.mask[rows]
                ii, jj = np.nonzero(sel)
                every = np.ones(ii.size, dtype=bool)
                columns = [(ii + rows.start, every), (jj, every)]
                columns += [_column(fld, rows, sel) for fld in
                            (sys_report.e_val, sys_report.g_val, sys_report.g_closed)]
                # a rank reads NA only where it is not finite
                ranks = (sys_report.rank_coeff.values[rows][sel],
                         sys_report.rank_aug.values[rows][sel])
                columns += [(r, np.isfinite(r)) for r in ranks]
                columns.append(_column(sys_report.aug_det, rows, sel))
                _write_columns(fh, columns, _SYSTEM_TEXT, _SYSTEM_NA)
    except OSError as exc:
        raise IoFailure(f"cannot write CSV {path}: {exc}") from exc

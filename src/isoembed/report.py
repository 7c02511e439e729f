"""Residual measurements and machine-readable run reports.

Everything the construction claims is measured as a non-negative residual
field and folded into sup/mean summaries with explicit tolerances; a
verdict is `value < tol` and nothing else, so loosening a tolerance can
only flip fail -> pass. Reports serialize to one JSON document (summaries,
verdicts, metadata) and one CSV of per-node values whose column set is
fixed; a cell whose field is NaN there (see fields) carries the literal
token NA. Its lines and those of system_s.csv are written by
surface.write_table. Identical configurations produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import IoFailure
from .fields import sup_mean_abs
from .reparam import ParamChange
from .surface import EmbeddedSurface, induced_metric, write_table

CSV_COLUMNS = ("ubar", "vbar", "f", "g", "J", "E_res", "F_res", "G_res", "aug_det", "dG")


@dataclass
class IsometryResiduals:
    e_res: np.ndarray
    f_res: np.ndarray
    g_res: np.ndarray

    def sups(self):
        return tuple(sup_mean_abs(r)[0] for r in (self.e_res, self.f_res, self.g_res))

    def stats(self, e_tol=None, f_tol=None, gated=True):
        """The isometry_e/f/g ResidualStats of a report. E and F are gated at
        their tolerances where `gated` holds and the tolerance is given; G is
        reported only."""
        return {
            "isometry_e": ResidualStat(*sup_mean_abs(self.e_res), e_tol,
                                       gated=gated and e_tol is not None),
            "isometry_f": ResidualStat(*sup_mean_abs(self.f_res), f_tol,
                                       gated=gated and f_tol is not None),
            "isometry_g": ResidualStat(*sup_mean_abs(self.g_res)),
        }


def isometry_residual(surface: EmbeddedSurface, gbar) -> IsometryResiduals:
    """Per-node |E - 1|, |F|, |G_induced - Gbar| of a surface over (ubar, vbar),
    with Gbar the metric's samples on the surface's grid; each is NaN where
    any of E, F, G is not finite."""
    e, f, g = induced_metric(surface)
    off = ~(np.isfinite(e) & np.isfinite(f) & np.isfinite(g))
    res = IsometryResiduals(np.abs(e - 1.0), np.abs(f), np.abs(g - gbar))
    for r in (res.e_res, res.f_res, res.g_res):
        r[off] = np.nan
    return res


def compatibility_residual(g_cramer, chart, pc: ParamChange) -> np.ndarray:
    """dG(node) = |G_cramer(node) - (G0(f, g)(node) + 1)|.

    Measures how far the chosen chart is from realizing the solved metric
    coefficient; the construction itself leaves this gap unconstrained.
    G0 = (A(g) + B(g) f)^2 comes from the chart's generator at each
    certified node, and dG is NaN where it is not finite.
    """
    sel = np.isfinite(g_cramer) & pc.certified
    u, v = pc.f[sel], pc.g[sel]
    src = chart.source
    dg = np.full(sel.shape, np.nan)
    dg[sel] = np.abs(g_cramer[sel] - ((src.speed(v) + src.slope(v) * u) ** 2 + 1.0))
    dg[np.isinf(dg)] = np.nan
    return dg


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
    residuals: dict  # name -> ResidualStat
    checks: dict  # name -> bool, the verdicts that no residual carries
    masked_count: int

    @property
    def verdicts(self):
        """name -> bool: the checks, then each gated residual's verdict."""
        out = dict(self.checks)
        out.update((name, stat.passed) for name, stat in self.residuals.items()
                   if stat.passed is not None)
        return out

    @property
    def all_passed(self):
        return all(self.verdicts.values())

    def to_json_dict(self):
        return {
            "schema_version": "1",
            "meta": self.meta,
            "residuals": {name: stat.to_json() for name, stat in self.residuals.items()},
            "verdicts": {k: bool(v) for k, v in self.verdicts.items()},
            "masked_count": int(self.masked_count),
        }


@dataclass
class NodeTable:
    """Per-node columns of the residual CSV (None column -> all NA)."""

    grid: object
    f: np.ndarray = None
    g: np.ndarray = None
    jac: np.ndarray = None
    e_res: np.ndarray = None
    f_res: np.ndarray = None
    g_res: np.ndarray = None
    aug_det: np.ndarray = None
    dg: np.ndarray = None

    def fields_in_order(self):
        return (self.f, self.g, self.jac, self.e_res, self.f_res, self.g_res,
                self.aug_det, self.dg)


# per-column texts of a residual CSV line, where the cell has a value and
# where it reads NA
_CSV_TEXT = ("%.17g,",) * (len(CSV_COLUMNS) - 1) + ("%.17g\n",)
_CSV_NA = ("NA,",) * (len(CSV_COLUMNS) - 1) + ("NA\n",)
# the same for system_s.csv, its node column as (i;j); the ranks print as %d
_SYSTEM_TEXT = ("(%d;", "%d),") + ("%.17g,",) * 3 + ("%d,",) * 2 + ("%.17g\n",)
_SYSTEM_NA = ("NA,",) * (len(_SYSTEM_TEXT) - 1) + ("NA\n",)


def write_report(report: VerificationReport, json_path, csv_path, table: NodeTable = None):
    """Emit the JSON verdict document and (when a table is given) the node CSV,
    whose cell reads NA where its field is absent or its value not finite."""
    try:
        with open(json_path, "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write report {json_path}: {exc}") from exc
    if csv_path is None or table is None:
        return
    grid = table.grid
    shape = (grid.nu, grid.nv)
    fields = [np.broadcast_to(grid.u_coords[:, None], shape),
              np.broadcast_to(grid.v_coords, shape)]
    fields += [np.broadcast_to(np.nan, shape) if fld is None else fld
               for fld in table.fields_in_order()]
    try:
        with open(csv_path, "w", newline="") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            write_table(fh, list(zip(fields, _CSV_TEXT, _CSV_NA)))
    except OSError as exc:
        raise IoFailure(f"cannot write CSV {csv_path}: {exc}") from exc


def write_system_csv(path, grid, sys_report):
    """Side table of the per-node linear-system solve: one line per node of
    the system mask, row-major, written by write_table."""
    shape = (grid.nu, grid.nv)
    fields = [np.broadcast_to(np.arange(grid.nu)[:, None], shape),
              np.broadcast_to(np.arange(grid.nv), shape),
              sys_report.e_val, sys_report.g_val, sys_report.g_closed,
              sys_report.rank_coeff, sys_report.rank_aug, sys_report.aug_det]
    try:
        with open(path, "w", newline="") as fh:
            fh.write("node,E_val,G_val,G_closed_form,rank_coeff,rank_aug,aug_det\n")
            write_table(fh, list(zip(fields, _SYSTEM_TEXT, _SYSTEM_NA)), sel=sys_report.mask)
    except OSError as exc:
        raise IoFailure(f"cannot write CSV {path}: {exc}") from exc

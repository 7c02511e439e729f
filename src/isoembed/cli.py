"""Command-line driver.

    isoembed run [--config FILE] [overrides]   full pipeline from a config
    isoembed example-cos2 [overrides]          built-in non-analytic scenario
    isoembed verify MESH --metric NAME --fields CSV   re-check a surface

Exit codes: 0 all gated verdicts pass, 1 usage, execution or config error
(a typed IsoembedError, printed as one `error:` line; nothing else is
caught; argparse's usage errors raise BadParameter), 2 verdict failure.
The pipeline is fully deterministic; there is no seed anywhere.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields

import numpy as np

from .config import _TOL_FIELDS, RunConfig, example_cos2_config, load_config, refuse_shared_paths
from .errors import BadParameter, IoFailure, IsoembedError
from .fields import Grid2D, ScalarField2D
from .metric import Rect, make_metric
from .pipeline import run_pipeline, write_outputs
from .report import NodeTable, ResidualStat, VerificationReport, isometry_residual, write_report
from .surface import EmbeddedSurface, load_obj_positions


# every config key is mirrored by a flag; booleans take on/off
_CFG_FIELDS = {f.name: f.type for f in fields(RunConfig) if f.name != "tolerances"}


def _add_run_overrides(p):
    p.add_argument("--grid-n", type=int, dest="grid_n", help="sets both n_u and n_v")
    p.add_argument("--chart-n", type=int, dest="chart_n", help="sets both chart grid counts")
    for name, ftype in {**_CFG_FIELDS, **_TOL_FIELDS}.items():
        flag = "--" + name.replace("_", "-")
        if ftype in ("bool", bool):
            p.add_argument(flag, choices=("on", "off"), dest=name)
        elif ftype in ("int", int):
            p.add_argument(flag, type=int, dest=name)
        elif ftype in ("float", float):
            p.add_argument(flag, type=float, dest=name)
        else:
            p.add_argument(flag, dest=name)


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    for name in _CFG_FIELDS:
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, val)
    for name, ftype in _TOL_FIELDS.items():
        val = getattr(args, name, None)
        if val is not None:
            if ftype in ("bool", bool):
                val = val == "on"
            setattr(cfg.tolerances, name, val)
    if getattr(args, "grid_n", None) is not None:
        cfg.n_u = cfg.n_v = args.grid_n
    if getattr(args, "chart_n", None) is not None:
        cfg.chart_n_u = cfg.chart_n_v = args.chart_n
    return cfg


def _print_report(report):
    for name, stat in report.residuals.items():
        if isinstance(stat, ResidualStat):
            mark = ""
            if stat.passed is not None:
                mark = "PASS" if stat.passed else "FAIL"
            tol = f" tol={stat.tol:g}" if stat.tol is not None else ""
            sup = "NA" if not np.isfinite(stat.sup) else f"{stat.sup:.6e}"
            print(f"  {name:<22} sup={sup}{tol} {mark}")
    for name, ok in report.verdicts.items():
        if name not in report.residuals:
            print(f"  {name:<22} {'PASS' if ok else 'FAIL'}")
    print(f"  masked nodes: {report.masked_count}")


def _finish_run(cfg, config_path=None) -> int:
    if config_path:
        refuse_shared_paths(cfg.output_paths(), {"--config": config_path})
    result = run_pipeline(cfg)
    json_path, csv_path = write_outputs(result)
    print(f"report: {json_path}")
    print(f"residuals: {csv_path}")
    _print_report(result.report)
    if result.passed:
        print("verdict: PASS")
        return 0
    failed = [k for k, v in result.report.verdicts.items() if not v]
    print(f"verdict: FAIL ({', '.join(failed)})")
    return 2


def cmd_run(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    cfg = _apply_overrides(cfg, args)
    return _finish_run(cfg, args.config)


def cmd_example_cos2(args) -> int:
    cfg = example_cos2_config()
    cfg = _apply_overrides(cfg, args)
    return _finish_run(cfg)


def cmd_verify(args) -> int:
    # a NaN gate fails every node and an infinite one none
    for flag, tol in (("--e-res-tol", args.e_res_tol), ("--f-res-tol", args.f_res_tol)):
        if tol is not None and not math.isfinite(tol):
            raise BadParameter(f"{flag} must be a finite number: {tol}")
    out = args.report_json or "verify_report.json"
    outputs = {"--report-json": out}
    if args.residual_csv:
        outputs["--residual-csv"] = args.residual_csv
    refuse_shared_paths(outputs, {"MESH": args.mesh, "--fields": args.fields})
    grid, f_fld, g_fld, mask = _load_fields_csv(args.fields)
    pos, obj_mask = load_obj_positions(args.mesh, grid.nu, grid.nv)
    if obj_mask is not None:
        mask = obj_mask
    surface = EmbeddedSurface(grid=grid, position=pos, mask=mask, provenance="composite")
    metric = make_metric(
        args.metric,
        domain=Rect(grid.u0 - 1.0, grid.u_max + 1.0, grid.v0 - 1.0, grid.v_max + 1.0),
    )
    iso = isometry_residual(surface, metric.sample(grid))
    e_sup, f_sup, g_sup = iso.sups()
    e_mean, f_mean, g_mean = iso.means()
    residuals = {
        "isometry_e": ResidualStat(e_sup, e_mean,
                                   tol=args.e_res_tol, gated=args.e_res_tol is not None),
        "isometry_f": ResidualStat(f_sup, f_mean,
                                   tol=args.f_res_tol, gated=args.f_res_tol is not None),
        "isometry_g": ResidualStat(g_sup, g_mean),
    }
    verdicts = {k: s.passed for k, s in residuals.items() if s.passed is not None}
    report = VerificationReport(
        meta={"mesh": args.mesh, "fields": args.fields, "metric": args.metric},
        residuals=residuals,
        verdicts=verdicts,
        masked_count=int((~mask).sum()),
    )
    table = NodeTable(grid=grid, f=f_fld, g=g_fld,
                      e_res=iso.e_res, f_res=iso.f_res, g_res=iso.g_res)
    write_report(report, out, args.residual_csv, table if args.residual_csv else None)
    print(f"report: {out}")
    _print_report(report)
    if verdicts and not all(verdicts.values()):
        return 2
    return 0


def _load_fields_csv(path):
    """Grid, f, g and node mask from a residual CSV written by `run`.

    The surface mask prefers the E_res column (the composite's actual valid
    set) and falls back to f,g availability for hand-made field files.
    """
    import csv as _csv

    try:
        with open(path, newline="") as fh:
            reader = _csv.reader(fh)
            header = next(reader, [])
            rows = list(reader)
    except OSError as exc:
        raise IoFailure(f"cannot read fields {path}: {exc}") from exc
    except (_csv.Error, UnicodeDecodeError) as exc:
        raise BadParameter(f"{path}: not a CSV file: {exc}") from None
    if header[:4] != ["ubar", "vbar", "f", "g"]:
        raise BadParameter(f"{path}: expected columns ubar,vbar,f,g,...")
    if not rows:
        raise BadParameter(f"{path}: no data rows")
    if any(len(r) != len(header) for r in rows):
        raise BadParameter(f"{path}: every row needs {len(header)} cells")
    try:
        ub = np.array([float(r[0]) for r in rows])
        vb = np.array([float(r[1]) for r in rows])
        fv, gv = (np.array([np.nan if r[c] == "NA" else float(r[c]) for r in rows])
                  for c in (2, 3))
    except ValueError as exc:
        raise BadParameter(f"{path}: {exc}") from None
    us = np.unique(ub)
    vs = np.unique(vb)
    nu, nv = us.size, vs.size
    if nu * nv != len(rows):
        raise BadParameter(f"{path}: rows do not form a complete {nu}x{nv} grid")
    if not (np.array_equal(ub, np.repeat(us, nv)) and np.array_equal(vb, np.tile(vs, nu))):
        raise BadParameter(f"{path}: rows are not the {nu}x{nv} grid in row-major order")
    # span-based spacing reproduces the generating grid's du = span/(n-1)
    # to the bit, so re-verification divides by identical stencil widths
    grid = Grid2D(u0=float(us[0]), v0=float(vs[0]),
                  du=float((us[-1] - us[0]) / (nu - 1)),
                  dv=float((vs[-1] - vs[0]) / (nv - 1)), nu=nu, nv=nv)
    # row-major rows: reshaping puts row i * nv + j at node (i, j)
    fv = fv.reshape(nu, nv)
    gv = gv.reshape(nu, nv)
    field_mask = np.isfinite(fv) & np.isfinite(gv)
    mask = field_mask
    if "E_res" in header:
        col = header.index("E_res")
        surf_ok = np.array([r[col] != "NA" for r in rows]).reshape(nu, nv)
        if surf_ok.any():
            mask = surf_ok
    return grid, ScalarField2D(grid, fv, mask=field_mask), ScalarField2D(grid, gv, mask=field_mask), mask


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors raise BadParameter; the
    subcommands' parsers inherit the class."""

    def error(self, message):
        raise BadParameter(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="isoembed",
        description="Construct and verify local isometric embeddings of "
                    "geodesic-form 2-metrics in E^3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the full pipeline")
    p_run.add_argument("--config", help="INI config file")
    _add_run_overrides(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_ex = sub.add_parser("example-cos2", help="built-in cos^2 scenario with "
                          "C^1-but-not-C^2 initial data")
    _add_run_overrides(p_ex)
    p_ex.set_defaults(fn=cmd_example_cos2)

    p_ver = sub.add_parser("verify", help="recompute isometry residuals for a mesh")
    p_ver.add_argument("mesh", help="OBJ mesh written by run")
    p_ver.add_argument("--metric", required=True)
    p_ver.add_argument("--fields", required=True, help="residual CSV with ubar,vbar,f,g")
    p_ver.add_argument("--report-json", dest="report_json")
    p_ver.add_argument("--residual-csv", dest="residual_csv")
    p_ver.add_argument("--e-res-tol", type=float, dest="e_res_tol")
    p_ver.add_argument("--f-res-tol", type=float, dest="f_res_tol")
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except IsoembedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Base-curve choice vs composite isometry: the compatibility experiment.

The construction never pins down which plane chart to lift: any geodesic
parallel chart gives E = 1, F = 0 for the composite only if its G0 + 1
matches the coefficient solved from the linear system along the image of
the parameter change. This sweep makes the gap visible: unit-speed named
curves leave dG ~ 97 on the flat case (and a composite that is nowhere
near isometric), while the fitted speed/slope profile drives both to zero.
"""

import numpy as np

from isoembed.config import RunConfig
from isoembed.fields import sup_mean_abs
from isoembed.pipeline import chart_grid_for, run_pipeline
from isoembed.plane import build_chart, make_base_curve
from isoembed.report import compatibility_residual, isometry_residual
from isoembed.surface import compose


def sweep(metric_name, v_half):
    cfg = RunConfig(metric=metric_name, v_half=v_half)
    base = run_pipeline(cfg)  # fitted-profile reference run
    rows = [("auto (fitted)",
             base.report.residuals["compat_dG"].sup,
             base.report.residuals["isometry_e"].sup,
             base.report.residuals["isometry_f"].sup)]
    for spec in ("line", "circle:2"):
        source = make_base_curve(spec)
        chart = build_chart(source, chart_grid_for(base.pc, cfg))
        comp = compose(chart, base.pc)
        iso = isometry_residual(comp, base.f_report.gbar)
        dg = compatibility_residual(base.sys_report.g_val, chart, base.pc)
        e_sup, f_sup, _ = iso.sups()
        rows.append((spec, sup_mean_abs(dg)[0], e_sup, f_sup))
    print(f"\n=== metric {metric_name} (v half-width {v_half})")
    print(f"{'chart':<16}{'sup dG':>12}{'sup|E-1|':>12}{'sup|F|':>12}")
    for name, dg_sup, e_sup, f_sup in rows:
        print(f"{name:<16}{dg_sup:>12.4g}{e_sup:>12.4g}{f_sup:>12.4g}")


def main():
    np.set_printoptions(precision=4)
    sweep("flat", 0.1)
    sweep("cos2", 0.03)


if __name__ == "__main__":
    main()

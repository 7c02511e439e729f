#!/usr/bin/env python3
"""Run the constant-coefficient control case and print every measurement.

The solved maps have closed forms here (f = eps*u - sqrt(1-eps^2)*v,
g = delta*(u + lam*v)), so this run doubles as the end-to-end sanity check:
all residuals should sit at rounding level, the solved coefficient is
(1 - eps^2)/delta^2 = 99, and the fitted chart removes the compatibility
gap entirely.
"""

import time

import numpy as np

from isoembed.config import RunConfig
from isoembed.pipeline import run_pipeline, write_outputs


def main():
    cfg = RunConfig(out_dir="out_flat", mesh_out="flat")
    t0 = time.monotonic()
    res = run_pipeline(cfg)
    elapsed = time.monotonic() - t0
    write_outputs(res)

    print(f"flat case: {elapsed:.2f}s, certified nodes {res.pc.certified.sum()}")
    print(f"Jacobian at center: {res.pc.jac[100, 100]:.10f} "
          f"(closed form {0.1/np.sqrt(0.99):.10f})")
    g_c = res.report.meta["g_cramer_center"]
    print(f"solved metric coefficient at center: {g_c:.6f} (expected 99)")
    print(f"{'residual':<24}{'sup':>12}  gate")
    for name, stat in res.report.residuals.items():
        gate = f"< {stat.tol:g}" if stat.tol is not None else "reported"
        sup = "NA" if not np.isfinite(stat.sup) else f"{stat.sup:.3e}"
        print(f"{name:<24}{sup:>12}  {gate}")
    print("verdict:", "PASS" if res.passed else "FAIL")


if __name__ == "__main__":
    main()

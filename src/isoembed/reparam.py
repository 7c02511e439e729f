"""The parameter change (u, v) = (f, g)(ubar, vbar): Jacobian and certificate.

The Jacobian J = f_u g_v - f_v g_u is formed from the stencil derivatives
the solver took of f and g. A certificate (largest grid-connected region
around the initial node where |J| stays above tolerance with constant
sign) realizes the construction's "some neighborhood of the initial point"
as a computed mask. It is found by run sweeps: the runs of admissible
nodes along each row, then along each column, are labelled once with a
cumulative sum over their starts, and a run joins the region as a whole
when any of its nodes is in it. Row and column sweeps alternate until a
pair adds no node, which yields the 4-connected component of the seed in
a few O(N) passes.

Two independent routes exist for J on the initial line: the stencil value
and a closed-form determinant in terms of (h', k', G(u,0)); their
agreement is one of the pipeline's cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, NoCertifiedRegion
from .fields import ScalarField2D


@dataclass
class ParamChange:
    f: ScalarField2D
    g: ScalarField2D
    derivs: tuple  # (f_u, f_v, g_u, g_v) stencil arrays, as the solver took them
    jac: ScalarField2D
    certified: np.ndarray  # bool mask, subset of jac.mask
    orientation: int  # sign of J on the certified region
    init_node: tuple  # (i0, j0) seed of the certificate

    @property
    def grid(self):
        return self.f.grid


def jacobian(f: ScalarField2D, g: ScalarField2D, derivs) -> ScalarField2D:
    """J = f_u g_v - f_v g_u per node from derivs = (f_u, f_v, g_u, g_v)."""
    fu, fv, gu, gv = derivs
    jac = fu * gv - fv * gu
    mask = f.mask & g.mask & np.isfinite(jac)
    return ScalarField2D(f.grid, jac, mask=mask)


def jacobian_initial_closed_form(hprime, kprime, g0):
    """Closed-form J on the initial line from the initial slopes.

    On v = 0, f_u = h' and g_u = k', and the two marched PDEs give
    f_v = -sqrt(G0) sqrt(1-h'^2) and g_v = lam sqrt(G0) k' with
    lam = h' / sqrt(1-h'^2). So

        J = f_u g_v - f_v g_u
          = sqrt(G0) k' [h'^2 / sqrt(1-h'^2) + sqrt(1-h'^2)]
          = sqrt(G0) k' / sqrt(1-h'^2),

    which is what this evaluates. Accepts scalars or arrays.
    """
    hp = np.asarray(hprime, dtype=float)
    kp = np.asarray(kprime, dtype=float)
    g0 = np.asarray(g0, dtype=float)
    if np.any(hp <= 0.0) or np.any(hp >= 1.0):
        raise BadParameter("h' must lie in (0,1)")
    if np.any(kp <= 0.0):
        raise BadParameter("k' must be positive")
    if np.any(g0 <= 0.0):
        raise BadParameter("G(u,0) must be positive")
    out = np.sqrt(g0) * kp / np.sqrt(1.0 - hp**2)
    return out if out.ndim else float(out)


def certify_invertible(jac: ScalarField2D, tol: float, seed_node) -> tuple:
    """Largest grid-connected region around seed_node with |J| > tol and
    constant sign. Returns (mask, orientation).
    """
    i0, j0 = seed_node
    vals = jac.values
    ok = jac.mask & np.isfinite(vals) & (np.abs(vals) > tol)
    if not ok[i0, j0]:
        raise NoCertifiedRegion(
            f"|J| <= {tol} at the initial node (J = {vals[i0, j0]!r})"
        )
    orientation = 1 if vals[i0, j0] > 0 else -1
    ok &= np.sign(vals) == orientation

    rows, cols = _run_labels(ok), _run_labels(ok.T)
    region = np.zeros_like(ok)
    region[i0, j0] = True
    count = 1
    while True:
        region = _join_runs(rows, ok, region)
        region = _join_runs(cols, ok.T, region.T).T
        grown = int(np.count_nonzero(region))
        if grown == count:
            return np.ascontiguousarray(region), orientation
        count = grown


def _run_labels(ok):
    """Label per node: the index of its run of `ok` along the last axis."""
    starts = ok.copy()
    starts[:, 1:] &= ~ok[:, :-1]
    return np.cumsum(starts.ravel()).reshape(ok.shape)


def _join_runs(labels, ok, region):
    """`region` grown by every run of `ok` that meets it."""
    hit = np.zeros(int(labels[-1, -1]) + 1, dtype=bool)
    hit[labels[region]] = True
    return ok & hit[labels]


def build_param_change(f_report, g_report, jac_tol: float = 1e-8) -> ParamChange:
    """Assemble the certified parameter change from the two solve reports."""
    f = f_report.field
    g = g_report.field
    grid = f.grid
    j0 = grid.row_index_of_v(0.0)
    i0 = grid.nu // 2
    derivs = (f_report.d_u, f_report.d_v, g_report.d_u, g_report.d_v)
    jac = jacobian(f, g, derivs)
    certified, orientation = certify_invertible(jac, jac_tol, (i0, j0))
    return ParamChange(f=f, g=g, derivs=derivs, jac=jac, certified=certified,
                       orientation=orientation, init_node=(i0, j0))

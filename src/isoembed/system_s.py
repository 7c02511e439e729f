"""The per-node 3x2 linear system tying the two metric forms together.

At each certified node the squared derivatives of the parameter change
form the coefficient matrix

    [ f_u^2    g_u^2  ]           [ 1    ]
    [ f_u f_v  g_u g_v] (E, G)^T = [ 0    ]
    [ f_v^2    g_v^2  ]           [ Gbar ]

whose consistency (rank 2 = rank of the augmented matrix, vanishing
augmented determinant) encodes that (1, 0, Gbar) and (E, G) describe the
same metric across the change. The solve picks the two rows with the
largest 2x2 minor, solves exactly, and keeps the third row as a residual.
The third row also yields the closed form G = (Gbar - f_v^2)/g_v^2, an
independent route that must agree with the solved G.

The grid solve takes its ranks from singular-value invariants instead of
an SVD. For a 3x2 matrix with S = sum of squared entries and P = sum of
its three squared 2x2 minors (Cauchy-Binet: P = sigma1^2 sigma2^2),

    sigma1^2 = (S + sqrt(S^2 - 4P)) / 2,   sigma2^2 = 2P / (S + sqrt(S^2 - 4P)),

the second being the stable root. The augmented 3x3 matrix takes S_a and
P_a from its entries and all nine 2x2 minors the same way (the entries and
the coefficient's three minors are the per-node arrays the solve builds
anyway; the (n, 3, 3) stack of augmented matrices is for the LU alone), then
sigma3^2 = det^2 / P_a. As P_a = sigma1^2 sigma2^2 + sigma3^2 (sigma1^2 +
sigma2^2), these are exact up to O(sigma3^2) terms, negligible where the
rank 2/3 verdict is decided (sigma3 near 1e-6 sigma1). The scalar
`rank_checks` keeps the SVD and is the oracle these ranks are tested
against. The grid's `aug_det` stays `np.linalg.det` (LU): a cofactor
determinant differs from it by up to 3.5e-7 relative, which would change
the written bytes.

The grid solve walks the grid in blocks of whole u-rows of about
fields.NODE_BLOCK nodes, reading each block's slice of the run's Gbar
samples: its twenty-odd node-sized temporaries stay bounded, and only the
six result fields grow with the grid. The three row residuals fold into
their sup block by block. Every step is per node, so the bits equal one
whole-grid pass. Each result is a field (see fields): NaN off the system's
mask, and at any node of it where its value is not finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient, UncertifiedNode
from .fields import node_blocks, sup_mean_abs
from .metric import GeodesicMetric2D
from .reparam import ParamChange

# Singular values below RANK_REL_TOL * (largest sv) count as zero. The
# augmented matrix of a marched solution carries a third singular value of
# the order of the PDE discretization residual (~1e-8 at default
# resolution), so the threshold is tied to the solver tolerance rather
# than machine precision. The grid solve compares squared singular values
# from the invariants (S, P, det; see the module docstring) against
# RANK_REL_TOL**2 * sigma1^2, so its entries must stay within about
# 1e+-75 for the squares to neither overflow nor underflow.
RANK_REL_TOL = 1e-6

_ROW_PAIRS = ((0, 1), (0, 2), (1, 2))


@dataclass
class SystemS:
    node: tuple  # (i, j) grid indices
    coeff: np.ndarray  # (3, 2)
    rhs: np.ndarray  # (3,)

    @property
    def augmented(self):
        return np.column_stack([self.coeff, self.rhs])


def assemble(pc: ParamChange, metric: GeodesicMetric2D, node) -> SystemS:
    """Fill the system at one certified node from the stencil derivatives."""
    i, j = node
    if not pc.certified[i, j]:
        raise UncertifiedNode(f"node {node} is outside the certified region")
    fu, fv, gu, gv = (a[i, j] for a in pc.derivs)
    u = pc.grid.u_coords[i]
    v = pc.grid.v_coords[j]
    gbar = float(metric.eval(u, v))
    return from_derivatives(fu, fv, gu, gv, gbar, node=(i, j))


def from_derivatives(fu, fv, gu, gv, gbar, node=(-1, -1)) -> SystemS:
    """System from explicit derivative values (testing and corruption runs)."""
    coeff = np.array([
        [fu * fu, gu * gu],
        [fu * fv, gu * gv],
        [fv * fv, gv * gv],
    ])
    rhs = np.array([1.0, 0.0, gbar])
    return SystemS(node=node, coeff=coeff, rhs=rhs)


def augmented_det_residual(s: SystemS) -> float:
    """Determinant of the 3x3 augmented matrix; zero on exact solutions."""
    return float(np.linalg.det(s.augmented))


def rank_checks(s: SystemS, tol: float = RANK_REL_TOL) -> tuple:
    """(rank of coefficient matrix, rank of augmented matrix) by SVD."""
    return _svd_rank(s.coeff, tol), _svd_rank(s.augmented, tol)


def _svd_rank(mat, tol):
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[0] <= 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def solve_for_EG(s: SystemS) -> tuple:
    """(E, G) from the two rows with the largest 2x2 minor."""
    minors = [
        s.coeff[a, 0] * s.coeff[b, 1] - s.coeff[a, 1] * s.coeff[b, 0]
        for a, b in _ROW_PAIRS
    ]
    k = int(np.argmax(np.abs(minors)))
    m = minors[k]
    scale = np.abs(s.coeff).max()
    if scale <= 0.0 or abs(m) <= RANK_REL_TOL * scale * scale:
        raise RankDeficient(f"all 2x2 minors vanish at node {s.node}")
    a, b = _ROW_PAIRS[k]
    e_val = (s.rhs[a] * s.coeff[b, 1] - s.rhs[b] * s.coeff[a, 1]) / m
    g_val = (s.coeff[a, 0] * s.rhs[b] - s.coeff[b, 0] * s.rhs[a]) / m
    return float(e_val), float(g_val)


def closed_form_G(s: SystemS) -> float:
    """G from the third row alone with E fixed to 1: (Gbar - f_v^2)/g_v^2."""
    return float((s.rhs[2] - s.coeff[2, 0]) / s.coeff[2, 1])


def _minor_squares(x, y):
    """Sum over the three row pairs of the squared 2x2 minors of the
    columns x, y (each three per-node arrays, one per row)."""
    return sum((x[a] * y[b] - x[b] * y[a]) ** 2 for a, b in _ROW_PAIRS)


def _top_sv_squares(s, p):
    """(sigma1^2, sigma2^2) from S = sum of squares and P = sum of squared
    2x2 minors, with the stable root for the smaller one."""
    root = s + np.sqrt(np.maximum(s * s - 4.0 * p, 0.0))
    return 0.5 * root, np.divide(2.0 * p, root, out=np.zeros_like(root), where=root > 0.0)


def _count_above(big, *rest):
    """1 for big > 0, plus one per square in rest above RANK_REL_TOL^2 * big."""
    rank = (big > 0.0).astype(np.int64)
    thr = RANK_REL_TOL * RANK_REL_TOL * big
    for sq in rest:
        rank += sq > thr
    return rank


def _invariant_ranks(rows, minors, det):
    """(rank of coefficient, rank of augmented) per node, without an SVD.

    rows = ((A0, B0, r0), (A1, B1, r1), (A2, B2, r2)) holds the augmented
    matrices' entries, minors the coefficient's 2x2 minors over _ROW_PAIRS
    and det the augmented determinants, each one array over the nodes."""
    a, b, r = zip(*rows)
    # S adds its rows in order, (row0 + row1) + row2: the ranks' bits rest on it
    s = sum(x * x + y * y for x, y in zip(a, b))
    p = sum(m * m for m in minors)
    rank_c = _count_above(*_top_sv_squares(s, p))
    s_a = s + sum(z * z for z in r)
    p_a = p + _minor_squares(a, r) + _minor_squares(b, r)
    sv1, sv2 = _top_sv_squares(s_a, p_a)
    sv3 = np.divide(det * det, p_a, out=np.zeros_like(p_a), where=p_a > 0.0)
    return rank_c, _count_above(sv1, sv2, sv3)


@dataclass
class SystemReport:
    """Whole-grid solve of the system on the certified region."""

    e_val: np.ndarray
    g_val: np.ndarray
    g_closed: np.ndarray
    rank_coeff: np.ndarray
    rank_aug: np.ndarray
    aug_det: np.ndarray
    row_residual_sup: float  # sup over the mask of |row . (E, G) - rhs| on the three rows
    mask: np.ndarray

    def g_match_rel_sup(self, mask=None):
        """sup of |G_solved - G_closed| / max(1, |G_closed|) over `mask`
        (default: the whole region)."""
        rel = (self.g_val - self.g_closed) / np.maximum(1.0, np.abs(self.g_closed))
        return sup_mean_abs(rel if mask is None else np.where(mask, rel, np.nan))[0]


def _solve_block(fu, fv, gu, gv, gbar, mask, out):
    """The system at every node of one block of u-rows: assemble, solve,
    LU determinants and invariant ranks on the masked nodes.

    Writes into the block views out = (e_val, g_val, g_closed, rank_coeff,
    rank_aug, aug_det), which arrive filled with NaN, and returns the sup
    of the three row residuals over the block's masked nodes (NaN where
    none has a value).
    """
    e_val, g_val, g_closed, rank_c, rank_a, aug_det = out
    A0, B0 = fu * fu, gu * gu
    A1, B1 = fu * fv, gu * gv
    A2, B2 = fv * fv, gv * gv

    minors = np.stack([A0 * B1 - B0 * A1, A0 * B2 - B0 * A2, A1 * B2 - B1 * A2])
    pick = np.argmax(np.abs(minors), axis=0)

    r0 = np.ones_like(gbar)
    r1 = np.zeros_like(gbar)
    r2 = gbar
    rows_a = (
        (A0, B0, r0, A1, B1, r1),
        (A0, B0, r0, A2, B2, r2),
        (A1, B1, r1, A2, B2, r2),
    )
    for k, (Aa, Ba, ra, Ab, Bb, rb) in enumerate(rows_a):
        m = minors[k]
        safe = np.where(m == 0.0, 1.0, m)
        sel = (pick == k) & (m != 0.0)
        np.copyto(e_val, (ra * Bb - rb * Ba) / safe, where=sel)
        np.copyto(g_val, (Aa * rb - Ab * ra) / safe, where=sel)

    g_closed[...] = (gbar - A2) / np.where(B2 == 0.0, np.nan, B2)

    sup = sup_mean_abs(np.concatenate([(e_val * A + g_val * B - r)[mask] for A, B, r in
                                       ((A0, B0, r0), (A1, B1, r1), (A2, B2, r2))]))[0]

    # determinants (LU) and invariant ranks on the certified nodes
    n = int(mask.sum())
    if n:
        rows = [[cell[mask] for cell in cells]
                for cells in ((A0, B0, r0), (A1, B1, r1), (A2, B2, r2))]
        aug = np.empty((n, 3, 3))  # the stack only np.linalg.det reads
        for row, cells in enumerate(rows):
            for col, cell in enumerate(cells):
                aug[:, row, col] = cell
        det = np.linalg.det(aug)
        aug_det[mask] = det
        rank_c[mask], rank_a[mask] = _invariant_ranks(rows, minors[:, mask], det)
    return sup


def solve_system_grid(pc: ParamChange, gbar) -> SystemReport:
    """Vectorized assemble + rank check + solve at every certified node,
    with Gbar read from the samples gbar on pc's grid.

    The grid is walked in blocks of whole u-rows of about NODE_BLOCK nodes,
    so the transients do not grow with the grid.
    """
    grid = pc.grid
    fu, fv, gu, gv = pc.derivs
    mask = (
        pc.certified
        & np.isfinite(fu) & np.isfinite(fv) & np.isfinite(gu) & np.isfinite(gv)
    )
    out = [np.full((grid.nu, grid.nv), np.nan) for _ in range(6)]
    sups = [_solve_block(fu[rows], fv[rows], gu[rows], gv[rows], gbar[rows],
                         mask[rows], [a[rows] for a in out])
            for rows in node_blocks(grid.nu, grid.nv)]
    for arr in out:
        arr[~mask | np.isinf(arr)] = np.nan
    return SystemReport(*out, row_residual_sup=sup_mean_abs(np.array(sups))[0], mask=mask)

"""Initial values for the two characteristic initial-value problems.

Both maps of the parameter change are seeded on the line v = 0: the first
with h(u), the second with k(u). The construction needs 0 < h' < 1 (so the
characteristic slope stays real) and k' > 0. Two built-in families:

  linear_ramp  h = eps*u,              k = delta*u
  c1_not_c2    h = eps*(u + u|u|/2),   k = delta*u

The second family is C^1 but not C^2 (h'' jumps by 2*eps at u = 0), which
is exactly the mechanism that makes the embedded surface non-analytic even
under an analytic metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadParameter

FAMILIES = ("linear_ramp", "c1_not_c2")


@dataclass
class InitialData:
    family: str
    epsilon: float
    delta: float
    h: Callable
    k: Callable
    dh: Callable
    dk: Callable

    def check_grid(self, u_coords):
        """Raise BadParameter unless 0 < h' < 1 and k' > 0 on these columns."""
        dh = np.asarray(self.dh(u_coords), dtype=float) * np.ones_like(u_coords)
        dk = np.asarray(self.dk(u_coords), dtype=float) * np.ones_like(u_coords)
        if np.any(dh <= 0.0) or np.any(dh >= 1.0):
            raise BadParameter(
                f"initial slope h' must stay in (0,1) on the grid; "
                f"range [{dh.min():.6g}, {dh.max():.6g}]"
            )
        if np.any(dk <= 0.0):
            raise BadParameter("initial slope k' must be positive on the grid")


def make_initial(family: str, epsilon: float, delta: float):
    """Build InitialData for one of the named families."""
    if not (0.0 < epsilon < 1.0):
        raise BadParameter(f"epsilon out of (0,1): {epsilon}")
    if delta <= 0.0:
        raise BadParameter(f"delta must be positive: {delta}")

    if family == "linear_ramp":
        return InitialData(
            family=family,
            epsilon=epsilon,
            delta=delta,
            h=lambda u: epsilon * u,
            k=lambda u: delta * u,
            dh=lambda u: epsilon * np.ones_like(np.asarray(u, dtype=float)),
            dk=lambda u: delta * np.ones_like(np.asarray(u, dtype=float)),
        )
    if family == "c1_not_c2":
        # h' = eps*(1+|u|) is continuous; h'' jumps at u = 0
        return InitialData(
            family=family,
            epsilon=epsilon,
            delta=delta,
            h=lambda u: epsilon * (u + u * np.abs(u) / 2.0),
            k=lambda u: delta * u,
            dh=lambda u: epsilon * (1.0 + np.abs(u)),
            dk=lambda u: delta * np.ones_like(np.asarray(u, dtype=float)),
        )
    raise BadParameter(f"unknown initial family '{family}'; expected one of {FAMILIES}")

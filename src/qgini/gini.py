"""Gini indices of measurement distributions.

The index is the normalized area between a distribution's Lorenz values and
the uniform ones: 0 for the flat distribution, and at most (d-1)/(d+1),
attained exactly when all probability sits on one outcome. The position and
momentum indices of a density matrix are reported together because their sum
is the quantity whose supremum defines the uncertainty coefficient.
"""

import numpy as np

from qgini.errors import ValidationError
from qgini.qsystem import NORM_TOL, DensityMatrix, ProbabilityDistribution, QuantumSystem


def gini_cap(d: int) -> float:
    """Largest index a single distribution can reach, (d-1)/(d+1)."""
    return (d - 1.0) / (d + 1.0)


def gini_weights(d: int) -> tuple[np.ndarray, float]:
    """Weights and scale of the index: g = 1 - scale * (weights @ ascending p).

    The k-th smallest probability enters the Lorenz values L(k), ..., L(d-1),
    so with weights (d, d-1, ..., 1) the weighted sort equals the sum of the
    Lorenz values, and scale = 2/(d+1). A sum of n indices at one dimension
    is n - scale * (sum of their weighted sorts).
    """
    return np.arange(d, 0, -1, dtype=np.float64), 2.0 / (d + 1.0)


def gini_index(p: ProbabilityDistribution) -> float:
    """Gini index 1 - 2/(d+1) * sum of the Lorenz values, as a weighted sort.

    Round-off can put the flat distribution a few ulp below zero, so the
    result is clamped at 0; the cap (d-1)/(d+1) is a theorem, not enforced.
    """
    weights, scale = gini_weights(p.dim)
    g = 1.0 - scale * float(weights @ np.sort(p.probs))
    return max(g, 0.0)


class GiniReport:
    """Position and momentum Gini indices of one state, and their sum.

    g_xp is derived in the constructor, so a report cannot carry an
    inconsistent sum. Both indices must lie in [0, (d-1)/(d+1)] up to
    NORM_TOL and g_xp strictly below twice the cap: the boundary accepts
    distributions that sum to 1 - NORM_TOL, which lifts an index up to
    2/(d+1) * NORM_TOL above the cap.
    """

    def __init__(self, dim: int, g_x: float, g_p: float):
        cap = gini_cap(dim) + NORM_TOL
        for name, g in (("g_x", g_x), ("g_p", g_p)):
            if not 0.0 <= g <= cap:
                raise ValidationError(f"{name} = {g!r} outside [0, (d-1)/(d+1)]")
        g_xp = g_x + g_p
        if not g_xp < 2.0 * gini_cap(dim):
            raise ValidationError(f"g_xp = {g_xp!r} reaches the strict bound 2(d-1)/(d+1)")
        self.dim = int(dim)
        self.g_x = float(g_x)
        self.g_p = float(g_p)
        self.g_xp = float(g_xp)

    def __repr__(self):
        return f"GiniReport(dim={self.dim}, g_x={self.g_x:.6f}, g_p={self.g_p:.6f})"


def gini_report(system: QuantumSystem, rho: DensityMatrix) -> GiniReport:
    """Evaluate both measurement Gini indices of a density matrix."""
    g_x = gini_index(system.position_probs(rho))
    g_p = gini_index(system.momentum_probs(rho))
    return GiniReport(system.d, g_x, g_p)

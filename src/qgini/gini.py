"""Gini indices of measurement distributions.

The index is the normalized area between a distribution's Lorenz values and
the uniform ones: 0 for the flat distribution, and at most (d-1)/(d+1),
attained exactly when all probability sits on one outcome. The position and
momentum indices of a state are reported together because their sum
is the quantity whose supremum defines the uncertainty coefficient.
"""

import numpy as np

from qgini.errors import ValidationError
from qgini.qsystem import NORM_TOL, ProbabilityDistribution, QuantumSystem, _distribution_rows, check_dimension


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
    return float(_gini_rows(p.probs))


def _gini_rows(p: np.ndarray) -> np.ndarray:
    """Gini index of each distribution along the last axis of p, clamped at 0."""
    weights, scale = gini_weights(p.shape[-1])
    return np.maximum(1.0 - scale * _weighted_sums(np.sort(p, axis=-1), weights), 0.0)


def _ginis(x: np.ndarray, pure: bool = False) -> np.ndarray:
    """Position and momentum Gini indices of density matrices (or amplitude rows), as one (..., 2) array."""
    return _gini_rows(_distribution_rows(x, pure))


def _weighted_sums(ascending: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """weights @ each distribution along the last axis, already sorted ascending.

    One dot product per distribution (np.matmul over the leading axes),
    which rounds each exactly as a lone distribution's dot product, so a
    stacked distribution scores the same bits as it does alone.
    """
    return np.matmul(ascending[..., None, :], weights)[..., 0]


class GiniReport:
    """Position and momentum Gini indices of one state, and their sum.

    dim must be a valid dimension. g_xp is derived in the constructor, so a
    report cannot carry an inconsistent sum. Both indices must lie in
    [0, (d-1)/(d+1)] up to NORM_TOL and g_xp strictly below twice the cap:
    the boundary accepts distributions that sum to 1 - NORM_TOL, which lifts
    an index up to 2/(d+1) * NORM_TOL above the cap.
    """

    def __init__(self, dim: int, g_x: float, g_p: float):
        check_dimension(dim)
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


def gini_report(system: QuantumSystem, state) -> GiniReport:
    """Evaluate both measurement Gini indices of a StateVector or DensityMatrix."""
    g_x, g_p = _ginis(*system._state_array(state))
    return GiniReport(system.d, float(g_x), float(g_p))

"""Lorenz values, their ordering and comonotonicity of distributions.

The Lorenz values of a distribution are the partial sums of its entries in
ascending order: L(0) is the smallest probability and L(d-1) = 1. A peaked
distribution hugs zero until the last step, the uniform one climbs along
(l+1)/d, and no distribution can climb faster than that line.

`_lorenz_rows` is the one implementation of the values, for a lone
distribution or a stack of them. LorenzCurve is derived from a validated
ProbabilityDistribution and from nothing else, so it holds its invariants
by construction and runs no checks of its own.
"""

import numpy as np

from qgini.errors import DimensionMismatch
from qgini.qsystem import ProbabilityDistribution


class LorenzCurve:
    """Ascending partial sums of a distribution, and the order that sorts it.

    `order` lists the outcome indices in ascending order of probability;
    ties keep index order. Both arrays are read-only.
    """

    def __init__(self, p: ProbabilityDistribution):
        order = np.argsort(p.probs, kind="stable")
        values = _lorenz_rows(p.probs)
        order.setflags(write=False)
        values.setflags(write=False)
        self.dim = p.dim
        self.order = order
        self.values = values

    def __repr__(self):
        return f"LorenzCurve(dim={self.dim})"


def lorenz_curve(p: ProbabilityDistribution) -> LorenzCurve:
    """Partial sums of the probabilities in ascending order."""
    return LorenzCurve(p)


def _lorenz_rows(p: np.ndarray) -> np.ndarray:
    """Lorenz values of each distribution along the last axis of p.

    The sequential partial sums of a row round as those of a lone
    distribution, so a stack gives the values of each row alone.
    """
    return np.cumsum(np.sort(p, axis=-1), axis=-1)


def comonotonic(pa: ProbabilityDistribution, pb: ProbabilityDistribution) -> bool:
    """Whether two distributions admit a common ascending ordering.

    Equivalent to (pa[r] - pa[s]) * (pb[r] - pb[s]) >= 0 for all r, s, but
    tested by comparison, not by products that can underflow to -0.0: sort
    by pa, break ties by pb, and require pb to be nondecreasing in that
    order. Comonotonic pairs are exactly the ones whose Lorenz values add up
    under mixing.
    """
    if pa.dim != pb.dim:
        raise DimensionMismatch(f"dimension mismatch: {pa.dim} vs {pb.dim}")
    return bool(_comonotonic_rows(pa.probs, pb.probs))


def _comonotonic_rows(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Whether each pair of rows along the last axis is comonotonic, as in `comonotonic`."""
    order = np.lexsort((pb, pa))
    return np.all(np.diff(np.take_along_axis(pb, order, axis=-1), axis=-1) >= 0.0, axis=-1)

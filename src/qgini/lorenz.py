"""Ordering permutations, Lorenz values and comonotonicity of distributions.

The Lorenz values of a distribution are the partial sums of its entries in
ascending order: L(0) is the smallest probability and L(d-1) = 1. A peaked
distribution hugs zero until the last step, the uniform one climbs along
(l+1)/d, and no distribution can climb faster than that line.
"""

import numpy as np

from qgini.errors import DimensionMismatch, NotNormalized, ValidationError
from qgini.qsystem import ProbabilityDistribution, _trusted

BOUND_SLACK = 1e-12   # admissible excess over the (l+1)/d ceiling
TOTAL_TOL = 1e-10     # |last Lorenz value - 1|


class OrderingPermutation:
    """Outcome indices in ascending order of probability; ties keep index order."""

    def __init__(self, dim: int, order):
        idx = np.array(order, dtype=np.intp).ravel()
        if idx.size != dim or not np.array_equal(np.sort(idx), np.arange(dim)):
            raise ValidationError(f"order is not a permutation of 0..{dim - 1}")
        idx.setflags(write=False)
        self.dim = int(dim)
        self.order = idx

    def __repr__(self):
        return f"OrderingPermutation({list(self.order)})"


class LorenzCurve:
    """Ascending partial sums of a distribution, with the permutation that sorts it.

    values[l] must be nondecreasing, start at or above 0, end within TOTAL_TOL
    of 1, and never exceed (l+1)/d by more than BOUND_SLACK.
    """

    def __init__(self, permutation: OrderingPermutation, values):
        v = np.array(values, dtype=np.float64).ravel()
        if v.size != permutation.dim:
            raise DimensionMismatch(f"curve has {v.size} values for dimension {permutation.dim}")
        if v.size and not v[0] >= 0.0:
            raise ValidationError(f"Lorenz values must be nonnegative, got {v[0]:.3e}")
        if np.any(np.diff(v) < 0.0):
            raise ValidationError("Lorenz values must be nondecreasing")
        excess = float(np.max(v - np.arange(1, v.size + 1) / v.size))
        if not excess <= BOUND_SLACK:
            raise ValidationError(f"Lorenz value exceeds the uniform line by {excess:.3e}")
        dev = abs(float(v[-1]) - 1.0)
        if not dev <= TOTAL_TOL:
            raise NotNormalized(f"final Lorenz value deviates from 1 by {dev:.3e}")
        v.setflags(write=False)
        self.dim = int(v.size)
        self.permutation = permutation
        self.values = v

    def __repr__(self):
        return f"LorenzCurve(dim={self.dim})"


def ordering_permutation(p: ProbabilityDistribution) -> OrderingPermutation:
    """Stable ascending argsort of the outcome probabilities."""
    return _trusted(OrderingPermutation, dim=p.dim, order=np.argsort(p.probs, kind="stable"))


def lorenz_curve(p: ProbabilityDistribution) -> LorenzCurve:
    """Partial sums of the probabilities in ascending order."""
    perm = ordering_permutation(p)
    return _trusted(LorenzCurve, dim=p.dim, permutation=perm, values=np.cumsum(p.probs[perm.order]))


def comonotonic(pa: ProbabilityDistribution, pb: ProbabilityDistribution) -> bool:
    """Whether two distributions admit a common ascending ordering.

    Tested through the pairwise condition
    (pa[r] - pa[s]) * (pb[r] - pb[s]) >= 0 for all r, s, which is insensitive
    to how ties are broken. Comonotonic pairs are exactly the ones whose
    Lorenz values add up under mixing.
    """
    if pa.dim != pb.dim:
        raise DimensionMismatch(f"dimension mismatch: {pa.dim} vs {pb.dim}")
    da = pa.probs[:, None] - pa.probs[None, :]
    db = pb.probs[:, None] - pb.probs[None, :]
    return bool(np.all(da * db >= 0.0))

"""Bounds and numerical estimation of the supremum of the combined Gini index.

No state can have both measurement distributions fully concentrated, so the
combined index g_x + g_p stays strictly below twice the single-basis cap
(d-1)/(d+1). The gap between that strict ceiling and the actual supremum over
all states is the uncertainty coefficient of the dimension. The supremum has
no known closed form; this module brackets it from below by the value of an
explicit superposition state and sharpens the bracket with derivative-free
search over pure states.
"""

import numpy as np

from qgini.errors import BudgetTooSmall, ValidationError
from qgini.gini import gini_cap, gini_weights
from qgini.qsystem import QuantumSystem, StateVector, check_dimension
from qgini.sampling import split_seed

INITIAL_STEP = 0.3
MIN_STEP = 1e-7
BRACKET_SLACK = 1e-9


def example_state(system: QuantumSystem) -> StateVector:
    """Equal superposition of the first position and first momentum state.

    Amplitudes are d**(1/4) / sqrt(2*sqrt(d) + 2) * (|X;0> + |P;0>), already
    normalized. Position and momentum distributions coincide (one enhanced
    outcome, d-1 equal small ones), and the combined Gini index takes the
    closed form returned by :func:`example_gini_closed_form`, the reference
    lower bound on the supremum.
    """
    d = system.d
    c = d**0.25 / np.sqrt(2.0 * np.sqrt(d) + 2.0)
    amp = np.full(d, c / np.sqrt(d), dtype=np.complex128)
    amp[0] += c
    return StateVector(amp)


def example_gini_closed_form(d: int) -> float:
    """Combined Gini index of the example state: (d-1)/(d+1) * (1 + 1/(1+sqrt(d)))."""
    check_dimension(d)
    return gini_cap(d) * (1.0 + 1.0 / (1.0 + np.sqrt(d)))


class BoundSet:
    """The analytic bracket at one dimension.

    gini_cap        largest single-basis index, (d-1)/(d+1)
    g_lower         combined index of the example state (achieved, so a
                    lower bound for the supremum)
    g_strict_upper  2 * gini_cap, approached by no state
    eta_upper       g_strict_upper - g_lower, the most the uncertainty
                    coefficient can be; equals gini_cap * sqrt(d)/(1+sqrt(d))
    """

    def __init__(self, d: int):
        check_dimension(d)
        self.dim = int(d)
        self.gini_cap = gini_cap(d)
        self.g_lower = example_gini_closed_form(d)
        self.g_strict_upper = 2.0 * self.gini_cap
        self.eta_upper = self.gini_cap * np.sqrt(d) / (1.0 + np.sqrt(d))
        if abs(self.g_lower + self.eta_upper - self.g_strict_upper) > 1e-12:
            raise ValidationError("bound identity g_lower + eta_upper = g_strict_upper failed")

    def __repr__(self):
        return f"BoundSet(dim={self.dim})"


def bounds(d: int) -> BoundSet:
    """Analytic bracket for the combined index and the coefficient at dimension d."""
    return BoundSet(d)


class EtaEstimate:
    """Result of one supremum search.

    g_sup_estimate is the best combined index found, hence a lower bound on
    the true supremum; eta_estimate = g_strict_upper - g_sup_estimate is the
    matching upper bound on the coefficient. best_state reproduces
    g_sup_estimate through the ordinary reporting pipeline. converged records
    whether the winning restart's step size shrank below MIN_STEP before the
    sweep budget ran out.
    """

    def __init__(self, dim, g_sup_estimate, bound_set, best_state, restarts, iterations, seed, converged):
        g = float(g_sup_estimate)
        if g < bound_set.g_lower - BRACKET_SLACK:
            raise ValidationError(
                f"estimate {g!r} fell below the achievable lower bound {bound_set.g_lower!r}"
            )
        if not g < bound_set.g_strict_upper:
            raise ValidationError(f"estimate {g!r} reaches the strict upper bound")
        eta = bound_set.g_strict_upper - g
        if not 0.0 < eta <= bound_set.eta_upper + BRACKET_SLACK:
            raise ValidationError(f"eta estimate {eta!r} outside (0, eta_upper]")
        self.dim = int(dim)
        self.g_sup_estimate = g
        self.eta_estimate = eta
        self.bounds = bound_set
        self.best_state = best_state
        self.restarts = int(restarts)
        self.iterations = int(iterations)
        self.seed = int(seed)
        self.converged = bool(converged)

    def __repr__(self):
        return (
            f"EtaEstimate(dim={self.dim}, g_sup={self.g_sup_estimate:.9f}, "
            f"eta={self.eta_estimate:.9f}, converged={self.converged})"
        )


# ---- search internals -------------------------------------------------------


def _combined_gini_objective(system: QuantumSystem):
    """Fast combined-index evaluator over blocks of interleaved real vectors.

    Each row of the (m, 2d) C-contiguous float64 block holds the 2d reals
    (Re a_0, Im a_0, Re a_1, ...) of a unit-norm amplitude vector; callers
    keep candidates on the unit sphere. Returns the m sums of both indices in
    the weighted-sort form of :func:`qgini.gini.gini_weights`, with the
    weights built once and no object construction, so one call scores a
    whole block of candidates.

    Every row-wise product is a stack of per-row matrix-vector or dot
    products (np.matmul over a leading axis), never one matrix-matrix
    product: BLAS rounds a row of a matrix product differently depending on
    the block's shape, while a stacked product rounds each row exactly as a
    lone vector. A candidate therefore scores the same bits whichever block
    it sits in, and the batched search accepts exactly the moves of a
    one-candidate-at-a-time search.
    """
    fdag = system.fourier_dag
    w, scale = gini_weights(system.d)

    def objective(block: np.ndarray) -> np.ndarray:
        psi = block.view(np.complex128)
        px = psi.real**2 + psi.imag**2
        phi = np.matmul(fdag, psi[:, :, None])[:, :, 0]
        pp = phi.real**2 + phi.imag**2
        px.sort(axis=1)
        pp.sort(axis=1)
        weighted = np.matmul(px[:, None, :], w) + np.matmul(pp[:, None, :], w)
        return 2.0 - scale * weighted[:, 0]

    return objective


def _pattern_search(objective, x0, max_sweeps, step=INITIAL_STEP, min_step=MIN_STEP, record=False):
    """Greedy coordinate pattern search on the unit sphere.

    One sweep probes the candidates (coordinate 0, +step), (0, -step),
    (1, +step), ... in that order, renormalizing each back to the sphere,
    and accepts the first that improves on the best value; the sweep then
    resumes at the next coordinate. All candidates still ahead in the sweep
    are built from the current point as one block and scored by one
    objective call, so each accepted move costs one block evaluation. A
    sweep without any accepted move halves the step. Stops when the step
    drops below min_step (converged) or the sweep budget is spent. The best
    value is nondecreasing across sweeps by construction.
    """
    x = np.array(x0, dtype=np.float64)
    x /= np.linalg.norm(x)
    best = objective(x[None, :])[0]
    history = [best] if record else None
    converged = False
    n = x.size
    rows = np.arange(2 * n)
    coords = rows // 2
    signs = np.tile([1.0, -1.0], n)
    for _ in range(max_sweeps):
        improved = False
        start = 0
        while start < 2 * n:
            m = 2 * n - start
            block = np.repeat(x[None, :], m, axis=0)
            block[rows[:m], coords[start:]] += signs[start:] * step
            # per-row dot products, rounded as np.linalg.norm rounds one vector
            block /= np.sqrt(np.matmul(block[:, None, :], block[:, :, None]))[:, 0]
            vals = objective(block)
            better = vals > best
            j = int(better.argmax())
            if not better[j]:
                break
            x, best = block[j].copy(), vals[j]
            improved = True
            # start is even, so row j probes coordinate start // 2 + j // 2
            start += 2 * (j // 2 + 1)
        if record:
            history.append(best)
        if not improved:
            step *= 0.5
            if step < min_step:
                converged = True
                break
    return x, best, converged, history


def _gauge_fixed(x: np.ndarray) -> StateVector:
    """Amplitudes from interleaved reals, first nonzero entry made real positive."""
    psi = x.view(np.complex128).copy()
    psi /= np.linalg.norm(psi)
    k = int(np.flatnonzero(np.abs(psi) > 1e-12)[0])
    psi *= np.conj(psi[k]) / abs(psi[k])
    return StateVector.normalized(psi)


def estimate_sup_gini(
    system: QuantumSystem,
    restarts: int = 32,
    iterations: int = 2000,
    seed: int = 42,
) -> EtaEstimate:
    """Estimate the supremum of g_x + g_p over all states of the system.

    The combined index is convex over mixing, so the supremum is approached
    on pure states and the search runs over unit amplitude vectors only,
    parameterized by 2d reals. Each restart performs a coordinate pattern
    search (one iteration = one full sweep of the 2d coordinates, probing
    +step and -step, halving the step after sweeps without improvement,
    stopping below MIN_STEP).

    Restart 0 starts from the example superposition state, which pins the
    estimate at or above the closed-form lower bound. Restart r >= 1 starts
    from a standard-normal vector drawn from numpy's default generator seeded
    with split_seed(seed, r), so a fixed (dimension, restarts, iterations,
    seed) tuple reproduces the result bit for bit, regardless of how restarts
    would be scheduled. The reported value is the maximum over restarts, ties
    resolved toward the lowest restart index.
    """
    if restarts < 1:
        raise BudgetTooSmall(f"restarts must be at least 1, got {restarts}")
    if iterations < 1:
        raise BudgetTooSmall(f"iterations must be at least 1, got {iterations}")
    d = system.d
    objective = _combined_gini_objective(system)
    bound_set = BoundSet(d)
    best_val = -np.inf
    best_x = None
    best_converged = False
    for r in range(restarts):
        if r == 0:
            x0 = np.ascontiguousarray(example_state(system).amplitudes).view(np.float64)
        else:
            rng = np.random.default_rng(split_seed(seed, r))
            x0 = rng.standard_normal(2 * d)
        x, val, converged, _ = _pattern_search(objective, x0, iterations)
        if val > best_val:
            best_val, best_x, best_converged = val, x, converged
    return EtaEstimate(
        dim=d,
        g_sup_estimate=float(best_val),
        bound_set=bound_set,
        best_state=_gauge_fixed(best_x),
        restarts=restarts,
        iterations=iterations,
        seed=seed,
        converged=best_converged,
    )

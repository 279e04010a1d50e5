"""Seeded property checks behind the `check` CLI command.

Each check draws reproducible samples from its own child stream (split off
the master seed), verifies one structural property of the Lorenz/Gini
pipeline, and reports a verdict with the worst observed margin. Identical
(dimension, samples, seed) triples give identical verdicts.

Suites draw their states in the order of a state-by-state loop (density
states through sampling's draw kernels, Dirichlet rows through
sampling._flat_dirichlet, with the consecutive rows of a chunk or a sample
in one generator call) and build and score them in stacks, chunk by chunk,
so memory stays bounded whatever the sample count by qsystem._STACK_BYTES,
the 256 KiB ceiling that the density momentum kernel also streams its
blocks under. Both measurement profiles of a stack come as
one (..., 2, d) array, and the states a suite compares within a chunk (a
mixture and its two parts, a Fourier-swapped state and its original) share
one stack, so each kernel runs once per chunk for both bases and every
compared state.
The suites that read only distributions (the Lorenz bound, the range and
the two mixture suites) score each density draw from its ensemble, with no
d x d matrix: a draw's distributions are the weighted sum of its Haar
rows' pure distributions, and a mixture's are the same mixture of its
parts' distributions. The displacement and Fourier-swap suites, whose
properties are about the matrix, build it.
Reference states (the maximally mixed state, a displaced state's original,
the coherent fiducial) are scored by the same kernels, which round each
state exactly as a lone one, so the margins are bit-identical to a
state-by-state loop. Displaced density states are gathered from strided
windows of the state and multiplied by Toeplitz views of the phases.
A Fourier-swapped state F^dag rho F is two FFTs of the whole matrix, a route
to the momenta independent of the momentum kernel's wrapped-diagonal sums.
"""

from dataclasses import dataclass

import numpy as np

from qgini.gini import _gini_rows, _ginis, gini_cap
from qgini.lorenz import _comonotonic_rows, _lorenz_rows
from qgini.qsystem import _STACK_BYTES, QuantumSystem, _distribution_rows, _fourier_conjugated, check_budget
from qgini.sampling import (
    _density_distributions,
    _density_draw,
    _density_entries,
    _flat_dirichlet,
    random_state_vector,
    split_seed,
)

EQ_TOL = 1e-12        # algebraic identities evaluated in floats
INEQ_SLACK = 1e-12    # slack granted to inequalities
CONJ_TOL = 1e-10      # identities that pass through basis rotations

# Largest sample count per suite, far above the default of 200; a larger
# request is refused before any work.
MAX_SAMPLES = 100_000


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _chunks(items, size):
    """Lists of consecutive items, each stacking to at most _STACK_BYTES.

    An item stacks to `size` complex entries, or to size(item) when size is
    a function, counting every state the caller stacks for it: 2 per
    Fourier-swap state, 2 d x d blocks per resolution alpha (the coherent
    rows and their product), and for a density draw scored from its
    ensemble, its Haar rows and their distribution rows (see _rows_size).
    At d = 41 a stack holds 9 displaced density states. A chunk holds at
    least one item, even one larger than the ceiling. A generator of draws
    is consumed in draw order, one item ahead of the chunk it closes.
    """
    weigh = size if callable(size) else lambda item: size
    chunk, total = [], 0
    for item in items:
        nbytes = 16 * weigh(item)
        if chunk and total + nbytes > _STACK_BYTES:
            yield chunk
            chunk, total = [], 0
        chunk.append(item)
        total += nbytes
    if chunk:
        yield chunk


def _rows_size(draw) -> int:
    """A density draw's k Haar rows (k d complex entries) and their (k, 2, d) distribution rows, in complex entries."""
    return draw[1].size


def _density_stacks(d: int, samples: int, rng):
    """Stacks of `samples` random density matrices, drawn one by one and built a chunk at a time.

    The Fourier-swap suite stacks each with its swapped state, and the chunks count both.
    """
    for chunk in _chunks((_density_draw(d, rng) for _ in range(samples)), 2 * d * d):
        yield _density_entries(chunk)


def _distribution_stacks(d: int, samples: int, rng):
    """(n, 2, d) distributions of `samples` random density states, drawn one by one and scored a chunk at a time."""
    for chunk in _chunks((_density_draw(d, rng) for _ in range(samples)), _rows_size):
        yield _density_distributions(chunk)


def _mixture_stacks(d: int, samples: int, rng):
    """Pairs of the (3, n, 2, d) distributions of tau, rho, sigma and the n weights lam, drawn rho, sigma, lam per sample.

    tau = lam * rho + (1 - lam) * sigma, and Born's rule is linear, so
    p(tau) = lam * p(rho) + (1 - lam) * p(sigma).
    """
    draws = ((_density_draw(d, rng), _density_draw(d, rng), rng.uniform()) for _ in range(samples))
    for chunk in _chunks(draws, lambda sample: _rows_size(sample[0]) + _rows_size(sample[1])):
        rho, sigma, lam = zip(*chunk)
        # the rho and sigma draws of a chunk are scored in one call
        a, b = np.split(_density_distributions(rho + sigma), 2)
        lam = np.array(lam)
        w = lam[:, None, None]
        yield np.stack((w * a + (1.0 - w) * b, a, b)), lam


def _check_lorenz_bound(system, samples, rng):
    """L(l) never exceeds (l+1)/d, the uniform distribution's line."""
    d = system.d
    line = np.arange(1, d + 1) / d
    worst = -np.inf
    for p in _distribution_stacks(d, samples, rng):
        worst = max(worst, float(np.max(_lorenz_rows(p) - line)))
    return worst <= INEQ_SLACK, f"max excess over the uniform line {worst:.2e}"


def _check_superadditive(system, samples, rng):
    """Lorenz values of a mixture dominate the mixture of Lorenz values."""
    worst = np.inf
    for p, lam in _mixture_stacks(system.d, samples, rng):
        w = lam[:, None, None]
        mixed, a, b = _lorenz_rows(p)
        worst = min(worst, float(np.min(mixed - (w * a + (1 - w) * b))))
    return worst >= -INEQ_SLACK, f"min mixture margin {worst:.2e}"


def _check_comonotonic_additive(system, samples, rng):
    """Superadditivity tightens to equality on comonotonic diagonal pairs."""
    d = system.d
    worst = 0.0
    for chunk in _chunks(range(samples), d):
        # each sample's draws (permutation, its two Dirichlet rows in one
        # call, weight, in that order) fill one row of the chunk's arrays; a
        # list of arrays per draw would take several times the bytes of the rows
        n = len(chunk)
        perm, ab, lam = np.empty((n, d), dtype=np.intp), np.empty((2, n, d)), np.empty(n)
        for i in range(n):
            perm[i] = rng.permutation(d)
            ab[:, i] = _flat_dirichlet(rng, (2, d))
            lam[i] = rng.uniform()
        # Dirichlet draws are distributions by construction; one permutation
        # of the ascending entries orders both rows alike; b's entries in
        # descending order, taken through the same permutation, give b's
        # anti-monotonic twin, which the predicate must reject
        a, b = np.sort(ab, axis=-1)
        pa, pb, twin = np.take_along_axis(np.stack((a, b, b[:, ::-1])), perm[None], axis=-1)
        if not np.all(_comonotonic_rows(pa, pb)):
            return False, "constructed pair not recognized as comonotonic"
        if np.any(_comonotonic_rows(pa, twin)):
            return False, "anti-monotonic twin recognized as comonotonic"
        w = lam[:, None]
        gap = _lorenz_rows(w * pa + (1 - w) * pb) - w * _lorenz_rows(pa) - (1 - w) * _lorenz_rows(pb)
        worst = max(worst, float(np.max(np.abs(gap))))
    return worst <= EQ_TOL, f"max additivity gap {worst:.2e}"


def _check_basis_extremes(system, samples, rng):
    """Basis states sit at the extremes: flat-zero Lorenz tail, index at cap."""
    d = system.d
    cap = gini_cap(d)
    ks = np.arange(d)
    worst = 0.0
    for chunk in _chunks(range(d), 2 * d):
        r = np.array(chunk)
        # position states r, then momentum states r: rows r of the symmetric F
        amps = np.stack(((ks == r[:, None]).astype(np.complex128), system._fourier_rows(r)))
        worst = max(worst, float(np.max(np.abs(_ginis(amps, pure=True).sum(axis=-1) - cap))))
    worst = max(worst, float(np.max(_ginis(system.maximally_mixed().entries))))
    return worst <= CONJ_TOL, f"max deviation from the extreme values {worst:.2e}"


def _check_gini_range(system, samples, rng):
    """Both indices stay inside [0, (d-1)/(d+1)]."""
    cap = gini_cap(system.d)
    worst = -np.inf
    for p in _distribution_stacks(system.d, samples, rng):
        g = _gini_rows(p)
        worst = max(worst, float(np.max(np.maximum(-g, g - cap))))
    return worst <= INEQ_SLACK, f"max range violation {worst:.2e}"


def _check_dual_form(system, samples, rng):
    """The weighted-sort index matches its definition, 1 - 2/(d+1) * sum of the Lorenz values."""
    d = system.d
    worst = 0.0
    # consecutive Dirichlet draws: one generator call per chunk
    for chunk in _chunks(range(samples), d):
        p = _flat_dirichlet(rng, (len(chunk), d))
        definition = 1.0 - (2.0 / (d + 1.0)) * _lorenz_rows(p).sum(axis=-1)
        worst = max(worst, float(np.max(np.abs(_gini_rows(p) - np.maximum(definition, 0.0)))))
    return worst <= EQ_TOL, f"max disagreement between the two forms {worst:.2e}"


def _check_subadditive(system, samples, rng):
    """Each index, and their sum, is convex under mixing."""
    worst = -np.inf
    for p, lam in _mixture_stacks(system.d, samples, rng):
        w = lam[:, None]
        g = _gini_rows(p)
        # columns g_x, g_p and g_xp of tau, rho and sigma
        m, a, b = np.concatenate((g, g.sum(axis=-1, keepdims=True)), axis=-1)
        worst = max(worst, float(np.max(m - (w * a + (1 - w) * b))))
    return worst <= INEQ_SLACK, f"max convexity excess {worst:.2e}"


def _check_position_mixture_cap(system, samples, rng):
    """Mixtures of position projectors never push g_xp past the single cap."""
    d = system.d
    cap = gini_cap(d)
    ks = np.arange(d)
    worst = -np.inf
    # a Dirichlet diagonal is a density matrix by construction; the draws
    # are consecutive, so a chunk's diagonals take one generator call
    for chunk in _chunks(range(samples), d * d):
        rho = np.zeros((len(chunk), d, d), dtype=np.complex128)
        rho[:, ks, ks] = _flat_dirichlet(rng, (len(chunk), d))
        worst = max(worst, float(np.max(_ginis(rho).sum(axis=-1) - cap)))
    return worst <= INEQ_SLACK, f"max excess of g_xp over the single-basis cap {worst:.2e}"


def _invariance_pairs(system, rng) -> np.ndarray:
    """Displacement pairs (alpha, beta) as rows: all d^2 up to d = 11, else 100 drawn."""
    d = system.d
    if d <= 11:
        return np.indices((d, d)).reshape(2, -1).T
    return rng.integers(0, d, size=(100, 2))


def _check_displacement_invariance(system, samples, rng):
    """Displacements permute outcomes, so Lorenz values and indices are unchanged."""
    d = system.d
    states = min(max(samples // 50, 1), 5)
    worst = 0.0
    for _ in range(states):
        rho = _density_entries([_density_draw(d, rng)])[0]
        ref = _distribution_rows(rho)
        ref_g_xp, ref_lorenz = _gini_rows(ref).sum(axis=-1), _lorenz_rows(ref)
        for chunk in _chunks(_invariance_pairs(system, rng), d * d):
            p = _distribution_rows(system._displaced_densities(rho, *np.array(chunk).T))
            worst = max(
                worst,
                float(np.max(np.abs(_gini_rows(p).sum(axis=-1) - ref_g_xp))),
                float(np.max(np.abs(_lorenz_rows(p) - ref_lorenz))),
            )
    return worst <= CONJ_TOL, f"max drift under displacements {worst:.2e}"


def _check_fourier_swap(system, samples, rng):
    """Conjugating by F trades the two distributions and preserves g_xp."""
    worst = 0.0
    for rho in _density_stacks(system.d, max(samples // 10, 1), rng):
        p = _distribution_rows(np.stack((_fourier_conjugated(rho), rho)))
        g_swapped, g_xp = _gini_rows(p).sum(axis=-1)
        # the swapped states' positions are the states' momenta
        worst = max(
            worst,
            float(np.max(np.abs(p[0, :, 0] - p[1, :, 1]))),
            float(np.max(np.abs(g_swapped - g_xp))),
        )
    return worst <= CONJ_TOL, f"max swap mismatch {worst:.2e}"


def _check_coherent_equality(system, samples, rng):
    """Every coherent state of one fiducial shares the same g_x, g_p and g_xp."""
    d = system.d
    # coherent_state checks the fiducial once; a Haar draw is far from both bases
    fid = system.coherent_state(random_state_vector(d, rng), 0, 0).amplitudes
    ref = _ginis(fid, pure=True)
    worst = 0.0
    for chunk in _chunks(_invariance_pairs(system, rng), d):
        g = _ginis(system._displaced(fid, *np.array(chunk).T), pure=True)
        worst = max(
            worst,
            float(np.max(np.abs(g - ref))),
            float(np.max(np.abs(g.sum(axis=-1) - ref.sum()))),
        )
    return worst <= CONJ_TOL, f"max spread across the coherent family {worst:.2e}"


def _projector_sums(system, fid, alphas) -> np.ndarray:
    """Per alpha, the sum over beta of the coherent projectors |D(alpha, beta) f><D(alpha, beta) f|.

    One displacement call builds every alpha's block of d coherent rows;
    one stacked matmul takes one gemm per block, as a lone block's product.
    """
    amps = system._displaced(fid, np.asarray(alphas)[:, None], np.arange(system.d))
    return amps.swapaxes(-1, -2) @ amps.conj()


def _check_resolution_of_identity(system, samples, rng):
    """Coherent projectors of any admissible fiducial average to the identity."""
    d = system.d
    fid = system.coherent_state(system.default_fiducial(), 0, 0).amplitudes
    total = np.zeros((d, d), dtype=np.complex128)
    # an alpha holds its block of d coherent rows and the block's product
    for chunk in _chunks(range(d), 2 * d * d):
        for block in _projector_sums(system, fid, chunk):
            total += block
        # frees the chunk's products before the next chunk's blocks are built
        del block
    residual = float(np.max(np.abs(total / d - np.eye(d))))
    return residual <= CONJ_TOL, f"max residual of the averaged projectors {residual:.2e}"


_CHECKS = (
    ("lorenz_bound", _check_lorenz_bound),
    ("lorenz_superadditive", _check_superadditive),
    ("comonotonic_additive", _check_comonotonic_additive),
    ("basis_extremes", _check_basis_extremes),
    ("gini_range", _check_gini_range),
    ("gini_dual_form", _check_dual_form),
    ("gini_subadditive", _check_subadditive),
    ("position_mixture_cap", _check_position_mixture_cap),
    ("displacement_invariance", _check_displacement_invariance),
    ("fourier_swap", _check_fourier_swap),
    ("coherent_equality", _check_coherent_equality),
    ("resolution_of_identity", _check_resolution_of_identity),
)


def run_property_checks(d: int, samples: int = 200, seed: int = 42) -> list[CheckResult]:
    """Run every property check on seeded samples at dimension d."""
    system = QuantumSystem(d)
    check_budget("samples", samples, MAX_SAMPLES)
    results = []
    for index, (name, func) in enumerate(_CHECKS):
        rng = np.random.default_rng(split_seed(seed, index))
        passed, detail = func(system, samples, rng)
        results.append(CheckResult(name=name, passed=bool(passed), detail=detail))
    return results

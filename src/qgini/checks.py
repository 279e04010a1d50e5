"""Seeded property checks behind the `check` CLI command.

Each check draws reproducible samples from its own child stream (split off
the master seed), verifies one structural property of the Lorenz/Gini
pipeline, and reports a verdict with the worst observed margin. Identical
(dimension, samples, seed) triples give identical verdicts.
"""

from dataclasses import dataclass

import numpy as np

from qgini.gini import gini_cap, gini_index, gini_report
from qgini.lorenz import comonotonic, lorenz_curve
from qgini.qsystem import (
    DensityMatrix,
    ProbabilityDistribution,
    QuantumSystem,
    StateVector,
    _trusted,
    check_budget,
    conjugate,
    mix,
)
from qgini.sampling import random_density_matrix, random_state_vector, split_seed

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


def _check_lorenz_bound(system, samples, rng):
    """L(l) never exceeds (l+1)/d, the uniform distribution's line."""
    d = system.d
    line = np.arange(1, d + 1) / d
    worst = -np.inf
    for _ in range(samples):
        rho = random_density_matrix(d, rng)
        for p in (system.position_probs(rho), system.momentum_probs(rho)):
            worst = max(worst, float(np.max(lorenz_curve(p).values - line)))
    return worst <= INEQ_SLACK, f"max excess over the uniform line {worst:.2e}"


def _check_superadditive(system, samples, rng):
    """Lorenz values of a mixture dominate the mixture of Lorenz values."""
    d = system.d
    worst = np.inf
    for _ in range(samples):
        rho, sigma = random_density_matrix(d, rng), random_density_matrix(d, rng)
        lam = float(rng.uniform())
        tau = mix(rho, sigma, lam)
        for picker in (system.position_probs, system.momentum_probs):
            combined = lorenz_curve(picker(tau)).values
            split = lam * lorenz_curve(picker(rho)).values + (1 - lam) * lorenz_curve(picker(sigma)).values
            worst = min(worst, float(np.min(combined - split)))
    return worst >= -INEQ_SLACK, f"min mixture margin {worst:.2e}"


def _check_comonotonic_additive(system, samples, rng):
    """Superadditivity tightens to equality on comonotonic diagonal pairs."""
    d = system.d
    worst = 0.0
    for _ in range(samples):
        perm = rng.permutation(d)
        pa = np.sort(rng.dirichlet(np.ones(d)))[perm]
        pb = np.sort(rng.dirichlet(np.ones(d)))[perm]
        da, db = ProbabilityDistribution(pa), ProbabilityDistribution(pb)
        if not comonotonic(da, db):
            return False, "constructed pair not recognized as comonotonic"
        lam = float(rng.uniform())
        mixed = ProbabilityDistribution(lam * pa + (1 - lam) * pb)
        gap = float(
            np.max(
                np.abs(
                    lorenz_curve(mixed).values
                    - lam * lorenz_curve(da).values
                    - (1 - lam) * lorenz_curve(db).values
                )
            )
        )
        worst = max(worst, gap)
    return worst <= EQ_TOL, f"max additivity gap {worst:.2e}"


def _check_basis_extremes(system, samples, rng):
    """Basis states sit at the extremes: flat-zero Lorenz tail, index at cap."""
    d = system.d
    cap = gini_cap(d)
    worst = 0.0
    for r in range(d):
        for state in (system.position_state(r), system.momentum_state(r)):
            rep = gini_report(system, state)
            worst = max(worst, abs(rep.g_x + rep.g_p - cap))
    flat = gini_report(system, system.maximally_mixed())
    worst = max(worst, flat.g_x, flat.g_p)
    return worst <= CONJ_TOL, f"max deviation from the extreme values {worst:.2e}"


def _check_gini_range(system, samples, rng):
    """Both indices stay inside [0, (d-1)/(d+1)]."""
    d = system.d
    cap = gini_cap(d)
    worst = -np.inf
    for _ in range(samples):
        rep = gini_report(system, random_density_matrix(d, rng))
        for g in (rep.g_x, rep.g_p):
            worst = max(worst, -g, g - cap)
    return worst <= INEQ_SLACK, f"max range violation {worst:.2e}"


def _check_dual_form(system, samples, rng):
    """The weighted-sort index matches its definition, 1 - 2/(d+1) * sum of the Lorenz values."""
    d = system.d
    worst = 0.0
    for _ in range(samples):
        p = ProbabilityDistribution(rng.dirichlet(np.ones(d)))
        definition = 1.0 - (2.0 / (d + 1.0)) * float(lorenz_curve(p).values.sum())
        worst = max(worst, abs(gini_index(p) - max(definition, 0.0)))
    return worst <= EQ_TOL, f"max disagreement between the two forms {worst:.2e}"


def _check_subadditive(system, samples, rng):
    """Each index, and their sum, is convex under mixing."""
    d = system.d
    worst = -np.inf
    for _ in range(samples):
        rho, sigma = random_density_matrix(d, rng), random_density_matrix(d, rng)
        lam = float(rng.uniform())
        rep_m = gini_report(system, mix(rho, sigma, lam))
        rep_a, rep_b = gini_report(system, rho), gini_report(system, sigma)
        for attr in ("g_x", "g_p", "g_xp"):
            excess = getattr(rep_m, attr) - (
                lam * getattr(rep_a, attr) + (1 - lam) * getattr(rep_b, attr)
            )
            worst = max(worst, excess)
    return worst <= INEQ_SLACK, f"max convexity excess {worst:.2e}"


def _check_position_mixture_cap(system, samples, rng):
    """Mixtures of position projectors never push g_xp past the single cap."""
    d = system.d
    cap = gini_cap(d)
    worst = -np.inf
    for _ in range(samples):
        rho = DensityMatrix(np.diag(rng.dirichlet(np.ones(d))))
        rep = gini_report(system, rho)
        worst = max(worst, rep.g_xp - cap)
    return worst <= INEQ_SLACK, f"max excess of g_xp over the single-basis cap {worst:.2e}"


def _invariance_pairs(system, rng):
    d = system.d
    if d <= 11:
        return [(a, b) for a in range(d) for b in range(d)]
    return [(int(a), int(b)) for a, b in rng.integers(0, d, size=(100, 2))]


def _check_displacement_invariance(system, samples, rng):
    """Displacements permute outcomes, so Lorenz values and indices are unchanged."""
    d = system.d
    states = min(max(samples // 50, 1), 5)
    worst = 0.0
    for _ in range(states):
        rho = random_density_matrix(d, rng)
        ref = gini_report(system, rho)
        ref_lx = lorenz_curve(system.position_probs(rho)).values
        for a, b in _invariance_pairs(system, rng):
            moved = conjugate(rho, system.displacement(a, b))
            rep = gini_report(system, moved)
            worst = max(
                worst,
                abs(rep.g_xp - ref.g_xp),
                float(np.max(np.abs(lorenz_curve(system.position_probs(moved)).values - ref_lx))),
            )
    return worst <= CONJ_TOL, f"max drift under displacements {worst:.2e}"


def _check_fourier_swap(system, samples, rng):
    """Conjugating by F trades the two distributions and preserves g_xp."""
    d = system.d
    worst = 0.0
    for _ in range(max(samples // 10, 1)):
        rho = random_density_matrix(d, rng)
        swapped = conjugate(rho, system.fourier)
        worst = max(
            worst,
            float(np.max(np.abs(system.position_probs(swapped).probs - system.momentum_probs(rho).probs))),
            abs(gini_report(system, swapped).g_xp - gini_report(system, rho).g_xp),
        )
    return worst <= CONJ_TOL, f"max swap mismatch {worst:.2e}"


def _check_coherent_equality(system, samples, rng):
    """Every coherent state of one fiducial shares the same g_x, g_p and g_xp."""
    d = system.d
    # coherent_state checks the fiducial once; a Haar draw is far from both bases
    fid = system.coherent_state(random_state_vector(d, rng), 0, 0)
    ref = gini_report(system, fid)
    worst = 0.0
    for a, b in _invariance_pairs(system, rng):
        moved = _trusted(StateVector, dim=d, amplitudes=system._displaced(fid.amplitudes, a, b))
        rep = gini_report(system, moved)
        worst = max(worst, abs(rep.g_x - ref.g_x), abs(rep.g_p - ref.g_p), abs(rep.g_xp - ref.g_xp))
    return worst <= CONJ_TOL, f"max spread across the coherent family {worst:.2e}"


def _check_resolution_of_identity(system, samples, rng):
    """Coherent projectors of any admissible fiducial average to the identity."""
    d = system.d
    fid = system.coherent_state(system.default_fiducial(), 0, 0).amplitudes
    total = np.zeros((d, d), dtype=np.complex128)
    for a in range(d):
        # one block of d coherent rows per alpha keeps the memory at O(d^2)
        amps = system._displaced(fid, a, np.arange(d))
        total += amps.T @ amps.conj()
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

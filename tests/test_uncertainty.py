import itertools

import numpy as np
import pytest

from qgini import (
    BoundSet,
    BudgetTooSmall,
    DimensionTooLarge,
    DimensionTooSmall,
    EvenDimension,
    StateVector,
    ValidationError,
    bounds,
    estimate_sup_gini,
    example_gini_closed_form,
    example_state,
    gini_cap,
    gini_report,
    lorenz_curve,
    new_system,
    pure_density,
    split_seed,
)
from qgini.gini import gini_weights
from qgini.qsystem import MAX_DIM
from qgini.uncertainty import INITIAL_STEP, MIN_STEP, _combined_gini_objective, _pattern_search


def reference_combined_gini(probs_x, probs_p) -> float:
    """Independent oracle: pure-Python partial sums, no numpy sorting."""
    total = 0.0
    for p in (probs_x, probs_p):
        d = len(p)
        partial = list(itertools.accumulate(sorted(p)))
        total += 1.0 - (2.0 / (d + 1.0)) * sum(partial)
    return total


# ---- the example state ----


def test_example_state_amplitudes(sys5):
    st = example_state(sys5)
    c = 5**0.25 / np.sqrt(2.0 * np.sqrt(5) + 2.0)
    assert abs(st.amplitudes[0] - c * (1.0 + 1.0 / np.sqrt(5))) < 1e-12
    assert np.max(np.abs(st.amplitudes[1:] - c / np.sqrt(5))) < 1e-12
    assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12


def test_example_state_probability_profile(sys3):
    px = sys3.position_probs(pure_density(example_state(sys3))).probs
    d, rd = 3.0, np.sqrt(3.0)
    big = (d + 1.0 + 2.0 * rd) / (2.0 * d + 2.0 * rd)
    small = 1.0 / (2.0 * d + 2.0 * rd)
    assert abs(px[0] - big) < 1e-12
    assert np.max(np.abs(px[1:] - small)) < 1e-12
    # printed reference values
    assert np.max(np.abs(np.sort(px) - np.array([0.1056624, 0.1056624, 0.7886751]))) < 1e-7


@pytest.mark.parametrize("d", [3, 7, 11])
def test_example_state_lorenz_staircase(d):
    # d-1 equal small steps of 1/(2d+2*sqrt(d)), then a jump to 1
    system = new_system(d)
    curve = lorenz_curve(system.position_probs(pure_density(example_state(system))))
    small = 1.0 / (2.0 * d + 2.0 * np.sqrt(d))
    steps = np.arange(1, d) * small
    assert np.max(np.abs(curve.values[: d - 1] - steps)) < 1e-12
    assert abs(curve.values[d - 1] - 1.0) < 1e-12


def test_example_state_momentum_matches_position(sys7):
    rho = pure_density(example_state(sys7))
    px = np.sort(sys7.position_probs(rho).probs)
    pp = np.sort(sys7.momentum_probs(rho).probs)
    assert np.max(np.abs(px - pp)) < 1e-12


@pytest.mark.parametrize("d", [3, 5, 7, 9, 11, 15, 21])
def test_closed_form_reproduction(d):
    system = new_system(d)
    rep = gini_report(system, pure_density(example_state(system)))
    assert abs(rep.g_xp - example_gini_closed_form(d)) <= 1e-10
    assert abs(rep.g_x - rep.g_p) <= 1e-12


def test_closed_form_spot_values():
    assert abs(example_gini_closed_form(3) - 0.6830127) < 1e-7
    assert abs(example_gini_closed_form(5) - 0.8726780) < 1e-7
    assert abs(example_gini_closed_form(7) - 0.9557189) < 1e-7


def test_example_matches_pure_python_reference(sys5):
    rho = pure_density(example_state(sys5))
    ref = reference_combined_gini(
        list(sys5.position_probs(rho).probs), list(sys5.momentum_probs(rho).probs)
    )
    assert abs(gini_report(sys5, rho).g_xp - ref) < 1e-12


@pytest.mark.parametrize("d", [3, 5])
def test_displaced_example_family_shares_the_index(d):
    system = new_system(d)
    st = example_state(system)
    ref = gini_report(system, pure_density(st)).g_xp
    for a in range(d):
        for b in range(d):
            moved = system.coherent_state(st, a, b)
            assert abs(gini_report(system, pure_density(moved)).g_xp - ref) <= 1e-10


# ---- bounds ----


def test_bounds_spot_values():
    b3 = bounds(3)
    assert b3.gini_cap == 0.5
    assert b3.g_strict_upper == 1.0
    assert abs(b3.eta_upper - 0.3169873) < 1e-7
    b5 = bounds(5)
    assert abs(b5.gini_cap - 0.6666667) < 1e-7
    assert abs(b5.eta_upper - 0.4606553) < 1e-7


@pytest.mark.parametrize("d", [3, 5, 7, 11, 21])
def test_bound_identities(d):
    b = bounds(d)
    assert abs(b.g_lower + b.eta_upper - b.g_strict_upper) <= 1e-12
    assert abs(b.eta_upper - gini_cap(d) * np.sqrt(d) / (1.0 + np.sqrt(d))) <= 1e-12
    assert 0.0 < b.eta_upper < b.gini_cap
    assert b.g_lower == example_gini_closed_form(d)


def test_bounds_validation():
    with pytest.raises(EvenDimension):
        bounds(4)
    with pytest.raises(DimensionTooSmall):
        bounds(1)
    with pytest.raises(EvenDimension):
        example_gini_closed_form(6)
    assert bounds(MAX_DIM).dim == MAX_DIM
    with pytest.raises(DimensionTooLarge):
        bounds(MAX_DIM + 2)


# ---- the estimator ----


def test_budget_validation(sys3):
    with pytest.raises(BudgetTooSmall):
        estimate_sup_gini(sys3, restarts=0)
    with pytest.raises(BudgetTooSmall):
        estimate_sup_gini(sys3, iterations=0)


def test_estimate_is_deterministic(sys3):
    a = estimate_sup_gini(sys3, restarts=4, iterations=120, seed=7)
    b = estimate_sup_gini(sys3, restarts=4, iterations=120, seed=7)
    assert a.g_sup_estimate == b.g_sup_estimate
    assert np.array_equal(a.best_state.amplitudes, b.best_state.amplitudes)
    assert a.converged == b.converged


def test_estimate_never_below_example_value(sys5):
    # restart 0 starts at the example state, so its value is the floor
    est = estimate_sup_gini(sys5, restarts=1, iterations=1, seed=0)
    assert est.g_sup_estimate >= example_gini_closed_form(5) - 1e-12


def test_estimate_bracket_small_budget(sys5):
    est = estimate_sup_gini(sys5, restarts=3, iterations=150, seed=11)
    b = est.bounds
    assert b.g_lower - 1e-9 <= est.g_sup_estimate < b.g_strict_upper
    assert 0.0 < est.eta_estimate <= b.eta_upper + 1e-9
    assert abs(est.g_sup_estimate + est.eta_estimate - b.g_strict_upper) <= 1e-12


def test_estimate_best_state_reproduces_value(sys3):
    est = estimate_sup_gini(sys3, restarts=2, iterations=200, seed=5)
    rep = gini_report(sys3, pure_density(est.best_state))
    assert abs(rep.g_xp - est.g_sup_estimate) <= 1e-10


def test_estimate_gauge_fix(sys3):
    est = estimate_sup_gini(sys3, restarts=2, iterations=80, seed=3)
    amp = est.best_state.amplitudes
    first = amp[np.flatnonzero(np.abs(amp) > 1e-12)[0]]
    assert abs(first.imag) <= 1e-12 and first.real > 0.0


def test_estimate_metadata_fields(sys3):
    est = estimate_sup_gini(sys3, restarts=2, iterations=60, seed=9)
    assert (est.dim, est.restarts, est.iterations, est.seed) == (3, 2, 60, 9)
    assert isinstance(est.converged, bool)


def test_pattern_search_history_is_monotone(sys5):
    objective = _combined_gini_objective(sys5)
    rng = np.random.default_rng(13)
    x0 = rng.standard_normal(10)
    _, best, _, history = _pattern_search(objective, x0, 300, record=True)
    hist = np.asarray(history)
    assert np.all(np.diff(hist) >= 0.0)
    assert hist[-1] == best


def test_objective_matches_report_pipeline(sys5):
    # one call scores a block of rows; each row must match the report pipeline
    objective = _combined_gini_objective(sys5)
    rng = np.random.default_rng(19)
    z = rng.standard_normal((25, 5)) + 1j * rng.standard_normal((25, 5))
    z /= np.linalg.norm(z, axis=1)[:, None]
    values = objective(np.ascontiguousarray(z).view(np.float64))
    assert values.shape == (25,)
    for row, value in zip(z, values):
        rep = gini_report(sys5, pure_density(StateVector(row)))
        assert abs(value - rep.g_xp) <= 1e-10


def sequential_pattern_search(system, x0, max_sweeps, step=INITIAL_STEP, min_step=MIN_STEP):
    """Reference: the per-candidate loop the batched search replaced.

    Builds, renormalizes and scores one candidate at a time with a per-vector
    objective, in the order (0, +step), (0, -step), (1, +step), ..., and
    accepts the first improvement at each coordinate.
    """
    fdag = system.fourier_dag
    w, scale = gini_weights(system.d)

    def objective(x):
        psi = x.view(np.complex128)
        px = psi.real**2 + psi.imag**2
        phi = fdag @ psi
        pp = phi.real**2 + phi.imag**2
        px.sort()
        pp.sort()
        return 2.0 - scale * (w @ px + w @ pp)

    x = np.array(x0, dtype=np.float64)
    x /= np.linalg.norm(x)
    best = objective(x)
    history = [best]
    converged = False
    for _ in range(max_sweeps):
        improved = False
        for i in range(x.size):
            for sign in (1.0, -1.0):
                cand = x.copy()
                cand[i] += sign * step
                cand /= np.linalg.norm(cand)
                val = objective(cand)
                if val > best:
                    x, best = cand, val
                    improved = True
                    break
        history.append(best)
        if not improved:
            step *= 0.5
            if step < min_step:
                converged = True
                break
    return x, best, converged, history


@pytest.mark.parametrize("d", [3, 5, 7, 11])
def test_batched_search_matches_the_sequential_loop(d):
    system = new_system(d)
    objective = _combined_gini_objective(system)
    starts = [np.ascontiguousarray(example_state(system).amplitudes).view(np.float64)]
    starts += [np.random.default_rng(split_seed(29, r)).standard_normal(2 * d) for r in range(1, 4)]
    for x0 in starts:
        for sweeps in (2000, 7):
            x, best, converged, history = _pattern_search(objective, x0, sweeps, record=True)
            ref_x, ref_best, ref_converged, ref_history = sequential_pattern_search(system, x0, sweeps)
            assert abs(best - ref_best) <= 1e-12
            assert converged == ref_converged
            assert len(history) == len(ref_history)
            assert np.max(np.abs(x - ref_x)) <= 1e-12


def test_eta_estimate_validation():
    b = BoundSet(3)
    from qgini.uncertainty import EtaEstimate

    with pytest.raises(ValidationError):
        EtaEstimate(3, 0.5, b, None, 1, 1, 0, True)  # below the achievable floor
    with pytest.raises(ValidationError):
        EtaEstimate(3, 1.0, b, None, 1, 1, 0, True)  # at the strict ceiling

import functools
import itertools

import numpy as np
import pytest

from qgini import (
    BoundSet,
    BudgetTooLarge,
    BudgetTooSmall,
    DimensionTooLarge,
    DimensionTooSmall,
    EvenDimension,
    StateVector,
    ValidationError,
    estimate_sup_gini,
    example_gini_closed_form,
    example_state,
    gini_cap,
    gini_report,
    lorenz_curve,
    new_system,
    pure_density,
    split_seed,
    uncertainty,
)
from qgini.gini import _weighted_sums, gini_weights
from qgini.qsystem import MAX_DIM, _distribution_rows
from qgini.uncertainty import (
    INITIAL_STEP,
    MAX_ITERATIONS,
    MAX_RESTARTS,
    MIN_STEP,
    SETTLED_LEVELS,
    _bottom_vectors,
    _combined_gini_objective,
    _finish,
    _ordering_rows,
    _pattern_search,
    check_search_budget,
)

from conftest import reference_fourier, traced_peak


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
    b3 = BoundSet(3)
    assert b3.gini_cap == 0.5
    assert b3.g_strict_upper == 1.0
    assert abs(b3.eta_upper - 0.3169873) < 1e-7
    b5 = BoundSet(5)
    assert abs(b5.gini_cap - 0.6666667) < 1e-7
    assert abs(b5.eta_upper - 0.4606553) < 1e-7


@pytest.mark.parametrize("d", [3, 5, 7, 11, 21])
def test_bound_identities(d):
    b = BoundSet(d)
    assert abs(b.g_lower + b.eta_upper - b.g_strict_upper) <= 1e-12
    assert abs(b.eta_upper - gini_cap(d) * np.sqrt(d) / (1.0 + np.sqrt(d))) <= 1e-12
    assert 0.0 < b.eta_upper < b.gini_cap
    assert b.g_lower == example_gini_closed_form(d)


def test_bound_identity_holds_at_every_odd_dimension():
    # BoundSet does not check g_lower + eta_upper = g_strict_upper itself:
    # all three are closed forms of d, so the identity is pinned here
    for d in range(3, MAX_DIM + 1, 2):
        b = BoundSet(d)
        assert abs(b.g_lower + b.eta_upper - b.g_strict_upper) <= 1e-12, d


def test_bounds_validation():
    with pytest.raises(EvenDimension):
        BoundSet(4)
    with pytest.raises(DimensionTooSmall):
        BoundSet(1)
    with pytest.raises(EvenDimension):
        example_gini_closed_form(6)
    assert BoundSet(MAX_DIM).dim == MAX_DIM
    with pytest.raises(DimensionTooLarge):
        BoundSet(MAX_DIM + 2)


# ---- the estimator ----


def test_budget_validation(sys3):
    with pytest.raises(BudgetTooSmall):
        estimate_sup_gini(sys3, restarts=0)
    with pytest.raises(BudgetTooSmall):
        estimate_sup_gini(sys3, iterations=0)


def test_budget_ceilings(sys3):
    check_search_budget(MAX_RESTARTS, MAX_ITERATIONS)
    with pytest.raises(BudgetTooLarge, match="restarts must be at most"):
        estimate_sup_gini(sys3, restarts=MAX_RESTARTS + 1)
    with pytest.raises(BudgetTooLarge, match="iterations must be at most"):
        estimate_sup_gini(sys3, iterations=MAX_ITERATIONS + 1)


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


@pytest.mark.parametrize("d", range(3, 26, 2))
def test_estimate_value_is_the_report_of_its_state(d):
    # the estimate re-scores the state it returns as its report does, so the
    # two agree bit for bit (the search's own value may differ in the last ulp)
    system = new_system(d)
    for seed in range(5):
        est = estimate_sup_gini(system, restarts=4, iterations=200, seed=seed)
        assert est.g_sup_estimate == gini_report(system, est.best_state).g_xp, seed
        assert est.eta_estimate == est.bounds.g_strict_upper - est.g_sup_estimate


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


def test_pattern_search_history_is_monotone():
    objective = _combined_gini_objective(5)
    rng = np.random.default_rng(13)
    x0 = rng.standard_normal(10).view(np.complex128)
    # a run capped at k sweeps is a prefix of a longer run, so its best value
    # is the history of the uncapped run at sweep k
    hist = [_pattern_search(objective, x0[None, :], k)[1][0] for k in (1, 2, 3, 5, 10, 30, 100, 300)]
    assert np.all(np.diff(hist) >= 0.0)


def test_objective_matches_report_pipeline(sys5):
    # one call scores a block of rows; each row must match the report pipeline
    objective = _combined_gini_objective(5)
    rng = np.random.default_rng(19)
    z = rng.standard_normal((25, 5)) + 1j * rng.standard_normal((25, 5))
    z /= np.linalg.norm(z, axis=1)[:, None]
    values = objective(z)
    assert values.shape == (25,)
    for row, value in zip(z, values):
        rep = gini_report(sys5, pure_density(StateVector(row)))
        assert abs(value - rep.g_xp) <= 1e-10


@pytest.mark.parametrize("d", [3, 5, 11, 101])
def test_objective_rows_equal_the_distribution_kernel_bit_for_bit(d):
    # the search takes momenta by the formula every report takes them by,
    # and a row scores the same bits in any block
    objective = _combined_gini_objective(d)
    w, scale = gini_weights(d)
    rng = np.random.default_rng(d)
    for rows in (1, 7, 25):
        z = rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d))
        z /= np.linalg.norm(z, axis=1)[:, None]
        p = _distribution_rows(z, True)
        p.sort(axis=-1)
        sums = _weighted_sums(p, w)
        expected = 2.0 - scale * (sums[:, 0] + sums[:, 1])
        assert np.array_equal(objective(z), expected)


def sequential_pattern_search(system, x0, max_sweeps, settled_levels, step=INITIAL_STEP, min_step=MIN_STEP):
    """Reference: the per-candidate loop the batched search replaced.

    Builds, renormalizes and scores one candidate at a time with a per-vector
    objective, in the order (0, +step), (0, -step), (1, +step), ..., and
    accepts the first improvement at each coordinate. Stops below min_step
    ("step"), once the point's orderings at settled_levels + 1 halvings in a
    row are the same ("settled"), or after max_sweeps ("budget"); returns
    the point, its value, which stop ended it and the best value after each
    sweep.
    """
    w, scale = gini_weights(system.d)

    def distributions(x):
        psi = x.view(np.complex128)
        phi = np.fft.fft(psi, norm="ortho")
        return psi.real**2 + psi.imag**2, phi.real**2 + phi.imag**2

    def objective(x):
        px, pp = distributions(x)
        px.sort()
        pp.sort()
        return 2.0 - scale * (w @ px + w @ pp)

    def orderings(x):
        return np.array([np.argsort(p, kind="stable") for p in distributions(x)])

    x = np.array(x0, dtype=np.complex128).view(np.float64)
    x /= np.linalg.norm(x)
    best = objective(x)
    history = [best]
    stop = "budget"
    seen = []  # the orderings at each halving
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
            seen.append(orderings(x))
            settled = len(seen) > settled_levels and all(
                np.array_equal(seen[-1], earlier) for earlier in seen[-1 - settled_levels : -1]
            )
            if step < min_step or settled:
                stop = "step" if step < min_step else "settled"
                break
    return x.view(np.complex128), best, stop, history


def search_starts(system, count, seed=29):
    """The estimator's starts: the example state, then seeded normals read as interleaved amplitudes."""
    d = system.d
    starts = [example_state(system).amplitudes]
    for r in range(1, count):
        starts.append(np.random.default_rng(split_seed(seed, r)).standard_normal(2 * d).view(np.complex128))
    return np.array(starts)


@functools.lru_cache(maxsize=None)
def sequential_references(d, sweeps, settled_levels):
    """sequential_pattern_search of the nine search_starts, once per dimension, budget and stop."""
    system = new_system(d)
    return [sequential_pattern_search(system, x0, sweeps, settled_levels) for x0 in search_starts(system, 9)]


# no search's count of settled halvings reaches MAX_ITERATIONS, so under it
# only MIN_STEP and the budget stop a search
NEVER_SETTLES = MAX_ITERATIONS


# windows of 3 rows split a coordinate's +/- pair across rounds; 4d rows
# hold one search's whole sweep
@pytest.mark.parametrize(
    "d, probe_rows, settled_levels",
    [pytest.param(d, 12, SETTLED_LEVELS, id=str(d)) for d in (3, 5, 7, 11)]
    + [pytest.param(3, 3, SETTLED_LEVELS, id="3-3")]
    + [pytest.param(d, 4 * d, SETTLED_LEVELS, id=f"{d}-{4 * d}") for d in (5, 7, 11)]
    + [pytest.param(7, 12, NEVER_SETTLES, id="7-never-settles")],
)
def test_lockstep_search_matches_each_start_alone(monkeypatch, d, probe_rows, settled_levels):
    monkeypatch.setattr(uncertainty, "PROBE_ROWS", probe_rows)
    monkeypatch.setattr(uncertainty, "SETTLED_LEVELS", settled_levels)
    system = new_system(d)
    objective = _combined_gini_objective(d)
    starts = search_starts(system, 9)
    for sweeps in (7, 2000):
        alone = [_pattern_search(objective, x0[None, :], sweeps) for x0 in starts]
        finished_alone = [_finish(*own) for own in alone]
        reference = sequential_references(d, sweeps, settled_levels)
        for count in (1, 4, 9):
            x, best = _pattern_search(objective, starts[:count], sweeps)
            assert x.shape == (count, d) and x.dtype == np.complex128 and best.shape == (count,)
            for row, value, own, ref in zip(x, best, alone, reference):
                ref_x, ref_best, _, _ = ref
                assert abs(value - ref_best) <= 1e-12
                assert np.max(np.abs(row - ref_x)) <= 1e-12
                assert np.array_equal(row, own[0][0]) and value == own[1][0]
            # each restart is finished as it would be alone, and never loses value
            rows, values, certified = _finish(x, best)
            for r, (own_rows, own_values, own_certified) in enumerate(finished_alone[:count]):
                assert np.array_equal(rows[r], own_rows[0]) and values[r] == own_values[0]
                assert certified[r] == own_certified[0]
                assert values[r] >= best[r]
        ran = [len(ref[3]) - 1 for ref in reference]
        stops = {ref[2] for ref in reference}
        if sweeps == 7:
            assert "budget" in stops  # the budget stops a search
        else:
            # the searches stop at different rounds, on the orderings or the step
            assert len(set(ran)) > 1
            assert stops == {"settled" if settled_levels == SETTLED_LEVELS else "step"}
        # every restart is finished, and every finish is certified
        assert all(own[2][0] for own in finished_alone)


@pytest.mark.parametrize("d", range(3, 17, 2))
def test_settled_orderings_never_lower_the_estimate(monkeypatch, d):
    # the finish optimizes the amplitudes of settled orderings exactly, so
    # ending a search once they settle must not lower the estimate
    system = new_system(d)
    settled = [estimate_sup_gini(system, restarts=4, iterations=2000, seed=seed) for seed in range(5)]
    monkeypatch.setattr(uncertainty, "SETTLED_LEVELS", NEVER_SETTLES)
    for seed, est in enumerate(settled):
        polished = estimate_sup_gini(system, restarts=4, iterations=2000, seed=seed)
        assert est.g_sup_estimate >= polished.g_sup_estimate - 1e-12, seed
        assert est.converged


def test_settled_orderings_cut_the_objective_calls(monkeypatch):
    # at d = 5 a search's orderings settle long before its step reaches
    # MIN_STEP: 42-56 objective calls per estimate against 127-158
    objective = uncertainty._combined_gini_objective
    calls = []

    def counting(d):
        score = objective(d)
        return lambda block: calls.append(len(block)) or score(block)

    monkeypatch.setattr(uncertainty, "_combined_gini_objective", counting)
    system = new_system(5)
    counts = {}
    for levels in (SETTLED_LEVELS, NEVER_SETTLES):
        monkeypatch.setattr(uncertainty, "SETTLED_LEVELS", levels)
        for seed in range(5):
            calls.clear()
            estimate_sup_gini(system, restarts=4, iterations=2000, seed=seed)
            counts[levels, seed] = len(calls)
    for seed in range(5):
        assert 2 * counts[SETTLED_LEVELS, seed] <= counts[NEVER_SETTLES, seed], seed


@pytest.mark.parametrize("d, pin", [(9, 1.265318515), (15, 1.444693419), (25, 1.582123932)])
def test_default_budget_keeps_the_composite_dimension_values(d, pin):
    # no benchmark workload runs a composite d; the CLI default at seed 42
    # must keep its values there (1.265318515 is the exact value at d = 9).
    # At d = 25 it sits on the zig-zag floor, the first composite d where a
    # comb ordering pair followed by the ascent scores higher (1.582799341)
    est = estimate_sup_gini(new_system(d))
    assert est.g_sup_estimate >= pin - 1e-9
    assert est.converged


def test_round_memory_ceiling_binds_without_changing_results(monkeypatch):
    system = new_system(11)
    objective = _combined_gini_objective(11)
    starts = search_starts(system, 9)
    block_rows = []

    def recording(block):
        block_rows.append(len(block))
        return objective(block)

    free_x, free_best = _pattern_search(recording, starts, 2000)
    free_rows = max(block_rows[1:])  # the first call scores the starts
    free_estimate = estimate_sup_gini(system, restarts=9, iterations=2000, seed=3)

    # room for 20 rows at d = 11 (32 bytes per real); the 9 first windows take 108
    ceiling = 20 * 32 * 22
    monkeypatch.setattr(uncertainty, "_ROUND_BYTES", ceiling)
    block_rows.clear()
    capped_x, capped_best = _pattern_search(recording, starts, 2000)
    assert max(block_rows[1:]) <= 20 < free_rows
    assert np.array_equal(capped_x, free_x) and np.array_equal(capped_best, free_best)

    capped_estimate, capped_peak = traced_peak(
        lambda: estimate_sup_gini(system, restarts=9, iterations=2000, seed=3)
    )
    assert capped_estimate.g_sup_estimate == free_estimate.g_sup_estimate
    assert np.array_equal(capped_estimate.best_state.amplitudes, free_estimate.best_state.amplitudes)
    assert capped_estimate.converged == free_estimate.converged

    # what one search's full sweep takes today: the 4d x 2d block and the
    # objective's temporaries
    x0 = starts[1] / np.linalg.norm(starts[1])
    _, full_sweep = traced_peak(lambda: objective(np.repeat(x0[None, :], 4 * 11, axis=0)))
    assert capped_peak <= ceiling + full_sweep


def test_finish_chunks_stay_under_the_round_ceiling(monkeypatch):
    # the estimate finishes every searched restart in chunks under the round
    # ceiling; the search's result is replayed so the peak is the finish's
    system = new_system(11)
    searched = _pattern_search(_combined_gini_objective(11), search_starts(system, 9), 2000)
    finish = uncertainty._finish
    chunks, outputs = [], []

    def replay(objective, starts, sweeps):
        return searched[0][: len(starts)].copy(), searched[1][: len(starts)].copy()

    def recording(z, best):
        chunks.append(len(z))
        outputs.append(finish(z, best))
        return outputs[-1]

    monkeypatch.setattr(uncertainty, "_pattern_search", replay)
    monkeypatch.setattr(uncertainty, "_finish", recording)
    free, free_peak = traced_peak(lambda: estimate_sup_gini(system, restarts=9, iterations=2000, seed=29))
    assert chunks == [9]
    free_rows, free_values, free_certified = outputs[0]
    _, one_peak = traced_peak(lambda: estimate_sup_gini(system, restarts=1, iterations=2000, seed=29))
    chunks.clear()
    outputs.clear()
    # room for three finishing rows at d = 11
    ceiling = 3 * uncertainty._FINISH_ROW_BYTES * 11
    monkeypatch.setattr(uncertainty, "_ROUND_BYTES", ceiling)
    capped, capped_peak = traced_peak(lambda: estimate_sup_gini(system, restarts=9, iterations=2000, seed=29))
    assert chunks == [3, 3, 3]
    rows, values, certified = (np.concatenate(parts) for parts in zip(*outputs))
    assert np.array_equal(rows, free_rows) and np.array_equal(values, free_values)
    assert np.array_equal(certified, free_certified)
    # each finished row equals its lone finish, and no value falls
    for r in range(9):
        alone = finish(searched[0][r : r + 1], searched[1][r : r + 1])
        assert np.array_equal(rows[r], alone[0][0]) and values[r] == alone[1][0]
    assert np.all(values >= searched[1])
    assert capped.g_sup_estimate == free.g_sup_estimate and capped.converged == free.converged
    assert np.array_equal(capped.best_state.amplitudes, free.best_state.amplitudes)
    assert capped_peak <= ceiling + one_peak < free_peak


@functools.lru_cache(maxsize=None)
def one_sweep_estimate(d):
    """estimate_sup_gini at d with 1 restart of 1 sweep, and its traced peak."""
    system = new_system(d)
    return traced_peak(lambda: estimate_sup_gini(system, restarts=1, iterations=1))


@pytest.mark.parametrize("d", [201, 401])
def test_search_keeps_no_copy_of_the_fourier_matrix(d):
    # the search scores candidates by FFT and the finish solves by FFT: no F
    # is built, and the peak stays below the 16 d^2 bytes of one
    _, peak = one_sweep_estimate(d)
    assert peak < 16 * d * d


def test_starts_are_scored_under_the_round_ceiling(monkeypatch):
    system = new_system(11)
    objective = _combined_gini_objective(11)
    starts = search_starts(system, 30)
    free_x, free_best = _pattern_search(objective, starts, 7)
    block_rows = []

    def recording(block):
        block_rows.append(len(block))
        return objective(block)

    # room for 20 rows at d = 11 (32 bytes per real), fewer than the 30 starts
    monkeypatch.setattr(uncertainty, "_ROUND_BYTES", 20 * 32 * 22)
    capped_x, capped_best = _pattern_search(recording, starts, 7)
    assert max(block_rows) <= 20
    assert np.array_equal(capped_x, free_x) and np.array_equal(capped_best, free_best)


# ---- the ordering operator ----


def zigzag_ranks(d, sign=1):
    """Rank weights of the zig-zag ordering: index 0 first, then +1, -1, +2, ... (sign -1 mirrors it)."""
    order = [0]
    for k in range(1, d // 2 + 1):
        order += [(sign * k) % d, (-sign * k) % d]
    ranks = np.empty(d)
    ranks[order] = np.arange(1, d + 1)
    return ranks


def own_ranks(p):
    """Rank weights of a distribution: 1 for the most probable index, d for the least."""
    ranks = np.empty(len(p))
    ranks[np.argsort(-p, kind="stable")] = np.arange(1, len(p) + 1)
    return ranks


def dense_ordering_operator(rx, rp):
    """diag(rx) + A^dag diag(rp) A, with A = F^dag the DFT that gives the momentum amplitudes."""
    a = reference_fourier(len(rx)).conj()
    return np.diag(rx) + a.conj().T @ np.diag(rp) @ a


@pytest.mark.parametrize("d", [3, 5, 11, 41])
def test_ordering_kernel_equals_the_dense_operator(d):
    rng = np.random.default_rng(d)
    rx = rng.permutation(d) + 1.0
    rp = rng.permutation(d) + 1.0
    z = rng.standard_normal((6, d)) + 1j * rng.standard_normal((6, d))
    dense = dense_ordering_operator(rx, rp)
    assert np.max(np.abs(_ordering_rows(z, rx, rp) - z @ dense.T)) <= 1e-12
    # with a row's own ranks, 2 - 2/(d+1) <z|M|z> is the combined index the search scores
    z /= np.linalg.norm(z, axis=1)[:, None]
    objective = _combined_gini_objective(d)
    for row, value in zip(z, objective(z)):
        own = dense_ordering_operator(own_ranks(np.abs(row) ** 2), own_ranks(np.abs(reference_fourier(d).conj() @ row) ** 2))
        assert abs(2.0 - 2.0 / (d + 1.0) * np.vdot(row, own @ row).real - value) <= 1e-12


@functools.lru_cache(maxsize=None)
def exact_supremum(d):
    """2 - 2/(d+1) * the least bottom eigenvalue over all ordering pairs, by brute force.

    Displacements shift position and momentum orderings independently, so
    index 0 can hold rank 1 on both sides: (d-1)!^2 dense solves of size d.
    """
    rest = [np.array((0, *perm)) for perm in itertools.permutations(range(1, d))]
    lowest = np.inf
    for sigma in rest:
        rx = np.empty(d)
        rx[sigma] = np.arange(1, d + 1)
        for tau in rest:
            rp = np.empty(d)
            rp[tau] = np.arange(1, d + 1)
            lowest = min(lowest, np.linalg.eigvalsh(dense_ordering_operator(rx, rp))[0])
    return 2.0 - 2.0 / (d + 1.0) * lowest


def test_exact_supremum_at_five_is_the_benchmark_value():
    assert abs(exact_supremum(5) - 0.992276464632) <= 1e-12


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("budget", [(4, 2000, 7), (1, 2000, 0), (32, 2000, 42)])
def test_estimate_reaches_the_exact_supremum(d, budget):
    restarts, iterations, seed = budget
    est = estimate_sup_gini(new_system(d), restarts=restarts, iterations=iterations, seed=seed)
    assert abs(est.g_sup_estimate - exact_supremum(d)) <= 1e-12
    assert est.converged


@pytest.mark.parametrize("d", [5, 11, 21])
def test_finished_estimate_is_certified_by_its_own_orderings(d):
    # the best state is the bottom eigenvector of the operator of its own
    # orderings, so its value is 2 - 2/(d+1) * that operator's least eigenvalue
    est = estimate_sup_gini(new_system(d), restarts=4, iterations=2000, seed=7)
    psi = est.best_state.amplitudes
    rx = own_ranks(np.abs(psi) ** 2)
    rp = own_ranks(np.abs(reference_fourier(d).conj() @ psi) ** 2)
    lowest = np.linalg.eigvalsh(dense_ordering_operator(rx, rp))[0]
    # the finish lands within a few ulp; the coordinate search alone stopped 3e-14 to 9e-14 short
    assert abs(est.g_sup_estimate - (2.0 - 2.0 / (d + 1.0) * lowest)) <= 1e-14
    assert est.converged


@pytest.mark.parametrize("d", [5, 11, 21])
def test_finish_ascends_from_random_states_to_a_certified_fixed_point(monkeypatch, d):
    # far from any optimum the ascent takes several re-rank and solve steps;
    # each row ends at the bottom eigenvector of its own orderings' operator
    objective = _combined_gini_objective(d)
    rng = np.random.default_rng(d)
    z = rng.standard_normal((6, d)) + 1j * rng.standard_normal((6, d))
    z /= np.linalg.norm(z, axis=1)[:, None]
    start = objective(z)
    solves = []
    monkeypatch.setattr(uncertainty, "_bottom_vectors", lambda *args: solves.append(1) or _bottom_vectors(*args))
    rows, values, certified = uncertainty._finish(z, start)
    assert len(solves) > 1
    assert certified.all() and np.all(values > start)
    assert np.array_equal(values, objective(rows))
    for psi, value in zip(rows, values):
        rx = own_ranks(np.abs(psi) ** 2)
        rp = own_ranks(np.abs(reference_fourier(d).conj() @ psi) ** 2)
        lowest = np.linalg.eigvalsh(dense_ordering_operator(rx, rp))[0]
        assert abs(value - (2.0 - 2.0 / (d + 1.0) * lowest)) <= 1e-13


def test_lowest_ritz_vector_matches_a_dense_eigensolver():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((200, 3, 3)) + 1j * rng.standard_normal((200, 3, 3))
    a = a + a.conj().swapaxes(1, 2)
    # and the nearly converged shape the solver meets: tiny couplings to the iterate
    a[:100, 0, 1:] *= 1e-9
    a[:100, 1:, 0] *= 1e-9
    values, vectors = np.linalg.eigh(a)
    v = uncertainty._lowest_ritz(a)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, rtol=0.0, atol=1e-14)
    assert np.max(np.abs(np.einsum("mij,mj->mi", a, v) - values[:, :1] * v)) <= 1e-13
    assert np.max(np.abs(np.abs(np.einsum("mi,mi->m", vectors[:, :, 0].conj(), v)) - 1.0)) <= 1e-12


@pytest.mark.parametrize("d", [5, 21])
def test_solver_rows_end_as_they_would_alone(d):
    # rows that certify at different iterations are frozen as they certify:
    # an already certified eigenvector comes back unchanged, and every row
    # equals its own lone solve bit for bit
    rng = np.random.default_rng(d)
    rx = np.array([rng.permutation(d) + 1.0 for _ in range(4)])
    rp = np.array([rng.permutation(d) + 1.0 for _ in range(4)])
    z = rng.standard_normal((4, d)) + 1j * rng.standard_normal((4, d))
    z /= np.linalg.norm(z, axis=1)[:, None]
    z[0] = _bottom_vectors(z[:1], rx[:1], rp[:1])[0][0]
    vectors, certified = _bottom_vectors(z, rx, rp)
    assert certified.all() and np.array_equal(vectors[0], z[0])
    for row in range(4):
        alone, alone_certified = _bottom_vectors(z[row : row + 1], rx[row : row + 1], rp[row : row + 1])
        assert np.array_equal(vectors[row], alone[0]) and alone_certified[0]


def test_finish_never_moves_to_a_lower_value():
    # a row credited with more than its eigenvector scores keeps its point and value
    d = 11
    objective = _combined_gini_objective(d)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 2 * d))
    x /= np.linalg.norm(x, axis=1)[:, None]
    z = x.view(np.complex128)
    credited = objective(z) + np.array([0.0, 2.0, 0.0])
    rows, values, certified = uncertainty._finish(z, credited)
    assert np.array_equal(rows[1], z[1]) and values[1] == credited[1]
    assert values[0] > credited[0] and values[2] > credited[2]
    assert certified.all()  # a certified solve without gain ends certified


@pytest.mark.parametrize(
    "d, pin", [(41, 1.682741672), (101, 1.806528511), (1001, 1.942364103), (4001, 1.971652331)]
)
def test_solver_reproduces_the_zigzag_floor(d, pin):
    # from the example state, the solver finds the bottom of the zig-zag pair
    # (both relative directions); the floor is 2 - 2/(d+1) * lambda_min
    objective = _combined_gini_objective(d)
    start = np.asarray(example_state(new_system(d)).amplitudes)[None, :]
    floors, solved = [], []
    for sign in (1, -1):
        rx, rp = zigzag_ranks(d)[None, :], zigzag_ranks(d, sign)[None, :]
        vectors, certified = _bottom_vectors(start, rx, rp)
        assert certified.all()
        mv = _ordering_rows(vectors, rx, rp)
        residual = mv - np.vdot(vectors[0], mv[0]).real * vectors
        assert np.linalg.norm(residual) <= uncertainty._RESIDUAL_TOL
        floor = 2.0 - 2.0 / (d + 1.0) * np.vdot(vectors[0], mv[0]).real
        # the eigenvector keeps the zig-zag orderings, so it scores the floor itself
        assert abs(objective(vectors)[0] - floor) <= 1e-12
        floors.append(floor)
        solved.append(vectors[0])
    assert abs(max(floors) - pin) <= 1e-9
    # the solver's complex rows go straight to the finish: each is already a
    # certified fixed point of its own orderings, so it comes back bit for bit
    solved = np.array(solved)
    scores = objective(solved)
    rows, values, certified = _finish(solved, scores)
    assert np.array_equal(rows, solved) and np.array_equal(values, scores)
    assert certified.all()
    assert abs(values.max() - pin) <= 1e-9


def test_budget_limited_estimate_is_finished_and_certified():
    # both restarts spend their 50 sweeps before the step falls below
    # MIN_STEP; finished anyway, the winner lands on the zig-zag floor
    d = 101
    est = estimate_sup_gini(new_system(d), restarts=2, iterations=50, seed=7)
    assert abs(est.g_sup_estimate - 1.806528511) <= 1e-9
    assert est.converged
    psi = est.best_state.amplitudes
    rx = own_ranks(np.abs(psi) ** 2)
    rp = own_ranks(np.abs(reference_fourier(d).conj() @ psi) ** 2)
    lowest = np.linalg.eigvalsh(dense_ordering_operator(rx, rp))[0]
    assert abs(est.g_sup_estimate - (2.0 - 2.0 / (d + 1.0) * lowest)) <= 1e-13


@pytest.mark.parametrize("d, pin", [(201, 1.866345764), (401, 1.907226665)])
def test_one_sweep_from_the_example_state_reaches_the_zigzag_floor(d, pin):
    est, _ = one_sweep_estimate(d)
    assert abs(est.g_sup_estimate - pin) <= 1e-9
    assert est.converged


def test_eta_estimate_validation(sys3, monkeypatch):
    from qgini.uncertainty import EtaEstimate

    for not_a_state in (None, pure_density(example_state(sys3)), example_state(sys3).amplitudes):
        with pytest.raises(ValidationError, match="best_state must be a StateVector"):
            EtaEstimate(not_a_state, 1, 1, 0, True)
    # a position state scores g = cap = 0.5, below the example state's 0.683
    with pytest.raises(ValidationError, match="below the achievable lower bound"):
        EtaEstimate(sys3.position_state(0), 1, 1, 0, True)
    # a scorer crediting both indices with the cap puts g at the strict ceiling
    monkeypatch.setattr(uncertainty, "_ginis", lambda x, pure=False: np.full(2, gini_cap(3)))
    with pytest.raises(ValidationError, match="reaches the strict bound"):
        EtaEstimate(example_state(sys3), 1, 1, 0, True)

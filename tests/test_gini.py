import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qgini import (
    DensityMatrix,
    GiniReport,
    ProbabilityDistribution,
    ValidationError,
    estimate_sup_gini,
    gini_cap,
    gini_index,
    gini_report,
    lorenz_curve,
    new_system,
    pure_density,
    random_density_matrix,
    random_state_vector,
)
from qgini import qsystem

from conftest import conjugated, displacement_matrix, reference_fourier, traced_peak


def weighted_gini_reference(p: np.ndarray) -> float:
    """Independent oracle: 1 - 2/(d+1) * sum_k (d-k) p_(k) over ascending p_(k)."""
    d = len(p)
    ordered = sorted(p)
    acc = sum((d - k) * ordered[k] for k in range(d))
    return 1.0 - (2.0 / (d + 1.0)) * acc


def test_gini_spot_value():
    val = gini_index(ProbabilityDistribution([0.2, 0.3, 0.5]))
    assert abs(val - 0.15) < 1e-12


def test_gini_uniform_is_zero():
    # clamped at the low end, but cumsum round-off can leave a positive ulp
    for d in (3, 5, 7, 9):
        g = gini_index(ProbabilityDistribution(np.full(d, 1.0 / d)))
        assert 0.0 <= g <= 1e-12


def test_gini_certain_outcome_hits_cap():
    for d in (3, 5, 7):
        p = np.zeros(d)
        p[d // 2] = 1.0
        assert abs(gini_index(ProbabilityDistribution(p)) - gini_cap(d)) < 1e-12


@pytest.mark.parametrize("d", [3, 5, 7])
def test_gini_agrees_with_weighted_reference(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(300):
        p = rng.dirichlet(np.ones(d))
        got = gini_index(ProbabilityDistribution(p))
        assert abs(got - max(weighted_gini_reference(p), 0.0)) <= 1e-12


def test_gini_range_on_random_states():
    rng = np.random.default_rng(55)
    for d in (3, 5, 7):
        system = new_system(d)
        cap = gini_cap(d)
        for _ in range(100):
            rep = gini_report(system, random_density_matrix(d, rng))
            assert 0.0 <= rep.g_x <= cap + 1e-12
            assert 0.0 <= rep.g_p <= cap + 1e-12


@pytest.mark.parametrize("d", [3, 5, 7])
def test_extremizers(d):
    system = new_system(d)
    cap = gini_cap(d)
    for r in range(d):
        rep_x = gini_report(system, pure_density(system.position_state(r)))
        assert abs(rep_x.g_x - cap) <= 1e-12 and abs(rep_x.g_p) <= 1e-12
        rep_p = gini_report(system, pure_density(system.momentum_state(r)))
        assert abs(rep_p.g_p - cap) <= 1e-12 and abs(rep_p.g_x) <= 1e-12
    flat = gini_report(system, system.maximally_mixed())
    assert max(flat.g_x, flat.g_p, flat.g_xp) <= 1e-12


def test_report_fields(sys3):
    rep = gini_report(sys3, sys3.maximally_mixed())
    assert rep.dim == 3
    assert rep.g_xp == rep.g_x + rep.g_p


def test_report_validation():
    with pytest.raises(ValidationError):
        GiniReport(3, -0.01, 0.1)
    with pytest.raises(ValidationError):
        GiniReport(3, 0.7, 0.0)
    with pytest.raises(ValidationError):
        GiniReport(3, 0.5, 0.5)  # sum reaches the strict bound


def test_density_report_keeps_no_copy_of_the_fourier_matrix():
    # the state is built first, so the momentum kernel's own memory is what
    # is traced: one gathered d x d complex array and its int32 index, not F
    # or a d x d product beside it
    d = 401
    system = new_system(d)
    rho = pure_density(random_state_vector(d, 3))
    _, peak = traced_peak(lambda: gini_report(system, rho))
    assert peak < 1.5 * 16 * d * d


def test_density_report_streams_its_momenta_under_the_stack_ceiling():
    # a d = 1001 projector takes 16 MB; its wrapped-diagonal sums are
    # streamed in blocks of at most the 256 KiB ceiling, and everything
    # else the report holds is a few arrays of d entries
    d = 1001
    system = new_system(d)
    rho = pure_density(random_state_vector(d, 5))
    report, peak = traced_peak(lambda: gini_report(system, rho))
    assert peak <= qsystem._STACK_BYTES + 64 * d
    saved = Path(__file__).parent / "data" / "report-pure-density-d1001-s5.txt"
    assert f"{report.g_x!r} {report.g_p!r}\n" == saved.read_text()


def test_density_report_leaves_no_cached_array_above_the_stack_ceiling():
    # only a d whose matrix fits the ceiling caches its gather index, a
    # quarter of the matrix's bytes
    qsystem._wrapped_diagonals.cache_clear()
    for d in (101, 1001):
        system = new_system(d)
        rho = pure_density(random_state_vector(d, 5))
        tracemalloc.start()
        try:
            gini_report(system, rho)
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert left < qsystem._STACK_BYTES, d


def test_subadditivity_under_mixing():
    rng = np.random.default_rng(60)
    system = new_system(5)
    for _ in range(150):
        rho = random_density_matrix(5, rng)
        sigma = random_density_matrix(5, rng)
        lam = float(rng.uniform())
        rep_m = gini_report(system, DensityMatrix(lam * rho.entries + (1.0 - lam) * sigma.entries))
        rep_a = gini_report(system, rho)
        rep_b = gini_report(system, sigma)
        for field in ("g_x", "g_p", "g_xp"):
            mixed = getattr(rep_m, field)
            split = lam * getattr(rep_a, field) + (1 - lam) * getattr(rep_b, field)
            assert mixed <= split + 1e-12


def test_position_mixtures_stay_under_single_cap():
    rng = np.random.default_rng(61)
    for d in (3, 5):
        cap = gini_cap(d)
        system = new_system(d)
        for _ in range(100):
            rho = DensityMatrix(np.diag(rng.dirichlet(np.ones(d))))
            assert gini_report(system, rho).g_xp <= cap + 1e-12


def test_comonotonic_mixtures_add_exactly():
    # diagonal states sharing an ascending order make the index affine
    # in the mixing weight
    rng = np.random.default_rng(62)
    system = new_system(5)
    for _ in range(100):
        perm = rng.permutation(5)
        pa = np.sort(rng.dirichlet(np.ones(5)))[perm]
        pb = np.sort(rng.dirichlet(np.ones(5)))[perm]
        lam = float(rng.uniform())
        rho, sigma = DensityMatrix(np.diag(pa)), DensityMatrix(np.diag(pb))
        g_mix = gini_report(system, DensityMatrix(lam * rho.entries + (1.0 - lam) * sigma.entries)).g_x
        g_split = lam * gini_report(system, rho).g_x + (1 - lam) * gini_report(system, sigma).g_x
        assert abs(g_mix - g_split) <= 1e-12


def test_sampled_states_stay_below_estimated_supremum():
    # random states plus every basis projector must sit under the optimizer's
    # maximum and leave a real gap to the 2*cap ceiling
    system = new_system(3)
    roof = estimate_sup_gini(system, restarts=8, iterations=400, seed=7).g_sup_estimate
    rng = np.random.default_rng(63)
    worst = 0.0
    for _ in range(300):
        worst = max(worst, gini_report(system, random_density_matrix(3, rng)).g_xp)
    for a in range(3):
        worst = max(worst, gini_report(system, pure_density(system.position_state(a))).g_xp)
        worst = max(worst, gini_report(system, pure_density(system.momentum_state(a))).g_xp)
    assert worst <= roof + 1e-9
    assert worst < 2.0 * gini_cap(3)


@pytest.mark.parametrize("d", [3, 5])
def test_displacement_invariance_exhaustive(d):
    system = new_system(d)
    rng = np.random.default_rng(70 + d)
    for _ in range(3):
        rho = random_density_matrix(d, rng)
        ref = gini_report(system, rho)
        ref_lx = lorenz_curve(system.position_probs(rho)).values
        ref_lp = lorenz_curve(system.momentum_probs(rho)).values
        for a in range(d):
            for b in range(d):
                moved = DensityMatrix(conjugated(rho.entries, displacement_matrix(system, a, b)))
                rep = gini_report(system, moved)
                assert abs(rep.g_xp - ref.g_xp) <= 1e-10
                assert np.max(np.abs(lorenz_curve(system.position_probs(moved)).values - ref_lx)) <= 1e-10
                assert np.max(np.abs(lorenz_curve(system.momentum_probs(moved)).values - ref_lp)) <= 1e-10


def test_fourier_conjugation_preserves_combined_index(sys5):
    rng = np.random.default_rng(75)
    for _ in range(20):
        rho = random_density_matrix(5, rng)
        swapped = DensityMatrix(conjugated(rho.entries, reference_fourier(5)))
        rep, ref = gini_report(sys5, swapped), gini_report(sys5, rho)
        assert abs(rep.g_x - ref.g_p) <= 1e-10
        assert abs(rep.g_xp - ref.g_xp) <= 1e-10


def test_coherent_family_shares_the_index(sys3):
    fid = sys3.default_fiducial()
    ref = gini_report(sys3, pure_density(sys3.coherent_state(fid, 0, 0)))
    for a in range(3):
        for b in range(3):
            rep = gini_report(sys3, pure_density(sys3.coherent_state(fid, a, b)))
            assert abs(rep.g_xp - ref.g_xp) <= 1e-10

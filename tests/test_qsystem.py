import numpy as np
import pytest

from qgini import (
    DegenerateFiducial,
    DensityMatrix,
    DimensionMismatch,
    DimensionTooLarge,
    DimensionTooSmall,
    EvenDimension,
    LorenzCurve,
    NotFinite,
    NotHermitian,
    NotNormalized,
    NotPositive,
    OrderingPermutation,
    ProbabilityDistribution,
    StateVector,
    TraceNotOne,
    UnitaryMatrix,
    ValidationError,
    WeightOutOfRange,
    conjugate,
    lorenz_curve,
    mix,
    new_system,
    pure_density,
    random_density_matrix,
    random_state_vector,
    validate_density,
)
from qgini import cli
from qgini.qsystem import MAX_DIM

from conftest import reference_fourier


# ---- construction and constants ----


def test_new_system_constants(sys3):
    assert sys3.d == 3
    assert sys3.half_inverse == 2
    assert abs(sys3.omega - complex(-0.5, 0.8660254)) < 1e-7
    assert abs(sys3.omega - np.exp(2j * np.pi / 3)) < 1e-12
    assert new_system(7).half_inverse == 4
    assert new_system(11).half_inverse == 6


@pytest.mark.parametrize("bad", [0, 2, 4, 10])
def test_even_dimension_rejected(bad):
    with pytest.raises(EvenDimension):
        new_system(bad)


@pytest.mark.parametrize("bad", [1, -3])
def test_small_dimension_rejected(bad):
    with pytest.raises(DimensionTooSmall):
        new_system(bad)


@pytest.mark.parametrize("bad", [MAX_DIM + 2, 200001, 10**18 + 1])
def test_large_dimension_rejected_before_allocation(bad):
    # refused by check_dimension, before the dense Fourier matrix is built
    with pytest.raises(DimensionTooLarge, match=f"at most {MAX_DIM}"):
        new_system(bad)


@pytest.mark.parametrize("d", [3, 5, 9])
def test_omega_is_primitive_root(d):
    omega = new_system(d).omega
    assert abs(omega**d - 1.0) < 1e-12
    for k in range(1, d):
        assert abs(omega**k - 1.0) > 1e-12


def test_fourier_matches_reference(sys3, sys5):
    for system in (sys3, sys5):
        assert np.max(np.abs(system.fourier.entries - reference_fourier(system.d))) < 1e-12


def test_fourier_first_row_flat(sys3):
    assert np.max(np.abs(sys3.fourier.entries[0] - 0.5773503)) < 1e-7


def test_basis_states(sys5):
    e2 = sys5.position_state(2)
    assert e2.amplitudes[2] == 1.0 and np.count_nonzero(e2.amplitudes) == 1
    m1 = sys5.momentum_state(1)
    assert np.max(np.abs(m1.amplitudes - sys5.fourier.entries[:, 1])) == 0.0


# ---- displacements ----


def test_displacement_identity(sys3):
    assert np.array_equal(sys3.displacement(0, 0).entries, np.eye(3))


def test_displacement_clock_diagonal(sys3):
    got = np.diagonal(sys3.displacement(1, 0).entries)
    want = np.array([1.0, sys3.omega, sys3.omega**2])
    assert np.max(np.abs(got - want)) < 1e-12


def test_displacement_shift(sys3):
    d10 = sys3.displacement(0, 1).entries
    for s in range(3):
        assert d10[(s + 1) % 3, s] == 1.0
    assert np.count_nonzero(d10) == 3


@pytest.mark.parametrize("d", [3, 5])
def test_displacement_against_clock_shift_product(d):
    # reference route: explicit Z^a X^b matrices times the phase correction
    system = new_system(d)
    half = (d + 1) // 2
    omega = np.exp(2j * np.pi / d)
    z = np.diag(omega ** np.arange(d))
    x = np.zeros((d, d))
    for s in range(d):
        x[(s + 1) % d, s] = 1.0
    for a in range(d):
        for b in range(d):
            want = np.linalg.matrix_power(z, a) @ np.linalg.matrix_power(x, b)
            want = want * omega ** ((-half * a * b) % d)
            got = system.displacement(a, b).entries
            assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("d", [3, 5, 7])
def test_displacement_dagger_pairing_exhaustive(d):
    system = new_system(d)
    for a in range(d):
        for b in range(d):
            dev = np.max(
                np.abs(system.displacement(a, b).dagger().entries - system.displacement(-a, -b).entries)
            )
            assert dev <= 1e-12


def test_displacement_dagger_pairing_sampled():
    system = new_system(9)
    rng = np.random.default_rng(2024)
    for a, b in rng.integers(0, 9, size=(100, 2)):
        dev = np.max(
            np.abs(
                system.displacement(int(a), int(b)).dagger().entries
                - system.displacement(-int(a), -int(b)).entries
            )
        )
        assert dev <= 1e-12


def test_displacement_indices_wrap(sys5):
    assert np.array_equal(sys5.displacement(7, -3).entries, sys5.displacement(2, 2).entries)


# ---- coherent states ----


def test_coherent_zero_displacement_is_fiducial(sys3):
    fid = sys3.default_fiducial()
    out = sys3.coherent_state(fid, 0, 0)
    assert np.max(np.abs(out.amplitudes - fid.amplitudes)) < 1e-12


def test_coherent_rejects_basis_fiducials(sys3):
    with pytest.raises(DegenerateFiducial):
        sys3.coherent_state(sys3.position_state(0), 1, 1)
    with pytest.raises(DegenerateFiducial):
        sys3.coherent_state(sys3.momentum_state(2), 1, 1)


def test_coherent_dimension_mismatch(sys3):
    with pytest.raises(DimensionMismatch):
        sys3.coherent_state(new_system(5).default_fiducial(), 0, 0)


def test_default_fiducial_is_admissible(sys5):
    fid = sys5.default_fiducial()
    assert np.max(np.abs(fid.amplitudes)) < 1.0 - 1e-9
    assert np.max(np.abs(sys5.fourier_dag @ fid.amplitudes)) < 1.0 - 1e-9


@pytest.mark.parametrize("d", [3, 5])
def test_coherent_resolution_of_identity(d):
    system = new_system(d)
    fiducials = (
        system.default_fiducial(),
        StateVector.normalized(np.arange(d, 0, -1) + 0.5j),
        random_state_vector(d, 99),
    )
    for fid in fiducials:
        total = np.zeros((d, d), dtype=np.complex128)
        for a in range(d):
            for b in range(d):
                amp = system.coherent_state(fid, a, b).amplitudes
                total += np.outer(amp, amp.conj())
        assert np.max(np.abs(total / d - np.eye(d))) <= 1e-10


# ---- state vectors and density matrices ----


def test_state_vector_norm_enforced():
    with pytest.raises(NotNormalized):
        StateVector([1.0, 1.0])
    with pytest.raises(NotNormalized):
        StateVector.normalized([0.0, 0.0, 0.0])
    st = StateVector.normalized([3.0, 4.0])
    assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12


def test_unitary_validation():
    with pytest.raises(ValidationError):
        UnitaryMatrix(np.ones((3, 3)))
    u = UnitaryMatrix(np.eye(3) * 1j)
    assert np.max(np.abs(u.dagger().entries + np.eye(3) * 1j)) == 0.0


def test_pure_density_projector(sys3):
    rho = pure_density(sys3.position_state(0))
    assert rho.entries[0, 0] == 1.0
    assert np.count_nonzero(rho.entries) == 1
    sq = rho.entries @ rho.entries
    assert np.max(np.abs(sq - rho.entries)) < 1e-12


def test_pure_density_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        pure_density(np.array([1.0, 1.0, 0.0]))


def test_validate_density_accepts_identity_third():
    rho = validate_density(np.eye(3) / 3)
    assert rho.dim == 3


def test_validate_density_taxonomy():
    bad_herm = np.eye(3, dtype=complex) / 3
    bad_herm[0, 1] = 0.2
    with pytest.raises(NotHermitian):
        validate_density(bad_herm)
    with pytest.raises(TraceNotOne):
        validate_density(np.eye(3) * 2.0 / 3.0)
    with pytest.raises(NotPositive):
        validate_density(np.diag([1.5, -0.5, 0.0]))


def test_mix_arithmetic(sys3):
    rho = pure_density(sys3.position_state(0))
    sigma = sys3.maximally_mixed()
    tau = mix(rho, sigma, 0.25)
    want = 0.25 * rho.entries + 0.75 * sigma.entries
    assert np.max(np.abs(tau.entries - want)) == 0.0


def test_mix_edge_weights(sys3):
    rho = pure_density(sys3.position_state(0))
    sigma = sys3.maximally_mixed()
    assert np.max(np.abs(mix(rho, sigma, 1.0).entries - rho.entries)) == 0.0
    assert np.max(np.abs(mix(rho, sigma, 0.0).entries - sigma.entries)) == 0.0
    assert np.max(np.abs(mix(rho, rho, 0.3).entries - rho.entries)) < 1e-15


def test_mix_weight_and_dim_validation(sys3):
    rho = sys3.maximally_mixed()
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(WeightOutOfRange):
            mix(rho, rho, bad)
    with pytest.raises(DimensionMismatch):
        mix(rho, new_system(5).maximally_mixed(), 0.5)


# ---- measurement distributions ----


def test_position_probs_are_diagonal(sys3):
    rho = random_density_matrix(3, 11)
    px = sys3.position_probs(rho)
    assert np.max(np.abs(px.probs - np.diagonal(rho.entries).real)) == 0.0
    assert abs(px.probs.sum() - 1.0) <= 1e-10


def test_momentum_probs_match_reference_rotation(sys5):
    # reference route: conjugate by an independently built Fourier matrix
    rho = random_density_matrix(5, 12)
    f = reference_fourier(5)
    want = np.diagonal(f.conj().T @ rho.entries @ f).real
    got = sys5.momentum_probs(rho).probs
    assert np.max(np.abs(got - want)) < 1e-12


def test_momentum_projector_probs(sys3):
    rho = pure_density(sys3.momentum_state(2))
    pp = sys3.momentum_probs(rho)
    assert np.max(np.abs(pp.probs - np.array([0.0, 0.0, 1.0]))) < 1e-12


def test_position_projector_is_momentum_flat(sys3):
    # the two bases are mutually unbiased
    rho = pure_density(sys3.position_state(0))
    pp = sys3.momentum_probs(rho)
    assert np.max(np.abs(pp.probs - 1.0 / 3.0)) < 1e-12


def test_probability_clamping():
    p = ProbabilityDistribution([-5e-13, 0.5, 0.5 + 5e-13])
    assert p.probs[0] == 0.0
    with pytest.raises(NotPositive):
        ProbabilityDistribution([-1e-9, 0.5, 0.5])
    with pytest.raises(NotNormalized):
        ProbabilityDistribution([0.2, 0.2, 0.2])


def test_distribution_dimension_guard(sys3):
    with pytest.raises(DimensionMismatch):
        sys3.position_probs(new_system(5).maximally_mixed())


# ---- conjugation ----


def test_conjugate_by_identity(sys3):
    rho = random_density_matrix(3, 21)
    same = conjugate(rho, UnitaryMatrix(np.eye(3)))
    assert np.max(np.abs(same.entries - rho.entries)) == 0.0


def test_conjugate_by_fourier_swaps_distributions(sys5):
    rho = random_density_matrix(5, 22)
    swapped = conjugate(rho, sys5.fourier)
    assert np.max(np.abs(sys5.position_probs(swapped).probs - sys5.momentum_probs(rho).probs)) < 1e-12


def test_conjugate_fourier_flattens_position_projector(sys3):
    rho = conjugate(pure_density(sys3.position_state(0)), sys3.fourier)
    assert np.max(np.abs(sys3.position_probs(rho).probs - 1.0 / 3.0)) < 1e-12


def test_conjugate_fixes_maximally_mixed(sys3):
    rho = sys3.maximally_mixed()
    for u in (sys3.fourier, sys3.displacement(1, 2)):
        assert np.max(np.abs(conjugate(rho, u).entries - rho.entries)) < 1e-12


def test_conjugate_dimension_mismatch(sys3):
    with pytest.raises(DimensionMismatch):
        conjugate(sys3.maximally_mixed(), new_system(5).fourier)


def test_maximally_mixed_is_flat_everywhere(sys7):
    rho = sys7.maximally_mixed()
    assert np.max(np.abs(sys7.position_probs(rho).probs - 1.0 / 7.0)) < 1e-15
    assert np.max(np.abs(sys7.momentum_probs(rho).probs - 1.0 / 7.0)) < 1e-12


# ---- validation at the boundary ----


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: StateVector([x, 0.0, 0.0]),
        lambda x: validate_density(np.diag([x, 0.5, 0.5])),
        lambda x: UnitaryMatrix(np.diag([x, 1.0, 1.0])),
        lambda x: ProbabilityDistribution([x, 0.5, 0.5]),
    ],
    ids=["StateVector", "DensityMatrix", "UnitaryMatrix", "ProbabilityDistribution"],
)
def test_constructors_reject_non_finite_values(build, bad):
    with pytest.raises(ValidationError):
        build(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: StateVector([x, 0.0, 0.0]),
        lambda x: DensityMatrix(np.diag([x, 0.5, 0.5])),
        lambda x: UnitaryMatrix(np.diag([x, 1.0, 1.0])),
    ],
    ids=["StateVector", "DensityMatrix", "UnitaryMatrix"],
)
def test_non_finite_entries_are_named_before_any_arithmetic(build, bad):
    # RuntimeWarnings are errors in this suite, so a NaN or inf reaching
    # numpy arithmetic first would fail here too
    with pytest.raises(NotFinite, match="NaN or infinite"):
        build(bad)


@pytest.mark.parametrize("huge", [1e200, -1e308, complex(0.0, 1e300)])
def test_huge_finite_amplitudes_rejected_without_overflow(huge):
    with pytest.raises(NotNormalized, match="exceeds 1"):
        StateVector([huge, 0.0, 0.0])


@pytest.mark.parametrize("d", [3, 5, 11, 41])
def test_trusted_results_pass_the_public_validators(d):
    # internal results skip the constructors' checks because they hold by
    # construction; re-running the public validators on them proves it
    system = new_system(d)
    rng = np.random.default_rng(500 + d)
    rho, sigma = random_density_matrix(d, rng), random_density_matrix(d, rng)
    a, b = (int(v) for v in rng.integers(0, d, size=2))
    unitaries = [system.fourier, system.displacement(a, b), system.displacement(a, b).dagger()]
    densities = [
        system.maximally_mixed(),
        pure_density(random_state_vector(d, rng)),
        rho,
        mix(rho, sigma, float(rng.uniform())),
        conjugate(rho, system.displacement(a, b)),
        conjugate(rho, system.fourier),
    ]
    for u in unitaries:
        assert not u.entries.flags.writeable
        UnitaryMatrix(u.entries)
    for r in densities:
        assert not r.entries.flags.writeable
        validate_density(r.entries)
    for r in densities:
        for p in (system.position_probs(r), system.momentum_probs(r)):
            curve = lorenz_curve(p)
            assert not curve.values.flags.writeable and not curve.permutation.order.flags.writeable
            LorenzCurve(OrderingPermutation(d, curve.permutation.order), curve.values)


def test_internal_ops_skip_the_dense_revalidation(monkeypatch, capsys):
    # eigvalsh (positivity) and U U^dag (unitarity) run only at the boundary,
    # never on the way from a dimension to a report or an estimate
    def refuse(*args, **kwargs):
        raise AssertionError("validation ran on an internal result")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for cls in (UnitaryMatrix, DensityMatrix, OrderingPermutation, LorenzCurve):
        monkeypatch.setattr(cls, "__init__", refuse)
    assert cli.run(["example", "--dim", "5"]) == 0
    assert cli.run(["estimate", "--dim", "5", "--restarts", "2", "--iters", "50"]) == 0
    capsys.readouterr()

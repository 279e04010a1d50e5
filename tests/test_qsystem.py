import numpy as np
import pytest

from qgini import (
    BoundSet,
    DegenerateFiducial,
    DensityMatrix,
    DimensionMismatch,
    DimensionTooLarge,
    DimensionTooSmall,
    EtaEstimate,
    EvenDimension,
    GiniReport,
    NotFinite,
    NotHermitian,
    NotNormalized,
    NotPositive,
    ProbabilityDistribution,
    QuantumSystem,
    StateVector,
    TraceNotOne,
    ValidationError,
    estimate_sup_gini,
    example_state,
    gini_report,
    lorenz_curve,
    new_system,
    pure_density,
    random_density_matrix,
    random_state_vector,
    split_seed,
    validate_density,
)
from qgini import cli, qsystem
from qgini.checks import run_property_checks
from qgini.qsystem import MAX_DIM, _fourier_conjugated

from conftest import conjugated, displacement_matrix, reference_fourier, traced_peak


# ---- construction and constants ----


def test_new_system_constants(sys3):
    assert sys3.d == 3
    assert sys3.half_inverse == 2
    # the clock phase of D(1, 0) at position 1 is the primitive root exp(2*pi*i/3)
    omega = displacement_matrix(sys3, 1, 0)[1, 1]
    assert abs(omega - complex(-0.5, 0.8660254)) < 1e-7
    assert abs(omega - np.exp(2j * np.pi / 3)) < 1e-12
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


def _estimate(restarts=1, iterations=1, seed=0):
    return EtaEstimate(example_state(new_system(3)), restarts, iterations, seed, True)


def _coherent(alpha, beta):
    system = new_system(5)
    return system.coherent_state(system.default_fiducial(), alpha, beta)


# each library entry point that takes an integer (a dimension, count, seed or
# phase-space index), and the name its message uses
INTEGER_INPUTS = {
    "QuantumSystem": ("dimension", lambda v: QuantumSystem(v)),
    "BoundSet": ("dimension", lambda v: BoundSet(v)),
    "split_seed": ("seed", lambda v: split_seed(v, 0)),
    "split_seed-index": ("index", lambda v: split_seed(7, v)),
    "estimate-seed": ("seed", lambda v: estimate_sup_gini(new_system(3), restarts=1, iterations=1, seed=v)),
    "estimate-restarts": ("restarts", lambda v: estimate_sup_gini(new_system(3), restarts=v, iterations=1)),
    "check-samples": ("samples", lambda v: run_property_checks(5, samples=v)),
    "EtaEstimate-restarts": ("restarts", lambda v: _estimate(restarts=v)),
    "EtaEstimate-iterations": ("iterations", lambda v: _estimate(iterations=v)),
    "EtaEstimate-seed": ("seed", lambda v: _estimate(seed=v)),
    "GiniReport": ("dimension", lambda v: GiniReport(v, 0.1, 0.2)),
    "position_state": ("r", lambda v: new_system(5).position_state(v)),
    "momentum_state": ("r", lambda v: new_system(5).momentum_state(v)),
    "coherent_state-alpha": ("alpha", lambda v: _coherent(v, 0)),
    "coherent_state-beta": ("beta", lambda v: _coherent(0, v)),
}


@pytest.mark.parametrize("bad", [5.5, 5.0, np.float64(5.0), True, np.bool_(True), "5", None], ids=repr)
@pytest.mark.parametrize("entry", INTEGER_INPUTS)
def test_non_integer_inputs_are_refused_not_truncated(entry, bad):
    name, call = INTEGER_INPUTS[entry]
    with pytest.raises(ValidationError) as info:
        call(bad)
    assert type(info.value) is ValidationError
    assert str(info.value) == f"{name} must be an integer, got {bad!r}"


def test_numpy_integers_count_as_integers():
    assert QuantumSystem(np.int64(5)).d == 5
    assert BoundSet(np.int32(5)).g_lower == BoundSet(5).g_lower
    assert split_seed(np.uint64(7), np.int8(2)) == split_seed(7, 2)
    system = new_system(3)
    numpy_budget = estimate_sup_gini(system, restarts=np.int64(2), iterations=np.int16(5), seed=np.int64(4))
    assert numpy_budget.g_sup_estimate == estimate_sup_gini(system, restarts=2, iterations=5, seed=4).g_sup_estimate
    assert run_property_checks(np.int64(5), samples=np.int64(3)) == run_property_checks(5, samples=3)


def test_result_types_and_indices_take_numpy_and_negative_integers(sys5):
    est = EtaEstimate(example_state(new_system(3)), np.int64(2), np.int16(5), np.uint64(2**64 - 1), True)
    assert (est.dim, est.restarts, est.iterations, est.seed) == (3, 2, 5, 2**64 - 1)
    assert type(est.restarts) is int and type(est.seed) is int
    assert GiniReport(np.int64(5), 0.1, 0.2).dim == 5
    assert np.array_equal(sys5.position_state(np.int8(-1)).amplitudes, sys5.position_state(4).amplitudes)
    assert np.array_equal(sys5.momentum_state(np.uint16(7)).amplitudes, sys5.momentum_state(2).amplitudes)
    assert np.array_equal(displacement_matrix(sys5, np.int32(-2), np.int64(8)), displacement_matrix(sys5, 3, 3))
    fid = sys5.default_fiducial()
    assert np.array_equal(
        sys5.coherent_state(fid, -1, np.int64(2)).amplitudes, sys5.coherent_state(fid, 4, 2).amplitudes
    )


@pytest.mark.parametrize("d", [3, 5, 9])
def test_omega_is_primitive_root(d):
    # the (1, 1) entry of D(1, 0) is the root the system's phases are built from
    omega = displacement_matrix(new_system(d), 1, 0)[1, 1]
    assert abs(omega**d - 1.0) < 1e-12
    for k in range(1, d):
        assert abs(omega**k - 1.0) > 1e-12


def test_fourier_matches_reference(sys3, sys5):
    for system in (sys3, sys5):
        assert np.max(np.abs(system._fourier_rows(np.arange(system.d)) - reference_fourier(system.d))) < 1e-12


def test_fourier_first_row_flat(sys3):
    assert np.max(np.abs(sys3._fourier_rows(np.arange(3))[0] - 0.5773503)) < 1e-7


def test_basis_states(sys5):
    e2 = sys5.position_state(2)
    assert e2.amplitudes[2] == 1.0 and np.count_nonzero(e2.amplitudes) == 1
    m1 = sys5.momentum_state(1)
    assert np.max(np.abs(m1.amplitudes - sys5._fourier_rows(np.arange(5))[:, 1])) == 0.0


# ---- displacements ----


def test_displacement_identity(sys3):
    assert np.array_equal(displacement_matrix(sys3, 0, 0), np.eye(3))


def test_displacement_clock_diagonal(sys3):
    got = np.diagonal(displacement_matrix(sys3, 1, 0))
    omega = np.exp(2j * np.pi / 3)
    want = np.array([1.0, omega, omega**2])
    assert np.max(np.abs(got - want)) < 1e-12


def test_displacement_shift(sys3):
    d10 = displacement_matrix(sys3, 0, 1)
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
            got = displacement_matrix(system, a, b)
            assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("d", [3, 5, 7])
def test_displacement_dagger_pairing_exhaustive(d):
    system = new_system(d)
    for a in range(d):
        for b in range(d):
            dev = np.max(
                np.abs(displacement_matrix(system, a, b).conj().T - displacement_matrix(system, -a, -b))
            )
            assert dev <= 1e-12


def test_displacement_dagger_pairing_sampled():
    system = new_system(9)
    rng = np.random.default_rng(2024)
    for a, b in rng.integers(0, 9, size=(100, 2)):
        dev = np.max(
            np.abs(
                displacement_matrix(system, int(a), int(b)).conj().T
                - displacement_matrix(system, -int(a), -int(b))
            )
        )
        assert dev <= 1e-12


def test_displacement_indices_wrap(sys5):
    assert np.array_equal(displacement_matrix(sys5, 7, -3), displacement_matrix(sys5, 2, 2))


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


@pytest.mark.parametrize("d", [3, 5, 41])
def test_coherent_guard_matches_the_exact_overlaps(d):
    system = new_system(d)
    rng = np.random.default_rng(900 + d)
    limit = 1.0 - 1e-9
    fiducials = [np.exp(2j * np.pi * rng.uniform(size=d)) / np.sqrt(d)]  # flat moduli, bound exactly 1
    for base in (system.position_state(1), system.momentum_state(d - 1)):
        for t in (1e-6, 3e-5, 4.4e-5, 4.5e-5, 6e-5, 1e-3):
            noise = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            fiducials.append(np.cos(t) * base.amplitudes + np.sin(t) * noise / np.linalg.norm(noise))
    for values in fiducials:
        f = StateVector.normalized(values)
        exact = max(np.max(np.abs(f.amplitudes)), np.max(np.abs(reference_fourier(d).conj() @ f.amplitudes)))
        if exact >= limit:
            with pytest.raises(DegenerateFiducial):
                system.coherent_state(f, 1, 1)
        else:
            system.coherent_state(f, 1, 1)


def test_coherent_dimension_mismatch(sys3):
    with pytest.raises(DimensionMismatch):
        sys3.coherent_state(new_system(5).default_fiducial(), 0, 0)


def test_default_fiducial_is_admissible(sys5):
    fid = sys5.default_fiducial()
    assert np.max(np.abs(fid.amplitudes)) < 1.0 - 1e-9
    assert np.max(np.abs(reference_fourier(5).conj() @ fid.amplitudes)) < 1.0 - 1e-9


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


def _dense_displacement(d, a, b):
    # the dense recipe: D[(s + b) % d, s] = omega**((a*(s + b) - half*a*b) % d)
    half = (d + 1) // 2
    cols = np.arange(d)
    rows = (cols + b) % d
    m = np.zeros((d, d), dtype=np.complex128)
    m[rows, cols] = np.exp(2j * np.pi * np.arange(d) / d)[(a * rows - half * a * b) % d]
    return m


def _displacement_pairs(d, rng):
    if d <= 7:
        return [(a, b) for a in range(d) for b in range(d)]
    return [(int(a), int(b)) for a, b in rng.integers(0, d, size=(100, 2))]


@pytest.mark.parametrize("d", [3, 5, 7, 41])
def test_coherent_state_matches_the_dense_displacement(d):
    system = new_system(d)
    rng = np.random.default_rng(1300 + d)
    for fid in (system.default_fiducial(), random_state_vector(d, rng)):
        for a, b in _displacement_pairs(d, rng):
            dense = _dense_displacement(d, a, b)
            assert np.array_equal(displacement_matrix(system, a, b), dense)
            want = StateVector.normalized(dense @ fid.amplitudes).amplitudes
            assert np.max(np.abs(system.coherent_state(fid, a, b).amplitudes - want)) <= 1e-15


def test_coherent_state_builds_no_dense_displacement():
    # a dense D at d = 1001 takes 16 MB; a coherent state needs O(d) memory
    system = new_system(1001)
    fid = system.default_fiducial()
    want = StateVector.normalized(_dense_displacement(1001, 2, 3) @ fid.amplitudes).amplitudes
    state, peak = traced_peak(lambda: system.coherent_state(fid, 2, 3))
    assert np.max(np.abs(state.amplitudes - want)) <= 1e-15
    assert peak < 2**20


@pytest.mark.parametrize("d", [3, 5, 11, 41])
def test_displaced_shift_array_gives_the_coherent_rows(d):
    # one call with an array of shifts displaces a fiducial once per shift;
    # each row must be the coherent state of that shift, bit for bit
    system = new_system(d)
    rng = np.random.default_rng(1400 + d)
    raw = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    raw *= np.sqrt(1.0 + 5e-11) / np.linalg.norm(raw)
    shifts = np.arange(-d, 2 * d)
    for fid in (system.default_fiducial().amplitudes, random_state_vector(d, rng).amplitudes, raw):
        for a in (0, 1, 2, d - 1, -3, d + 4):
            rows = system._displaced(fid, a, shifts)
            assert rows.shape == (shifts.size, d)
            for b, row in zip(shifts, rows):
                assert np.array_equal(row, system.coherent_state(fid, a, int(b)).amplitudes)
    for a in (0, 1, 2, d - 1):
        for b in (0, 1, d - 2, d - 1):
            assert np.array_equal(displacement_matrix(system, a, b), _dense_displacement(d, a, b))


# the resolution suite displaces a fiducial by chunks of 4 alphas against
# every shift in one call; each row must be the lone coherent state, bit for
# bit, and keep the bits of the (n, d, d) phase index formula
@pytest.mark.parametrize("d", [5, 41, 101])
def test_chunks_of_alphas_give_the_lone_coherent_states(d):
    system = new_system(d)
    fid = system.default_fiducial()
    ks = np.arange(d)
    for chunk in (np.arange(4), np.array([d - 1, 2, -3, d + 4])):
        rows = system._displaced(fid.amplitudes, chunk[:, None], ks)
        assert rows.shape == (4, d, d)
        a, b = chunk[:, None, None] % d, ks[:, None]
        phases = system._omega_pow[(a * ks - system.half_inverse * a * b) % d]
        assert np.array_equal(bits(rows), bits(np.multiply(phases, fid.amplitudes[(ks - b) % d])))
        for alpha, block in zip(chunk, rows):
            for beta, row in enumerate(block):
                assert np.array_equal(bits(row), bits(system.coherent_state(fid, int(alpha), beta).amplitudes))


def reference_displaced_densities(system, rho, alpha, beta):
    # the index formula the window and Toeplitz views replace: an (n, d, d)
    # phase index and an (n, d, d) gather of rho's rows and columns
    d = system.d
    ks = np.arange(d)
    a, rows = np.asarray(alpha)[:, None, None] % d, (ks + np.asarray(beta)[:, None]) % d
    return system._omega_pow[a * (ks - ks[:, None]) % d] * rho[rows[..., None], rows[:, None]]


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


# 1 pair, 13 pairs and at least 256 KiB of pairs (numpy's product changes
# buffers there), with negative and out-of-range alpha and beta
@pytest.mark.parametrize("d", [3, 5, 11, 41, 101])
def test_displaced_densities_keep_the_bits_of_the_index_formula(d):
    system = new_system(d)
    rng = np.random.default_rng(1500 + d)
    rho = random_density_matrix(d, rng).entries
    edges = np.array([[-1, d, -d - 2, 3 * d + 1], [d + 2, -1, 2 * d, -3 * d - 1]])
    counts = (13, max(13, -(-(2**18) // (16 * d * d))))
    drawn = [np.hstack((edges, rng.integers(-3 * d, 3 * d, size=(2, n - 4)))) for n in counts]
    for pairs in (edges[:, :1], *drawn):
        got = system._displaced_densities(rho, *pairs)
        assert got.shape == (pairs.shape[1], d, d)
        assert np.array_equal(bits(got), bits(reference_displaced_densities(system, rho, *pairs)))
    assert got.nbytes >= 2**18


# ---- state vectors and density matrices ----


def test_state_vector_norm_enforced():
    with pytest.raises(NotNormalized):
        StateVector([1.0, 1.0])
    with pytest.raises(NotNormalized):
        StateVector.normalized([0.0, 0.0, 0.0])
    st = StateVector.normalized([3.0, 4.0])
    assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "values, error",
    [
        ([np.nan, 1.0], NotFinite),
        ([np.inf, 1.0], NotFinite),
        ([-np.inf, 0.0], NotFinite),
        ([complex(0.0, np.nan), 1.0], NotFinite),
        ([1e200, 1e200], NotNormalized),  # finite entries, but the norm overflows
        ([0.0, 0.0, 0.0], NotNormalized),
        ([1e-160, 1e-160], NotNormalized),  # the squares underflow, so the quotient is not a unit vector
    ],
    ids=["nan", "inf", "-inf", "complex-nan", "overflow", "zero", "underflow"],
)
def test_normalized_rejects_vectors_it_cannot_scale(values, error):
    # RuntimeWarnings are errors in this suite, so this also proves none is raised
    with pytest.raises(error):
        StateVector.normalized(values)


def test_normalized_results_pass_the_public_validator():
    rng = np.random.default_rng(31)
    for values in ([3.0, 4.0], [1e-150, 2e-150], [1e150, -1e150j], rng.standard_normal(41) + 1j * rng.standard_normal(41)):
        st = StateVector.normalized(values)
        assert not st.amplitudes.flags.writeable
        assert st.dim == len(values)
        StateVector(st.amplitudes)


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


# positivity is one Cholesky factorization of rho + EIGEN_TOL I; a matrix
# it refuses is judged by its smallest eigenvalue, which the message names.
# At exactly -EIGEN_TOL the shift is singular, so the eigenvalue test
# accepts what the factorization refuses
@pytest.mark.parametrize(
    "low, accepted, eigen_calls",
    [(0.0, True, 0), (-0.5, True, 0), (-1.0, True, 1), (-2.0, False, 1)],
    ids=["zero", "half-tol", "tol", "twice-tol"],
)
@pytest.mark.parametrize("d", [3, 41])
def test_positivity_is_one_factorization_then_the_eigenvalues(monkeypatch, d, low, accepted, eigen_calls):
    low *= qsystem.EIGEN_TOL
    diagonal = np.full(d, 1.0 / (d - 1))
    diagonal[0] -= low
    diagonal[-1] = low
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(m):
        calls.append(m.shape)
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    if accepted:
        # the factorization shifts the matrix in place and restores its diagonal
        entries = validate_density(np.diag(diagonal)).entries
        assert np.array_equal(entries.view(np.uint64), np.diag(diagonal).astype(complex).view(np.uint64))
    else:
        with pytest.raises(NotPositive, match=r"^matrix is not positive semidefinite: smallest eigenvalue -2\.000e-10$"):
            validate_density(np.diag(diagonal))
    assert len(calls) == eigen_calls
    # the same spectrum in a rotated basis takes the same path; at exactly
    # -EIGEN_TOL the rotation's round-off picks the side, so it is left out
    q, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))
    rotated = (q * diagonal) @ q.T
    if low > -qsystem.EIGEN_TOL:
        assert validate_density(rotated).dim == d
        assert len(calls) == eigen_calls
    elif not accepted:
        with pytest.raises(NotPositive, match=r"smallest eigenvalue -2\.000e-10$"):
            validate_density(rotated)


# ---- measurement distributions ----


def test_position_probs_are_diagonal(sys3):
    rho = random_density_matrix(3, 11)
    px = sys3.position_probs(rho)
    assert np.max(np.abs(px.probs - np.diagonal(rho.entries).real)) == 0.0
    assert abs(px.probs.sum() - 1.0) <= 1e-10


def test_momentum_probs_match_reference_rotation():
    # reference route: the full rotation F^dag rho F by an independently
    # built Fourier matrix, against the FFT of the wrapped-diagonal sums
    for d in (3, 5, 101, 201, 1001):
        rho = random_density_matrix(d, 12)
        f = reference_fourier(d)
        want = np.diagonal(f.conj().T @ rho.entries @ f).real
        got = new_system(d).momentum_probs(rho).probs
        assert np.max(np.abs(got - want)) < 1e-12, d


def reference_density_momenta(x):
    # the momentum kernel with its wrapped-diagonal index built on every call
    d = x.shape[-1]
    r = np.arange(d, dtype=np.int32)[:, None]
    c = x.reshape(*x.shape[:-2], d * d)[..., (r + r.T) % d + d * r].sum(axis=-2)
    return qsystem._clamped(np.fft.ifft(np.ascontiguousarray(c)).real)


# stacks of at most the 256 KiB ceiling are gathered through the cached
# index; a lone state from d = 201 and 9 states from d = 101 cross it and
# are streamed in blocks of rows
@pytest.mark.parametrize("d", [3, 5, 41, 101, 201, 1001])
def test_density_momenta_keep_the_bits_of_a_fresh_index(d):
    if 16 * d * d <= qsystem._STACK_BYTES:
        index = qsystem._wrapped_diagonals(d)
        r = np.arange(d)[:, None]
        assert index.dtype == np.int32 and not index.flags.writeable
        assert np.array_equal(index, (r + r.T) % d + d * r)
        assert qsystem._wrapped_diagonals(d) is index
        with pytest.raises(ValueError):
            index[0, 0] = 1
    rng = np.random.default_rng(1600 + d)
    # two 16 MB states at d = 1001 already cross the ceiling
    stack = np.stack([random_density_matrix(d, rng).entries for _ in range(9 if d <= 201 else 2)])
    for x in (stack[0], stack):
        assert np.array_equal(bits(qsystem._momentum_rows(x, False)), bits(reference_density_momenta(x)))


# blocks of 2 rows (the carried sums and one row, the smallest, which a
# 1-byte ceiling gives), 5 and 15 rows (a last block cut short), for a lone
# state and stacks with one and two leading axes
@pytest.mark.parametrize("d, rows", [(3, 2), (5, 2), (41, 2), (41, 5), (41, 15)])
def test_streamed_density_momenta_keep_the_bits_of_one_gather(monkeypatch, d, rows):
    rng = np.random.default_rng(1700 + d)
    stack = np.stack([random_density_matrix(d, rng).entries for _ in range(6)])
    for x in (stack[0], stack, stack.reshape(2, 3, d, d)):
        want = reference_density_momenta(x)
        ceiling = 1 if rows == 2 else x.size // (d * d) * rows * (2 * d + 1) * 16
        assert ceiling < x.nbytes
        monkeypatch.setattr(qsystem, "_STACK_BYTES", ceiling)
        assert np.array_equal(bits(qsystem._momentum_rows(x, False)), bits(want))
        assert qsystem._wrapped_diagonal_sums(x).flags.c_contiguous
        monkeypatch.undo()


def test_momentum_projector_probs(sys3):
    rho = pure_density(sys3.momentum_state(2))
    pp = sys3.momentum_probs(rho)
    assert np.max(np.abs(pp.probs - np.array([0.0, 0.0, 1.0]))) < 1e-12


def test_position_projector_is_momentum_flat(sys3):
    # the two bases are mutually unbiased
    rho = pure_density(sys3.position_state(0))
    pp = sys3.momentum_probs(rho)
    assert np.max(np.abs(pp.probs - 1.0 / 3.0)) < 1e-12


def _pure_states(system, rng):
    d = system.d
    fid = system.default_fiducial()
    yield "example", example_state(system)
    for k in range(3):
        yield f"haar {k}", random_state_vector(d, rng)
    for a, b in ((0, 0), (1, d - 1), (d // 2, 2)):
        yield f"coherent {a},{b}", system.coherent_state(fid, a, b)
    for r in (0, d // 2, d - 1):
        yield f"position {r}", system.position_state(r)
        yield f"momentum {r}", system.momentum_state(r)


@pytest.mark.parametrize("d", [3, 5, 7, 101])
def test_state_path_matches_density_path(d):
    # distributions of a state (|psi|^2 and an FFT) against the dense
    # diagonals of its projector, F^dag rho F included
    system = new_system(d)
    rng = np.random.default_rng(700 + d)
    for label, state in _pure_states(system, rng):
        rho = pure_density(state)
        phi = np.fft.fft(state.amplitudes, norm="ortho")
        assert np.max(np.abs(phi - reference_fourier(d).conj() @ state.amplitudes)) <= 1e-12, label
        for pick in (system.position_probs, system.momentum_probs):
            fast, dense = pick(state), pick(rho)
            assert np.max(np.abs(fast.probs - dense.probs)) <= 1e-12, label
            curve_fast, curve_dense = lorenz_curve(fast), lorenz_curve(dense)
            assert np.max(np.abs(curve_fast.values - curve_dense.values)) <= 1e-12, label
            # sort orders may differ only among tied probabilities
            gaps = np.diff(np.sort(dense.probs)) > 1e-12
            distinct = np.concatenate(([True], gaps)) & np.concatenate((gaps, [True]))
            order_fast, order_dense = curve_fast.order, curve_dense.order
            assert np.array_equal(order_fast[distinct], order_dense[distinct]), label
        rep_fast, rep_dense = gini_report(system, state), gini_report(system, rho)
        for attr in ("g_x", "g_p", "g_xp"):
            assert abs(getattr(rep_fast, attr) - getattr(rep_dense, attr)) <= 1e-12, (label, attr)


def test_fourier_rows_are_symmetric():
    # momentum_state and the basis_extremes suite take column r of F as
    # row r, which needs F to be exactly symmetric
    f = new_system(7)._fourier_rows(np.arange(7))
    assert np.array_equal(f, f.T)


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


def test_conjugate_by_fourier_swaps_distributions(sys5):
    rho = random_density_matrix(5, 22)
    swapped = DensityMatrix(conjugated(rho.entries, reference_fourier(5)))
    assert np.max(np.abs(sys5.position_probs(swapped).probs - sys5.momentum_probs(rho).probs)) < 1e-12


def test_conjugate_fourier_flattens_position_projector(sys3):
    rho = DensityMatrix(conjugated(pure_density(sys3.position_state(0)).entries, reference_fourier(3)))
    assert np.max(np.abs(sys3.position_probs(rho).probs - 1.0 / 3.0)) < 1e-12


@pytest.mark.parametrize("d", [3, 5, 41, 101, 201])
def test_fourier_conjugation_matches_the_dense_product(d):
    # F^dag rho F by two FFTs, for a lone state and for stacks with one and
    # two leading axes; a stacked state keeps its lone bits
    rng = np.random.default_rng(800 + d)
    f = reference_fourier(d)
    rho = np.stack([random_density_matrix(d, rng).entries for _ in range(6)]).reshape(2, 3, d, d)
    for x in (rho[0, 0], rho[1], rho):
        assert np.max(np.abs(_fourier_conjugated(x) - conjugated(x, f))) <= 1e-12
    stacked = _fourier_conjugated(rho)
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(stacked[i, j].view(np.uint64), _fourier_conjugated(rho[i, j]).view(np.uint64))


def test_conjugate_fixes_maximally_mixed(sys3):
    rho = sys3.maximally_mixed()
    for u in (reference_fourier(3), displacement_matrix(sys3, 1, 2)):
        assert np.max(np.abs(conjugated(rho.entries, u) - rho.entries)) < 1e-12


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
        lambda x: ProbabilityDistribution([x, 0.5, 0.5]),
    ],
    ids=["StateVector", "DensityMatrix", "ProbabilityDistribution"],
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
        # probabilities are real: a complex bad value enters as its imaginary part
        lambda x: ProbabilityDistribution([x if np.isreal(x) else x.imag, 0.5, 0.5]),
    ],
    ids=["StateVector", "DensityMatrix", "ProbabilityDistribution"],
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
    shift = displacement_matrix(system, a, b)
    # F and D are unitary within the 1e-12 the dense unitary check allowed
    for u in (reference_fourier(d), shift, shift.conj().T):
        assert np.max(np.abs(u @ u.conj().T - np.eye(d))) <= 1e-12
    pure = pure_density(random_state_vector(d, rng))
    lam = float(rng.uniform())
    densities = [
        system.maximally_mixed(),
        pure,
        rho,
        DensityMatrix(lam * rho.entries + (1.0 - lam) * sigma.entries),
        DensityMatrix(conjugated(rho.entries, shift)),
        DensityMatrix(_fourier_conjugated(rho.entries)),
    ]
    for r in densities:
        assert not r.entries.flags.writeable
        validate_density(r.entries)
    for r in densities:
        for p in (system.position_probs(r), system.momentum_probs(r)):
            assert not p.probs.flags.writeable and p.probs.min() >= 0.0
            ProbabilityDistribution(p.probs)
            curve = lorenz_curve(p)
            assert not curve.values.flags.writeable and not curve.order.flags.writeable
            assert np.array_equal(np.sort(curve.order), np.arange(d))
            assert np.all(np.diff(curve.values) >= 0.0) and curve.values[0] >= 0.0
            assert np.all(curve.values <= np.arange(1, d + 1) / d + 1e-12)
            assert abs(curve.values[-1] - 1.0) <= 1e-10
    states = [system.position_state(a), system.momentum_state(b), example_state(system)]
    states += [system.coherent_state(fid, a, b) for fid in (system.default_fiducial(), random_state_vector(d, rng))]
    for st in states:
        assert not st.amplitudes.flags.writeable
        StateVector(st.amplitudes)
    # a raw fiducial inside NORM_TOL: its displaced states keep its norm
    raw = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    raw *= np.sqrt(1.0 + 5e-11) / np.linalg.norm(raw)
    for a in range(d):
        for b in range(d):
            amp = system.coherent_state(raw, a, b).amplitudes
            StateVector(amp)
            assert abs(np.vdot(amp, amp).real - (1.0 + 5e-11)) <= 1e-15


def test_internal_ops_skip_the_dense_revalidation(monkeypatch, capsys):
    # eigvalsh and cholesky (positivity) and the density and distribution checks
    # run only at the boundary, never on the way from a dimension or a
    # sampled state to a report, an estimate or a distribution
    def refuse(*args, **kwargs):
        raise AssertionError("validation ran on an internal result")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    for cls in (DensityMatrix, ProbabilityDistribution):
        monkeypatch.setattr(cls, "__init__", refuse)
    assert cli.run(["example", "--dim", "5"]) == 0
    assert cli.run(["estimate", "--dim", "5", "--restarts", "2", "--iters", "50"]) == 0
    capsys.readouterr()
    system = new_system(5)
    rho = random_density_matrix(5, 13)
    for p in (system.position_probs(rho), system.momentum_probs(rho)):
        assert abs(p.probs.sum() - 1.0) <= 1e-10
    # the phase-space layer checks only its fiducial: displaced states, basis
    # states and the example state are built without the state-vector
    # constructor
    fiducials = [system.default_fiducial(), random_state_vector(5, 17)]
    monkeypatch.setattr(StateVector, "__init__", refuse)
    monkeypatch.setattr(StateVector, "normalized", refuse)
    for fid in fiducials:
        for a, b in [(0, 0), (1, 0), (0, 3), (2, 4), (4, 1), (-1, 7)]:
            expected = displacement_matrix(system, a, b) @ fid.amplitudes
            assert np.max(np.abs(system.coherent_state(fid, a, b).amplitudes - expected)) <= 1e-15
    for r in range(5):
        assert system.position_state(r).amplitudes[r] == 1.0
        assert system.momentum_state(r).dim == 5
    assert example_state(system).dim == 5

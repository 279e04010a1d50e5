from pathlib import Path

import numpy as np
import pytest

from qgini import (
    EtaEstimate,
    StateVector,
    ValidationError,
    estimate_sup_gini,
    example_state,
    new_system,
    random_density_matrix,
    random_state_vector,
    save_state_file,
    split_seed,
)
from qgini import sampling
from qgini.errors import EvenDimension
from qgini.qsystem import _distribution_rows

from conftest import traced_peak


def test_state_sampling_is_deterministic():
    a = random_state_vector(7, 123)
    b = random_state_vector(7, 123)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    c = random_state_vector(7, 124)
    assert not np.array_equal(a.amplitudes, c.amplitudes)


def test_density_sampling_is_deterministic_and_valid():
    a = random_density_matrix(5, 42)
    b = random_density_matrix(5, 42)
    assert np.array_equal(a.entries, b.entries)
    assert abs(np.trace(a.entries) - 1.0) <= 1e-10
    assert float(np.linalg.eigvalsh(a.entries)[0]) >= -1e-10


def test_generator_passthrough_advances():
    rng = np.random.default_rng(5)
    a = random_state_vector(3, rng)
    b = random_state_vector(3, rng)
    assert not np.array_equal(a.amplitudes, b.amplitudes)


def test_sampling_checks_dimension():
    with pytest.raises(EvenDimension):
        random_state_vector(4, 0)


def test_split_seed_properties():
    children = {split_seed(42, i) for i in range(200)}
    assert len(children) == 200
    assert all(0 <= c < 2**64 for c in children)
    assert split_seed(42, 0) != split_seed(43, 0)
    # the published splitmix64 test vector: first output from state 0
    assert split_seed(0, 0) == 0xE220A8397B1DCDAF
    assert isinstance(split_seed(2**63, 5), int)


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["-1", "2**64"])
def test_seeds_outside_64_bits_are_refused_not_wrapped(seed):
    # mod 2**64, -1 would run as 2**64 - 1 and 2**64 as 0. A single restart
    # draws no child seed, so the estimate checks its seed itself
    calls = [lambda: split_seed(seed, 0)]
    calls += [lambda n=n: estimate_sup_gini(new_system(3), restarts=n, iterations=1, seed=seed) for n in (1, 2)]
    for call in calls:
        with pytest.raises(ValidationError) as info:
            call()
        assert type(info.value) is ValidationError
        assert str(info.value) == f"seed must lie in [0, 2**64), got {seed}"


@pytest.mark.parametrize("seed", [-4, 2**64], ids=["-4", "2**64"])
def test_hand_built_estimates_refuse_seeds_outside_64_bits(seed):
    # an estimate must not carry a seed that no rerun accepts
    with pytest.raises(ValidationError) as info:
        EtaEstimate(example_state(new_system(3)), 2, 5, seed, True)
    assert str(info.value) == f"seed must lie in [0, 2**64), got {seed}"


@pytest.mark.parametrize("seed", [0, 2**64 - 1], ids=["0", "2**64-1"])
def test_seeds_at_the_64_bit_edges_are_accepted(seed):
    assert 0 <= split_seed(seed, 0) < 2**64
    for restarts in (1, 2):
        assert estimate_sup_gini(new_system(3), restarts=restarts, iterations=1, seed=seed).seed == seed


def _looped_state(d, gen):
    # the one-vector recipe: one (2, d) block, real and imaginary parts, normalized
    parts = gen.standard_normal((2, d))
    return StateVector.normalized(parts[0] + 1j * parts[1]).amplitudes


def _looped_density(d, seed):
    # the per-component recipe: weights, then one state and one outer product per component
    gen = np.random.default_rng(seed)
    k = int(gen.integers(1, d + 1))
    entries = np.zeros((d, d), dtype=np.complex128)
    for w in gen.dirichlet(np.ones(k)):
        amp = _looped_state(d, gen)
        entries += w * np.outer(amp, amp.conj())
    return entries


@pytest.mark.parametrize("d", [3, 5, 11, 41])
def test_state_sampling_matches_the_one_vector_recipe(d):
    for seed in range(20):
        got = random_state_vector(d, seed).amplitudes
        assert np.max(np.abs(got - _looped_state(d, np.random.default_rng(seed)))) <= 1e-15


@pytest.mark.parametrize("d", [3, 5, 11, 41])
def test_density_sampling_matches_the_per_component_recipe(d):
    for seed in range(20):
        got = random_density_matrix(d, seed).entries
        assert np.max(np.abs(got - _looped_density(d, seed))) <= 1e-14


def concatenated_density_entries(draws):
    # the stack formula before the normals were written in place: the
    # blocks concatenated, then new arrays for the rows, their norms,
    # weights and conjugates
    weights, parts = zip(*draws)
    blocks = np.concatenate(parts)
    amps = blocks[:, 0] + 1j * blocks[:, 1]
    amps = amps / np.linalg.norm(amps, axis=1, keepdims=True)
    scaled, conj = amps * np.concatenate(weights)[:, None], amps.conj()
    bounds = np.cumsum([0, *map(len, weights)])
    return np.stack([scaled[i:j].T @ conj[i:j] for i, j in zip(bounds, bounds[1:])])


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


@pytest.mark.parametrize("d, count", [(3, 1), (5, 7), (11, 135), (41, 9), (101, 2)])
def test_density_stacks_keep_the_bits_of_the_concatenated_formula(d, count):
    rng = np.random.default_rng(1800 + d)
    draws = [sampling._density_draw(d, rng) for _ in range(count)]
    assert np.array_equal(bits(sampling._density_entries(draws)), bits(concatenated_density_entries(draws)))


# a draw's distributions scored from its ensemble agree with its matrix's,
# whose momenta take the wrapped-diagonal sums (streamed in blocks at
# d = 201), and each draw keeps its lone bits in a stack
@pytest.mark.parametrize("d", [3, 5, 11, 41, 201])
def test_ensemble_distributions_match_the_density_matrices(d):
    rng = np.random.default_rng(2100 + d)
    draws = [sampling._density_draw(d, rng) for _ in range(5)]
    got = sampling._density_distributions(draws)
    assert got.shape == (5, 2, d)
    assert np.max(np.abs(got - _distribution_rows(sampling._density_entries(draws)))) <= 1e-14
    for draw, row in zip(draws, got):
        assert np.array_equal(bits(sampling._density_distributions([draw])[0]), bits(row))


def two_part_state(d, seed):
    # the state formula before the row was written in place: the real
    # parts plus 1j times the imaginary parts, over the row's norm
    parts = np.random.default_rng(seed).standard_normal((1, 2, d))
    amps = parts[:, 0] + 1j * parts[:, 1]
    return (amps / np.linalg.norm(amps, axis=1, keepdims=True))[0]


@pytest.mark.parametrize("d", [3, 5, 41, 1001])
def test_state_vectors_keep_the_bits_of_the_two_part_formula(d):
    for seed in range(100):
        assert np.array_equal(bits(random_state_vector(d, seed).amplitudes), bits(two_part_state(d, seed)))


def test_haar_rows_keep_the_bits_of_the_complex_division():
    # the rows are scaled by the reciprocal norm through their float view;
    # numpy's complex / real division computes the same bits, which every
    # saved state and density file depends on
    rng = np.random.default_rng(2600)
    for d, k in ((3, 4000), (5, 1), (11, 20000), (41, 1000), (1001, 20)):
        parts = [rng.standard_normal((k, 2, d)), rng.standard_normal((1, 2, d))]
        blocks = np.concatenate(parts)
        amps = blocks[:, 0] + 1j * blocks[:, 1]
        amps /= np.linalg.norm(amps, axis=1, keepdims=True)
        assert np.array_equal(bits(sampling._haar_rows(parts)), bits(amps)), d


# flat Dirichlet rows are standard exponentials over their sequential sum,
# the draws of numpy's Dirichlet at alpha = 1: every sampled state, check
# margin and saved file depends on these bits and on where the stream ends
@pytest.mark.parametrize("k", [1, 2, 3, 9, 41, 401])
def test_flat_dirichlet_keeps_the_bits_and_the_stream_of_numpy_dirichlet(k):
    ones = np.ones(k)
    for seed in range(50):
        ref, gen = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(bits(sampling._flat_dirichlet(gen, k)), bits(ref.dirichlet(ones))), seed
        assert gen.bit_generator.state == ref.bit_generator.state
        # a block of n rows is n consecutive draws
        n = 1 + seed % 7
        want = np.stack([ref.dirichlet(ones) for _ in range(n)])
        assert np.array_equal(bits(sampling._flat_dirichlet(gen, (n, k))), bits(want)), seed
        assert gen.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize(
    "name, make",
    [
        ("pure-d5-s7.json", lambda: random_state_vector(5, 7)),
        ("density-d5-s7.json", lambda: random_density_matrix(5, 7)),
        ("density-d41-s7.json", lambda: random_density_matrix(41, 7)),
    ],
)
def test_sampled_states_write_the_saved_files(tmp_path, name, make):
    # the saved files were written by earlier sampling code; a draw that
    # moved by one bit, or a generator call out of order, changes the bytes
    path = tmp_path / name
    save_state_file(path, make())
    assert path.read_bytes() == (Path(__file__).parent / "data" / name).read_bytes()


def test_density_stack_peak_stays_within_two_and_a_half_stacks():
    # the first chunk of 9 draws of `check --dim 41 --seed 7` (242 KB): the
    # rows, their weighted copy and the stack, with no concatenated copy
    rng = np.random.default_rng(split_seed(7, 0))
    draws = [sampling._density_draw(41, rng) for _ in range(9)]
    sampling._density_entries(draws)
    stack, peak = traced_peak(lambda: sampling._density_entries(draws))
    assert stack.shape == (9, 41, 41)
    assert peak <= 2.5 * stack.nbytes

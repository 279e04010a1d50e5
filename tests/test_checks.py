import numpy as np
import pytest

from qgini import checks, qsystem
from qgini.checks import run_property_checks
from qgini.gini import _gini_rows, gini_index
from qgini.lorenz import _lorenz_rows, lorenz_curve
from qgini.qsystem import QuantumSystem, _distribution_rows
from qgini.sampling import random_density_matrix, random_state_vector, split_seed

from conftest import conjugated, displacement_matrix, traced_peak


def test_all_checks_pass_on_small_samples():
    results = run_property_checks(3, samples=30, seed=1)
    assert len(results) == 12
    failed = [r.name for r in results if not r.passed]
    assert failed == []


def test_checks_are_deterministic():
    a = run_property_checks(5, samples=20, seed=9)
    b = run_property_checks(5, samples=20, seed=9)
    assert [(r.name, r.passed, r.detail) for r in a] == [(r.name, r.passed, r.detail) for r in b]


def test_check_names_are_unique():
    results = run_property_checks(3, samples=5, seed=0)
    names = [r.name for r in results]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("d", [5, 41])
def test_each_coherent_suite_validates_its_fiducial_once(monkeypatch, d):
    # coherent_equality and resolution_of_identity each check one fiducial
    # through coherent_state and displace it directly from there
    calls = []
    coherent_state = QuantumSystem.coherent_state

    def counting(self, *args, **kwargs):
        calls.append(args)
        return coherent_state(self, *args, **kwargs)

    monkeypatch.setattr(QuantumSystem, "coherent_state", counting)
    results = run_property_checks(d, samples=20, seed=7)
    assert all(r.passed for r in results)
    assert len(calls) <= 2


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


# the suites score stacks; each state must get the bits of its own public
# position_probs / momentum_probs / gini_index / lorenz_curve call, in every
# chunk of the stack: 11 states fill chunks of 4 rows as 4, 4, 3, and a
# ceiling below one state still takes one row per chunk
@pytest.mark.parametrize("ceiling", ["default", "four-rows", "one-byte"])
@pytest.mark.parametrize("pure", [False, True], ids=["density", "pure"])
@pytest.mark.parametrize("d", [3, 5, 11, 41, 101])
def test_stacked_kernels_match_the_public_path_bit_for_bit(monkeypatch, d, pure, ceiling):
    size = d if pure else d * d
    if ceiling != "default":
        monkeypatch.setattr(checks, "_STACK_BYTES", 4 * 16 * size if ceiling == "four-rows" else 1)
    rows = max(1, checks._STACK_BYTES // (16 * size))
    count = 11
    system = QuantumSystem(d)
    rng = np.random.default_rng(d)
    draw = random_state_vector if pure else random_density_matrix
    states = [draw(d, rng) for _ in range(count)]
    chunks = list(checks._chunks((s.amplitudes if pure else s.entries for s in states), size))
    assert [len(c) for c in chunks] == [min(rows, count - start) for start in range(0, count, rows)]
    if ceiling == "four-rows":
        assert [len(c) for c in chunks] == [4, 4, 3]
    scored = []
    for chunk in chunks:
        # both bases on one axis, each kernel called once per chunk
        p = _distribution_rows(np.array(chunk), pure)
        scored.append((p, _gini_rows(p), _lorenz_rows(p)))
    p, g, lorenz = (np.concatenate(column) for column in zip(*scored))
    assert p.shape == (count, 2, d) and g.shape == (count, 2)
    (p_x, p_p), (g_x, g_p), (l_x, l_p) = (np.moveaxis(x, 1, 0) for x in (p, g, lorenz))
    for i, state in enumerate(states):
        px, pp = system.position_probs(state), system.momentum_probs(state)
        assert np.array_equal(bits(p_x[i]), bits(px.probs))
        assert np.array_equal(bits(p_p[i]), bits(pp.probs))
        assert bits(g_x[i]) == bits(gini_index(px)) and bits(g_p[i]) == bits(gini_index(pp))
        assert np.array_equal(bits(l_x[i]), bits(lorenz_curve(px).values))
        assert np.array_equal(bits(l_p[i]), bits(lorenz_curve(pp).values))


def reference_density(d, gen):
    # the one-at-a-time density draw: k, the Dirichlet weights and one block
    # of Haar normals, then one weighted (d, k) @ (k, d) product
    k = int(gen.integers(1, d + 1))
    weights = gen.dirichlet(np.ones(k))
    parts = gen.standard_normal((k, 2, d))
    amps = parts[:, 0] + 1j * parts[:, 1]
    amps = amps / np.linalg.norm(amps, axis=1, keepdims=True)
    return (amps.T * weights) @ amps.conj()


def reference_distributions(d, gen):
    # the same draw scored from its ensemble: the weighted position and
    # momentum distributions of its Haar rows, the first row plus numpy's
    # pairwise sum of the others
    k = int(gen.integers(1, d + 1))
    weights = gen.dirichlet(np.ones(k))
    parts = gen.standard_normal((k, 2, d))
    amps = parts[:, 0] + 1j * parts[:, 1]
    amps = amps / np.linalg.norm(amps, axis=1, keepdims=True)
    momenta = np.fft.fft(amps, norm="ortho")
    rows = weights[:, None, None] * np.stack((amps.real**2 + amps.imag**2, momenta.real**2 + momenta.imag**2), axis=1)
    return rows[0] + np.ascontiguousarray(np.moveaxis(rows[1:], 0, -1)).sum(axis=-1)


# a density draw's generator calls run per sample and its arithmetic per
# chunk; each matrix, and each draw's distributions scored from its
# ensemble, must keep the bits of the one-at-a-time draw, and the generator
# must end where the one-at-a-time draws leave it
@pytest.mark.parametrize("ceiling", ["default", "four-rows", "one-byte"])
@pytest.mark.parametrize("d", [3, 5, 11, 41])
def test_density_draws_keep_the_bits_and_the_stream(monkeypatch, d, ceiling):
    if ceiling != "default":
        monkeypatch.setattr(checks, "_STACK_BYTES", 4 * 16 * d * d if ceiling == "four-rows" else 1)
    # the Fourier-swap suite's matrices count twice, with their swapped states
    rows = max(1, checks._STACK_BYTES // (2 * 16 * d * d))
    count = 11
    ref, stacked, lone = (np.random.default_rng(d) for _ in range(3))
    want = [reference_density(d, ref) for _ in range(count)]
    stacks = list(checks._density_stacks(d, count, stacked))
    assert [len(s) for s in stacks] == [min(rows, count - start) for start in range(0, count, rows)]
    got = np.concatenate(stacks)
    for i in range(count):
        assert np.array_equal(bits(got[i]), bits(want[i]))
        assert np.array_equal(bits(random_density_matrix(d, lone).entries), bits(want[i]))
    assert stacked.bit_generator.state == ref.bit_generator.state
    assert lone.bit_generator.state == ref.bit_generator.state

    ref, stacked = np.random.default_rng(d), np.random.default_rng(d)
    want = [reference_distributions(d, ref) for _ in range(count)]
    got = np.concatenate(list(checks._distribution_stacks(d, count, stacked)))
    assert got.shape == (count, 2, d)
    for i in range(count):
        assert np.array_equal(bits(got[i]), bits(want[i]))
    assert stacked.bit_generator.state == ref.bit_generator.state

    # mixtures draw rho, sigma, then the weight, per sample
    ref, stacked = np.random.default_rng(d + 1), np.random.default_rng(d + 1)
    want = []
    for _ in range(count):
        rho, sigma, lam = reference_distributions(d, ref), reference_distributions(d, ref), ref.uniform()
        want.append((lam * rho + (1.0 - lam) * sigma, rho, sigma, lam))
    stacks, lams = zip(*checks._mixture_stacks(d, count, stacked))
    got, lams = np.concatenate(stacks, axis=1), np.concatenate(lams)
    assert got.shape == (3, count, 2, d)
    for i, (*expected, lam) in enumerate(want):
        for column, value in zip(got, expected):
            assert np.array_equal(bits(column[i]), bits(value))
        assert bits(lams[i]) == bits(lam)
    assert stacked.bit_generator.state == ref.bit_generator.state


# a chunk of draws scored from their ensembles counts each draw's Haar rows
# and their distribution rows, 16 bytes per normal, and holds at least one
# item: a draw, or a mixture sample's two draws
@pytest.mark.parametrize("ceiling", [2**18, 4 * 16 * 41 * 41, 1])
@pytest.mark.parametrize("stacks, per_item", [("_distribution_stacks", 1), ("_mixture_stacks", 2)])
def test_ensemble_chunks_count_every_draws_rows(monkeypatch, stacks, per_item, ceiling):
    monkeypatch.setattr(checks, "_STACK_BYTES", ceiling)
    chunks = []
    kernel = checks._density_distributions

    def recording(draws):
        chunks.append([16 * parts.size for _, parts in draws])
        return kernel(draws)

    monkeypatch.setattr(checks, "_density_distributions", recording)
    list(getattr(checks, stacks)(41, 40, np.random.default_rng(41)))
    assert sum(map(len, chunks)) == 40 * per_item and len(chunks) > 1
    for sizes in chunks:
        assert sum(sizes) <= ceiling or len(sizes) == per_item, (ceiling, sizes)
    if ceiling == 1:
        assert len(chunks) == 40


# the flat Dirichlet suites draw one generator block per chunk, never the
# whole suite's (samples, d) block, and the chunking moves no margin
@pytest.mark.parametrize("ceiling", ["default", "four-rows"])
@pytest.mark.parametrize("suite, per_item", [("_check_dual_form", 5), ("_check_position_mixture_cap", 25)])
def test_dirichlet_suites_draw_one_block_per_chunk(monkeypatch, suite, per_item, ceiling):
    d, samples = 5, 2000
    want = getattr(checks, suite)(QuantumSystem(d), samples, np.random.default_rng(2000))
    if ceiling == "four-rows":
        monkeypatch.setattr(checks, "_STACK_BYTES", 4 * 16 * per_item)
    rows = max(1, checks._STACK_BYTES // (16 * per_item))
    shapes = []
    kernel = checks._flat_dirichlet

    def recording(gen, shape):
        shapes.append(shape)
        return kernel(gen, shape)

    monkeypatch.setattr(checks, "_flat_dirichlet", recording)
    assert getattr(checks, suite)(QuantumSystem(d), samples, np.random.default_rng(2000)) == want
    assert shapes == [(min(rows, samples - start), d) for start in range(0, samples, rows)]
    if ceiling == "four-rows":
        assert len(shapes) == 500


# a comonotonic sample draws its permutation, its two Dirichlet rows in one
# (2, d) block and its weight, in the order of the per-draw loop
def test_comonotonic_suite_keeps_the_stream_of_the_per_draw_loop(monkeypatch):
    d, samples = 11, 50
    shapes = []
    kernel = checks._flat_dirichlet

    def recording(gen, shape):
        shapes.append(shape)
        return kernel(gen, shape)

    monkeypatch.setattr(checks, "_flat_dirichlet", recording)
    rng, ref = np.random.default_rng(50), np.random.default_rng(50)
    passed, detail = checks._check_comonotonic_additive(QuantumSystem(d), samples, rng)
    assert passed, detail
    assert shapes == [(2, d)] * samples
    for _ in range(samples):
        ref.permutation(d), ref.dirichlet(np.ones(d)), ref.dirichlet(np.ones(d)), ref.uniform()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_comonotonic_suite_stops_at_a_rejected_pair_in_a_later_chunk(monkeypatch):
    # chunks of 4 draws at d = 5, each chunk's pairs, then their
    # anti-monotonic twins; the predicate rejects one pair of the second
    # chunk, and the suite reports it without scoring further chunks
    monkeypatch.setattr(checks, "_STACK_BYTES", 4 * 16 * 5)
    verdicts = []
    predicate = checks._comonotonic_rows

    def rejecting(pa, pb):
        rows = predicate(pa, pb)
        verdicts.append(rows.copy())
        if len(verdicts) == 3:
            rows[1] = False
        return rows

    monkeypatch.setattr(checks, "_comonotonic_rows", rejecting)
    results = {r.name: r for r in run_property_checks(5, samples=20, seed=7)}
    assert (results["comonotonic_additive"].passed, results["comonotonic_additive"].detail) == (
        False,
        "constructed pair not recognized as comonotonic",
    )
    assert [v.tolist() for v in verdicts] == [[True] * 4, [False] * 4, [True] * 4]


def test_comonotonic_suite_fails_under_a_predicate_that_accepts_every_pair(monkeypatch):
    # each constructed pair has an anti-monotonic twin that the predicate must
    # reject, so a predicate that accepts everything cannot pass the suite
    monkeypatch.setattr(checks, "_comonotonic_rows", lambda pa, pb: np.ones(pa.shape[:-1], dtype=bool))
    results = {r.name: r for r in run_property_checks(11, samples=20, seed=7)}
    assert (results["comonotonic_additive"].passed, results["comonotonic_additive"].detail) == (
        False,
        "anti-monotonic twin recognized as comonotonic",
    )
    assert [name for name, r in results.items() if not r.passed] == ["comonotonic_additive"]


@pytest.mark.parametrize("d", [3, 5, 11, 41])
def test_displacement_stacks_match_one_displacement_at_a_time(d):
    system = QuantumSystem(d)
    rng = np.random.default_rng(d)
    rho = random_density_matrix(d, rng)
    fid = system.coherent_state(random_state_vector(d, rng), 0, 0)
    a, b = rng.integers(0, d, size=(2, 13))
    moved = system._displaced_densities(rho.entries, a, b)
    coherent = system._displaced(fid.amplitudes, a, b)
    ks = np.arange(d)
    for i in range(len(a)):
        lone = system._displaced_densities(rho.entries, a[i : i + 1], b[i : i + 1])[0]
        assert np.array_equal(moved[i].view(np.uint64), lone.view(np.uint64))
        dense = conjugated(rho.entries, displacement_matrix(system, a[i], b[i]))
        assert np.max(np.abs(moved[i] - dense)) <= 1e-15
        # the diagonal is only permuted: its phase is omega**0 = 1
        shifted = rho.entries.diagonal()[(ks + b[i]) % d]
        assert np.array_equal(np.diagonal(moved[i]).copy().view(np.uint64), shifted.view(np.uint64))
        own = system.coherent_state(fid, a[i], b[i]).amplitudes
        assert np.array_equal(coherent[i].view(np.uint64), own.view(np.uint64))


# numpy computes a product of 256 KiB or more in a temporary operand's
# buffer; stacks that large must still round each row as a lone call does.
# The resolution-of-identity block at d = 401 takes 2.5 MiB
def test_resolution_block_rounds_as_lone_shifts():
    system = QuantumSystem(401)
    fid = system.coherent_state(random_state_vector(401, np.random.default_rng(401)), 0, 0).amplitudes
    block = system._displaced(fid, 3, np.arange(401))
    assert block.nbytes >= 2**18
    assert np.array_equal(bits(block), bits(np.stack([system._displaced(fid, 3, b) for b in range(401)])))


# 200 coherent pairs at d = 101 take 316 KiB, 11 displaced density states at
# d = 41 take 289 KiB
def test_large_pair_stacks_round_as_lone_pairs():
    system = QuantumSystem(101)
    rng = np.random.default_rng(101)
    fid = system.coherent_state(random_state_vector(101, rng), 0, 0).amplitudes
    a, b = rng.integers(0, 101, size=(2, 200))
    pairs = system._displaced(fid, a, b)
    assert pairs.nbytes >= 2**18
    assert np.array_equal(bits(pairs), bits(np.stack([system._displaced(fid, a[i], b[i]) for i in range(200)])))

    system = QuantumSystem(41)
    rng = np.random.default_rng(41)
    rho = random_density_matrix(41, rng).entries
    a, b = rng.integers(0, 41, size=(2, 11))
    moved = system._displaced_densities(rho, a, b)
    assert moved.nbytes >= 2**18
    lone = [system._displaced_densities(rho, a[i : i + 1], b[i : i + 1])[0] for i in range(11)]
    assert np.array_equal(bits(moved), bits(np.stack(lone)))


# the resolution suite takes a chunk of alphas' coherent blocks in one
# displacement call and one stacked matmul; each alpha's product must keep
# the bits of its own block and gemm: a chunk of 4 at d = 41 as the suite
# takes it, and stacks of 1.1 MiB (d = 41) and 5 MiB (d = 401)
@pytest.mark.parametrize("d, alphas", [(41, range(4)), (41, range(41)), (401, (3, 400))])
def test_stacked_projector_sums_match_one_alpha_at_a_time(d, alphas):
    system = QuantumSystem(d)
    fid = system.coherent_state(system.default_fiducial(), 0, 0).amplitudes
    sums = checks._projector_sums(system, fid, list(alphas))
    assert sums.shape == (len(alphas), d, d)
    for a, got in zip(alphas, sums):
        amps = system._displaced(fid, a, np.arange(d))
        assert np.array_equal(bits(got), bits(amps.T @ amps.conj()))


# the bytes of every stack a suite scores: the input of each scoring kernel,
# the displaced density states, and the coherent blocks with their products
SCORING_KERNELS = ("_distribution_rows", "_ginis", "_gini_rows", "_lorenz_rows", "_fourier_conjugated")


def recorded_stacks(monkeypatch, suite, d, ceiling):
    stacks = []

    def recording(name, kernel, nbytes=lambda args, out: args[0].nbytes):
        def call(*args, **kwargs):
            out = kernel(*args, **kwargs)
            stacks.append((name, nbytes(args, out)))
            return out

        return call

    with monkeypatch.context() as patch:
        patch.setattr(checks, "_STACK_BYTES", ceiling)
        for name in SCORING_KERNELS:
            patch.setattr(checks, name, recording(name, getattr(checks, name)))
        blocks = recording("blocks", checks._projector_sums, lambda args, out: 2 * out.nbytes)
        patch.setattr(checks, "_projector_sums", blocks)
        moved = recording("moved", QuantumSystem._displaced_densities, lambda args, out: out.nbytes)
        patch.setattr(QuantumSystem, "_displaced_densities", moved)
        passed, detail = getattr(checks, suite)(QuantumSystem(d), 20, np.random.default_rng(d))
    assert passed, detail
    return stacks


# each stack stays within the ceiling unless one item alone exceeds it; a
# 1-byte ceiling makes every chunk one item and gives the items' bytes
@pytest.mark.parametrize("suite", [func.__name__ for _, func in checks._CHECKS])
@pytest.mark.parametrize("d", [5, 11, 41])
def test_every_scored_stack_stays_within_the_ceiling(monkeypatch, d, suite):
    item = {}
    for name, nbytes in recorded_stacks(monkeypatch, suite, d, 1):
        item[name] = max(item.get(name, 0), nbytes)
    for ceiling in (checks._STACK_BYTES, 2 * 16 * d * d):
        stacks = recorded_stacks(monkeypatch, suite, d, ceiling)
        assert stacks and {name for name, _ in stacks} == set(item)
        assert all(nbytes <= max(ceiling, item[name]) for name, nbytes in stacks), (ceiling, stacks)


# the mixture suites score the rho and sigma draws of a chunk from their
# ensembles: one pure FFT momentum call per chunk, no density momentum
# kernel, and tau's distributions are mixed from theirs
@pytest.mark.parametrize("suite", ["_check_superadditive", "_check_subadditive"])
def test_mixture_suites_take_one_momentum_call_per_chunk(monkeypatch, suite):
    monkeypatch.setattr(checks, "_STACK_BYTES", 4 * 3 * 16 * 5 * 5)
    calls, chunks = [], []
    kernel, stacks = qsystem._momentum_rows, checks._mixture_stacks

    def counting(x, pure):
        calls.append(pure)
        return kernel(x, pure)

    def chunked(*args):
        for p, lam in stacks(*args):
            chunks.append(len(lam))
            yield p, lam

    monkeypatch.setattr(qsystem, "_momentum_rows", counting)
    monkeypatch.setattr(checks, "_mixture_stacks", chunked)
    passed, detail = getattr(checks, suite)(QuantumSystem(5), 20, np.random.default_rng(5))
    assert passed, detail
    assert sum(chunks) == 20 and len(chunks) > 1
    assert calls == [True] * len(chunks)


@pytest.mark.parametrize("d", [5, 13])
def test_displacement_invariance_takes_no_matrix_product(monkeypatch, d):
    # d = 5 runs every pair, d = 13 draws 100; neither conjugates by a
    # dense D, nor by F, the one conjugation the suites take
    def refuse(*args, **kwargs):
        raise AssertionError("conjugation of a displaced state")

    monkeypatch.setattr(checks, "_fourier_conjugated", refuse)
    passed, detail = checks._check_displacement_invariance(QuantumSystem(d), 100, np.random.default_rng(d))
    assert passed, detail


def test_displacement_invariance_compares_the_momentum_lorenz_values(monkeypatch):
    # a drift confined to the displaced states' momentum Lorenz values fails
    # the suite; the reference state's (2, d) values stay as they are
    lorenz = checks._lorenz_rows

    def drifting(p):
        values = lorenz(p)
        if values.ndim == 3:
            values[:, 1, 0] += 1e-9
        return values

    monkeypatch.setattr(checks, "_lorenz_rows", drifting)
    passed, detail = checks._check_displacement_invariance(QuantumSystem(5), 20, np.random.default_rng(5))
    assert (passed, detail) == (False, "max drift under displacements 1.00e-09")


@pytest.mark.parametrize("d", [5, 41])
def test_fourier_swap_builds_no_row_of_the_fourier_matrix(monkeypatch, d):
    # the swap transforms each whole matrix by FFT, independently of the
    # momentum kernel, and takes no row of F
    def refuse(*args, **kwargs):
        raise AssertionError("a row of the Fourier matrix")

    monkeypatch.setattr(QuantumSystem, "_fourier_rows", refuse)
    passed, detail = checks._check_fourier_swap(QuantumSystem(d), 20, np.random.default_rng(d))
    assert passed, detail


# the Lorenz-bound and range suites score their density draws a chunk at a
# time, from the ensembles: while a chunk is scored, only its draws, the
# draw that closed it, the previous chunk's (n, 2, d) stack and the
# temporaries of one _density_distributions call are live. The bound sums
# those per chunk, replayed from each suite's own child stream of
# `check --dim 41 --samples 60 --seed 7` (7 chunks), plus 16 KiB for Python
# objects (about 6 KB were seen). Haar or distribution rows kept alive into
# the next chunk would add 60-260 KB, and the draws of all chunks or the
# stacks of every chunk at least 30 KB more.
@pytest.mark.parametrize("suite", ["_check_lorenz_bound", "_check_gini_range"])
def test_density_suites_free_each_stack_before_the_next_draw(suite):
    d, samples = 41, 60
    index = [func.__name__ for _, func in checks._CHECKS].index(suite)
    system = QuantumSystem(d)

    def run():
        return getattr(checks, suite)(system, samples, np.random.default_rng(split_seed(7, index)))

    run()
    (passed, detail), peak = traced_peak(run)
    assert passed, detail

    def nbytes(draw):
        return draw[0].nbytes + draw[1].nbytes

    rng = np.random.default_rng(split_seed(7, index))
    chunks = list(checks._chunks([checks._density_draw(d, rng) for _ in range(samples)], checks._rows_size))
    assert len(chunks) == 7
    live, previous = [], 0
    for i, chunk in enumerate(chunks):
        stack, scoring = traced_peak(lambda: checks._density_distributions(chunk))
        closing = nbytes(chunks[i + 1][0]) if i + 1 < len(chunks) else 0
        live.append(scoring + sum(map(nbytes, chunk)) + closing + previous)
        previous = stack.nbytes
    assert peak <= max(live) + 16 * 1024


def test_suite_memory_does_not_grow_with_the_sample_count(monkeypatch):
    # states are drawn and scored in chunks of at most _STACK_BYTES, 4 d x d
    # matrices here, so 20 and 200 samples peak alike. Untraced runs of both
    # counts first fill numpy's caches and CPython's free lists
    monkeypatch.setattr(checks, "_STACK_BYTES", 4 * 16 * 5 * 5)
    run_property_checks(5, samples=20, seed=3)
    run_property_checks(5, samples=200, seed=3)
    _, small = traced_peak(lambda: run_property_checks(5, samples=20, seed=3))
    _, large = traced_peak(lambda: run_property_checks(5, samples=200, seed=3))
    assert large < 1.25 * small

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgini import (
    DensityMatrix,
    DimensionMismatch,
    LorenzCurve,
    ProbabilityDistribution,
    comonotonic,
    lorenz_curve,
    pure_density,
    random_density_matrix,
    random_state_vector,
    new_system,
)
from qgini.lorenz import _comonotonic_rows, _lorenz_rows


def dist(values) -> ProbabilityDistribution:
    return ProbabilityDistribution(values)


# ---- orderings ----


def test_ordering_simple():
    assert list(lorenz_curve(dist([0.5, 0.2, 0.3])).order) == [1, 2, 0]


def test_ordering_breaks_ties_by_index():
    assert list(lorenz_curve(dist([0.2, 0.2, 0.6])).order) == [0, 1, 2]
    assert list(lorenz_curve(dist([0.3, 0.1, 0.3, 0.3])).order) == [1, 0, 2, 3]


def test_ordering_matches_stable_reference():
    # reference route: Python's sorted() is stable by definition
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(3, 10))
        raw = rng.integers(0, 4, size=d).astype(float) + 1.0
        p = raw / raw.sum()
        got = list(lorenz_curve(dist(p)).order)
        want = sorted(range(d), key=p.__getitem__)
        assert got == want


@pytest.mark.parametrize(
    "p",
    [[0.5, 0.2, 0.3], [0.2, 0.2, 0.6], [0.3, 0.1, 0.3, 0.3], [1.0, 0.0, 0.0], np.full(5, 0.2)],
    ids=["distinct", "tied-low", "tied-high", "certain", "flat"],
)
def test_constructors_derive_from_a_distribution(p):
    # the class is the one construction path: same bits as lorenz_curve and
    # as the row kernel, and read-only arrays
    pd = dist(p)
    curve = LorenzCurve(pd)
    assert curve.dim == pd.dim
    order = np.argsort(pd.probs, kind="stable")
    for got in (curve.order, lorenz_curve(pd).order):
        assert got.tobytes() == order.tobytes()
    for got in (curve.values, lorenz_curve(pd).values, _lorenz_rows(pd.probs)):
        assert got.tobytes() == np.cumsum(pd.probs[order]).tobytes()
    for arr in (curve.order, curve.values):
        assert not arr.flags.writeable


# ---- Lorenz values ----


def test_lorenz_uniform_hits_the_line():
    curve = lorenz_curve(dist(np.full(5, 0.2)))
    assert np.max(np.abs(curve.values - np.arange(1, 6) / 5)) < 1e-12


def test_lorenz_certain_outcome_is_flat_then_one():
    curve = lorenz_curve(dist([1.0, 0.0, 0.0]))
    assert list(curve.values) == [0.0, 0.0, 1.0]


def test_lorenz_simple_partial_sums():
    curve = lorenz_curve(dist([0.5, 0.2, 0.3]))
    assert np.max(np.abs(curve.values - np.array([0.2, 0.5, 1.0]))) < 1e-12


def test_lorenz_matches_accumulate_reference():
    # reference route: plain Python sort + running sum
    rng = np.random.default_rng(17)
    for _ in range(100):
        d = int(rng.integers(3, 12))
        p = rng.dirichlet(np.ones(d))
        got = lorenz_curve(dist(p)).values
        running, want = 0.0, []
        for v in sorted(p):
            running += v
            want.append(running)
        assert np.max(np.abs(got - np.array(want))) < 1e-12


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1000.0, allow_nan=False), min_size=1, max_size=12).filter(
        lambda vs: sum(vs) > 1e-6
    )
)
def test_lorenz_bound_and_shape_property(values):
    p = np.asarray(values) / np.sum(values)
    curve = lorenz_curve(dist(p))
    d = len(values)
    assert curve.values[0] >= 0.0
    assert np.all(np.diff(curve.values) >= 0.0)
    assert np.all(curve.values <= np.arange(1, d + 1) / d + 1e-12)
    assert abs(curve.values[-1] - 1.0) <= 1e-10


def test_lorenz_superadditive_under_mixing():
    rng = np.random.default_rng(29)
    system = new_system(5)
    for _ in range(100):
        rho = random_density_matrix(5, rng)
        sigma = random_density_matrix(5, rng)
        lam = float(rng.uniform())
        tau = DensityMatrix(lam * rho.entries + (1.0 - lam) * sigma.entries)
        for probs_of in (system.position_probs, system.momentum_probs):
            mixed = lorenz_curve(probs_of(tau)).values
            parts = lam * lorenz_curve(probs_of(rho)).values + (1 - lam) * lorenz_curve(probs_of(sigma)).values
            assert np.min(mixed - parts) >= -1e-12


def test_only_basis_projectors_stay_flat():
    # position projectors: zero mass until the final step; a generic pure
    # state must already show mass at step d-2 (the values are nondecreasing,
    # so checking the last interior step covers all earlier ones)
    for d, seed in ((3, 43), (5, 44), (7, 45)):
        system = new_system(d)
        for a in range(d):
            rho = pure_density(system.position_state(a))
            values = lorenz_curve(system.position_probs(rho)).values
            assert np.max(values[: d - 1]) == 0.0
            assert values[d - 1] == 1.0
        rng = np.random.default_rng(seed)
        for _ in range(334):
            psi = random_state_vector(d, rng)
            values = lorenz_curve(system.position_probs(pure_density(psi))).values
            assert values[d - 2] > 1e-9


# ---- comonotonicity ----


def test_comonotonic_examples():
    assert comonotonic(dist([0.5, 0.3, 0.2]), dist([0.4, 0.35, 0.25]))
    assert not comonotonic(dist([0.5, 0.3, 0.2]), dist([0.2, 0.3, 0.5]))
    # pair (0, 1) is strictly discordant although the product of its
    # differences, -1e-340, underflows to -0.0
    assert not comonotonic(dist([1e-170, 0.0, 1 - 1e-170]), dist([0.0, 1e-170, 1 - 1e-170]))


def test_uniform_comonotonic_with_anything():
    rng = np.random.default_rng(31)
    flat = dist(np.full(6, 1 / 6))
    for _ in range(25):
        assert comonotonic(flat, dist(rng.dirichlet(np.ones(6))))


def test_comonotonic_matches_pairwise_reference():
    # reference route: the double loop over index pairs, no vectorization
    rng = np.random.default_rng(37)
    for _ in range(150):
        d = int(rng.integers(3, 7))
        grid = rng.integers(0, 3, size=(2, d)).astype(float) + 1.0
        pa, pb = grid[0] / grid[0].sum(), grid[1] / grid[1].sum()
        want = all(
            (pa[r] - pa[s]) * (pb[r] - pb[s]) >= 0.0 for r in range(d) for s in range(d)
        )
        assert comonotonic(dist(pa), dist(pb)) == want


# (pa, pb, comonotonic): ties in pa broken by pb, equal rows, a flat row,
# signed zeros, a reversed pair and a discordant pair whose product of
# differences underflows
PREDICATE_CASES = [
    ([0.25, 0.25, 0.5], [0.3, 0.2, 0.5], True),
    ([0.25, 0.25, 0.5], [0.5, 0.25, 0.25], False),
    ([0.2, 0.4, 0.4], [0.2, 0.4, 0.4], True),
    ([1 / 3, 1 / 3, 1 / 3], [0.2, 0.5, 0.3], True),
    ([-0.0, 0.0, 1.0], [0.0, -0.0, 1.0], True),
    ([0.5, 0.3, 0.2], [0.2, 0.3, 0.5], False),
    ([1e-170, 0.0, 1 - 1e-170], [0.0, 1e-170, 1 - 1e-170], False),
]


def test_comonotonic_row_predicate_matches_comonotonic():
    # the stacked suite tests many pairs in one call; each row must get the
    # verdict of its own comonotonic call, in either order of the pair
    pairs = [(a, b) for a, b, _ in PREDICATE_CASES] + [(b, a) for a, b, _ in PREDICATE_CASES]
    want = [w for _, _, w in PREDICATE_CASES] * 2
    pa, pb = (np.array(column) for column in zip(*pairs))
    rows = _comonotonic_rows(pa, pb)
    assert rows.tolist() == want
    for (a, b), row in zip(pairs, rows):
        assert comonotonic(dist(a), dist(b)) == row
        assert bool(_comonotonic_rows(np.array(a), np.array(b))) == row


def test_comonotonic_pairs_add_exactly():
    rng = np.random.default_rng(41)
    for _ in range(50):
        d = int(rng.integers(3, 9))
        perm = rng.permutation(d)
        pa = np.sort(rng.dirichlet(np.ones(d)))[perm]
        pb = np.sort(rng.dirichlet(np.ones(d)))[perm]
        lam = float(rng.uniform())
        da, db = dist(pa), dist(pb)
        assert comonotonic(da, db)
        mixed = lorenz_curve(dist(lam * pa + (1 - lam) * pb)).values
        parts = lam * lorenz_curve(da).values + (1 - lam) * lorenz_curve(db).values
        assert np.max(np.abs(mixed - parts)) <= 1e-12


def test_comonotonic_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        comonotonic(dist([0.5, 0.5]), dist([0.4, 0.3, 0.3]))

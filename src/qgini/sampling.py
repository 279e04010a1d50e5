"""Seeded random states and the seed-splitting rule used for restarts.

All sampling goes through :class:`numpy.random.Generator`, so a fixed seed
reproduces the exact same states on every platform numpy supports.

Flat Dirichlet weights come from _flat_dirichlet: standard exponentials,
each row scaled by its sum, which is how numpy's Dirichlet computes them,
so the bits and the generator state are numpy's. Weight vectors drawn one
after another with no other draw between them share one generator call.

A density draw has two parts. Its generator calls (the component count,
the Dirichlet weights, one block of Haar normals) run one sample at a time,
because their order is the seed contract. Its arithmetic runs once for a
stack of draws, by one of two routes. The matrix route normalizes, weights
and conjugates the rows in one pass, then takes one (d, k) @ (k, d)
product per draw. The ensemble route builds no matrix: Born's rule is
linear in rho, so a draw's two measurement distributions are the weighted
sum of its Haar rows' pure distributions, all rows scored by one FFT call.
Either way each draw has the bits of a lone draw.
"""

from __future__ import annotations

import numpy as np

from qgini.errors import ValidationError
from qgini.qsystem import DensityMatrix, StateVector, _check_integer, _distribution_rows, _trusted, check_dimension

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def check_seed(seed: int) -> None:
    """Reject a master seed that is not an integer in [0, 2**64), rather than wrap it mod 2**64."""
    _check_integer("seed", seed)
    if not 0 <= int(seed) <= _MASK64:
        raise ValidationError(f"seed must lie in [0, 2**64), got {seed}")


def split_seed(master: int, index: int) -> int:
    """Derive an independent 64-bit child seed from a master seed and an index.

    splitmix64: the child is the splitmix64 finalizer applied to master +
    (index + 1) * golden-ratio constant, all mod 2**64. The master must lie in
    [0, 2**64) (see check_seed); a float is refused, not truncated. Children
    are decorrelated even when master seeds are tiny.
    """
    check_seed(master)
    _check_integer("index", index)
    z = (int(master) + (int(index) + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _as_generator(rng) -> np.random.Generator:
    # accepts a Generator unchanged, or any valid seed material
    return rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)


def _haar_rows(parts) -> np.ndarray:
    """Haar unit rows of a sequence of (k, 2, d) standard normal blocks, as one complex array normalized in place."""
    d = parts[0].shape[-1]
    amps = np.empty((sum(map(len, parts)), d), dtype=np.complex128)
    # (k, 2, d) blocks land in a view of amps whose axis 1 is real, imaginary
    np.concatenate(parts, out=amps.view(np.float64).reshape(-1, d, 2).swapaxes(1, 2))
    # numpy divides a complex by a real norm as (re, im) * (1 / norm): the
    # same bits from the float view, without the complex division
    flat = amps.view(np.float64)
    flat *= 1.0 / np.linalg.norm(amps, axis=1, keepdims=True)
    return amps


def _flat_dirichlet(gen: np.random.Generator, shape) -> np.ndarray:
    """Flat Dirichlet rows of the given shape, with the bits and generator state of one dirichlet(np.ones(k)) per row.

    gamma(1) is the standard exponential, and numpy's Dirichlet sums a row's
    gammas in order and multiplies each by the reciprocal of the sum; the
    row is the same standard exponentials and the same sequential sum.
    A block of n rows is one call and equals n consecutive calls.
    """
    e = gen.standard_exponential(shape)
    e *= 1.0 / np.add.accumulate(e, axis=-1)[..., -1:]
    return e


def random_state_vector(d: int, rng) -> StateVector:
    """Draw a Haar-distributed pure state: complex standard normal, normalized."""
    check_dimension(d)
    parts = _as_generator(rng).standard_normal((1, 2, d))
    return _trusted(StateVector, dim=d, amplitudes=_haar_rows([parts])[0])


def random_density_matrix(d: int, rng) -> DensityMatrix:
    """Draw a random mixed state as a convex combination of pure projectors.

    The number of components is a uniform draw from 1..d; weights come from
    the flat Dirichlet distribution on the simplex.
    """
    check_dimension(d)
    entries = _density_entries([_density_draw(d, _as_generator(rng))])[0]
    return _trusted(DensityMatrix, dim=d, entries=entries)


def _density_draw(d: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The generator calls of one density draw, in order: k, k Dirichlet weights, k (2, d) normal blocks."""
    k = int(gen.integers(1, d + 1))
    weights = _flat_dirichlet(gen, k)
    return weights, gen.standard_normal((k, 2, d))


def _density_entries(draws) -> np.ndarray:
    """The (n, d, d) stack of density matrices of n draws of one dimension.

    The draws' Haar rows (one complex array, see _haar_rows) are weighted
    and conjugated, elementwise, as one draw's rows are; each matrix is then
    its own (d, k) @ (k, d) product, so it rounds as a lone draw's does.
    Besides the draws, the peak holds the rows twice (the weighted copy, and
    the rows conjugated in place) and the stack.
    """
    weights, parts = zip(*draws)
    d = parts[0].shape[-1]
    bounds = np.cumsum([0, *map(len, weights)])
    amps = _haar_rows(parts)
    scaled = amps * np.concatenate(weights)[:, None]
    np.conjugate(amps, out=amps)
    stack = np.empty((len(weights), d, d), dtype=np.complex128)
    for i, (start, end) in enumerate(zip(bounds, bounds[1:])):
        np.matmul(scaled[start:end].T, amps[start:end], out=stack[i])
    return stack


def _density_distributions(draws) -> np.ndarray:
    """The (n, 2, d) position and momentum distributions of n draws of one dimension, with no matrix.

    p(rho) = sum_i w_i p(v_i): the draws' Haar rows (see _haar_rows) take
    the pure kernel qsystem._distribution_rows in one call, and each draw's
    weighted rows are added by np.add.reduceat, which starts from the
    draw's first row and adds the rest by numpy's pairwise sum, so a draw
    rounds as a lone draw does in any stack, at any thread count.
    """
    weights, parts = zip(*draws)
    p = _distribution_rows(_haar_rows(parts), True)
    p *= np.concatenate(weights)[:, None, None]
    return np.add.reduceat(p, np.cumsum([0, *map(len, weights[:-1])]), axis=0)

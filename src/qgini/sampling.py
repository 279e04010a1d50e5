"""Seeded random states and the seed-splitting rule used for restarts.

All sampling goes through :class:`numpy.random.Generator`, so a fixed seed
reproduces the exact same states on every platform numpy supports.
"""

import numpy as np

from qgini.qsystem import DensityMatrix, StateVector, _trusted, check_dimension

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def split_seed(master: int, index: int) -> int:
    """Derive an independent 64-bit child seed from a master seed and an index.

    splitmix64: the child is the splitmix64 finalizer applied to
    master + (index + 1) * golden-ratio constant, all mod 2**64. Children for
    distinct indices are decorrelated even when master seeds are tiny.
    """
    z = (int(master) + (int(index) + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _as_generator(rng) -> np.random.Generator:
    # accepts a Generator unchanged, or any valid seed material
    return rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)


def _haar_rows(d: int, gen: np.random.Generator, k: int) -> np.ndarray:
    """k Haar-distributed unit vectors as rows: complex standard normal, normalized.

    One draw of k (2, d) blocks consumes the generator as k draws of one block.
    """
    parts = gen.standard_normal((k, 2, d))
    amps = parts[:, 0] + 1j * parts[:, 1]
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def random_state_vector(d: int, rng) -> StateVector:
    """Draw a Haar-distributed pure state: complex standard normal, normalized."""
    check_dimension(d)
    return _trusted(StateVector, dim=d, amplitudes=_haar_rows(d, _as_generator(rng), 1)[0])


def random_density_matrix(d: int, rng) -> DensityMatrix:
    """Draw a random mixed state as a convex combination of pure projectors.

    The number of components is a uniform draw from 1..d; weights come from
    the flat Dirichlet distribution on the simplex.
    """
    check_dimension(d)
    gen = _as_generator(rng)
    k = int(gen.integers(1, d + 1))
    weights = gen.dirichlet(np.ones(k))
    amps = _haar_rows(d, gen, k)
    return _trusted(DensityMatrix, dim=d, entries=(amps.T * weights) @ amps.conj())

import json
import tracemalloc

import numpy as np
import pytest

from qgini import new_system


@pytest.fixture(scope="session")
def sys3():
    return new_system(3)


@pytest.fixture(scope="session")
def sys5():
    return new_system(5)


@pytest.fixture(scope="session")
def sys7():
    return new_system(7)


def reference_fourier(d: int) -> np.ndarray:
    """Independent Fourier construction: explicit exponentials, no table reuse."""
    ks = np.arange(d)
    return np.exp(2j * np.pi * np.multiply.outer(ks, ks) / d) / np.sqrt(d)


def conjugated(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """U^dag rho U over the last two axes, by dense products, for one rho or a stack."""
    return u.conj().swapaxes(-1, -2) @ rho @ u


def displacement_matrix(system, alpha, beta) -> np.ndarray:
    """D(alpha, beta) as a dense matrix: the displaced rows of the identity are its columns."""
    return system._displaced(np.eye(system.d, dtype=complex), alpha, beta).T


def pair_document(state):
    """The document of [re, im] float pairs, in the array's own nesting, that a state file holds."""
    kind, field = ("pure", "amplitudes") if hasattr(state, "amplitudes") else ("density", "entries")
    values = getattr(state, field)
    return {"dim": state.dim, "kind": kind, field: np.stack((values.real, values.imag), axis=-1).tolist()}


def huge_density_document(upper, lower, diagonal=(0.5, 0.5, 0.0)):
    """A 3 x 3 density document with `upper` at (0, 1), `lower` at (1, 0) and the given diagonal."""
    rows = [[[0.0, 0.0] for _ in range(3)] for _ in range(3)]
    rows[0][1][0], rows[1][0][0] = upper, lower
    for i, value in enumerate(diagonal):
        rows[i][i][0] = value
    return json.dumps({"dim": 3, "kind": "density", "entries": rows})


def traced_peak(call):
    """The value of call() and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

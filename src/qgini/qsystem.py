"""Finite quantum systems on an odd-dimensional Hilbert space.

The computational basis plays the role of position; the momentum basis is its
image under the discrete Fourier transform F[r, s] = w**(r*s) / sqrt(d) with
w = exp(2*pi*i/d). Phase-space displacements, coherent states built from a
fiducial vector, density matrices and the two measurement distributions all
live here.

Powers of w are taken through index arithmetic modulo d against a cached
table of the d roots of unity, never by repeated complex multiplication, so
displacement entries are exact roots of unity with no accumulated phase
drift. Oddness of d matters because the displacement phase needs the inverse
of 2 in Z_d, which is (d + 1) / 2.
"""

from __future__ import annotations

import functools

import numpy as np

from qgini.errors import (
    BudgetTooLarge,
    BudgetTooSmall,
    DegenerateFiducial,
    DimensionMismatch,
    DimensionTooLarge,
    DimensionTooSmall,
    EvenDimension,
    NotFinite,
    NotHermitian,
    NotNormalized,
    NotPositive,
    TraceNotOne,
    ValidationError,
)

# ---- tolerances ------------------------------------------------------------

NORM_TOL = 1e-10        # |sum of amplitude moduli squared - 1|, |sum p - 1|
HERMITIAN_TOL = 1e-10   # max entrywise |M - M^dag|
TRACE_TOL = 1e-10       # |tr M - 1|
EIGEN_TOL = 1e-10       # smallest admissible eigenvalue is -EIGEN_TOL
PROB_CLIP = 1e-12       # probabilities in [-PROB_CLIP, 0) clamp to 0
OVERLAP_TOL = 1e-9      # fiducial overlap moduli must stay below 1 - OVERLAP_TOL

# Largest supported dimension. A density matrix is a dense complex d x d
# array (16 d^2 bytes, about 0.26 GB at 4001), but the temporaries of its
# distributions stay under _STACK_BYTES plus O(d). A pure state's distributions
# need O(d) memory, and one round of the search at most 32 MiB. Larger
# requests are refused before any allocation, not inside numpy.
MAX_DIM = 4001

# Ceiling on the bytes of one stack of states, or of one block of a stack,
# that a kernel holds at once: the density momentum kernel streams larger
# stacks in blocks of rows under it, and the property checks score their
# samples in chunks under it.
_STACK_BYTES = 256 * 2**10

# Below this norm the squared moduli leave the normal float range and lose
# precision, so a vector scaled by it need not come out normalized.
_NORM_FLOOR = float(np.sqrt(np.finfo(np.float64).tiny))


def _check_integer(name: str, value, error=ValidationError) -> None:
    """Reject anything but a Python or numpy integer: bool, every float (5.0 too) and other types."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")


def check_dimension(d: int) -> None:
    """Reject dimensions that are not integers, are even, or lie outside 3..MAX_DIM."""
    _check_integer("dimension", d)
    if d % 2 == 0:
        raise EvenDimension(f"dimension must be odd, got {d}")
    if d < 3:
        raise DimensionTooSmall(f"dimension must be at least 3, got {d}")
    if d > MAX_DIM:
        raise DimensionTooLarge(f"dimension must be at most {MAX_DIM}, got {d}")


def check_budget(name: str, value: int, ceiling: int) -> None:
    """Reject a budget count that is not an integer, is below 1 or is above `ceiling`."""
    _check_integer(name, value)
    if value < 1:
        raise BudgetTooSmall(f"{name} must be at least 1, got {value}")
    if value > ceiling:
        raise BudgetTooLarge(f"{name} must be at most {ceiling}, got {value}")


def _check_finite(values: np.ndarray, what: str) -> None:
    """Reject NaN or infinite entries before any arithmetic touches them."""
    if not np.all(np.isfinite(values)):
        raise NotFinite(f"{what} has a NaN or infinite entry")


def _trusted(cls, **fields):
    """An instance of `cls` holding `fields`, without running its checks.

    Validation happens once, at the boundary: the public constructors, state
    files and the CLI. Results that satisfy a class's invariants by
    construction (basis and coherent states, projectors of validated states,
    the maximally mixed state and measurement distributions) are wrapped
    here instead. Arrays are frozen as the constructors freeze them.
    """
    obj = cls.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        setattr(obj, name, value)
    return obj


# ---- value types -----------------------------------------------------------


class StateVector:
    """A normalized vector of complex amplitudes.

    The squared moduli must sum to 1 within NORM_TOL. The stored array is
    read-only; build a new vector instead of mutating one in place.
    """

    def __init__(self, amplitudes):
        amp = np.array(amplitudes, dtype=np.complex128).ravel()
        if amp.size == 0:
            raise ValidationError("state vector has no amplitudes")
        parts = amp.view(np.float64)
        # no part of a unit vector exceeds 1; checking first keeps the squares
        # finite, and a NaN propagates through the max
        largest = float(np.max(np.abs(parts)))
        if not largest <= 1.0 + NORM_TOL:
            _check_finite(amp, "state vector")
            raise NotNormalized(f"amplitude part {largest:.3e} exceeds 1, so the vector is not normalized")
        dev = abs(float(np.dot(parts, parts)) - 1.0)
        if not dev <= NORM_TOL:
            raise NotNormalized(f"amplitude moduli squared sum deviates from 1 by {dev:.3e}")
        amp.setflags(write=False)
        self.dim = int(amp.size)
        self.amplitudes = amp

    @classmethod
    def normalized(cls, values) -> "StateVector":
        """Scale `values` to unit norm and wrap them.

        A finite, nonzero norm makes the quotient a unit vector, so it is
        wrapped without the constructor's checks; a norm so small that its
        square underflowed is checked by the constructor.
        """
        v = np.asarray(values, dtype=np.complex128).ravel()
        with np.errstate(over="ignore"):
            nrm = float(np.linalg.norm(v))
        if not 0.0 < nrm < np.inf:
            _check_finite(v, "state vector")
            if nrm == 0.0:
                raise NotNormalized("cannot normalize the zero vector")
            raise NotNormalized("the norm of the vector overflows")
        unit = v / nrm
        if nrm < _NORM_FLOOR:
            return cls(unit)
        return _trusted(cls, dim=int(unit.size), amplitudes=unit)

    def __repr__(self):
        return f"StateVector(dim={self.dim})"


def _shifted_cholesky_succeeds(m: np.ndarray) -> bool:
    """Whether M + EIGEN_TOL I, of a finite Hermitian M, has a finite Cholesky factor.

    A factor exists only when the shift is positive definite, that is when
    every eigenvalue of M exceeds -EIGEN_TOL, up to the factorization's
    round-off. One factorization costs a fraction of an eigenvalue solve.
    M is shifted in place and its diagonal restored bit for bit, so no
    shifted copy adds a d x d matrix to the peak.
    """
    diagonal = m.diagonal().copy()
    np.fill_diagonal(m, diagonal + EIGEN_TOL)
    try:
        factor = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    finally:
        np.fill_diagonal(m, diagonal)
    return bool(np.isfinite(factor).all())


class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite matrix.

    Hermiticity and trace are checked entrywise within HERMITIAN_TOL and
    TRACE_TOL; positivity means the smallest eigenvalue is at least
    -EIGEN_TOL (round-off is tolerated, genuine negativity is not). A matrix
    M whose shift M + EIGEN_TOL I has a finite Cholesky factor is positive
    within that tolerance and is accepted by that one factorization; any
    other matrix is judged by its smallest eigenvalue, which the rejection
    names.
    """

    def __init__(self, entries):
        m = np.array(entries, dtype=np.complex128)
        if m.size == 0:
            raise ValidationError("density matrix has no entries")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {m.shape}")
        _check_finite(m, "density matrix")
        # huge finite entries overflow to inf here, and inf fails the checks
        with np.errstate(over="ignore"):
            herm_dev = float(np.max(np.abs(m - m.conj().T)))
            trace_dev = abs(complex(np.trace(m)) - 1.0)
        if not herm_dev <= HERMITIAN_TOL:
            raise NotHermitian(f"matrix is not Hermitian: max |M - M^dag| = {herm_dev:.3e}")
        if not trace_dev <= TRACE_TOL:
            raise TraceNotOne(f"trace deviates from 1 by {trace_dev:.3e}")
        if not _shifted_cholesky_succeeds(m):
            smallest = float(np.linalg.eigvalsh(m)[0])
            if not smallest >= -EIGEN_TOL:
                raise NotPositive(f"matrix is not positive semidefinite: smallest eigenvalue {smallest:.3e}")
        m.setflags(write=False)
        self.dim = int(m.shape[0])
        self.entries = m

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


class ProbabilityDistribution:
    """Outcome probabilities of one measurement.

    Outside input is checked: entries in [-PROB_CLIP, 0) clamp to exactly 0,
    anything more negative raises, and the sum must be 1 within NORM_TOL.
    QuantumSystem's distributions of validated states skip these checks.
    """

    def __init__(self, probs):
        p = np.asarray(probs, dtype=np.float64).ravel()
        if p.size == 0:
            raise ValidationError("distribution has no outcomes")
        _check_finite(p, "distribution")
        smallest = float(p.min())
        if not smallest >= -PROB_CLIP:
            raise NotPositive(f"probability {smallest:.3e} is negative beyond round-off")
        p = _clamped(p)
        dev = abs(float(p.sum()) - 1.0)
        if not dev <= NORM_TOL:
            raise NotNormalized(f"probabilities sum deviates from 1 by {dev:.3e}")
        p.setflags(write=False)
        self.dim = int(p.size)
        self.probs = p

    def __repr__(self):
        return f"ProbabilityDistribution(dim={self.dim})"


# ---- the arena -------------------------------------------------------------


class QuantumSystem:
    """The arena for one odd dimension d: roots of unity, Fourier rows, bases.

    Attributes
    ----------
    d : int
        Hilbert-space dimension, odd and at least 3.
    half_inverse : int
        Inverse of 2 in Z_d, equal to (d + 1) / 2.

    Nothing builds the dense F: momenta and F^dag rho F are FFTs (see
    _momentum_rows, _fourier_conjugated); basis states take rows of F.
    """

    def __init__(self, d: int):
        check_dimension(d)
        self.d = int(d)
        self.half_inverse = (self.d + 1) // 2
        ks = np.arange(self.d)
        omega_pow = np.exp(2j * np.pi * ks / self.d)
        omega_pow.setflags(write=False)
        self._omega_pow = omega_pow

    def _fourier_rows(self, r) -> np.ndarray:
        """Row r of F, or one row per entry of a 1-D array r, for r in 0..d-1: omega**(r*k mod d) / sqrt(d)."""
        return self._omega_pow[np.asarray(r)[..., None] * np.arange(self.d) % self.d] / np.sqrt(self.d)

    def __repr__(self):
        return f"QuantumSystem(d={self.d})"

    # -- basis vectors --

    def position_state(self, r: int) -> StateVector:
        """Computational basis vector with a single 1 at index r mod d."""
        _check_integer("r", r)
        amp = np.zeros(self.d, dtype=np.complex128)
        amp[r % self.d] = 1.0
        return _trusted(StateVector, dim=self.d, amplitudes=amp)

    def momentum_state(self, r: int) -> StateVector:
        """Fourier image of the r-th position state, i.e. column r of F."""
        _check_integer("r", r)
        return _trusted(StateVector, dim=self.d, amplitudes=self._fourier_rows(r % self.d))

    # -- operators --

    def _displaced(self, x: np.ndarray, alpha, beta) -> np.ndarray:
        """D(alpha, beta) applied to a vector x or to each row of x, in O(x.size).

        D multiplies the m-th position amplitude by omega**(alpha*m), shifts
        position indices by beta, and fixes the overall phase with the factor
        omega**(-half_inverse*alpha*beta): entry s moves to r = (s + beta) % d
        and is multiplied by omega**((alpha*r - half_inverse*alpha*beta) % d).
        That is entry o + r, o = (-half_inverse*beta) % d, of alpha's row of
        the 2d - 1 powers omega**(alpha*k % d), the same table entry: the
        phases gather length-d windows of the alphas' rows, so a chunk of
        alphas builds no (n, d, d) index. 1-D arrays of alpha and beta (either
        may stay a scalar, or broadcast against the other) displace x once per
        pair, on a new second-to-last axis. Displaced identity rows are D's
        columns.
        """
        d = self.d
        a, b = np.asarray(alpha) % d, np.asarray(beta) % d
        table = self._omega_pow[a.reshape(-1, 1) * np.arange(2 * d - 1) % d]
        row, entry = table.strides
        windows = np.ndarray((a.size, d, d), table.dtype, table, 0, (row, entry, entry))
        moved = x[..., (np.arange(d) - b[..., None]) % d]
        # the phases must stay the left, unnamed operand, so stacks of 256 KiB or more round as lone rows
        return windows[np.arange(a.size).reshape(a.shape), -self.half_inverse * b % d] * moved

    def _displaced_densities(self, rho: np.ndarray, alpha, beta) -> np.ndarray:
        """D(alpha, beta)^dag rho D(alpha, beta) per pair of 1-D arrays alpha and beta, on a new first axis.

        D's overall phase cancels: entry (s, t) is omega**(alpha*(t - s)) *
        rho[(s + beta) % d, (t + beta) % d], one product and no sum. A pair's
        shifted rho gathers rows (s + beta) % d of the length-d windows of rho
        doubled along its columns, each starting at column beta; its phases
        are a Toeplitz view, one row of the 2d - 1 powers omega**(alpha*k),
        k = 1 - d..d - 1, read from k = -s. No index array is (n, d, d).
        """
        d = self.d
        ks = np.arange(d)
        a, b = np.asarray(alpha)[:, None] % d, np.asarray(beta)[:, None] % d
        # strided views built by the ndarray constructor: sliding_window_view
        # costs about 20 us a call and keeps a small block traced per call
        doubled = np.concatenate((rho, rho), axis=-1)
        row, entry = doubled.strides
        shifted = np.ndarray((d, d + 1, d), doubled.dtype, doubled, 0, (row, entry, entry))[(ks + b) % d, b]
        table = self._omega_pow[a * np.arange(1 - d, d) % d]
        row, entry = table.strides
        phases = np.ndarray(shifted.shape, table.dtype, table, entry * (d - 1), (row, -entry, entry))
        # the phases must stay the left operand, or the product rounds differently (see _displaced)
        return np.multiply(phases, shifted, out=shifted)

    # -- coherent states --

    def default_fiducial(self) -> StateVector:
        """Reference vector with amplitudes proportional to (1, 2, ..., d).

        Its moduli are pairwise distinct and all nonzero, so in every
        dimension it stays clear of the position and momentum bases.
        """
        return StateVector.normalized(np.arange(1, self.d + 1, dtype=np.float64))

    def coherent_state(self, fiducial, alpha: int, beta: int) -> StateVector:
        """Displaced fiducial D(alpha, beta)|f>, with the fiducial's norm.

        The fiducial must not coincide with any position or momentum basis
        state, otherwise the displaced family collapses onto a basis; the
        exact overlaps max |f| and max |F^dag f| must stay below 1 - OVERLAP_TOL.
        """
        _check_integer("alpha", alpha)
        _check_integer("beta", beta)
        f = fiducial if isinstance(fiducial, StateVector) else StateVector(fiducial)
        if f.dim != self.d:
            raise DimensionMismatch(f"dimension mismatch: system is {self.d}, fiducial is {f.dim}")
        pos = float(np.max(np.abs(f.amplitudes)))
        mom = float(np.max(np.abs(np.fft.fft(f.amplitudes, norm="ortho"))))
        if max(pos, mom) >= 1.0 - OVERLAP_TOL:
            raise DegenerateFiducial(
                f"fiducial coincides with a basis state: max position overlap {pos:.9f}, "
                f"max momentum overlap {mom:.9f}"
            )
        return _trusted(StateVector, dim=self.d, amplitudes=self._displaced(f.amplitudes, alpha, beta))

    # -- measurement distributions --

    def position_probs(self, state) -> ProbabilityDistribution:
        """Position outcome distribution of a StateVector or DensityMatrix.

        |psi|^2 for a state vector, the diagonal of rho for a density matrix.
        """
        p = _position_rows(*self._state_array(state))
        return _trusted(ProbabilityDistribution, dim=self.d, probs=p)

    def momentum_probs(self, state) -> ProbabilityDistribution:
        """Momentum outcome distribution of a StateVector or DensityMatrix.

        |F^dag psi|^2 or the diagonal of F^dag rho F, by FFT without F.
        """
        p = _momentum_rows(*self._state_array(state))
        return _trusted(ProbabilityDistribution, dim=self.d, probs=p)

    def maximally_mixed(self) -> DensityMatrix:
        """Identity over d: flat in both bases, the zero of both Gini indices."""
        entries = np.array(np.eye(self.d) / self.d, dtype=np.complex128)
        return _trusted(DensityMatrix, dim=self.d, entries=entries)

    def _state_array(self, state) -> tuple[np.ndarray, bool]:
        """A state's amplitudes (StateVector) or entries (DensityMatrix), and whether it is pure."""
        if state.dim != self.d:
            raise DimensionMismatch(f"dimension mismatch: system is {self.d}, operand is {state.dim}")
        if isinstance(state, StateVector):
            return state.amplitudes, True
        return state.entries, False


def _distribution_rows(x: np.ndarray, pure: bool = False) -> np.ndarray:
    """Positions, then momenta, of amplitude rows (pure) or density matrices, as one (..., 2, d) array."""
    return np.stack((_position_rows(x, pure), _momentum_rows(x, pure)), axis=-2)


def _position_rows(x: np.ndarray, pure: bool) -> np.ndarray:
    """Position distributions of amplitude rows (pure) or density matrices, over the last axes."""
    if pure:
        return _moduli_squared(x)
    return _clamped(np.diagonal(x, axis1=-2, axis2=-1).real)


def _momentum_rows(x: np.ndarray, pure: bool) -> np.ndarray:
    """Momentum distributions of amplitude rows (pure) or density matrices, over the last axes.

    Pure rows take the orthonormal FFT. Entry k of the diagonal of F^dag rho F
    is (1/d) sum_t c_t omega**(t*k), one inverse DFT of the wrapped-diagonal
    sums c_t = sum_r rho[r, (r+t) mod d] (see _wrapped_diagonal_sums): no F
    and no BLAS product, so a stack rounds each state as a lone one, at any
    thread count, and its temporaries stay under _STACK_BYTES plus O(d).
    """
    if pure:
        return _moduli_squared(np.fft.fft(x, norm="ortho"))
    return _clamped(np.fft.ifft(_wrapped_diagonal_sums(x)).real)


def _wrapped_diagonal_sums(x: np.ndarray) -> np.ndarray:
    """c_t = sum_r x[..., r, (r+t) % d] over the last two axes, C-contiguous, adding the rows r in order.

    A stack of at most _STACK_BYTES is gathered at once through its d's
    cached flat index. A larger one is streamed in blocks of rows, each
    block under _STACK_BYTES: the rows are laid twice side by side, so row
    r's wrapped diagonal entries are d consecutive entries from column r, a
    strided view whose row step is one entry longer than the block's. Row 0
    of every block carries the sums so far (zeros for the first), and numpy
    adds a non-innermost axis sequentially from 0, so the sums keep the bits
    of the one gather.
    """
    d = x.shape[-1]
    lead = x.shape[:-2]
    if x.nbytes <= _STACK_BYTES:
        # numpy casts the int32 flat indices in buffers, so the peak is the
        # gathered stack and a quarter more. A stack's sums come out with the
        # state axis innermost; in C order they sort and score as lone states' do
        c = x.reshape(*lead, d * d)[..., _wrapped_diagonals(d)].sum(axis=-2)
        return np.ascontiguousarray(c)
    # block rows hold 2d + 1 entries: a row's two copies fill columns 1..2d,
    # so the sums carried in row 0 can start at column `start`, 0 included
    rows = max(2, _STACK_BYTES // (x.size // (d * d) * (2 * d + 1) * x.itemsize))
    block = np.empty((*lead, rows, 2 * d + 1), dtype=x.dtype)
    *steps, row, entry = block.strides
    c = np.zeros((*lead, d), dtype=x.dtype)
    for start in range(0, d, rows - 1):
        end = min(start + rows - 1, d)
        block[..., 1 : end - start + 1, 1 : d + 1] = x[..., start:end, :]
        block[..., 1 : end - start + 1, d + 1 :] = x[..., start:end, :]
        block[..., 0, start : start + d] = c
        # entry [i, t] of the view is block[i, start + i + t]: the carried c_t
        # at i = 0, then x[r, (r + t) % d] for r = start + i - 1
        view = np.ndarray((*lead, end - start + 1, d), x.dtype, block, start * entry, (*steps, row + entry, entry))
        c = view.sum(axis=-2)
    return c


@functools.lru_cache(maxsize=4)
def _wrapped_diagonals(d: int) -> np.ndarray:
    """Read-only int32 flat indices r*d + (r+t) % d at [r, t] into a d x d matrix, built once per d.

    Only a d x d matrix of at most _STACK_BYTES is gathered through it, so
    no cached index exceeds a quarter of the ceiling.
    """
    r = np.arange(d, dtype=np.int32)[:, None]
    index = (r + r.T) % d + d * r
    index.setflags(write=False)
    return index


def _moduli_squared(amplitudes: np.ndarray) -> np.ndarray:
    return amplitudes.real**2 + amplitudes.imag**2


def _clamped(p: np.ndarray) -> np.ndarray:
    """A fresh copy of p with negative round-off set to 0 (density eigenvalues reach -EIGEN_TOL)."""
    return np.where(p < 0.0, 0.0, p)


def new_system(d: int) -> QuantumSystem:
    """Construct the d-dimensional arena (d odd, at least 3)."""
    return QuantumSystem(d)


# ---- density-matrix operations ----------------------------------------------


def pure_density(state) -> DensityMatrix:
    """Rank-one projector |psi><psi| of a normalized state."""
    st = state if isinstance(state, StateVector) else StateVector(state)
    return _trusted(DensityMatrix, dim=st.dim, entries=np.outer(st.amplitudes, st.amplitudes.conj()))


def validate_density(entries) -> DensityMatrix:
    """Check Hermiticity, unit trace and positivity, and wrap the matrix."""
    return DensityMatrix(entries)


def _fourier_conjugated(rho: np.ndarray) -> np.ndarray:
    """F^dag rho F over the last two axes, for one rho or a stack (the Fourier swap check).

    rho F is the orthonormal inverse FFT of each row, and F^dag of that the
    forward FFT of each column: no F is built, and F's sign and scale stay here.
    """
    return np.fft.fft(np.fft.ifft(rho, axis=-1, norm="ortho"), axis=-2, norm="ortho")

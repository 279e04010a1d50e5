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

import numpy as np

from qgini.errors import (
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
    WeightOutOfRange,
)

# ---- tolerances ------------------------------------------------------------

UNITARY_TOL = 1e-12     # max entrywise |U U^dag - 1|
NORM_TOL = 1e-10        # |sum of amplitude moduli squared - 1|, |sum p - 1|
HERMITIAN_TOL = 1e-10   # max entrywise |M - M^dag|
TRACE_TOL = 1e-10       # |tr M - 1|
EIGEN_TOL = 1e-10       # smallest admissible eigenvalue is -EIGEN_TOL
PROB_CLIP = 1e-12       # probabilities in [-PROB_CLIP, 0) clamp to 0
OVERLAP_TOL = 1e-9      # fiducial overlap moduli must stay below 1 - OVERLAP_TOL

# Largest supported dimension. The arena keeps F and F^dag as dense complex
# d x d matrices (32 d^2 bytes, about 0.5 GB at 4001) and a density matrix
# costs as much again, so larger requests are refused before any allocation
# rather than failing inside numpy.
MAX_DIM = 4001


def check_dimension(d: int) -> None:
    """Reject dimensions that are even, smaller than 3 or larger than MAX_DIM."""
    if d % 2 == 0:
        raise EvenDimension(f"dimension must be odd, got {d}")
    if d < 3:
        raise DimensionTooSmall(f"dimension must be at least 3, got {d}")
    if d > MAX_DIM:
        raise DimensionTooLarge(f"dimension must be at most {MAX_DIM}, got {d}")


def _check_finite(values: np.ndarray, what: str) -> None:
    """Reject NaN or infinite entries before any arithmetic touches them."""
    if not np.all(np.isfinite(values)):
        raise NotFinite(f"{what} has a NaN or infinite entry")


def _trusted(cls, **fields):
    """An instance of `cls` holding `fields`, without running its checks.

    Validation happens once, at the boundary: the public constructors, state
    files and the CLI. Results that satisfy a class's invariants by
    construction (the Fourier and displacement matrices, projectors of
    validated states, mixtures, conjugations, sort orders and partial sums)
    are wrapped here instead. Arrays are frozen as the constructors freeze
    them.
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
        """Scale `values` to unit norm and wrap them."""
        v = np.asarray(values, dtype=np.complex128).ravel()
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            raise NotNormalized("cannot normalize the zero vector")
        return cls(v / nrm)

    def __repr__(self):
        return f"StateVector(dim={self.dim})"


class UnitaryMatrix:
    """A square matrix U with max |U U^dag - 1| below UNITARY_TOL."""

    def __init__(self, entries):
        m = np.array(entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"unitary must be square, got shape {m.shape}")
        _check_finite(m, "unitary")
        dev = float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))))
        if not dev <= UNITARY_TOL:
            raise ValidationError(f"matrix is not unitary: max |U U^dag - 1| = {dev:.3e}")
        m.setflags(write=False)
        self.dim = int(m.shape[0])
        self.entries = m

    def dagger(self) -> "UnitaryMatrix":
        """Conjugate transpose, itself unitary."""
        return _trusted(UnitaryMatrix, dim=self.dim, entries=self.entries.conj().T)

    def __repr__(self):
        return f"UnitaryMatrix(dim={self.dim})"


class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite matrix.

    Hermiticity and trace are checked entrywise within HERMITIAN_TOL and
    TRACE_TOL; positivity means the smallest eigenvalue is at least
    -EIGEN_TOL (round-off is tolerated, genuine negativity is not).
    """

    def __init__(self, entries):
        m = np.array(entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"density matrix must be square, got shape {m.shape}")
        _check_finite(m, "density matrix")
        herm_dev = float(np.max(np.abs(m - m.conj().T)))
        if not herm_dev <= HERMITIAN_TOL:
            raise NotHermitian(f"matrix is not Hermitian: max |M - M^dag| = {herm_dev:.3e}")
        trace_dev = abs(complex(np.trace(m)) - 1.0)
        if not trace_dev <= TRACE_TOL:
            raise TraceNotOne(f"trace deviates from 1 by {trace_dev:.3e}")
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

    Entries in [-PROB_CLIP, 0) are round-off from conjugations and clamp to
    exactly 0 on construction; anything more negative raises. The clamped
    entries must sum to 1 within NORM_TOL.
    """

    def __init__(self, probs):
        p = np.array(probs, dtype=np.float64).ravel()
        if p.size == 0:
            raise ValidationError("distribution has no outcomes")
        smallest = float(p.min())
        if not smallest >= -PROB_CLIP:
            raise NotPositive(f"probability {smallest:.3e} is negative beyond round-off")
        p[p < 0.0] = 0.0
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
    """The arena for one odd dimension d: roots of unity, Fourier, bases.

    Attributes
    ----------
    d : int
        Hilbert-space dimension, odd and at least 3.
    omega : complex
        Primitive d-th root of unity exp(2*pi*i/d).
    half_inverse : int
        Inverse of 2 in Z_d, equal to (d + 1) / 2.
    fourier : UnitaryMatrix
        F[r, s] = omega**(r*s) / sqrt(d); maps position to momentum basis.
    fourier_dag : numpy.ndarray
        Cached conjugate transpose of `fourier` (read-only view for hot paths).
    """

    def __init__(self, d: int):
        check_dimension(d)
        self.d = int(d)
        self.half_inverse = (self.d + 1) // 2
        ks = np.arange(self.d)
        omega_pow = np.exp(2j * np.pi * ks / self.d)
        omega_pow.setflags(write=False)
        self._omega_pow = omega_pow
        self.omega = complex(omega_pow[1])
        fourier = omega_pow[np.outer(ks, ks) % self.d] / np.sqrt(self.d)
        self.fourier = _trusted(UnitaryMatrix, dim=self.d, entries=fourier)
        fdag = np.ascontiguousarray(self.fourier.entries.conj().T)
        fdag.setflags(write=False)
        self.fourier_dag = fdag

    def __repr__(self):
        return f"QuantumSystem(d={self.d})"

    # -- basis vectors --

    def position_state(self, r: int) -> StateVector:
        """Computational basis vector with a single 1 at index r mod d."""
        amp = np.zeros(self.d, dtype=np.complex128)
        amp[r % self.d] = 1.0
        return StateVector(amp)

    def momentum_state(self, r: int) -> StateVector:
        """Fourier image of the r-th position state, i.e. column r of F."""
        return StateVector(self.fourier.entries[:, r % self.d])

    # -- operators --

    def displacement(self, alpha: int, beta: int) -> UnitaryMatrix:
        """Phase-space displacement D(alpha, beta).

        D multiplies the m-th position amplitude by omega**(alpha*m), shifts
        position indices by beta, and fixes the overall phase with the factor
        omega**(-half_inverse*alpha*beta). Concretely the only nonzero entries
        are

            D[(s + beta) % d, s] = omega**((alpha*(s + beta) -
                                            half_inverse*alpha*beta) % d)

        with the exponent reduced mod d before the table lookup, so every
        entry is an exact root of unity. alpha and beta are taken mod d;
        D(alpha, beta).dagger() equals D(-alpha, -beta) exactly.
        """
        d = self.d
        a = alpha % d
        b = beta % d
        cols = np.arange(d)
        rows = (cols + b) % d
        expo = (a * rows - self.half_inverse * a * b) % d
        m = np.zeros((d, d), dtype=np.complex128)
        m[rows, cols] = self._omega_pow[expo]
        return _trusted(UnitaryMatrix, dim=d, entries=m)

    # -- coherent states --

    def default_fiducial(self) -> StateVector:
        """Reference vector with amplitudes proportional to (1, 2, ..., d).

        Its moduli are pairwise distinct and all nonzero, so in every
        dimension it stays clear of the position and momentum bases.
        """
        return StateVector.normalized(np.arange(1, self.d + 1, dtype=np.float64))

    def coherent_state(self, fiducial, alpha: int, beta: int) -> StateVector:
        """Displaced fiducial D(alpha, beta)|f>, renormalized.

        The fiducial must not coincide with any position or momentum basis
        state, otherwise the displaced family collapses onto a basis; both
        overlap moduli maxima must stay below 1 - OVERLAP_TOL.
        """
        f = fiducial if isinstance(fiducial, StateVector) else StateVector(fiducial)
        if f.dim != self.d:
            raise DimensionMismatch(f"dimension mismatch: system is {self.d}, fiducial is {f.dim}")
        pos = float(np.max(np.abs(f.amplitudes)))
        mom = float(np.max(np.abs(self.fourier_dag @ f.amplitudes)))
        if pos >= 1.0 - OVERLAP_TOL or mom >= 1.0 - OVERLAP_TOL:
            raise DegenerateFiducial(
                f"fiducial coincides with a basis state: max position overlap {pos:.9f}, "
                f"max momentum overlap {mom:.9f}"
            )
        return StateVector.normalized(self.displacement(alpha, beta).entries @ f.amplitudes)

    # -- measurement distributions --

    def position_probs(self, rho: DensityMatrix) -> ProbabilityDistribution:
        """Position outcome distribution: the diagonal of rho."""
        self._check_dim(rho)
        return ProbabilityDistribution(np.diagonal(rho.entries).real)

    def momentum_probs(self, rho: DensityMatrix) -> ProbabilityDistribution:
        """Momentum outcome distribution: the diagonal of F^dag rho F."""
        self._check_dim(rho)
        rotated = self.fourier_dag @ rho.entries @ self.fourier.entries
        return ProbabilityDistribution(np.diagonal(rotated).real)

    def maximally_mixed(self) -> DensityMatrix:
        """Identity over d: flat in both bases, the zero of both Gini indices."""
        entries = np.array(np.eye(self.d) / self.d, dtype=np.complex128)
        return _trusted(DensityMatrix, dim=self.d, entries=entries)

    def _check_dim(self, other) -> None:
        if other.dim != self.d:
            raise DimensionMismatch(f"dimension mismatch: system is {self.d}, operand is {other.dim}")


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


def mix(rho: DensityMatrix, sigma: DensityMatrix, lambda1: float) -> DensityMatrix:
    """Convex combination lambda1 * rho + (1 - lambda1) * sigma."""
    lam = float(lambda1)
    if not 0.0 <= lam <= 1.0:
        raise WeightOutOfRange(f"mixing weight must lie in [0, 1], got {lambda1!r}")
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    return _trusted(DensityMatrix, dim=rho.dim, entries=lam * rho.entries + (1.0 - lam) * sigma.entries)


def conjugate(rho: DensityMatrix, u: UnitaryMatrix) -> DensityMatrix:
    """U^dag rho U, a density matrix again since U is unitary."""
    if rho.dim != u.dim:
        raise DimensionMismatch(f"dimension mismatch: {rho.dim} vs {u.dim}")
    return _trusted(DensityMatrix, dim=rho.dim, entries=u.entries.conj().T @ rho.entries @ u.entries)

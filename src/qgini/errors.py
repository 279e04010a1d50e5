"""Exception types raised when a value breaks one of the library invariants.

Every class derives from :class:`ValidationError`, so callers (the CLI in
particular) can catch domain problems in one place while letting genuine
programming errors propagate. Messages name the violated invariant and, where
it makes sense, the observed violation magnitude.
"""


class ValidationError(ValueError):
    """A value failed one of the domain invariants."""


class EvenDimension(ValidationError):
    """The Hilbert-space dimension must be odd (2 needs an inverse mod d)."""


class DimensionTooSmall(ValidationError):
    """The Hilbert-space dimension must be at least 3."""


class DimensionTooLarge(ValidationError):
    """The Hilbert-space dimension exceeds the supported ceiling MAX_DIM."""


class DimensionMismatch(ValidationError):
    """Two objects that must share a dimension do not."""


class NotNormalized(ValidationError):
    """Amplitudes or probabilities do not sum to one within tolerance."""


class NotFinite(ValidationError):
    """An amplitude or matrix entry is NaN or infinite."""


class NotHermitian(ValidationError):
    """A candidate density matrix is not Hermitian within tolerance."""


class TraceNotOne(ValidationError):
    """A candidate density matrix does not have unit trace within tolerance."""


class NotPositive(ValidationError):
    """An eigenvalue or probability is negative beyond round-off tolerance."""


class DegenerateFiducial(ValidationError):
    """A coherent-state fiducial coincides with a position or momentum state."""


class BudgetTooSmall(ValidationError):
    """A search or check budget (restarts, iterations or samples) is below one."""


class BudgetTooLarge(ValidationError):
    """A search or check budget exceeds its documented ceiling."""


class InvalidStateFile(ValidationError):
    """A state file is malformed or structurally inconsistent."""

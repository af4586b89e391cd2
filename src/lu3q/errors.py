"""Exception types shared across the package."""

__all__ = [
    "FormatError",
    "NotHermitianError",
    "TraceNotOneError",
    "NotRotationError",
    "NotSpecialUnitaryError",
    "WrongClassError",
    "SingularSystemError",
    "InconsistentInvariantsError",
]


class NotSpecialUnitaryError(ValueError):
    """2x2 matrix is not special unitary within tolerance."""


class NotRotationError(ValueError):
    """3x3 matrix is not a proper rotation within tolerance."""


class FormatError(ValueError):
    """Input that is not a valid state: malformed JSON, wrong schema, bad numbers."""


class NotHermitianError(FormatError):
    """Input matrix deviates from Hermitian beyond tolerance."""


class TraceNotOneError(FormatError):
    """Input matrix trace deviates from 1 beyond tolerance."""


class WrongClassError(ValueError):
    """Reconstruction routine called on an orbit class it does not handle."""


class SingularSystemError(RuntimeError):
    """A linear system needed for reconstruction is singular or ill-conditioned."""

    def __init__(self, message, magnitude=None):
        super().__init__(message)
        self.magnitude = magnitude


class InconsistentInvariantsError(RuntimeError):
    """Invariant values violate a constraint they must satisfy (e.g. negative squares)."""

"""Exception types shared across the package."""

__all__ = ["BerrysimError", "DegeneracyError", "ResolutionError", "AccuracyError"]


class BerrysimError(Exception):
    """Base class for all package-specific errors."""


class DegeneracyError(BerrysimError):
    """Raised when a field vector vanishes and the eigenbasis is undefined."""


class ResolutionError(BerrysimError):
    """Raised when a discretization is too coarse for the requested quantity."""


class AccuracyError(BerrysimError):
    """Raised when an adaptive numerical routine cannot reach its tolerance."""

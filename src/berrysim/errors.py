"""Exception types shared across the package, and its one integer check."""

import numpy as np

__all__ = ["BerrysimError", "DegeneracyError", "ResolutionError", "AccuracyError"]


class BerrysimError(Exception):
    """Base class for all package-specific errors."""


class DegeneracyError(BerrysimError):
    """Raised when a field vector vanishes and the eigenbasis is undefined."""


class ResolutionError(BerrysimError):
    """Raised when a discretization is too coarse for the requested quantity."""


class AccuracyError(BerrysimError):
    """Raised when an adaptive numerical routine cannot reach its tolerance."""


def _count(name: str, value, low: int) -> int:
    """``value`` as an int: an int or numpy integer (not a bool) >= ``low``, or ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(
            low, f"an integer >= {low}")
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return int(value)

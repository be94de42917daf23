"""Geometric and dynamical phase statistics for a driven spin-1/2.

A spin-1/2 follows a slowly rotating control field while weak
Ornstein-Uhlenbeck noise perturbs all three field components.  The
package provides closed-form variances of the resulting geometric-phase
and field-modulus fluctuations, an independent quadrature oracle for the
same quantities, exact two-level evolution with phase extraction, Monte
Carlo validation, and dephasing estimates, plus a CLI wrapping it all.
The public names are those each submodule lists in its ``__all__``.
"""

from . import analytics, errors, evolve, field, montecarlo, noise
from .analytics import *  # noqa: F403
from .errors import *  # noqa: F403
from .evolve import *  # noqa: F403
from .field import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .noise import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (errors, noise, field, analytics, evolve, montecarlo)
    for name in module.__all__
]

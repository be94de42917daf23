"""Geometric and dynamical phase statistics for a driven spin-1/2.

A spin-1/2 follows a slowly rotating control field while weak
Ornstein-Uhlenbeck noise perturbs all three field components.  The
package provides closed-form variances of the resulting geometric-phase
and field-modulus fluctuations, an independent quadrature oracle for the
same quantities, exact two-level evolution with phase extraction, Monte
Carlo validation, and dephasing estimates, plus a CLI wrapping it all.
"""

from .analytics import (
    PhaseMoments,
    QuadratureEstimate,
    VarianceBreakdown,
    Weight,
    berry_connection_phi,
    berry_phase_variance_broadband,
    berry_phase_variance_narrowband,
    covariance_by_quadrature,
    density_matrix_after,
    dephasing_factor,
    dynamical_weight,
    geometric_weight,
    noiseless_berry_phase,
    noncyclic_connection_term,
    phase_covariance,
    phase_moments,
    variance_by_quadrature,
)
from .errors import AccuracyError, BerrysimError, DegeneracyError, ResolutionError
from .evolve import (
    IntegratorConfig,
    PhaseExtraction,
    SpinState,
    TrajectoryTrace,
    connection_phase_discrete,
    eigenstate_down,
    eigenstate_up,
    evolve_and_extract,
)
from .field import (
    AdiabaticityReport,
    FieldSample,
    PrecessionSpec,
    SphericalAngles,
    adiabaticity_report,
    control_field,
    field_sample,
    first_order_cos_theta,
    polar_angles,
)
from .montecarlo import (
    CoherenceEstimate,
    ComparisonReport,
    EnsembleStats,
    GridPoint,
    TrialRecord,
    coherence,
    compare_to_analytic,
    regime_grid,
    run_ensemble,
    summarize,
    trial_seed,
)
from .noise import (
    NoiseModel,
    NoisePath,
    OuParams,
    autocovariance,
    estimate_autocovariance,
    sample_path,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "BerrysimError", "DegeneracyError", "ResolutionError", "AccuracyError",
    # noise
    "OuParams", "NoiseModel", "NoisePath", "sample_path",
    "autocovariance", "estimate_autocovariance",
    # field
    "PrecessionSpec", "SphericalAngles", "FieldSample", "AdiabaticityReport",
    "control_field", "polar_angles", "field_sample", "first_order_cos_theta",
    "adiabaticity_report",
    # analytics
    "Weight", "geometric_weight", "dynamical_weight",
    "berry_connection_phi", "noiseless_berry_phase", "VarianceBreakdown",
    "phase_covariance", "berry_phase_variance_narrowband", "berry_phase_variance_broadband",
    "QuadratureEstimate", "variance_by_quadrature", "covariance_by_quadrature",
    "dephasing_factor", "density_matrix_after", "PhaseMoments", "phase_moments",
    "noncyclic_connection_term",
    # evolve
    "SpinState", "IntegratorConfig", "PhaseExtraction", "TrajectoryTrace",
    "eigenstate_up", "eigenstate_down", "evolve_and_extract", "connection_phase_discrete",
    # montecarlo
    "TrialRecord", "trial_seed", "run_ensemble", "EnsembleStats", "summarize",
    "CoherenceEstimate", "coherence", "ComparisonReport", "compare_to_analytic",
    "GridPoint", "regime_grid",
]

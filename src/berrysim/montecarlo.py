"""Monte Carlo validation of the closed-form phase statistics.

Each trial draws the standard-normal innovations xi of one OU noise
realization and evaluates the first-order phase deviations, and
optionally runs the exact spin evolution on the path K = L xi those
innovations give.  The deviations are weighted path integrals w.K,
linear in the innovations: w.K = (L^T w).xi.  So each ensemble runs its
two trapezoid-weighted response weights backwards through the exact OU
recursion once (the adjoint L^T w), and each trial is one product of
those adjoint weights with its draw; first-order trials build no
filtered path.  A full_sim ensemble computes the control field once;
each of its trials filters its draw into K and runs the evolution
kernel on control field plus K, recording only the geometric phase and
the leakage.  The recorded ``gamma_fo``,
``delta_fo`` and ``alpha_fo`` are deviations from the noiseless values
(so their ensemble means target zero), while ``gamma_sim`` is the
absolute folded geometric phase from the evolution.

Trial seeds are derived from ``(master_seed, trial_index)``, so
ensembles are reproducible and extending ``n_trials`` preserves the
earlier trials.  Trials run serially; summaries reduce arrays in trial
order with fixed-order numpy reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import (
    PhaseMoments,
    dephasing_factor,
    dynamical_weight,
    geometric_weight,
)
from .evolve import IntegratorConfig, _control_grids, _evolve
from .field import PrecessionSpec
from .noise import NoiseModel, _draw_innovations, _ou_filter

__all__ = [
    "TrialRecord",
    "trial_seed",
    "run_ensemble",
    "EnsembleStats",
    "summarize",
    "CoherenceEstimate",
    "coherence",
    "ComparisonReport",
    "compare_to_analytic",
    "GridPoint",
    "regime_grid",
]

_MODES = ("first_order", "full_sim")
# |z| above this fails a moment comparison.
_Z_THRESHOLD = 3.0


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one noise realization.

    ``gamma_fo``, ``delta_fo``, ``alpha_fo`` are first-order deviations
    from the noiseless phases; ``gamma_sim`` and ``leakage`` are filled
    only in ``full_sim`` mode.
    """

    trial_index: int
    gamma_fo: float
    delta_fo: float
    alpha_fo: float
    gamma_sim: float | None = None
    leakage: float | None = None


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Deterministic per-trial seed, independent across trial indices."""
    if not isinstance(master_seed, (int, np.integer)) or master_seed < 0:
        raise ValueError(f"master_seed must be a nonnegative integer, got {master_seed}")
    if not isinstance(trial_index, (int, np.integer)) or trial_index < 0:
        raise ValueError(f"trial_index must be a nonnegative integer, got {trial_index}")
    seq = np.random.SeedSequence((int(master_seed), int(trial_index)))
    return int(seq.generate_state(1, np.uint64)[0])


def run_ensemble(
    spec: PrecessionSpec,
    model: NoiseModel,
    n_trials: int,
    master_seed: int,
    *,
    mode: str = "first_order",
    config: IntegratorConfig | None = None,
) -> list[TrialRecord]:
    """Run ``n_trials`` independent noise realizations.

    Paths are sampled on the integration grid (``steps_per_cycle *
    n_cycles`` steps over the schedule) so that first-order integrals
    and the exact evolution see the same realization.  With a fixed
    ``master_seed`` the innovations of trial k do not depend on the
    noise amplitudes, so ensembles at different sigma share noise shapes.
    Trials run serially, in index order.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if not isinstance(n_trials, (int, np.integer)) or n_trials < 1:
        raise ValueError(f"n_trials must be a positive integer, got {n_trials}")
    config = config if config is not None else IntegratorConfig()
    n_steps = config.steps_per_cycle * spec.n_cycles
    dt = spec.t_total / n_steps
    times = np.minimum(np.arange(n_steps + 1) * dt, spec.t_total)
    # Fold the trapezoid quadrature weights into the response weights.
    quad = np.full(n_steps + 1, dt)
    quad[0] = quad[-1] = 0.5 * dt
    w_gamma = geometric_weight(spec).on_grid(spec, times) * quad[:, None]
    w_delta = dynamical_weight(spec).on_grid(spec, times) * quad[:, None]
    # w.K = (L^T w).xi: one adjoint pass here replaces a filtered path per trial.
    adjoint = np.stack(
        [_ou_filter(model, dt, w, adjoint=True).reshape(-1) for w in (w_gamma, w_delta)]
    )
    if mode == "full_sim":
        control_nodes, control_mid = _control_grids(spec, n_steps, dt)

    records = []
    for index in range(int(n_trials)):
        xi = _draw_innovations(n_steps, trial_seed(master_seed, index))
        gamma, delta = (adjoint @ xi.reshape(-1)).tolist()
        gamma_sim = leakage = None
        if mode == "full_sim":
            k = _ou_filter(model, dt, xi)
            if not np.all(np.isfinite(k)):
                raise ValueError("noise samples must be finite")
            run = _evolve(control_nodes + k, control_mid + 0.5 * (k[:-1] + k[1:]), dt, "up")
            gamma_sim = run.geometric_phase
            leakage = run.leakage
        records.append(TrialRecord(index, gamma, delta, gamma + delta, gamma_sim, leakage))
    return records


@dataclass(frozen=True)
class EnsembleStats:
    """Moment estimates with standard errors, keyed by record field.

    Keys are ``gamma_fo``, ``delta_fo``, ``alpha_fo`` and, when the
    ensemble ran in ``full_sim`` mode, ``gamma_sim``.  ``sem_variance``
    uses the fourth-moment formula var(s^2) = (m4 - (n-3)/(n-1) s^4)/n,
    exact for any population.  Skewness and kurtosis standard errors are
    the exact normal-sampling values for the given n.
    """

    n_trials: int
    mean: dict
    variance: dict
    sem_mean: dict
    sem_variance: dict
    skewness: dict
    excess_kurtosis: dict
    se_skewness: float
    se_kurtosis: float
    cov_gamma_delta: float
    se_cov_gamma_delta: float


def _column_stats(x: np.ndarray) -> dict:
    n = x.size
    mean = float(x.mean())
    dx = x - mean
    m2 = float(np.mean(dx * dx))
    m3 = float(np.mean(dx**3))
    m4 = float(np.mean(dx**4))
    variance = float(dx.dot(dx) / (n - 1))
    sem_var_sq = (m4 - (n - 3) / (n - 1) * variance * variance) / n
    return {
        "mean": mean,
        "variance": variance,
        "sem_mean": math.sqrt(variance / n),
        "sem_variance": math.sqrt(max(sem_var_sq, 0.0)),
        "skewness": m3 / m2**1.5 if m2 > 0.0 else 0.0,
        "excess_kurtosis": m4 / (m2 * m2) - 3.0 if m2 > 0.0 else 0.0,
    }


def summarize(records: list[TrialRecord]) -> EnsembleStats:
    """Reduce an ensemble to moment estimates with standard errors.

    Needs at least four records: the kurtosis standard error has n - 3
    in its denominator.
    """
    n = len(records)
    if n < 4:
        raise ValueError(f"need at least four records for the moment standard errors, got {n}")
    columns = {
        "gamma_fo": np.array([r.gamma_fo for r in records]),
        "delta_fo": np.array([r.delta_fo for r in records]),
        "alpha_fo": np.array([r.alpha_fo for r in records]),
    }
    have_sim = [r.gamma_sim is not None for r in records]
    if any(have_sim):
        if not all(have_sim):
            raise ValueError("records mix full_sim and first_order trials")
        columns["gamma_sim"] = np.array([r.gamma_sim for r in records])
    per_key = {key: _column_stats(col) for key, col in columns.items()}

    dg = columns["gamma_fo"] - columns["gamma_fo"].mean()
    dd = columns["delta_fo"] - columns["delta_fo"].mean()
    cov = float(dg.dot(dd) / (n - 1))
    m22 = float(np.mean((dg * dd) ** 2))
    se_cov = math.sqrt(max(m22 - cov * cov, 0.0) / n)

    se_skew = math.sqrt(6.0 * n * (n - 1) / ((n - 2) * (n + 1) * (n + 3)))
    se_kurt = 2.0 * se_skew * math.sqrt((n * n - 1) / ((n - 3) * (n + 5)))
    return EnsembleStats(
        n_trials=n,
        mean={k: s["mean"] for k, s in per_key.items()},
        variance={k: s["variance"] for k, s in per_key.items()},
        sem_mean={k: s["sem_mean"] for k, s in per_key.items()},
        sem_variance={k: s["sem_variance"] for k, s in per_key.items()},
        skewness={k: s["skewness"] for k, s in per_key.items()},
        excess_kurtosis={k: s["excess_kurtosis"] for k, s in per_key.items()},
        se_skewness=se_skew,
        se_kurtosis=se_kurt,
        cov_gamma_delta=cov,
        se_cov_gamma_delta=se_cov,
    )


@dataclass(frozen=True)
class CoherenceEstimate:
    """Ensemble coherence magnitude against the Gaussian prediction."""

    measured: float
    predicted: float
    se: float
    z_score: float


def coherence(records: list[TrialRecord], predicted_var_alpha: float) -> CoherenceEstimate:
    """|<exp(2i alpha)>| over the ensemble, with a jackknife standard error.

    The modulus is invariant under the constant noiseless phase offset,
    so deviation records give the same value as absolute phases.  Needs
    at least 100 records for the jackknife to be meaningful.
    """
    n = len(records)
    if n < 100:
        raise ValueError(f"need at least 100 records for coherence, got {n}")
    predicted = dephasing_factor(predicted_var_alpha)
    phases = np.exp(2.0j * np.array([r.alpha_fo for r in records]))
    total = phases.sum()
    measured = float(abs(total) / n)
    loo = np.abs(total - phases) / (n - 1)
    se = float(math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))
    return CoherenceEstimate(
        measured=measured, predicted=predicted, se=se, z_score=_z(measured - predicted, se)
    )


@dataclass(frozen=True)
class ComparisonReport:
    """z-scores of the empirical moments against the closed forms."""

    z_scores: dict
    threshold: float
    passed: bool


def _z(diff: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / se


def compare_to_analytic(stats: EnsembleStats, moments: PhaseMoments) -> ComparisonReport:
    """Compare ensemble moments with the closed forms at |z| <= 3.

    Record phases are deviations, so the empirical means are compared
    against zero; this is equivalent to comparing absolute means against
    the noiseless values in ``moments``.  Variances and the covariance
    are compared directly.
    """
    z_scores = {
        "mean_gamma": _z(stats.mean["gamma_fo"], stats.sem_mean["gamma_fo"]),
        "var_gamma": _z(
            stats.variance["gamma_fo"] - moments.var_gamma,
            stats.sem_variance["gamma_fo"],
        ),
        "mean_delta": _z(stats.mean["delta_fo"], stats.sem_mean["delta_fo"]),
        "var_delta": _z(
            stats.variance["delta_fo"] - moments.var_delta,
            stats.sem_variance["delta_fo"],
        ),
        "mean_alpha": _z(stats.mean["alpha_fo"], stats.sem_mean["alpha_fo"]),
        "var_alpha": _z(
            stats.variance["alpha_fo"] - moments.var_alpha,
            stats.sem_variance["alpha_fo"],
        ),
        "cov_gamma_delta": _z(
            stats.cov_gamma_delta - moments.cov_gamma_delta,
            stats.se_cov_gamma_delta,
        ),
    }
    passed = all(abs(z) <= _Z_THRESHOLD for z in z_scores.values())
    return ComparisonReport(z_scores=z_scores, threshold=_Z_THRESHOLD, passed=passed)


@dataclass(frozen=True)
class GridPoint:
    """One realized point of the bandwidth/adiabaticity regime grid."""

    spec: PrecessionSpec
    model: NoiseModel
    theta0: float
    gamma_t_target: float
    ratio_target: float
    gamma_t: float
    ratio: float


def regime_grid(
    theta0_values: tuple = (math.pi / 6, math.pi / 4, math.pi / 2),
    gamma_t_values: tuple = (0.01, 1.0, 100.0),
    ratio_values: tuple = (0.01, 1.0, 100.0),
    *,
    b0: float = 1.0,
    t_total: float = 200.0,
    sigma_over_b0: float = 0.05,
) -> tuple[GridPoint, ...]:
    """Realize a grid of (theta0, gamma*T, gamma/omega) working points.

    The drive must close (omega*T = 2*pi*n_cycles with integer
    n_cycles), so the bandwidth-to-drive ratio is realized as
    ``gamma*T / (2*pi*n_cycles)`` with ``n_cycles`` rounded to the
    nearest positive integer.  Corners whose target ratio would need
    n_cycles < 1 realize at the n_cycles = 1 boundary.
    """
    points = []
    for theta0 in theta0_values:
        for gamma_t in gamma_t_values:
            gamma = gamma_t / t_total
            model = NoiseModel.from_scalars(
                sigma_over_b0 * b0, gamma, sigma_over_b0 * b0, gamma
            )
            for ratio in ratio_values:
                n_cycles = max(1, round(gamma_t / (2.0 * math.pi * ratio)))
                spec = PrecessionSpec(
                    b0=b0, theta0=theta0, t_total=t_total, n_cycles=n_cycles
                )
                points.append(
                    GridPoint(
                        spec=spec,
                        model=model,
                        theta0=theta0,
                        gamma_t_target=gamma_t,
                        ratio_target=ratio,
                        gamma_t=gamma * t_total,
                        ratio=gamma / spec.omega,
                    )
                )
    return tuple(points)

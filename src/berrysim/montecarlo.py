"""Monte Carlo validation of the closed-form phase statistics.

Each trial draws the standard-normal innovations xi of one OU noise
realization and evaluates the first-order phase deviations, and
optionally runs the exact spin evolution on the path K = L xi those
innovations give.  The deviations are weighted path integrals w.K,
linear in the innovations: w.K = (L^T w).xi.  So each ensemble runs its
two trapezoid-weighted response weights backwards through the exact OU
recursion once, into the adjoint matrix A, and a first-order trial is
exactly (gamma_fo, delta_fo) = A xi: the records are N(0, A A^T), and
first-order trials build no filtered path.  A full_sim ensemble
computes the control grids once; each of its trials filters its draw
into K and runs the evolution kernel on the control grids and K,
recording only the geometric phase and the leakage.

``run_ensemble`` returns an :class:`Ensemble` of per-trial columns.
``gamma_fo``, ``delta_fo`` and ``alpha_fo`` are deviations from the
noiseless values (so their ensemble means target zero), while
``gamma_sim`` is the absolute folded geometric phase from the
evolution.  The mc pass rule (``_mc_gate``) combines the moment
z-scores of :func:`compare_to_analytic` with the coherence z-score.

Trial seeds are derived from ``(master_seed, trial_index)``, so
ensembles are reproducible and extending ``n_trials`` preserves the
earlier trials.  Trials run serially; summaries reduce the columns in
trial order with fixed-order numpy reductions.
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
    "Ensemble",
    "trial_seed",
    "run_ensemble",
    "EnsembleStats",
    "summarize",
    "CoherenceEstimate",
    "coherence",
    "ComparisonReport",
    "compare_to_analytic",
]

_MODES = ("first_order", "full_sim")
# |z| above this fails a moment comparison.
_Z_THRESHOLD = 3.0
# The fewest trials for which the coherence and its jackknife are computed.
_MIN_COHERENCE_TRIALS = 100


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Per-trial outcomes of one ensemble as columns, in trial order.

    ``gamma_fo`` and ``delta_fo`` are first-order deviations from the
    noiseless phases; ``gamma_sim`` and ``leakage`` hold the exact
    evolution's folded geometric phase and leakage in ``full_sim`` mode
    and are None otherwise.  ``run_ensemble`` makes the columns read-only.
    """

    gamma_fo: np.ndarray
    delta_fo: np.ndarray
    gamma_sim: np.ndarray | None = None
    leakage: np.ndarray | None = None

    @property
    def alpha_fo(self) -> np.ndarray:
        return self.gamma_fo + self.delta_fo

    def __len__(self) -> int:
        return self.gamma_fo.size


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Deterministic per-trial seed, independent across trial indices."""
    if not isinstance(master_seed, (int, np.integer)) or master_seed < 0:
        raise ValueError(f"master_seed must be a nonnegative integer, got {master_seed}")
    if not isinstance(trial_index, (int, np.integer)) or trial_index < 0:
        raise ValueError(f"trial_index must be a nonnegative integer, got {trial_index}")
    seq = np.random.SeedSequence((int(master_seed), int(trial_index)))
    return int(seq.generate_state(1, np.uint64)[0])


def _adjoint_matrix(spec: PrecessionSpec, model: NoiseModel, n_steps: int) -> np.ndarray:
    """The (2, 3(n_steps + 1)) matrix A with (gamma_fo, delta_fo) = A xi.

    Row i is the trapezoid-weighted response weight run backwards
    through the exact OU recursion (the adjoint L^T w), flattened like
    the innovations xi; the first-order covariance is A A^T.
    """
    dt = spec.t_total / n_steps
    times = np.minimum(np.arange(n_steps + 1) * dt, spec.t_total)
    quad = np.full(n_steps + 1, dt)
    quad[0] = quad[-1] = 0.5 * dt
    return np.stack([
        _ou_filter(model, dt, w.on_grid(spec, times) * quad[:, None], adjoint=True).reshape(-1)
        for w in (geometric_weight(spec), dynamical_weight(spec))
    ])


def run_ensemble(
    spec: PrecessionSpec,
    model: NoiseModel,
    n_trials: int,
    master_seed: int,
    *,
    mode: str = "first_order",
    config: IntegratorConfig | None = None,
) -> Ensemble:
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
    # w.K = (L^T w).xi: one adjoint pass here replaces a filtered path per trial.
    adjoint = _adjoint_matrix(spec, model, n_steps)
    first_order = np.empty((2, int(n_trials)))
    sim = np.empty((2, int(n_trials))) if mode == "full_sim" else None
    if sim is not None:
        control_nodes, control_mid = _control_grids(spec, n_steps, dt)

    for index in range(int(n_trials)):
        xi = _draw_innovations(n_steps, trial_seed(master_seed, index))
        first_order[:, index] = adjoint @ xi.reshape(-1)
        if sim is not None:
            run = _evolve(control_nodes, control_mid, _ou_filter(model, dt, xi), dt, "up")
            sim[:, index] = run.geometric_phase, run.leakage
    for columns in (first_order, sim):
        if columns is not None:
            columns.setflags(write=False)
    return Ensemble(*first_order, *(sim if sim is not None else (None, None)))


@dataclass(frozen=True)
class EnsembleStats:
    """Moment estimates with standard errors, keyed by ensemble column.

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


def summarize(ensemble: Ensemble) -> EnsembleStats:
    """Reduce an ensemble to moment estimates with standard errors.

    Needs at least four trials: the kurtosis standard error has n - 3
    in its denominator.
    """
    n = len(ensemble)
    if n < 4:
        raise ValueError(f"need at least four records for the moment standard errors, got {n}")
    columns = {
        "gamma_fo": ensemble.gamma_fo,
        "delta_fo": ensemble.delta_fo,
        "alpha_fo": ensemble.alpha_fo,
    }
    if ensemble.gamma_sim is not None:
        columns["gamma_sim"] = ensemble.gamma_sim
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


def coherence(ensemble: Ensemble, predicted_var_alpha: float) -> CoherenceEstimate:
    """|<exp(2i alpha)>| over the ensemble, with a jackknife standard error.

    The modulus is invariant under the constant noiseless phase offset,
    so deviations give the same value as absolute phases.  Needs at
    least ``_MIN_COHERENCE_TRIALS`` trials for the jackknife to be
    meaningful.
    """
    n = len(ensemble)
    if n < _MIN_COHERENCE_TRIALS:
        raise ValueError(f"need at least {_MIN_COHERENCE_TRIALS} records for coherence, got {n}")
    predicted = dephasing_factor(predicted_var_alpha)
    phases = np.exp(2.0j * ensemble.alpha_fo)
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


def _mc_gate(ensemble: Ensemble, moments: PhaseMoments) -> tuple:
    """The mc pass rule: returns (stats, report, coherence, passed).

    Every moment z-score, and from ``_MIN_COHERENCE_TRIALS`` trials on
    the coherence z-score, must lie within ``_Z_THRESHOLD``.
    """
    stats = summarize(ensemble)
    report = compare_to_analytic(stats, moments)
    enough = len(ensemble) >= _MIN_COHERENCE_TRIALS
    coh = coherence(ensemble, moments.var_alpha) if enough else None
    passed = report.passed and (coh is None or abs(coh.z_score) <= _Z_THRESHOLD)
    return stats, report, coh, passed

"""Monte Carlo validation of the closed-form phase statistics.

The first-order phase deviations are weighted path integrals w.K of the
OU noise K = L xi, linear in its standard-normal innovations xi:
w.K = (L^T w).xi.  So each ensemble runs its two trapezoid-weighted
response weights backwards through the exact OU recursion once, into the
adjoint matrix A, and first-order deviations are exactly
(gamma_fo, delta_fo) = A xi, whose law is N(0, C) with C = A A^T.

A ``first_order`` ensemble samples that law directly: it factors the
2x2 matrix C once as L L^T and writes trial i as L z_i, where z_i is
row i of one (n_trials, 2) standard-normal block.  It draws two normals
per trial and builds no path.  A ``full_sim`` ensemble computes the
control grids once; each of its trials draws its own innovations xi,
filters them into K, runs the evolution kernel on the control grids and
K, and records A xi for the same draw next to the geometric phase and
the leakage of the evolution.  Both come from the final state, so no
trial builds the states at every node.

``run_ensemble`` returns an :class:`Ensemble` of per-trial columns and
their law C.  ``gamma_fo``, ``delta_fo`` and ``alpha_fo`` are deviations
from the noiseless values (so their ensemble means target zero), while
``gamma_sim`` is the absolute folded geometric phase from the evolution.
The pass rule of ``mc`` and ``compare`` is :func:`check_law`, C against
the closed forms, which reads no record; the z-scores of
:func:`compare_to_analytic` are a report.

Streams are keyed by the master seed.  ``first_order`` draws its block
from the first child of ``SeedSequence(master_seed)``; ``full_sim``
trial i draws from ``trial_seed(master_seed, i)``.  Either way a run is
reproducible and extending ``n_trials`` keeps the earlier trials.
Trials run serially; summaries reduce the columns in trial order with
fixed-order numpy reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import PhaseMoments, dynamical_weight, geometric_weight
from .evolve import IntegratorConfig, _control_grids, _evolve
from .field import PrecessionSpec
from .noise import NoiseModel, _draw_innovations, _ou_filter

__all__ = [
    "Ensemble",
    "trial_seed",
    "run_ensemble",
    "EnsembleStats",
    "summarize",
    "compare_to_analytic",
    "check_law",
]

_MODES = ("first_order", "full_sim")


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Per-trial outcomes of one ensemble as columns, in trial order.

    ``gamma_fo`` and ``delta_fo`` are first-order deviations from the
    noiseless phases; ``gamma_sim`` and ``leakage`` hold the exact
    evolution's folded geometric phase and leakage in ``full_sim`` mode
    and are None otherwise.  ``covariance`` is the exact 2x2 covariance
    C = A A^T of (gamma_fo, delta_fo) on the ensemble's grid, in both
    modes.  ``run_ensemble`` makes the arrays read-only.
    """

    gamma_fo: np.ndarray
    delta_fo: np.ndarray
    gamma_sim: np.ndarray | None = None
    leakage: np.ndarray | None = None
    covariance: np.ndarray | None = None

    @property
    def alpha_fo(self) -> np.ndarray:
        return self.gamma_fo + self.delta_fo

    def __len__(self) -> int:
        return self.gamma_fo.size


def _check_nonnegative(name: str, value) -> None:
    if not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value}")


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Deterministic per-trial seed, independent across trial indices."""
    _check_nonnegative("master_seed", master_seed)
    _check_nonnegative("trial_index", trial_index)
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


def _law(adjoint: np.ndarray) -> tuple:
    """(C, L): the covariance C = A A^T and a lower-triangular L with L L^T = C.

    A is divided by a power of two near its largest entry before the
    product, so L stays finite and nonzero wherever A is, even where the
    entries of C underflow to zero or overflow to inf, and scaling A by
    a power of two scales L exactly.  C is singular without noise
    (C = 0), at theta0 = 0 (no geometric response), and when
    sigma12 = 0 or sigma3 = 0, where both deviations respond to one noise
    component and C has rank one.  So l21 = 0 where l11 = 0, and
    c22 - l21**2 is clamped at 0 where it rounds below.
    """
    scale = 2.0 ** math.frexp(float(np.abs(adjoint).max()))[1]
    unit = adjoint / scale
    c = unit @ unit.T
    l11 = math.sqrt(c[0, 0])
    l21 = c[1, 0] / l11 if l11 > 0.0 else 0.0
    l22 = math.sqrt(max(c[1, 1] - l21 * l21, 0.0))
    with np.errstate(over="ignore"):  # C may overflow where L does not
        covariance = scale * (scale * c)
    return covariance, scale * np.array([[l11, 0.0], [l21, l22]])


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

    Both modes work on the integration grid (``steps_per_cycle *
    n_cycles`` steps over the schedule).  ``first_order`` trials are
    L z_i, with L L^T = C the exact law of the grid's first-order
    deviations and z_i row i of one (n_trials, 2) standard-normal block
    from the first child of ``SeedSequence(master_seed)``.  ``full_sim``
    trial i draws its innovations xi from ``trial_seed(master_seed, i)``;
    the evolution runs on the path they give, and the first-order
    deviations are A xi of that same draw.  With a fixed ``master_seed``
    the draws do not depend on the noise amplitudes, so ensembles at
    different sigma share noise shapes, and scaling every sigma by a
    power of two scales the first-order records exactly.  Trials run
    serially, in index order.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if not isinstance(n_trials, (int, np.integer)) or n_trials < 1:
        raise ValueError(f"n_trials must be a positive integer, got {n_trials}")
    _check_nonnegative("master_seed", master_seed)
    config = config if config is not None else IntegratorConfig()
    n_steps = config.steps_per_cycle * spec.n_cycles
    dt = spec.t_total / n_steps
    # w.K = (L^T w).xi: one adjoint pass here replaces a filtered path per trial.
    adjoint = _adjoint_matrix(spec, model, n_steps)
    covariance, factor = _law(adjoint)
    covariance.setflags(write=False)
    if mode == "first_order":
        # spawn_key (0,) makes this SeedSequence(master_seed).spawn(1)[0]
        stream = np.random.SeedSequence(int(master_seed), spawn_key=(0,))
        z = np.random.default_rng(stream).standard_normal((int(n_trials), 2))
        # "+ 0.0" turns the -0.0 of a zero factor times a negative draw into +0.0
        columns = np.stack([
            factor[0, 0] * z[:, 0], factor[1, 0] * z[:, 0] + factor[1, 1] * z[:, 1]
        ]) + 0.0
        columns.setflags(write=False)
        return Ensemble(*columns, covariance=covariance)

    control_nodes, control_mid = _control_grids(spec, n_steps, dt)
    columns = np.empty((4, int(n_trials)))
    for index in range(int(n_trials)):
        xi = _draw_innovations(n_steps, trial_seed(master_seed, index))
        columns[:2, index] = adjoint @ xi.reshape(-1)
        run = _evolve(control_nodes, control_mid, _ou_filter(model, dt, xi), dt, "up")
        columns[2:, index] = run.geometric_phase, run.leakage
    columns.setflags(write=False)
    return Ensemble(*columns, covariance=covariance)


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


def _z(diff: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / se


def compare_to_analytic(stats: EnsembleStats, moments: PhaseMoments) -> dict:
    """z-scores of the ensemble moments against the closed forms, a report.

    Record phases are deviations, so the empirical means are compared
    against zero; this is equivalent to comparing absolute means against
    the noiseless values in ``moments``.  Variances and the covariance
    are compared directly.
    """
    z_scores = {}
    for name in ("gamma", "delta", "alpha"):
        column = f"{name}_fo"
        z_scores[f"mean_{name}"] = _z(stats.mean[column], stats.sem_mean[column])
        z_scores[f"var_{name}"] = _z(
            stats.variance[column] - getattr(moments, f"var_{name}"), stats.sem_variance[column]
        )
    z_scores["cov_gamma_delta"] = _z(
        stats.cov_gamma_delta - moments.cov_gamma_delta, stats.se_cov_gamma_delta
    )
    return z_scores


def check_law(
    spec: PrecessionSpec,
    model: NoiseModel,
    moments: PhaseMoments,
    n_trials: int,
    config: IntegratorConfig,
    covariance: np.ndarray | None = None,
) -> dict:
    """Check the law C(n) of first-order records against the closed forms.

    The records of ``n_trials`` trials on a grid of n steps are exactly
    N(0, C(n)) with C(n) = A A^T (``covariance``, computed if not given).
    Each entry of |C(n) - closed| must lie within both bounds:

    * ``doubling``: twice the grid-doubling estimate of the trapezoid
      rule's O(dt^2) error, 2 |C(m) - C(n)| / (r^2 - 1) with m = n // 2
      and r = n / m, plus a 1e-12 sqrt(c_ii c_jj) roundoff floor.  It
      catches a wrong weight, kernel or grid, and an O(dt) defect;
    * ``sampling``: the normal-theory standard error of a sample
      covariance of ``n_trials`` draws, sqrt((c_ii c_jj + c_ij^2)/(n_trials - 1)),
      c_ii sqrt(2/(n_trials - 1)) on the diagonal; infinite for one
      trial.  It catches a law the ensemble could tell from the closed form.

    Returns a block keyed by ``var_gamma``, ``var_delta`` and
    ``cov_gamma_delta``, each with its ``law``, ``closed``, ``error`` and
    the two bounds, and by ``failures``, which names each entry and bound
    that the error exceeds; the law passes where it is empty.  The check
    reads no record, so its verdict does not depend on the seed.
    """
    n_steps = config.steps_per_cycle * spec.n_cycles
    if covariance is None:
        covariance = _law(_adjoint_matrix(spec, model, n_steps))[0]
    ratio = n_steps / (n_steps // 2)
    coarse = _law(_adjoint_matrix(spec, model, n_steps // 2))[0]
    root = np.sqrt(np.diag(covariance))
    scale = np.outer(root, root)
    bounds = {
        "doubling": 2.0 * np.abs(coarse - covariance) / (ratio * ratio - 1.0) + 1e-12 * scale,
        "sampling": np.hypot(scale, covariance) / math.sqrt(n_trials - 1)
        if n_trials > 1 else np.full((2, 2), math.inf),
    }
    cov = moments.cov_gamma_delta
    closed = np.array([[moments.var_gamma, cov], [cov, moments.var_delta]])
    error = np.abs(covariance - closed)
    block = {"failures": []}
    for name, (i, j) in (("var_gamma", (0, 0)), ("var_delta", (1, 1)), ("cov_gamma_delta", (0, 1))):
        block[name] = {
            "law": float(covariance[i, j]),
            "closed": float(closed[i, j]),
            "error": float(error[i, j]),
            **{f"{kind}_bound": float(bound[i, j]) for kind, bound in bounds.items()},
        }
        block["failures"] += [
            f"{name}: |C - closed| = {error[i, j]:.3e} > {kind} bound {bound[i, j]:.3e}"
            for kind, bound in bounds.items() if not error[i, j] <= bound[i, j]
        ]
    return block

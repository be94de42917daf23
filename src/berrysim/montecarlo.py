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
per trial and builds no path.  A ``full_sim`` ensemble builds its grid's
control field and the filter's constants once; each of its trials draws
its own innovations xi, filters them into K, runs the evolution kernel
on the grid and K, and records A xi for the same draw next to the
geometric phase and the leakage of the evolution, which come from the
final state, so no trial builds the states at every node.  The filter
and the kernel work on one contiguous row per field component.

``run_ensemble`` returns an :class:`Ensemble` of per-trial columns and
their law C.  ``gamma_fo``, ``delta_fo`` and ``alpha_fo`` are deviations
from the noiseless values (so their ensemble means target zero), while
``gamma_sim`` is the absolute folded geometric phase from the evolution.
The pass rule of ``mc`` and ``compare`` is :func:`check_law`, C against
the closed forms, which reads no record.  The first-order records are
draws from N(0, C), so their sample moments restate C with sampling
noise; ``summarize`` reports them and nothing tests them against the
closed forms.

Streams are keyed by the master seed.  ``first_order`` draws its block
from the first child of ``SeedSequence(master_seed)``; ``full_sim``
trial i draws from ``trial_seed(master_seed, i)``.  Either way a run is
reproducible and extending ``n_trials`` keeps the earlier trials.

A ``full_sim`` ensemble large enough to pay for a process splits into
contiguous trial slices, one per process that
:func:`berrysim.forks._worker_count` allows, and
:func:`berrysim.forks.run_parts` runs the lowest in the caller and each
of the others in a forked child.  The records, and the error of the
lowest failing trial, are bitwise a serial run's.  Summaries reduce
the columns in trial order with fixed-order numpy reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytics
from .errors import _count
from .evolve import IntegratorConfig, _evolve
from .field import Grid, PrecessionSpec
from .forks import _worker_count, run_parts
from .noise import NoiseModel, _draw_innovations, _ou_filter

__all__ = [
    "Ensemble",
    "trial_seed",
    "run_ensemble",
    "summarize",
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
    modes.  ``run_ensemble`` makes the arrays read-only.  ``processes``
    is the number of processes that ran the trials; no record depends
    on it.
    """

    gamma_fo: np.ndarray
    delta_fo: np.ndarray
    gamma_sim: np.ndarray | None = None
    leakage: np.ndarray | None = None
    covariance: np.ndarray | None = None
    processes: int = 1

    @property
    def alpha_fo(self) -> np.ndarray:
        return self.gamma_fo + self.delta_fo

    def __len__(self) -> int:
        return self.gamma_fo.size


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Deterministic per-trial seed, independent across trial indices."""
    seq = np.random.SeedSequence(
        (_count("master_seed", master_seed, 0), _count("trial_index", trial_index, 0))
    )
    return int(seq.generate_state(1, np.uint64)[0])


def _adjoint_matrix(grid: Grid, model: NoiseModel) -> np.ndarray:
    """The (2, 3(n_steps + 1)) matrix A with (gamma_fo, delta_fo) = A xi.

    Row i is the trapezoid-weighted response weight, at the grid's
    nodes, run backwards through the exact OU recursion (the adjoint
    L^T w), flattened like the innovations xi; the first-order
    covariance is A A^T.  Raises ``ValueError`` where a trapezoid-weighted
    response weight overflows float64.
    """
    spec, dt, times = grid.spec, grid.dt, grid.times
    quad = np.full(times.size, dt)
    quad[0] = quad[-1] = 0.5 * dt
    with np.errstate(over="ignore"):
        weighted = [(w.on_grid(spec, times) * quad[:, None]).T
                    for w in (analytics.geometric_weight(spec), analytics.dynamical_weight(spec))]
    if not all(np.all(np.isfinite(w)) for w in weighted):
        raise ValueError("the first-order law is not finite: its response weights overflow float64")
    return np.stack([_ou_filter(model, dt, w, adjoint=True).T.reshape(-1) for w in weighted])


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


# Trial nodes, trials x (n_steps + 1), that each extra process needs to
# pay for its fork: the measured break-even on a 2-vCPU host (CHANGES.md).
_NODES_PER_WORKER = 250_000


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

    Both modes work on the :class:`~berrysim.field.Grid`
    ``config.grid(spec)``.  ``first_order`` trials are L z_i, with
    L L^T = C the exact law of the grid's first-order deviations and z_i
    row i of one (n_trials, 2) standard-normal block from the first
    child of ``SeedSequence(master_seed)``.  ``full_sim``
    trial i draws its innovations xi from ``trial_seed(master_seed, i)``;
    the evolution runs on the path they give, and the first-order
    deviations are A xi of that same draw.  With a fixed ``master_seed``
    the draws do not depend on the noise amplitudes, so ensembles at
    different sigma share noise shapes, and scaling every sigma by a
    power of two scales the first-order records exactly.

    A ``full_sim`` ensemble runs on min(usable CPUs, trials *
    (n_steps + 1) // ``_NODES_PER_WORKER``) processes, each a contiguous
    slice of trials, under the policy of :mod:`berrysim.forks`: one
    process without ``os.sched_getaffinity`` (not Linux) or with another
    thread alive, and the caller keeps each slice whose fork fails.
    Records and errors are bitwise those of trials run serially, in
    index order; a child that dies is a ``ChildProcessError``, raised
    only where no trial raised.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    n_trials = _count("n_trials", n_trials, 1)
    master_seed = _count("master_seed", master_seed, 0)
    grid = (config if config is not None else IntegratorConfig()).grid(spec)
    # w.K = (L^T w).xi: one adjoint pass here replaces a filtered path per trial.
    adjoint = _adjoint_matrix(grid, model)
    covariance, factor = _law(adjoint)
    covariance.setflags(write=False)
    if mode == "first_order":
        # spawn_key (0,) makes this SeedSequence(master_seed).spawn(1)[0]
        stream = np.random.SeedSequence(master_seed, spawn_key=(0,))
        z = np.random.default_rng(stream).standard_normal((n_trials, 2))
        # "+ 0.0" turns the -0.0 of a zero factor times a negative draw into +0.0
        columns = np.stack([
            factor[0, 0] * z[:, 0], factor[1, 0] * z[:, 0] + factor[1, 1] * z[:, 1]
        ]) + 0.0
        columns.setflags(write=False)
        return Ensemble(*columns, covariance=covariance)

    grid.control  # built here, once, so no trial or forked child builds it again

    def trials(start: int, stop: int) -> np.ndarray:
        """Columns (gamma_fo, delta_fo, gamma_sim, leakage) of trials [start, stop)."""
        block = np.empty((4, stop - start))
        for column, index in enumerate(range(start, stop)):
            xi = _draw_innovations(grid.n_steps, trial_seed(master_seed, index))
            block[:2, column] = adjoint @ xi.reshape(-1)
            run = _evolve(grid, _ou_filter(model, grid.dt, xi.T), "up")
            block[2:, column] = run.geometric_phase, run.leakage
        return block

    workers = _worker_count(n_trials * (grid.n_steps + 1), _NODES_PER_WORKER, n_trials)
    bounds = [n_trials * k // workers for k in range(workers + 1)]
    blocks = run_parts(lambda lo, hi: trials(bounds[lo], bounds[hi]), workers,
                       lambda k: f"trials {bounds[k]} to {bounds[k + 1] - 1}")
    columns = np.concatenate(blocks, axis=1)
    columns.setflags(write=False)
    return Ensemble(*columns, covariance=covariance, processes=len(blocks))


def _column_stats(x: np.ndarray) -> dict:
    """Moments of one column.  mean, variance and sem_mean come from the
    deviations dx, the shape moments from u = dx / 2^k, 2^k the power of two
    above max|dx| (as ``_law`` scales A), as products of u*u with no power
    call; a power-of-two scale of x leaves skewness and kurtosis bitwise."""
    n = x.size
    mean = float(x.mean())
    dx = x - mean
    k = math.frexp(float(np.abs(dx).max()))[1]
    u = np.ldexp(dx, -k)
    u2 = u * u
    m2 = float(np.mean(u2))
    m3 = float(np.mean(u2 * u))
    m4 = float(np.mean(u2 * u2))
    v = float(u.dot(u) / (n - 1))
    sem_var_sq = (m4 - (n - 3) / (n - 1) * v * v) / n
    with np.errstate(over="ignore"):  # these may overflow where u does not
        variance = float(dx.dot(dx) / (n - 1))
        sem_variance = float(np.ldexp(math.sqrt(max(sem_var_sq, 0.0)), 2 * k))
    return {
        "mean": mean,
        "variance": variance,
        "sem_mean": math.sqrt(variance / n),
        "sem_variance": sem_variance,
        "skewness": m3 / m2**1.5 if m2 > 0.0 else 0.0,
        "excess_kurtosis": m4 / (m2 * m2) - 3.0 if m2 > 0.0 else 0.0,
    }


def summarize(ensemble: Ensemble) -> dict:
    """Reduce an ensemble to moment estimates with standard errors.

    Keys: ``n_trials``; ``mean``, ``variance``, ``sem_mean``,
    ``sem_variance``, ``skewness`` and ``excess_kurtosis``, each by column
    (``gamma_fo``, ``delta_fo``, ``alpha_fo`` and, in ``full_sim`` mode,
    ``gamma_sim``); ``se_skewness``, ``se_kurtosis``, ``cov_gamma_delta``
    and ``se_cov_gamma_delta``.  ``sem_variance`` uses
    var(s^2) = (m4 - (n-3)/(n-1) s^4)/n, exact for any population; the
    skewness and kurtosis standard errors are exact for normal samples of
    size n.  The third and fourth moments are products of deviations
    scaled by a power of two (``_column_stats``), with no power call, so
    they stay finite where the deviations' squares underflow or overflow;
    ``se_cov_gamma_delta`` scales the two deviation columns the same way.
    The alpha variance is var_gamma + var_delta + 2*cov to rounding.
    Needs at least four trials: the kurtosis standard error has n - 3 in
    its denominator.  Raises ``ValueError`` where a moment overflows
    float64, as the variance of records near 1e154 does.
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
    with np.errstate(over="ignore"):  # as variance in _column_stats
        cov = float(dg.dot(dd) / (n - 1))
    # se_cov from the deviations over powers of two, as _column_stats scales
    # them, so the squared products neither underflow nor overflow
    kg, kd = (math.frexp(float(np.abs(dx).max()))[1] for dx in (dg, dd))
    ug, ud = np.ldexp(dg, -kg), np.ldexp(dd, -kd)
    unit_cov, q = float(ug.dot(ud) / (n - 1)), ug * ud
    se_cov_sq = max(float(np.mean(q * q)) - unit_cov * unit_cov, 0.0) / n
    with np.errstate(over="ignore"):
        se_cov = float(np.ldexp(math.sqrt(se_cov_sq), kg + kd))

    named = [(f"{stat} of {key}", v) for key, s in per_key.items() for stat, v in s.items()]
    for name, value in named + [("cov_gamma_delta", cov), ("se_cov_gamma_delta", se_cov)]:
        if not math.isfinite(value):
            raise ValueError(f"the sample {name} is not finite; the records overflow float64")
    se_skew = math.sqrt(6.0 * n * (n - 1) / ((n - 2) * (n + 1) * (n + 3)))
    se_kurt = 2.0 * se_skew * math.sqrt((n * n - 1) / ((n - 3) * (n + 5)))
    return {
        "n_trials": n,
        **{stat: {k: s[stat] for k, s in per_key.items()} for stat in per_key["gamma_fo"]},
        "se_skewness": se_skew,
        "se_kurtosis": se_kurt,
        "cov_gamma_delta": cov,
        "se_cov_gamma_delta": se_cov,
    }


def check_law(
    spec: PrecessionSpec,
    model: NoiseModel,
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
    reads the closed forms from :func:`~berrysim.analytics.phase_moments`
    and no record, so its verdict does not depend on the seed.  Raises
    ``ValueError`` where C(n) or C(m) is not finite.
    """
    grid = config.grid(spec)
    if covariance is None:
        covariance = _law(_adjoint_matrix(grid, model))[0]
    ratio = grid.n_steps / (grid.n_steps // 2)
    coarse = _law(_adjoint_matrix(Grid(spec, grid.n_steps // 2), model))[0]
    for name, law in (("C(n)", covariance), ("C(n // 2)", coarse)):
        if not np.all(np.isfinite(law)):
            raise ValueError(f"the first-order law {name} is not finite; it overflows float64")
    root = np.sqrt(np.diag(covariance))
    scale = np.outer(root, root)
    bounds = {
        "doubling": 2.0 * np.abs(coarse - covariance) / (ratio * ratio - 1.0) + 1e-12 * scale,
        "sampling": np.hypot(scale, covariance) / math.sqrt(n_trials - 1)
        if n_trials > 1 else np.full((2, 2), math.inf),
    }
    moments = analytics.phase_moments(spec, model)
    cov = moments["cov_gamma_delta"]
    closed = np.array([[moments["var_gamma"], cov], [cov, moments["var_delta"]]])
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

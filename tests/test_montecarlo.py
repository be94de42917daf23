import math
import os
import threading
import time
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.signal import lfilter

from berrysim import (
    Ensemble,
    IntegratorConfig,
    NoiseModel,
    PrecessionSpec,
    ResolutionError,
    check_law,
    dephasing_factor,
    dynamical_weight,
    evolve_and_extract,
    geometric_weight,
    noiseless_berry_phase,
    phase_moments,
    run_ensemble,
    sample_path,
    summarize,
    trial_seed,
)
from berrysim import analytics, field, montecarlo, noise
from berrysim.evolve import _evolve
from berrysim.field import Grid
from berrysim.noise import _draw_innovations, _ou_filter

SPEC = PrecessionSpec(b0=1.0, theta0=math.pi / 4, t_total=100.0, n_cycles=1)
MODEL = NoiseModel.from_scalars(0.05, 0.1, 0.05, 0.1)
FAST = IntegratorConfig(steps_per_cycle=1024)


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one noise realization, as one row (reference copy).

    ``run_ensemble`` returned a list of these before it returned columns.
    """

    trial_index: int
    gamma_fo: float
    delta_fo: float
    alpha_fo: float
    gamma_sim: float | None = None
    leakage: float | None = None


def _reference_first_order(spec, model, n_trials, master_seed, config):
    """First-order deviations by the per-trial path: sample K, then contract.

    Each trial filters its standard-normal innovations into the OU path
    K with the exact transition recursion and contracts K with the
    trapezoid-weighted response weights.  Returns an (n_trials, 2) array
    of (gamma_fo, delta_fo).
    """
    n_steps = config.steps_per_cycle * spec.n_cycles
    dt = spec.t_total / n_steps
    times = np.minimum(np.arange(n_steps + 1) * dt, spec.t_total)
    quad = np.full(n_steps + 1, dt)
    quad[0] = quad[-1] = 0.5 * dt
    s, c = math.sin(spec.theta0), math.cos(spec.theta0)
    amp = math.pi * spec.n_cycles / (spec.t_total * spec.b0)
    phase = spec.omega * times
    w_gamma = amp * s * np.stack([-c * np.cos(phase), -c * np.sin(phase), s + 0.0 * phase], -1)
    w_delta = np.stack([s * np.cos(phase), s * np.sin(phase), c + 0.0 * phase], -1)
    w_gamma *= quad[:, None]
    w_delta *= quad[:, None]
    out = np.empty((n_trials, 2))
    for i in range(n_trials):
        rng = np.random.default_rng(np.random.SeedSequence(trial_seed(master_seed, i)))
        draws = rng.standard_normal((n_steps + 1, 3))
        k = np.zeros_like(draws)
        for columns, params in (([0, 1], model.transverse), ([2], model.longitudinal)):
            if params.sigma == 0.0:
                continue
            decay = math.exp(-params.gamma * dt)
            innov = params.sigma * math.sqrt(-math.expm1(-2.0 * params.gamma * dt))
            x0 = params.sigma * draws[0, columns]
            k[0, columns] = x0
            k[1:, columns], _ = lfilter(
                [innov], [1.0, -decay], draws[1:, columns], axis=0, zi=(decay * x0)[None, :]
            )
        out[i] = np.einsum("ij,ij->", w_gamma, k), np.einsum("ij,ij->", w_delta, k)
    return out


def _reference_full_sim(spec, model, n_trials, master_seed, config):
    """full_sim records by the per-trial path: a sampled path, then a full evolution.

    Each trial samples its OU path with ``sample_path`` from its own
    seed and runs ``evolve_and_extract`` on it.  The first-order fields
    are A xi of the innovations that seed draws.
    """
    adjoint, n_steps, dt = _reference_adjoint(spec, model, config)
    records = []
    for index in range(n_trials):
        seed = trial_seed(master_seed, index)
        gamma, delta = (adjoint @ _draw_innovations(n_steps, seed).reshape(-1)).tolist()
        extraction = evolve_and_extract(spec, sample_path(model, n_steps, dt, seed), config)
        records.append(
            TrialRecord(
                trial_index=index,
                gamma_fo=gamma,
                delta_fo=delta,
                alpha_fo=gamma + delta,
                gamma_sim=extraction.geometric_phase,
                leakage=extraction.leakage,
            )
        )
    return records


def _bits(records):
    """Records as tuples of exact float bit patterns, so -0.0 differs from 0.0."""
    return [
        tuple(v.hex() if isinstance(v, float) else v for v in vars(r).values())
        for r in records
    ]


def _rows(ensemble):
    """An ensemble's columns as one ``TrialRecord`` per trial, in trial order."""
    columns = [
        ensemble.gamma_fo, ensemble.delta_fo, ensemble.alpha_fo,
        ensemble.gamma_sim, ensemble.leakage,
    ]
    return [
        TrialRecord(index, *(None if c is None else float(c[index]) for c in columns))
        for index in range(len(ensemble))
    ]


def _reference_adjoint(spec, model, config):
    """(A, n_steps, dt): each trapezoid-weighted weight through the adjoint filter."""
    n_steps = config.steps_per_cycle * spec.n_cycles
    dt = spec.t_total / n_steps
    times = np.minimum(np.arange(n_steps + 1) * dt, spec.t_total)
    quad = np.full(n_steps + 1, dt)
    quad[0] = quad[-1] = 0.5 * dt
    w_gamma = geometric_weight(spec).on_grid(spec, times) * quad[:, None]
    w_delta = dynamical_weight(spec).on_grid(spec, times) * quad[:, None]
    adjoint = np.stack(
        [_ou_filter(model, dt, w.T, adjoint=True).T.reshape(-1) for w in (w_gamma, w_delta)]
    )
    return adjoint, n_steps, dt


def _reference_law_records(adjoint, n_trials, master_seed):
    """First-order records drawn from their exact law N(0, A A^T) (reference copy).

    C = A A^T is factored by the 2x2 Cholesky formulas, with l21 = 0
    where l11 = 0 and c22 - l21**2 clamped at 0.  z is one
    (n_trials, 2) standard-normal block from the first child of
    ``SeedSequence(master_seed)``, and trial i is L z[i], with +0.0 for
    a zero record.  Returns the (n_trials, 2) array of (gamma_fo, delta_fo).
    """
    c = adjoint @ adjoint.T
    l11 = math.sqrt(c[0, 0])
    l21 = c[1, 0] / l11 if l11 > 0.0 else 0.0
    l22 = math.sqrt(max(c[1, 1] - l21 * l21, 0.0))
    stream = np.random.SeedSequence(master_seed).spawn(1)[0]
    z = np.random.default_rng(stream).standard_normal((n_trials, 2))
    records = np.stack([l11 * z[:, 0], l21 * z[:, 0] + l22 * z[:, 1]], axis=1)
    return np.where(records == 0.0, 0.0, records)


def _reference_run_ensemble(spec, model, n_trials, master_seed, *, mode="first_order",
                            config=None):
    """``run_ensemble`` as a loop that builds one ``TrialRecord`` per trial (reference copy)."""
    config = config if config is not None else IntegratorConfig()
    adjoint, n_steps, dt = _reference_adjoint(spec, model, config)
    if mode == "first_order":
        draws = _reference_law_records(adjoint, int(n_trials), master_seed)
        return [
            TrialRecord(index, gamma, delta, gamma + delta)
            for index, (gamma, delta) in enumerate(draws.tolist())
        ]
    grid = Grid(spec, n_steps)

    records = []
    for index in range(int(n_trials)):
        xi = _draw_innovations(n_steps, trial_seed(master_seed, index))
        gamma, delta = (adjoint @ xi.reshape(-1)).tolist()
        run = _evolve(grid, _ou_filter(model, dt, xi.T), "up")
        records.append(
            TrialRecord(index, gamma, delta, gamma + delta, run.geometric_phase, run.leakage)
        )
    return records


def _reference_summarize(records):
    """``summarize`` over a ``TrialRecord`` list (reference copy)."""
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
    per_key = {key: montecarlo._column_stats(col) for key, col in columns.items()}

    dg = columns["gamma_fo"] - columns["gamma_fo"].mean()
    dd = columns["delta_fo"] - columns["delta_fo"].mean()
    cov = float(dg.dot(dd) / (n - 1))
    m22 = float(np.mean((dg * dd) ** 2))
    se_cov = math.sqrt(max(m22 - cov * cov, 0.0) / n)

    se_skew = math.sqrt(6.0 * n * (n - 1) / ((n - 2) * (n + 1) * (n + 3)))
    se_kurt = 2.0 * se_skew * math.sqrt((n * n - 1) / ((n - 3) * (n + 5)))
    return {
        "n_trials": n,
        "mean": {k: s["mean"] for k, s in per_key.items()},
        "variance": {k: s["variance"] for k, s in per_key.items()},
        "sem_mean": {k: s["sem_mean"] for k, s in per_key.items()},
        "sem_variance": {k: s["sem_variance"] for k, s in per_key.items()},
        "skewness": {k: s["skewness"] for k, s in per_key.items()},
        "excess_kurtosis": {k: s["excess_kurtosis"] for k, s in per_key.items()},
        "se_skewness": se_skew,
        "se_kurtosis": se_kurt,
        "cov_gamma_delta": cov,
        "se_cov_gamma_delta": se_cov,
    }


@dataclass(frozen=True)
class CoherenceEstimate:
    """Ensemble coherence magnitude against the Gaussian prediction."""

    measured: float
    predicted: float
    se: float
    z_score: float


def _reference_coherence(alpha, predicted_var_alpha):
    """|<exp(2i alpha)>| over the samples ``alpha``, with a jackknife standard error.

    The modulus is invariant under a constant phase offset, so
    deviations give the same value as absolute phases.
    """
    n = alpha.size
    predicted = dephasing_factor(predicted_var_alpha)
    phases = np.exp(2.0j * alpha)
    total = phases.sum()
    measured = float(abs(total) / n)
    loo = np.abs(total - phases) / (n - 1)
    se = float(math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))
    return CoherenceEstimate(
        measured=measured, predicted=predicted, se=se,
        z_score=(measured - predicted) / se,
    )


def _reference_law_bounds(adjoint, coarse, ratio, n_trials):
    """(C(n), doubling bound, sampling bound) of the law check (reference copy)."""
    c = adjoint @ adjoint.T
    c_coarse = coarse @ coarse.T
    scale = np.sqrt(np.outer(np.diag(c), np.diag(c)))
    doubling = 2.0 * np.abs(c_coarse - c) / (ratio**2 - 1.0) + 1e-12 * scale
    sampling = np.sqrt((np.outer(np.diag(c), np.diag(c)) + c * c) / (n_trials - 1))
    return c, doubling, sampling


class TestColumnsMatchRows:
    """An ensemble's columns equal the reference rows, and reduce to the same values."""

    # (sigma12, sigma3): isotropic, longitudinal or transverse only, noiseless
    AMPLITUDES = [(0.05, 0.05), (0.0, 0.05), (0.05, 0.0), (0.0, 0.0)]

    @pytest.mark.parametrize("mode", ["first_order", "full_sim"])
    @pytest.mark.parametrize(
        "amplitudes", AMPLITUDES, ids=lambda a: f"sigma12={a[0]}-sigma3={a[1]}"
    )
    @pytest.mark.parametrize("n_cycles", [1, 3])
    @pytest.mark.parametrize("theta0", [0.0, 0.05, math.pi / 4, math.pi / 2])
    def test_columns_and_reductions(self, theta0, n_cycles, amplitudes, mode):
        config = IntegratorConfig(steps_per_cycle=256)
        spec = PrecessionSpec(b0=1.0, theta0=theta0, t_total=100.0, n_cycles=n_cycles)
        model = NoiseModel.from_scalars(amplitudes[0], 0.1, amplitudes[1], 0.3)
        ensemble = run_ensemble(spec, model, 100, 42, mode=mode, config=config)
        want = _reference_run_ensemble(spec, model, 100, 42, mode=mode, config=config)
        assert len(ensemble) == 100
        # bit patterns: the noiseless ensembles must give +0.0, never -0.0
        assert _bits(_rows(ensemble)) == _bits(want)
        assert (ensemble.gamma_sim is None) == (ensemble.leakage is None) == (mode != "full_sim")
        # both modes keep the exact law of their first-order columns
        adjoint, _, _ = _reference_adjoint(spec, model, config)
        assert ensemble.covariance.tolist() == (adjoint @ adjoint.T).tolist()
        with pytest.raises(ValueError, match="read-only"):
            ensemble.covariance[0, 0] = 1.0
        # repr spells every float exactly, so equal reprs are equal bit patterns
        assert repr(summarize(ensemble)) == repr(_reference_summarize(want))

    @pytest.mark.parametrize("n_trials", [4, 99, 100])
    def test_length(self, n_trials):
        ensemble = run_ensemble(SPEC, MODEL, n_trials, 3, config=FAST)
        assert len(ensemble) == n_trials


class TestTrialSeed:
    def test_deterministic(self):
        assert trial_seed(42, 7) == trial_seed(42, 7)

    def test_spreads_over_trials_and_masters(self):
        seeds = {trial_seed(42, k) for k in range(1000)}
        assert len(seeds) == 1000
        assert trial_seed(41, 7) != trial_seed(42, 7)

    def test_validation(self):
        with pytest.raises(ValueError):
            trial_seed(-1, 0)
        with pytest.raises(ValueError):
            trial_seed(0, -1)


class TestRunEnsemble:
    def test_records_are_deviations(self):
        zero = NoiseModel.from_scalars(0.0, 0.1, 0.0, 0.1)
        ensemble = run_ensemble(SPEC, zero, 5, 1, config=FAST)
        assert len(ensemble) == 5
        for column in (ensemble.gamma_fo, ensemble.delta_fo, ensemble.alpha_fo):
            assert column.tolist() == [0.0] * 5
        assert ensemble.gamma_sim is None
        assert ensemble.leakage is None

    def test_columns_are_read_only(self):
        ensemble = run_ensemble(SPEC, MODEL, 4, 1, mode="full_sim", config=FAST)
        for column in (ensemble.gamma_fo, ensemble.delta_fo, ensemble.gamma_sim, ensemble.leakage):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0

    def test_alpha_is_sum(self):
        ensemble = run_ensemble(SPEC, MODEL, 20, 3, config=FAST)
        np.testing.assert_allclose(
            ensemble.alpha_fo, ensemble.gamma_fo + ensemble.delta_fo, rtol=1e-12
        )

    def test_deterministic_and_prefix_stable(self):
        a = run_ensemble(SPEC, MODEL, 30, 11, config=FAST)
        b = run_ensemble(SPEC, MODEL, 30, 11, config=FAST)
        assert a.gamma_fo.tolist() == b.gamma_fo.tolist()
        # extending the ensemble must not change earlier trials
        longer = run_ensemble(SPEC, MODEL, 45, 11, config=FAST)
        assert longer.alpha_fo[:30].tolist() == a.alpha_fo.tolist()

    # +-600: C = A A^T underflows to zero or overflows where the records do not
    @pytest.mark.parametrize("power", [-600, 1, 600])
    def test_noise_shapes_shared_across_amplitudes(self, power):
        # same master seed: scaling every sigma by 2**power scales the
        # deviations by exactly 2**power
        factor = 2.0**power
        scaled_model = NoiseModel.from_scalars(0.05 * factor, 0.1, 0.05 * factor, 0.1)
        base = run_ensemble(SPEC, MODEL, 10, 17, config=FAST)
        scaled = run_ensemble(SPEC, scaled_model, 10, 17, config=FAST)
        assert scaled.gamma_fo.tolist() == (factor * base.gamma_fo).tolist()
        assert scaled.delta_fo.tolist() == (factor * base.delta_fo).tolist()

    def test_full_sim_mode(self):
        spec = PrecessionSpec(
            b0=1.0, theta0=math.pi / 4, t_total=400.0 * math.pi, n_cycles=1
        )
        config = IntegratorConfig(steps_per_cycle=2048)
        zero = NoiseModel.from_scalars(0.0, 0.1, 0.0, 0.1)
        baseline = run_ensemble(spec, zero, 1, 5, mode="full_sim", config=config)
        assert baseline.gamma_sim[0] == pytest.approx(
            noiseless_berry_phase(math.pi / 4), abs=0.01
        )
        assert baseline.leakage[0] < 1e-4

        weak = NoiseModel.from_scalars(0.005, 0.02, 0.005, 0.02)
        ensemble = run_ensemble(spec, weak, 4, 9, mode="full_sim", config=config)
        assert np.all(ensemble.leakage < 5e-3)
        residual = ensemble.gamma_sim - baseline.gamma_sim[0] - ensemble.gamma_fo
        assert np.all(np.abs(residual) < 2e-3)

    # (sigma12, sigma3): isotropic, no longitudinal noise, no transverse noise
    AMPLITUDES = {"isotropic": (0.05, 0.05), "sigma3_zero": (0.05, 0.0), "sigma12_zero": (0.0, 0.05)}

    @pytest.mark.parametrize("amplitudes", sorted(AMPLITUDES))
    # transverse gamma*dt; the longitudinal one is 3x larger.  At 800 the
    # one-step decay exp(-gamma*dt) underflows to exactly 0.
    @pytest.mark.parametrize("gamma_dt", [1e-4, 0.3, 800.0])
    @pytest.mark.parametrize("n_cycles", [1, 16])
    def test_first_order_matches_reference(self, amplitudes, gamma_dt, n_cycles):
        # A xi, the first-order records of a full_sim trial and the law a
        # first_order ensemble samples, against the contraction w.K of its path
        config = IntegratorConfig(steps_per_cycle=256)
        spec = PrecessionSpec(b0=1.0, theta0=math.pi / 4, t_total=100.0, n_cycles=n_cycles)
        n_steps = config.steps_per_cycle * n_cycles
        dt = spec.t_total / n_steps
        sigma12, sigma3 = self.AMPLITUDES[amplitudes]
        model = NoiseModel.from_scalars(sigma12, gamma_dt / dt, sigma3, 3.0 * gamma_dt / dt)
        adjoint = montecarlo._adjoint_matrix(Grid(spec, n_steps), model)
        for seed in (5, 42, 2024):
            got = np.stack([
                adjoint @ _draw_innovations(n_steps, trial_seed(seed, index)).reshape(-1)
                for index in range(16)
            ])
            want = _reference_first_order(spec, model, 16, seed, config)
            scale = np.abs(want).max(axis=0)
            assert np.all(scale > 0.0)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)

    @pytest.mark.parametrize("n_cycles", [1, 16])
    def test_zero_noise_records_are_exactly_zero(self, n_cycles):
        config = IntegratorConfig(steps_per_cycle=256)
        spec = PrecessionSpec(b0=1.0, theta0=math.pi / 4, t_total=100.0, n_cycles=n_cycles)
        zero = NoiseModel.from_scalars(0.0, 0.1, 0.0, 800.0)
        for seed in (5, 42, 2024):
            want = _reference_first_order(spec, zero, 4, seed, config)
            assert np.all(want == 0.0)
            ensemble = run_ensemble(spec, zero, 4, seed, config=config)
            assert ensemble.covariance.tolist() == [[0.0, 0.0], [0.0, 0.0]]
            # +0.0 exactly: a -0.0 would print as "-0" in the records CSV
            for column in (ensemble.gamma_fo, ensemble.delta_fo, ensemble.alpha_fo):
                assert [v.hex() for v in column.tolist()] == [(0.0).hex()] * 4

    def test_pole_samples_no_geometric_deviation(self):
        # at theta0 = 0 the geometric weight vanishes: l11 = 0, so l21 = 0
        spec = PrecessionSpec(b0=1.0, theta0=0.0, t_total=100.0, n_cycles=1)
        ensemble = run_ensemble(spec, MODEL, 50, 8, config=FAST)
        (c11, c21), (_, c22) = ensemble.covariance.tolist()
        assert c11 == c21 == 0.0 < c22
        assert [v.hex() for v in ensemble.gamma_fo.tolist()] == [(0.0).hex()] * 50
        assert np.all(ensemble.delta_fo != 0.0)
        assert ensemble.alpha_fo.tolist() == ensemble.delta_fo.tolist()

    # sigma12 = 0 or sigma3 = 0: both deviations respond to one noise
    # component, so C has rank one and the records are fully correlated
    @pytest.mark.parametrize("amplitudes", ["sigma3_zero", "sigma12_zero"])
    def test_rank_one_law(self, amplitudes):
        config = IntegratorConfig(steps_per_cycle=256)
        sigma12, sigma3 = self.AMPLITUDES[amplitudes]
        model = NoiseModel.from_scalars(sigma12, 0.1, sigma3, 0.3)
        below_zero = 0
        for theta0 in (0.05, 0.3, math.pi / 4, 1.2, math.pi / 2, 2.5, math.pi - 0.05):
            for n_cycles in (1, 3):
                spec = PrecessionSpec(b0=1.0, theta0=theta0, t_total=100.0, n_cycles=n_cycles)
                adjoint, _, _ = _reference_adjoint(spec, model, config)
                c = adjoint @ adjoint.T
                # where c22 - c21**2/c11 rounds below zero, np.linalg.cholesky
                # raises and the factor clamps l22 at zero
                below_zero += c[1, 1] - c[1, 0] ** 2 / c[0, 0] < 0.0
                ensemble = run_ensemble(spec, model, 50, 3, config=config)
                got = np.stack([ensemble.gamma_fo, ensemble.delta_fo], axis=1)
                assert got.tolist() == _reference_law_records(adjoint, 50, 3).tolist()
                assert abs(np.corrcoef(got, rowvar=False)[0, 1]) > 1.0 - 1e-12
        assert below_zero > 0

    def test_both_samplers_follow_the_exact_law(self):
        # The sampled L z and the per-trial path w.K are both N(0, C),
        # C = A A^T: each sample covariance lies within 4 standard errors
        # of C, var(s_ij) = (c_ij**2 + c_ii c_jj)/(n - 1) for normal data.
        config = IntegratorConfig(steps_per_cycle=256)
        n = 4000
        ensemble = run_ensemble(SPEC, MODEL, n, 42, config=config)
        c = np.asarray(ensemble.covariance)
        se = np.sqrt((c * c + np.outer(np.diag(c), np.diag(c))) / (n - 1))
        assert c[0, 1] > 6.0 * se[0, 1]  # the covariance is resolved, not only bounded
        sampled = np.stack([ensemble.gamma_fo, ensemble.delta_fo], axis=1)
        per_trial = _reference_first_order(SPEC, MODEL, n, 42, config)
        for records in (sampled, per_trial):
            assert np.all(np.abs(np.cov(records, rowvar=False) - c) <= 4.0 * se)

    # gamma3, and the columns each AR(1) pass takes
    PASSES = [(0.1, [3]), (0.3, [2, 1])]

    @pytest.mark.parametrize("gamma3, widths", PASSES, ids=["gamma12=gamma3", "gamma12!=gamma3"])
    def test_full_sim_filters_once_per_parameter_set(self, monkeypatch, gamma3, widths):
        # the two adjoint weights and each trial's path take one pass per
        # distinct parameter set, over all the components that share it:
        # rows of the filter's buffer, padded past the nodes
        shapes = []
        original = noise._ar1_scan

        def counting(y, d, plan):
            shapes.append(y.shape)
            return original(y, d, plan)

        monkeypatch.setattr(noise, "_ar1_scan", counting)
        model = NoiseModel.from_scalars(0.05, 0.1, 0.05, gamma3)
        run_ensemble(SPEC, model, 5, 19, mode="full_sim", config=FAST)
        nodes = FAST.steps_per_cycle * SPEC.n_cycles + 1
        assert [rows for rows, _ in shapes] == widths * (2 + 5)
        assert all(padded >= nodes for _, padded in shapes)

    @pytest.mark.parametrize("n_trials", [2, 50])
    def test_full_sim_builds_the_control_field_once(self, monkeypatch, forks, n_trials):
        # at the nodes, then at the midpoints, in the caller before it forks:
        # a child that built it again would raise
        calls = []
        original = field.control_field
        caller = os.getpid()

        def counting(spec, t):
            if os.getpid() != caller:
                raise AssertionError("a forked child built the control field")
            calls.append(np.shape(t))
            return original(spec, t)

        monkeypatch.setattr(field, "control_field", counting)
        _set_workers(monkeypatch, 2)
        run_ensemble(SPEC, MODEL, n_trials, 3, mode="full_sim", config=FAST)
        n_steps = FAST.steps_per_cycle * SPEC.n_cycles
        assert calls == [(n_steps + 1,), (n_steps,)]
        assert len(forks) == 1

    def test_full_sim_draws_once_for_both_routes(self):
        # one draw per trial feeds the first-order records, A xi bitwise,
        # and the path the exact evolution runs on
        full_sim = run_ensemble(SPEC, MODEL, 4, 19, mode="full_sim", config=FAST)
        n_steps = FAST.steps_per_cycle * SPEC.n_cycles
        dt = SPEC.t_total / n_steps
        adjoint = montecarlo._adjoint_matrix(Grid(SPEC, n_steps), MODEL)
        for index in range(4):
            seed = trial_seed(19, index)
            xi = _draw_innovations(n_steps, seed)
            gamma, delta = adjoint @ xi.reshape(-1)
            assert (full_sim.gamma_fo[index].hex(), full_sim.delta_fo[index].hex()) == (
                gamma.hex(), delta.hex()
            )
            path = sample_path(MODEL, n_steps, dt, seed)
            assert path.tolist() == _ou_filter(MODEL, dt, xi.T).T.tolist()
            assert full_sim.gamma_sim[index] == evolve_and_extract(SPEC, path, FAST).geometric_phase

    # (sigma12, sigma3): isotropic, longitudinal or transverse only, noiseless, strong
    FULL_SIM_AMPLITUDES = [(0.05, 0.05), (0.0, 0.05), (0.05, 0.0), (0.0, 0.0), (0.5, 0.2)]

    @pytest.mark.parametrize(
        "amplitudes", FULL_SIM_AMPLITUDES, ids=lambda a: f"sigma12={a[0]}-sigma3={a[1]}"
    )
    @pytest.mark.parametrize("n_cycles", [1, 3])
    @pytest.mark.parametrize("theta0", [0.0, 0.05, math.pi / 4, math.pi / 2, math.pi - 0.05])
    def test_full_sim_matches_reference(self, theta0, n_cycles, amplitudes):
        config = IntegratorConfig(steps_per_cycle=256)
        spec = PrecessionSpec(b0=1.0, theta0=theta0, t_total=100.0, n_cycles=n_cycles)
        model = NoiseModel.from_scalars(amplitudes[0], 0.1, amplitudes[1], 0.3)
        ensemble = run_ensemble(spec, model, 3, 42, mode="full_sim", config=config)
        want = _reference_full_sim(spec, model, 3, 42, config)
        assert _rows(ensemble) == want
        assert _bits(_rows(ensemble)) == _bits(want)

    def test_full_sim_checks_resolution_before_any_trial(self, monkeypatch, forks):
        _set_workers(monkeypatch, 2)
        draws = []
        original = montecarlo._draw_innovations
        monkeypatch.setattr(
            montecarlo, "_draw_innovations", lambda *args: draws.append(args) or original(*args)
        )
        coarse = IntegratorConfig(steps_per_cycle=16)  # b0*dt = 6.25
        with pytest.raises(ResolutionError) as ensemble:
            run_ensemble(SPEC, MODEL, 5, 1, mode="full_sim", config=coarse)
        assert draws == []
        with pytest.raises(ResolutionError) as single:
            evolve_and_extract(SPEC, None, coarse)
        assert str(ensemble.value) == str(single.value)
        # first-order trials never evolve, so the coarse grid serves them,
        # and they draw from their law, not per-trial innovations
        assert len(run_ensemble(SPEC, MODEL, 5, 1, config=coarse)) == 5
        assert draws == []
        assert forks == []

    def test_full_sim_rejects_a_non_finite_path(self):
        huge = NoiseModel.from_scalars(1e308, 0.1, 0.0, 0.1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="must be finite"):
                run_ensemble(SPEC, huge, 4, 1, mode="full_sim", config=FAST)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_ensemble(SPEC, MODEL, 0, 1, config=FAST)
        with pytest.raises(ValueError):
            run_ensemble(SPEC, MODEL, 5, 1, mode="exact", config=FAST)
        for mode in ("first_order", "full_sim"):
            with pytest.raises(ValueError, match="master_seed"):
                run_ensemble(SPEC, MODEL, 5, -1, mode=mode, config=FAST)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children ``os.fork`` starts during the test, in order."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _set_workers(monkeypatch, cpus):
    """Let a full_sim ensemble of any size split over ``cpus`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(montecarlo, "_NODES_PER_WORKER", 1)


def _trial_index(monkeypatch):
    """A one-entry list holding the index of the trial running in this process, or -1."""
    current = [-1]
    seed = montecarlo.trial_seed

    def recording_seed(master_seed, index):
        current[0] = index
        return seed(master_seed, index)

    monkeypatch.setattr(montecarlo, "trial_seed", recording_seed)
    return current


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitTrials:
    """full_sim ensembles split over forked processes give the serial records and errors.

    Seven trials make uneven slices: [0, 3), [3, 7) for two processes and
    [0, 2), [2, 4), [4, 7) for three, the first of each in the caller.
    """

    CONFIG = IntegratorConfig(steps_per_cycle=256)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "amplitudes", [(0.05, 0.05), (0.0, 0.05), (0.0, 0.0)],
        ids=lambda a: f"sigma12={a[0]}-sigma3={a[1]}",
    )
    @pytest.mark.parametrize("n_cycles", [1, 3])
    @pytest.mark.parametrize("theta0", [0.0, math.pi / 4, math.pi - 0.05])
    def test_records_match_the_serial_loop(
        self, monkeypatch, forks, theta0, n_cycles, amplitudes, workers
    ):
        _set_workers(monkeypatch, workers)
        spec = PrecessionSpec(b0=1.0, theta0=theta0, t_total=100.0, n_cycles=n_cycles)
        model = NoiseModel.from_scalars(amplitudes[0], 0.1, amplitudes[1], 0.3)
        ensemble = run_ensemble(spec, model, 7, 42, mode="full_sim", config=self.CONFIG)
        assert (ensemble.processes, len(forks)) == (workers, workers - 1)
        want = _reference_run_ensemble(spec, model, 7, 42, mode="full_sim", config=self.CONFIG)
        assert _bits(_rows(ensemble)) == _bits(want)
        with pytest.raises(ValueError, match="read-only"):
            ensemble.leakage[6] = 0.0
        _assert_no_child_left()

    @pytest.mark.parametrize("failing", [{5}, {6}, {3, 5}, {1, 5}, {0, 2, 4}], ids=str)
    def test_the_lowest_failing_trial_raises(self, monkeypatch, forks, failing):
        # {5} and {6} fail only in the third slice's child, {3, 5} in both
        # children, {1, 5} in the caller's slice and a child, {0, 2, 4} in all
        current = _trial_index(monkeypatch)
        evolve = montecarlo._evolve

        def failing_evolve(*args):
            if current[0] in failing:
                raise ValueError(f"trial {current[0]} failed")
            return evolve(*args)

        monkeypatch.setattr(montecarlo, "_evolve", failing_evolve)
        for workers in (1, 3):
            _set_workers(monkeypatch, workers)
            with pytest.raises(ValueError, match=f"^trial {min(failing)} failed$"):
                run_ensemble(SPEC, MODEL, 7, 1, mode="full_sim", config=FAST)
            _assert_no_child_left()
        assert len(forks) == 2

    def test_a_non_finite_path_in_a_child_raises_the_serial_error(self, monkeypatch, forks):
        # children inherit the caller's errstate and warning filters, so
        # under warnings as errors a child raises the kernel's ValueError,
        # not the filter's overflow warning
        huge = NoiseModel.from_scalars(1e308, 0.1, 0.0, 0.1)
        current = _trial_index(monkeypatch)
        ou_filter = montecarlo._ou_filter
        monkeypatch.setattr(
            montecarlo, "_ou_filter",
            lambda model, dt, x, **kw: ou_filter(huge if current[0] >= 5 else model, dt, x, **kw),
        )
        raised = []
        for workers in (1, 3):
            _set_workers(monkeypatch, workers)
            with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="must be finite") as error:
                    run_ensemble(SPEC, MODEL, 7, 1, mode="full_sim", config=FAST)
            raised.append((type(error.value), str(error.value)))
            _assert_no_child_left()
        assert len(forks) == 2
        assert raised[0] == raised[1]

    def test_a_child_that_dies_is_named(self, monkeypatch, forks):
        current = _trial_index(monkeypatch)
        evolve = montecarlo._evolve
        caller = os.getpid()

        def dying_evolve(*args):
            if current[0] == 5 and os.getpid() != caller:
                os._exit(3)
            return evolve(*args)

        monkeypatch.setattr(montecarlo, "_evolve", dying_evolve)
        _set_workers(monkeypatch, 3)
        died = "^the process for trials 4 to 6 exited with status 3$"
        with pytest.raises(RuntimeError, match=died):
            run_ensemble(SPEC, MODEL, 7, 1, mode="full_sim", config=FAST)
        assert len(forks) == 2
        _assert_no_child_left()

    def test_a_failing_caller_kills_its_children(self, monkeypatch, forks):
        # the caller's own slice fails first, so it need not wait for the
        # children's slices, which here would take a minute
        current = _trial_index(monkeypatch)
        evolve = montecarlo._evolve
        caller = os.getpid()

        def stalling_evolve(*args):
            if os.getpid() != caller:
                time.sleep(60.0)
            elif current[0] == 1:
                raise ValueError("trial 1 failed")
            return evolve(*args)

        monkeypatch.setattr(montecarlo, "_evolve", stalling_evolve)
        _set_workers(monkeypatch, 3)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^trial 1 failed$"):
            run_ensemble(SPEC, MODEL, 7, 1, mode="full_sim", config=FAST)
        assert time.perf_counter() - start < 30.0
        assert len(forks) == 2
        _assert_no_child_left()

    def test_a_live_thread_keeps_one_process(self, monkeypatch, forks):
        _set_workers(monkeypatch, 3)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30.0,))
        thread.start()
        try:
            ensemble = run_ensemble(SPEC, MODEL, 7, 1, mode="full_sim", config=FAST)
        finally:
            release.set()
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert (forks, ensemble.processes) == ([], 1)
        want = _reference_run_ensemble(SPEC, MODEL, 7, 1, mode="full_sim", config=FAST)
        assert _bits(_rows(ensemble)) == _bits(want)

    @pytest.mark.parametrize("failing_fork", [1, 2])
    def test_a_failed_fork_runs_its_slices_here(self, monkeypatch, failing_fork):
        # slices are forked highest first; where the fork of slice k fails,
        # the caller runs trials [0, bound k+1) itself
        _set_workers(monkeypatch, 3)
        calls = []
        fork = os.fork

        def limited_fork():
            calls.append(None)
            if len(calls) >= failing_fork:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", limited_fork)
        ensemble = run_ensemble(SPEC, MODEL, 7, 1, mode="full_sim", config=FAST)
        assert (len(calls), ensemble.processes) == (failing_fork, failing_fork)
        want = _reference_run_ensemble(SPEC, MODEL, 7, 1, mode="full_sim", config=FAST)
        assert _bits(_rows(ensemble)) == _bits(want)
        _assert_no_child_left()

    def test_worker_count(self, monkeypatch):
        # min(usable CPUs, trials x nodes // _NODES_PER_WORKER, trials), at least one
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        per_worker = montecarlo._NODES_PER_WORKER
        count = montecarlo._worker_count
        assert count(1, per_worker - 1) == 1
        assert count(2, per_worker - 1) == 1
        assert count(2, per_worker) == 2
        assert count(3, per_worker) == 3
        assert count(100, per_worker) == 4
        assert count(1, 10 * per_worker) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert count(100, per_worker) == 1


class TestSummarize:
    def _ensemble_from(self, gammas, deltas):
        return Ensemble(np.asarray(gammas, dtype=float), np.asarray(deltas, dtype=float))

    def test_matches_numpy_moments(self):
        rng = np.random.default_rng(21)
        g = rng.standard_normal(500) * 0.3
        d = rng.standard_normal(500) * 2.0 + 0.5 * g
        stats = summarize(self._ensemble_from(g, d))
        assert stats["n_trials"] == 500
        assert stats["mean"]["gamma_fo"] == pytest.approx(g.mean(), rel=1e-12)
        assert stats["variance"]["delta_fo"] == pytest.approx(d.var(ddof=1), rel=1e-12)
        assert stats["sem_mean"]["gamma_fo"] == pytest.approx(
            math.sqrt(g.var(ddof=1) / 500), rel=1e-12
        )
        dg = g - g.mean()
        assert stats["skewness"]["gamma_fo"] == pytest.approx(
            np.mean(dg**3) / np.mean(dg**2) ** 1.5, rel=1e-12
        )
        assert stats["excess_kurtosis"]["gamma_fo"] == pytest.approx(
            np.mean(dg**4) / np.mean(dg**2) ** 2 - 3.0, rel=1e-12
        )
        dd = d - d.mean()
        assert stats["cov_gamma_delta"] == pytest.approx(
            dg.dot(dd) / 499, rel=1e-12
        )
        assert "gamma_sim" not in stats["mean"]

    def test_constant_column_degenerates_gracefully(self):
        stats = summarize(self._ensemble_from(np.zeros(10), np.zeros(10)))
        assert stats["variance"]["gamma_fo"] == 0.0
        assert stats["skewness"]["gamma_fo"] == 0.0
        assert stats["excess_kurtosis"]["gamma_fo"] == 0.0

    def test_normal_se_formulas(self):
        stats = summarize(self._ensemble_from(np.arange(25.0), np.arange(25.0)))
        n = 25
        se_skew = math.sqrt(6.0 * n * (n - 1) / ((n - 2) * (n + 1) * (n + 3)))
        assert stats["se_skewness"] == pytest.approx(se_skew, rel=1e-12)
        se_kurt = 2.0 * se_skew * math.sqrt((n * n - 1) / ((n - 3) * (n + 5)))
        assert stats["se_kurtosis"] == pytest.approx(se_kurt, rel=1e-12)

    def test_four_records_are_enough(self):
        stats = summarize(self._ensemble_from([0.0, 1.0, 3.0, 2.0], [1.0, 0.0, 0.0, 2.0]))
        assert stats["n_trials"] == 4
        assert math.isfinite(stats["se_skewness"]) and math.isfinite(stats["se_kurtosis"])

    def test_rejects_fewer_than_four_trials(self):
        # the skewness and kurtosis standard errors divide by n - 2 and n - 3
        for n in (1, 2, 3):
            with pytest.raises(ValueError, match="at least four records"):
                summarize(self._ensemble_from(np.arange(n, dtype=float), np.zeros(n)))

    def test_sim_column_included(self):
        index = np.arange(5.0)
        ensemble = Ensemble(0.1 * index, np.zeros(5), 2.0 + 0.1 * index, np.zeros(5))
        stats = summarize(ensemble)
        assert stats["mean"]["gamma_sim"] == pytest.approx(2.2)


def _pow_column_stats(x):
    """``_column_stats`` with the third and fourth moments from ``dx**3`` and
    ``dx**4`` (reference copy of the power-based reduction)."""
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


def _column(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.standard_normal(n) * 0.3
    if kind == "shifted":
        return 1e3 + rng.standard_normal(n) * 1e-2
    if kind == "skewed":
        return rng.exponential(2.0, n)
    if kind == "zero":
        return np.zeros(n)
    return np.full(n, 0.75)  # a sum of 0.75s is exact, so m2 = 0


class TestPowFreeMoments:
    """``summarize`` against the power-based column reduction: every key is
    bitwise equal except the three that read the third and fourth moments."""

    ROUNDED = ("skewness", "excess_kurtosis", "sem_variance")

    @pytest.mark.parametrize("n", [4, 5, 200, 10_000, 20_000])
    @pytest.mark.parametrize("kinds", [
        ("gaussian", "gaussian", "gaussian"),
        ("shifted", "skewed", "gaussian"),
        ("zero", "constant", "shifted"),
    ], ids="-".join)
    def test_matches_the_power_reduction(self, monkeypatch, kinds, n):
        columns = [_column(kind, n, seed) for seed, kind in enumerate(kinds)]
        ensemble = Ensemble(columns[0], columns[1], columns[2], np.zeros(n))
        got = summarize(ensemble)
        monkeypatch.setattr(montecarlo, "_column_stats", _pow_column_stats)
        want = summarize(ensemble)
        assert got.keys() == want.keys()
        for key in got.keys() - set(self.ROUNDED):
            assert repr(got[key]) == repr(want[key]), key
        for key in self.ROUNDED:
            assert got[key].keys() == want[key].keys()
            for column, value in got[key].items():
                if key == "sem_variance":
                    assert value == pytest.approx(want[key][column], rel=1e-12, abs=0.0)
                else:
                    assert value == pytest.approx(want[key][column], rel=0.0, abs=1e-12)

    # 2**365 overflowed m2**1.5 (OverflowError); 2**-300 underflowed m2*m2 to
    # zero (ZeroDivisionError)
    @pytest.mark.parametrize("power", [365, -300])
    def test_power_of_two_scaling_keeps_the_shape_bitwise(self, power):
        x = _column("skewed", 1000, 4)
        want = montecarlo._column_stats(x)
        got = montecarlo._column_stats(x * 2.0**power)
        for key in ("skewness", "excess_kurtosis"):
            assert repr(got[key]) == repr(want[key])
        assert got["variance"] == want["variance"] * 2.0 ** (2 * power)
        assert got["sem_variance"] == want["sem_variance"] * 2.0 ** (2 * power)

    # 2**-300 underflowed the squared products to zero, so se_cov read 0.0;
    # 2**365 overflowed them with a RuntimeWarning
    @pytest.mark.parametrize("power", [365, -300])
    def test_power_of_two_scaling_keeps_the_covariance_error(self, power):
        g, d = _column("gaussian", 1000, 6), _column("skewed", 1000, 7)
        want = summarize(Ensemble(g, d))
        got = summarize(Ensemble(g * 2.0**power, d * 2.0**power))
        for key in ("cov_gamma_delta", "se_cov_gamma_delta"):
            assert want[key] != 0.0
            assert got[key] == want[key] * 2.0 ** (2 * power), key

    def test_overflowing_variance_keeps_a_finite_shape(self):
        x = _column("gaussian", 1000, 5)
        want = montecarlo._column_stats(x)
        got = montecarlo._column_stats(x * 2.0**540)  # dx.dot(dx) overflows
        assert got["variance"] == got["sem_mean"] == got["sem_variance"] == math.inf
        for key in ("skewness", "excess_kurtosis"):
            assert repr(got[key]) == repr(want[key])


class TestCheckLaw:
    """C(n) against the closed forms within both bounds; no record is read."""

    @pytest.mark.parametrize("steps_per_cycle", [256, 257])
    @pytest.mark.parametrize("n_trials", [1, 4, 10_000])
    def test_bounds_match_reference(self, steps_per_cycle, n_trials):
        # an odd grid halves to n // 2 steps, so the doubling ratio is n / (n // 2)
        config = IntegratorConfig(steps_per_cycle=steps_per_cycle)
        moments = phase_moments(SPEC, MODEL)
        law = check_law(SPEC, MODEL, n_trials, config)
        assert law["failures"] == []
        adjoint, n_steps, _ = _reference_adjoint(SPEC, MODEL, config)
        coarse, _, _ = _reference_adjoint(
            SPEC, MODEL, IntegratorConfig(steps_per_cycle=steps_per_cycle // 2)
        )
        ratio = n_steps / (n_steps // 2)
        if n_trials == 1:
            c, doubling, sampling = _reference_law_bounds(adjoint, coarse, ratio, 2)
            sampling = np.full((2, 2), math.inf)
        else:
            c, doubling, sampling = _reference_law_bounds(adjoint, coarse, ratio, n_trials)
        closed = {"var_gamma": moments["var_gamma"], "var_delta": moments["var_delta"],
                  "cov_gamma_delta": moments["cov_gamma_delta"]}
        for name, (i, j) in {"var_gamma": (0, 0), "var_delta": (1, 1),
                             "cov_gamma_delta": (0, 1)}.items():
            entry = law[name]
            assert entry["law"] == c[i, j]
            assert entry["closed"] == closed[name]
            assert entry["error"] == abs(c[i, j] - closed[name])
            assert entry["doubling_bound"] == pytest.approx(doubling[i, j], rel=1e-12)
            assert entry["sampling_bound"] == pytest.approx(sampling[i, j], rel=1e-12)
        diagonal = law["var_gamma"]
        if n_trials > 1:
            assert diagonal["sampling_bound"] == pytest.approx(
                diagonal["law"] * math.sqrt(2.0 / (n_trials - 1)), rel=1e-12
            )

    def test_given_covariance_is_used(self):
        ensemble = run_ensemble(SPEC, MODEL, 40, 1, mode="full_sim", config=FAST)
        given = check_law(SPEC, MODEL, 40, FAST, ensemble.covariance)
        assert given == check_law(SPEC, MODEL, 40, FAST)
        doubled = check_law(SPEC, MODEL, 40, FAST, 2.0 * ensemble.covariance)
        assert {f.split(":")[0] for f in doubled["failures"]} == {
            "var_gamma", "var_delta", "cov_gamma_delta"
        }

    def test_zero_noise_agrees_exactly(self):
        zero = NoiseModel.from_scalars(0.0, 0.1, 0.0, 0.1)
        law = check_law(SPEC, zero, 40, FAST)
        assert law.pop("failures") == []
        assert all(value == 0.0 for entry in law.values() for value in entry.values())

    def test_wrong_closed_form_names_entry_and_bound(self, monkeypatch):
        moments = phase_moments(SPEC, MODEL)
        wrong = {**moments, "var_delta": 1.001 * moments["var_delta"]}
        monkeypatch.setattr(analytics, "phase_moments", lambda spec, model: wrong)
        law = check_law(SPEC, MODEL, 100, FAST)
        # 0.1% is inside the sampling error of 100 trials, not the doubling bound
        [failure] = law["failures"]
        assert failure.startswith("var_delta: |C - closed| = ")
        assert " > doubling bound " in failure

import math

import numpy as np
import pytest
from scipy.signal import lfilter

from berrysim import (
    IntegratorConfig,
    NoiseModel,
    PrecessionSpec,
    ResolutionError,
    TrialRecord,
    coherence,
    compare_to_analytic,
    evolve_and_extract,
    noiseless_berry_phase,
    phase_moments,
    regime_grid,
    run_ensemble,
    sample_path,
    summarize,
    trial_seed,
)
from berrysim import montecarlo

SPEC = PrecessionSpec(b0=1.0, theta0=math.pi / 4, t_total=100.0, n_cycles=1)
MODEL = NoiseModel.from_scalars(0.05, 0.1, 0.05, 0.1)
FAST = IntegratorConfig(steps_per_cycle=1024)


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
    amp = math.pi / (spec.t_total * spec.b0)
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
    """full_sim records by the per-trial path: a NoisePath, then a full evolution.

    Each trial samples its OU path with ``sample_path`` from its own
    seed and runs ``evolve_and_extract`` on it.  The first-order fields
    come from the first-order ensemble, which draws the same innovations.
    """
    first_order = run_ensemble(spec, model, n_trials, master_seed, config=config)
    n_steps = config.steps_per_cycle * spec.n_cycles
    dt = spec.t_total / n_steps
    records = []
    for r in first_order:
        path = sample_path(model, n_steps, dt, trial_seed(master_seed, r.trial_index))
        extraction = evolve_and_extract(spec, path, config)
        records.append(
            TrialRecord(
                trial_index=r.trial_index,
                gamma_fo=r.gamma_fo,
                delta_fo=r.delta_fo,
                alpha_fo=r.alpha_fo,
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
        records = run_ensemble(SPEC, zero, 5, 1, config=FAST)
        for r in records:
            assert r.gamma_fo == 0.0
            assert r.delta_fo == 0.0
            assert r.alpha_fo == 0.0
            assert r.gamma_sim is None
            assert r.leakage is None
        assert [r.trial_index for r in records] == list(range(5))

    def test_alpha_is_sum(self):
        records = run_ensemble(SPEC, MODEL, 20, 3, config=FAST)
        for r in records:
            assert r.alpha_fo == pytest.approx(r.gamma_fo + r.delta_fo, rel=1e-12)

    def test_deterministic_and_prefix_stable(self):
        a = run_ensemble(SPEC, MODEL, 30, 11, config=FAST)
        b = run_ensemble(SPEC, MODEL, 30, 11, config=FAST)
        assert [r.gamma_fo for r in a] == [r.gamma_fo for r in b]
        # extending the ensemble must not change earlier trials
        longer = run_ensemble(SPEC, MODEL, 45, 11, config=FAST)
        assert [r.alpha_fo for r in longer[:30]] == [r.alpha_fo for r in a]

    def test_noise_shapes_shared_across_amplitudes(self):
        # same master seed: doubling sigma exactly doubles the deviations
        double = NoiseModel.from_scalars(0.10, 0.1, 0.10, 0.1)
        base = run_ensemble(SPEC, MODEL, 10, 17, config=FAST)
        scaled = run_ensemble(SPEC, double, 10, 17, config=FAST)
        for r1, r2 in zip(base, scaled):
            assert r2.gamma_fo == pytest.approx(2.0 * r1.gamma_fo, rel=1e-12)
            assert r2.delta_fo == pytest.approx(2.0 * r1.delta_fo, rel=1e-12)

    def test_full_sim_mode(self):
        spec = PrecessionSpec(
            b0=1.0, theta0=math.pi / 4, t_total=400.0 * math.pi, n_cycles=1
        )
        config = IntegratorConfig(steps_per_cycle=2048)
        zero = NoiseModel.from_scalars(0.0, 0.1, 0.0, 0.1)
        baseline = run_ensemble(spec, zero, 1, 5, mode="full_sim", config=config)
        assert baseline[0].gamma_sim == pytest.approx(
            noiseless_berry_phase(math.pi / 4), abs=0.01
        )
        assert baseline[0].leakage < 1e-4

        weak = NoiseModel.from_scalars(0.005, 0.02, 0.005, 0.02)
        records = run_ensemble(spec, weak, 4, 9, mode="full_sim", config=config)
        for r in records:
            assert r.leakage < 5e-3
            residual = r.gamma_sim - baseline[0].gamma_sim - r.gamma_fo
            assert abs(residual) < 2e-3

    # (sigma12, sigma3): isotropic, no longitudinal noise, no transverse noise
    AMPLITUDES = {"isotropic": (0.05, 0.05), "sigma3_zero": (0.05, 0.0), "sigma12_zero": (0.0, 0.05)}

    @pytest.mark.parametrize("amplitudes", sorted(AMPLITUDES))
    # transverse gamma*dt; the longitudinal one is 3x larger.  At 800 the
    # one-step decay exp(-gamma*dt) underflows to exactly 0.
    @pytest.mark.parametrize("gamma_dt", [1e-4, 0.3, 800.0])
    @pytest.mark.parametrize("n_cycles", [1, 16])
    def test_first_order_matches_reference(self, amplitudes, gamma_dt, n_cycles):
        config = IntegratorConfig(steps_per_cycle=256)
        spec = PrecessionSpec(b0=1.0, theta0=math.pi / 4, t_total=100.0, n_cycles=n_cycles)
        dt = spec.t_total / (config.steps_per_cycle * n_cycles)
        sigma12, sigma3 = self.AMPLITUDES[amplitudes]
        model = NoiseModel.from_scalars(sigma12, gamma_dt / dt, sigma3, 3.0 * gamma_dt / dt)
        for seed in (5, 42, 2024):
            records = run_ensemble(spec, model, 16, seed, config=config)
            got = np.array([(r.gamma_fo, r.delta_fo) for r in records])
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
            for r in run_ensemble(spec, zero, 4, seed, config=config):
                # +0.0 exactly: a -0.0 would print as "-0" in the records CSV
                assert (r.gamma_fo, r.delta_fo, r.alpha_fo) == (0.0, 0.0, 0.0)
                assert math.copysign(1.0, r.gamma_fo) == 1.0
                assert math.copysign(1.0, r.delta_fo) == 1.0

    def test_full_sim_draws_once_for_both_routes(self):
        # one draw per trial feeds the first-order contraction and the
        # path the exact evolution runs on
        first_order = run_ensemble(SPEC, MODEL, 4, 19, config=FAST)
        full_sim = run_ensemble(SPEC, MODEL, 4, 19, mode="full_sim", config=FAST)
        assert [(r.gamma_fo, r.delta_fo) for r in full_sim] == [
            (r.gamma_fo, r.delta_fo) for r in first_order
        ]
        n_steps = FAST.steps_per_cycle * SPEC.n_cycles
        for r in full_sim:
            path = sample_path(MODEL, n_steps, SPEC.t_total / n_steps, trial_seed(19, r.trial_index))
            assert r.gamma_sim == evolve_and_extract(SPEC, path, FAST).geometric_phase

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
        records = run_ensemble(spec, model, 3, 42, mode="full_sim", config=config)
        want = _reference_full_sim(spec, model, 3, 42, config)
        assert records == want
        assert _bits(records) == _bits(want)

    def test_full_sim_checks_resolution_before_any_trial(self, monkeypatch):
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
        # first-order trials never evolve, so the coarse grid serves them
        assert len(run_ensemble(SPEC, MODEL, 5, 1, config=coarse)) == len(draws) == 5

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


class TestSummarize:
    def _records_from(self, gammas, deltas):
        return [
            TrialRecord(
                trial_index=i,
                gamma_fo=float(g),
                delta_fo=float(d),
                alpha_fo=float(g + d),
            )
            for i, (g, d) in enumerate(zip(gammas, deltas))
        ]

    def test_matches_numpy_moments(self):
        rng = np.random.default_rng(21)
        g = rng.standard_normal(500) * 0.3
        d = rng.standard_normal(500) * 2.0 + 0.5 * g
        stats = summarize(self._records_from(g, d))
        assert stats.n_trials == 500
        assert stats.mean["gamma_fo"] == pytest.approx(g.mean(), rel=1e-12)
        assert stats.variance["delta_fo"] == pytest.approx(d.var(ddof=1), rel=1e-12)
        assert stats.sem_mean["gamma_fo"] == pytest.approx(
            math.sqrt(g.var(ddof=1) / 500), rel=1e-12
        )
        dg = g - g.mean()
        assert stats.skewness["gamma_fo"] == pytest.approx(
            np.mean(dg**3) / np.mean(dg**2) ** 1.5, rel=1e-12
        )
        assert stats.excess_kurtosis["gamma_fo"] == pytest.approx(
            np.mean(dg**4) / np.mean(dg**2) ** 2 - 3.0, rel=1e-12
        )
        dd = d - d.mean()
        assert stats.cov_gamma_delta == pytest.approx(
            dg.dot(dd) / 499, rel=1e-12
        )
        assert "gamma_sim" not in stats.mean

    def test_constant_column_degenerates_gracefully(self):
        stats = summarize(self._records_from(np.zeros(10), np.zeros(10)))
        assert stats.variance["gamma_fo"] == 0.0
        assert stats.skewness["gamma_fo"] == 0.0
        assert stats.excess_kurtosis["gamma_fo"] == 0.0

    def test_normal_se_formulas(self):
        stats = summarize(self._records_from(np.arange(25.0), np.arange(25.0)))
        n = 25
        se_skew = math.sqrt(6.0 * n * (n - 1) / ((n - 2) * (n + 1) * (n + 3)))
        assert stats.se_skewness == pytest.approx(se_skew, rel=1e-12)
        se_kurt = 2.0 * se_skew * math.sqrt((n * n - 1) / ((n - 3) * (n + 5)))
        assert stats.se_kurtosis == pytest.approx(se_kurt, rel=1e-12)

    def test_four_records_are_enough(self):
        stats = summarize(self._records_from([0.0, 1.0, 3.0, 2.0], [1.0, 0.0, 0.0, 2.0]))
        assert stats.n_trials == 4
        assert math.isfinite(stats.se_skewness) and math.isfinite(stats.se_kurtosis)

    def test_rejects_small_or_mixed_ensembles(self):
        # the skewness and kurtosis standard errors divide by n - 2 and n - 3
        for n in (1, 2, 3):
            with pytest.raises(ValueError, match="at least four records"):
                summarize(self._records_from(np.arange(n, dtype=float), np.zeros(n)))
        mixed = self._records_from([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0])
        mixed[1] = TrialRecord(
            trial_index=1,
            gamma_fo=2.0,
            delta_fo=0.0,
            alpha_fo=2.0,
            gamma_sim=1.5,
            leakage=0.0,
        )
        with pytest.raises(ValueError, match="mix"):
            summarize(mixed)

    def test_sim_column_included(self):
        records = [
            TrialRecord(
                trial_index=i,
                gamma_fo=0.1 * i,
                delta_fo=0.0,
                alpha_fo=0.1 * i,
                gamma_sim=2.0 + 0.1 * i,
                leakage=0.0,
            )
            for i in range(5)
        ]
        stats = summarize(records)
        assert stats.mean["gamma_sim"] == pytest.approx(2.2)


class TestCoherence:
    def _records(self, alphas):
        return [
            TrialRecord(trial_index=i, gamma_fo=0.0, delta_fo=float(a), alpha_fo=float(a))
            for i, a in enumerate(alphas)
        ]

    def test_gaussian_sample_matches_prediction(self):
        rng = np.random.default_rng(6)
        var = 0.04
        alphas = rng.standard_normal(20_000) * math.sqrt(var)
        est = coherence(self._records(alphas), var)
        assert est.predicted == pytest.approx(math.exp(-2.0 * var), rel=1e-12)
        assert abs(est.z_score) < 4.0
        assert est.se > 0.0

    def test_offset_invariance(self):
        rng = np.random.default_rng(7)
        alphas = rng.standard_normal(500) * 0.1
        a = coherence(self._records(alphas), 0.01)
        b = coherence(self._records(alphas + 123.456), 0.01)
        assert a.measured == pytest.approx(b.measured, rel=1e-12)

    def test_degenerate_ensemble(self):
        est = coherence(self._records(np.zeros(200)), 0.0)
        assert est.measured == 1.0
        assert est.z_score == 0.0

    def test_needs_enough_records(self):
        with pytest.raises(ValueError):
            coherence(self._records(np.zeros(99)), 0.0)


class TestCompareToAnalytic:
    def test_reference_ensemble_passes(self):
        records = run_ensemble(SPEC, MODEL, 1500, 77, config=FAST)
        stats = summarize(records)
        moments = phase_moments(SPEC, MODEL)
        report = compare_to_analytic(stats, moments)
        assert set(report.z_scores) == {
            "mean_gamma",
            "var_gamma",
            "mean_delta",
            "var_delta",
            "mean_alpha",
            "var_alpha",
            "cov_gamma_delta",
        }
        assert report.passed
        assert max(abs(z) for z in report.z_scores.values()) < 3.0
        est = coherence(records, moments.var_alpha)
        assert abs(est.z_score) < 3.0

    def test_zero_noise_is_exact_agreement(self):
        zero = NoiseModel.from_scalars(0.0, 0.1, 0.0, 0.1)
        stats = summarize(run_ensemble(SPEC, zero, 50, 1, config=FAST))
        report = compare_to_analytic(stats, phase_moments(SPEC, zero))
        assert report.passed
        assert all(z == 0.0 for z in report.z_scores.values())

    def test_wrong_analytics_fail(self):
        records = run_ensemble(SPEC, MODEL, 1500, 77, config=FAST)
        stats = summarize(records)
        moments = phase_moments(SPEC, NoiseModel.from_scalars(0.1, 0.1, 0.1, 0.1))
        report = compare_to_analytic(stats, moments)
        assert not report.passed


class TestRegimeGrid:
    def test_grid_shape_and_realization(self):
        grid = regime_grid()
        assert len(grid) == 27
        for point in grid:
            assert point.spec.t_total == 200.0
            assert point.gamma_t == pytest.approx(point.gamma_t_target, rel=1e-12)
            assert point.spec.n_cycles >= 1
            # realized ratio reflects the integer cycle count
            expected_ratio = point.gamma_t / (2.0 * math.pi * point.spec.n_cycles)
            assert point.ratio == pytest.approx(expected_ratio, rel=1e-12)
            assert point.model.transverse.sigma == pytest.approx(0.05)

    def test_corner_clamping(self):
        # gamma*T = 0.01 with target ratio 100 wants n_cycles << 1
        grid = regime_grid(theta0_values=(0.5,), gamma_t_values=(0.01,), ratio_values=(100.0,))
        assert len(grid) == 1
        assert grid[0].spec.n_cycles == 1
        assert grid[0].ratio != pytest.approx(100.0)

    def test_interior_point_hits_targets(self):
        grid = regime_grid(
            theta0_values=(0.5,), gamma_t_values=(100.0,), ratio_values=(1.0,)
        )
        realized = grid[0]
        assert realized.spec.n_cycles == 16  # round(100 / 2 pi)
        assert realized.ratio == pytest.approx(100.0 / (2.0 * math.pi * 16))

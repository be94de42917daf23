import math
import tracemalloc

import numpy as np
import pytest
from scipy.signal import lfilter

from berrysim import (
    AccuracyError,
    DegeneracyError,
    Grid,
    IntegratorConfig,
    NoiseModel,
    PrecessionSpec,
    QuadratureEstimate,
    Weight,
    berry_phase_variance_broadband,
    berry_phase_variance_narrowband,
    control_field,
    covariance_by_quadrature,
    dephasing_factor,
    dynamical_weight,
    evolve_and_extract,
    geometric_weight,
    noiseless_berry_phase,
    noncyclic_connection_term,
    phase_covariance,
    phase_moments,
)
from berrysim import analytics
from berrysim.cli import RunConfig, _analytic_payload, main
from test_noise import params_for

SPEC = PrecessionSpec(b0=1.0, theta0=math.pi / 4, t_total=100.0, n_cycles=1)
MODEL = NoiseModel.from_scalars(0.05, 0.1, 0.05, 0.1)
W_GAMMA = geometric_weight(SPEC)
W_DELTA = dynamical_weight(SPEC)

# Frozen reference values for SPEC/MODEL.  Independently reproduced by the
# adaptive double-quadrature oracle in TestQuadratureOracle below.
VAR_GAMMA = 0.0019564677457055337
VAR_DELTA = 3.9646325550588211
COV_GAMMA_DELTA = 0.011893378700306358
VAR_ALPHA = 3.9903757802051389


def density_matrix_after(
    amp_up: complex, amp_down: complex, mean_alpha: float, var_alpha: float
) -> np.ndarray:
    """Ensemble-averaged density matrix after one noisy schedule (reference copy).

    The initial superposition ``amp_up |up> + amp_down |down>`` picks up
    a relative phase 2*alpha between the branches; averaging the Gaussian
    alpha damps the coherence by ``exp(-2*var_alpha)`` and rotates it by
    ``2*mean_alpha``.  Populations are untouched at this order.
    """
    a = complex(amp_up)
    b = complex(amp_down)
    norm = abs(a) ** 2 + abs(b) ** 2
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"amplitudes must be normalized, got |a|^2 + |b|^2 = {norm}")
    if not (math.isfinite(mean_alpha) and math.isfinite(var_alpha)) or var_alpha < 0.0:
        raise ValueError("mean_alpha must be finite and var_alpha nonnegative")
    coherence = a * b.conjugate() * np.exp(2.0j * mean_alpha - 2.0 * var_alpha)
    return np.array(
        [[abs(a) ** 2, coherence], [coherence.conjugate(), abs(b) ** 2]],
        dtype=complex,
    )


def weights(spec):
    """The weights of gamma, delta and alpha = gamma + delta."""
    gamma, delta = geometric_weight(spec), dynamical_weight(spec)
    return gamma, delta, gamma + delta


def var_gamma(spec, model):
    gamma = geometric_weight(spec)
    return phase_covariance(spec, model, gamma, gamma)


class TestWeights:
    def test_geometric_weight_components(self):
        w = geometric_weight(SPEC)
        t = np.linspace(0.0, SPEC.t_total, 11)
        values = w.on_grid(SPEC, t)
        assert values.shape == (11, 3)
        amp = math.pi * SPEC.n_cycles / (SPEC.t_total * SPEC.b0)
        c, s = math.cos(SPEC.theta0), math.sin(SPEC.theta0)
        phase = SPEC.omega * t
        assert np.allclose(values[:, 0], -amp * c * s * np.cos(phase), rtol=1e-14)
        assert np.allclose(values[:, 1], -amp * c * s * np.sin(phase), rtol=1e-14)
        assert np.allclose(values[:, 2], amp * s * s, rtol=1e-14)

    def test_dynamical_weight_is_unit_control_direction(self):
        w = dynamical_weight(SPEC)
        t = np.linspace(0.0, SPEC.t_total, 11)
        assert np.allclose(np.linalg.norm(w.on_grid(SPEC, t), axis=-1), 1.0, rtol=1e-14)

    def test_add_sums_amplitudes(self):
        gamma, delta, combined = weights(SPEC)
        assert combined == Weight(
            gamma.transverse + delta.transverse, gamma.longitudinal + delta.longitudinal
        )
        t = np.linspace(0.0, SPEC.t_total, 7)
        assert np.allclose(
            combined.on_grid(SPEC, t), gamma.on_grid(SPEC, t) + delta.on_grid(SPEC, t)
        )
        with pytest.raises(TypeError):
            gamma + 1.0

    def test_constant_weight(self):
        # no transverse amplitude: w(t) = (0, 0, x_L) at every time
        w = Weight(0.0, 3.0)
        assert np.array_equal(w.on_grid(SPEC, np.array([0.0, 5.0])), [[0, 0, 3], [0, 0, 3]])

    @pytest.mark.parametrize("n_cycles", [1, 2, 3])
    def test_geometric_weight_predicts_the_evolution(self, n_cycles):
        # A static K_z moves gamma by x_L * K_z * T to first order.  The
        # evolution never reads a Weight; omega/b0 = 0.0063 keeps it adiabatic.
        spec = PrecessionSpec(
            b0=1.0, theta0=math.pi / 4, t_total=1000.0 * n_cycles, n_cycles=n_cycles
        )
        config = IntegratorConfig(steps_per_cycle=4096)
        k_z = 1e-4
        noise = np.zeros((4096 * n_cycles + 1, 3))
        noise[:, 2] = k_z
        shift = (evolve_and_extract(spec, noise, config).geometric_phase
                 - evolve_and_extract(spec, None, config).geometric_phase)
        ratio = shift / (geometric_weight(spec).longitudinal * k_z * spec.t_total)
        assert abs(ratio - 1.0) <= 0.01, ratio


class TestNoiselessGeometry:
    @pytest.mark.parametrize(
        "theta0,expected",
        [
            (0.0, math.pi),
            (math.pi / 3, math.pi / 2),
            (math.pi / 2, 0.0),
            (math.pi, -math.pi),
        ],
    )
    def test_cone_phase(self, theta0, expected):
        assert noiseless_berry_phase(theta0) == pytest.approx(expected, abs=1e-15)


class TestClosedForms:
    def test_frozen_reference_values(self):
        gamma, delta, alpha = weights(SPEC)
        assert phase_covariance(SPEC, MODEL, gamma, gamma)["total"] == pytest.approx(
            VAR_GAMMA, rel=1e-14
        )
        assert phase_covariance(SPEC, MODEL, delta, delta)["total"] == pytest.approx(
            VAR_DELTA, rel=1e-14
        )
        assert phase_covariance(SPEC, MODEL, gamma, delta)["total"] == pytest.approx(
            COV_GAMMA_DELTA, rel=1e-14
        )
        assert phase_covariance(SPEC, MODEL, alpha, alpha)["total"] == pytest.approx(
            VAR_ALPHA, rel=1e-14
        )

    def test_variance_identity(self):
        # var(alpha) = var(gamma) + var(delta) + 2 cov holds exactly
        rng = np.random.default_rng(3)
        for _ in range(25):
            spec = PrecessionSpec(
                b0=float(rng.uniform(0.5, 3.0)),
                theta0=float(rng.uniform(0.0, math.pi)),
                t_total=float(rng.uniform(10.0, 500.0)),
                n_cycles=int(rng.integers(1, 6)),
            )
            model = NoiseModel.from_scalars(
                float(rng.uniform(0.0, 0.2)),
                float(rng.uniform(0.01, 5.0)),
                float(rng.uniform(0.0, 0.2)),
                float(rng.uniform(0.01, 5.0)),
            )
            gamma, delta, alpha = weights(spec)
            lhs = phase_covariance(spec, model, alpha, alpha)["total"]
            rhs = (
                phase_covariance(spec, model, gamma, gamma)["total"]
                + phase_covariance(spec, model, delta, delta)["total"]
                + 2.0 * phase_covariance(spec, model, gamma, delta)["total"]
            )
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    def test_subterms_sum_to_total(self):
        # var(alpha) by origin: geometric, dynamical and twice their covariance
        gamma, delta, _ = weights(SPEC)
        geometric = phase_covariance(SPEC, MODEL, gamma, gamma)["total"]
        dynamical = phase_covariance(SPEC, MODEL, delta, delta)["total"]
        cross = 2.0 * phase_covariance(SPEC, MODEL, gamma, delta)["total"]
        assert geometric == pytest.approx(VAR_GAMMA, rel=1e-14)
        assert dynamical == pytest.approx(VAR_DELTA, rel=1e-14)
        assert cross == pytest.approx(2.0 * COV_GAMMA_DELTA, rel=1e-14)
        assert geometric + dynamical + cross == pytest.approx(VAR_ALPHA, rel=1e-14)

    def test_mirror_symmetry_of_cone_angle(self):
        # theta0 -> pi - theta0 preserves both variances, flips the covariance
        spec_lo = PrecessionSpec(b0=1.0, theta0=0.6, t_total=80.0, n_cycles=2)
        spec_hi = PrecessionSpec(b0=1.0, theta0=math.pi - 0.6, t_total=80.0, n_cycles=2)
        (g_lo, d_lo, _), (g_hi, d_hi, _) = weights(spec_lo), weights(spec_hi)
        assert phase_covariance(spec_lo, MODEL, g_lo, g_lo)["total"] == pytest.approx(
            phase_covariance(spec_hi, MODEL, g_hi, g_hi)["total"], rel=1e-12
        )
        assert phase_covariance(spec_lo, MODEL, d_lo, d_lo)["total"] == pytest.approx(
            phase_covariance(spec_hi, MODEL, d_hi, d_hi)["total"], rel=1e-12
        )
        assert phase_covariance(spec_lo, MODEL, g_lo, d_lo)["total"] == pytest.approx(
            -phase_covariance(spec_hi, MODEL, g_hi, d_hi)["total"], rel=1e-12
        )

    def test_pole_has_no_geometric_variance(self):
        spec = PrecessionSpec(b0=1.0, theta0=0.0, t_total=100.0, n_cycles=1)
        assert var_gamma(spec, MODEL)["total"] == 0.0

    def test_equator_kills_transverse_channel(self):
        # cos(theta0) = 0 removes the transverse term of the geometric variance
        spec = PrecessionSpec(b0=1.0, theta0=math.pi / 2, t_total=100.0, n_cycles=1)
        vb = var_gamma(spec, MODEL)
        assert vb["transverse"] == pytest.approx(0.0, abs=1e-30)
        assert vb["longitudinal"] > 1e-6

    def test_variance_scales_with_sigma_squared(self):
        model2 = NoiseModel.from_scalars(0.10, 0.1, 0.10, 0.1)
        assert var_gamma(SPEC, model2)["total"] == pytest.approx(
            4.0 * VAR_GAMMA, rel=1e-13
        )

    def test_short_correlation_series_branch_is_smooth(self):
        # longitudinal-only variance at theta0 = pi/2 is 2 pi^2 L(gamma, 1)
        # with L = (u + expm1(-u))/gamma^2; crossing the internal series
        # switch near u = 1e-4 must only move the value by the physical
        # slope dL/du ~ -T^2/6, not by a branch jump
        def lb(gamma):
            spec = PrecessionSpec(b0=1.0, theta0=math.pi / 2, t_total=1.0, n_cycles=1)
            model = NoiseModel.from_scalars(0.0, 1.0, 1.0, gamma)
            return var_gamma(spec, model)["total"]

        below, above = lb(0.99e-4), lb(1.01e-4)
        slope_step = 2.0 * math.pi**2 * (1.01e-4 - 0.99e-4) / 6.0
        assert below - above == pytest.approx(slope_step, rel=1e-3)
        # and the exact u -> 0 limit is sigma^2 * w^2 * T^2
        assert lb(1e-12) == pytest.approx(math.pi**2, rel=1e-10)


class TestLimits:
    def test_narrowband_regime(self):
        # gamma*T and gamma/omega both small: slow, long-memory noise
        spec = PrecessionSpec(b0=1.0, theta0=math.pi / 4, t_total=200.0, n_cycles=10)
        model = NoiseModel.from_scalars(0.05, 5e-5, 0.05, 5e-5)
        exact = var_gamma(spec, model)["total"]
        approx = berry_phase_variance_narrowband(spec, model)
        assert approx == pytest.approx(exact, rel=1e-3)

    def test_broadband_regime(self):
        # gamma*T large and gamma >> omega: effectively white noise; the
        # truncation error is O(1/(gamma T)) = 2e-4 here
        spec = PrecessionSpec(b0=1.0, theta0=math.pi / 4, t_total=200.0, n_cycles=1)
        model = NoiseModel.from_scalars(0.05, 25.0, 0.05, 25.0)
        exact = var_gamma(spec, model)["total"]
        approx = berry_phase_variance_broadband(spec, model)
        assert approx == pytest.approx(exact, rel=1e-3)

    def test_broadband_decays_as_one_over_t(self):
        model = NoiseModel.from_scalars(0.05, 5.0, 0.05, 5.0)
        v1 = berry_phase_variance_broadband(
            PrecessionSpec(b0=1.0, theta0=0.7, t_total=100.0, n_cycles=1), model
        )
        v2 = berry_phase_variance_broadband(
            PrecessionSpec(b0=1.0, theta0=0.7, t_total=200.0, n_cycles=1), model
        )
        assert v1 == pytest.approx(2.0 * v2, rel=1e-12)

    def test_broadband_where_t_total_squared_overflows(self):
        # its bound 0.5*t_total**2 raised OverflowError above t_total ~ 1.34e154;
        # at gamma*T = 5e155 the limit and the exact form agree to roundoff
        spec = PrecessionSpec(b0=1.0, theta0=0.7, t_total=1e155, n_cycles=1)
        model = NoiseModel.from_scalars(0.05, 5.0, 0.05, 5.0)
        got = berry_phase_variance_broadband(spec, model)
        assert got == pytest.approx(var_gamma(spec, model)["total"], rel=1e-12)

    def test_narrowband_is_none_outside_its_range(self):
        # at the reference point gamma3*T = 10 and the bracket
        # T**2*(1/2 - gamma3*T/6) would give a negative variance
        spec = PrecessionSpec(b0=1.0, theta0=math.pi / 4, t_total=100.0, n_cycles=1)
        reference = NoiseModel.from_scalars(0.05, 0.1, 0.05, 0.1)
        assert berry_phase_variance_narrowband(spec, reference) is None
        # gamma3*T = 1 is inside: the limiting form at the geometric weight
        inside = NoiseModel.from_scalars(0.05, 0.1, 0.05, 0.01)
        w = geometric_weight(spec)
        j = 2.0 * 0.1 * 100.0 / spec.omega**2
        ell = 100.0**2 * (0.5 - 0.01 * 100.0 / 6.0)
        want = 2.0 * 0.05**2 * (w.transverse**2 * j + w.longitudinal**2 * ell)
        got = berry_phase_variance_narrowband(spec, inside)
        assert got > 0.0
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("which", ["transverse", "longitudinal"])
    def test_broadband_is_none_below_gamma_t_of_two(self, which):
        # the exact brackets never exceed T**2/2, and T/gamma does once
        # gamma*T < 2; at gamma = gamma12 = gamma3 = 1e-6 the limit would be
        # 246.7 rad**2 against a closed form of 0.0062
        spec = PrecessionSpec(b0=1.0, theta0=math.pi / 4, t_total=100.0, n_cycles=1)
        both_slow = NoiseModel.from_scalars(0.05, 1e-6, 0.05, 1e-6)
        assert berry_phase_variance_broadband(spec, both_slow) is None
        assert var_gamma(spec, both_slow)["total"] == pytest.approx(0.0062, rel=0.01)
        fast = 25.0
        for gamma_t, published in ((1e-4, False), (2.0, True)):
            gamma = gamma_t / spec.t_total
            if which == "transverse":
                model = NoiseModel.from_scalars(0.05, gamma, 0.05, fast)
            else:
                model = NoiseModel.from_scalars(0.05, fast, 0.05, gamma)
            got = berry_phase_variance_broadband(spec, model)
            assert (got is not None) == published, gamma_t
            if published:
                assert got > 0.0

    def test_narrowband_longitudinal_plateau(self):
        # gamma -> 0: the longitudinal noise freezes into a random constant
        # K3 and the variance saturates at (sigma pi sin^2/b0)^2, independent
        # of T
        model = NoiseModel.from_scalars(0.0, 1.0, 0.05, 1e-9)
        plateau = (0.05 * math.pi * math.sin(0.9) ** 2) ** 2
        for t_total in (100.0, 400.0):
            spec = PrecessionSpec(b0=1.0, theta0=0.9, t_total=t_total, n_cycles=1)
            assert berry_phase_variance_narrowband(spec, model) == pytest.approx(
                plateau, rel=1e-6
            )
            assert var_gamma(spec, model)["total"] == pytest.approx(
                plateau, rel=1e-6
            )


class TestQuadratureOracle:
    """Closed forms vs direct integration of the OU kernel against the weights."""

    def test_variance_matches_closed_form(self):
        est = _oracle(SPEC, W_GAMMA, W_GAMMA, MODEL, 4096, 1e-9)
        assert est.error <= 1e-9 * abs(est.value) + 1e-18
        assert est.value == pytest.approx(VAR_GAMMA, rel=1e-10)

    def test_dynamical_variance_matches_closed_form(self):
        est = _oracle(SPEC, W_DELTA, W_DELTA, MODEL, 4096, 1e-9)
        assert est.value == pytest.approx(VAR_DELTA, rel=1e-10)

    def test_covariance_matches_closed_form(self):
        est = _oracle(SPEC, geometric_weight(SPEC), dynamical_weight(SPEC), MODEL, 4096, 1e-9)
        assert est.value == pytest.approx(COV_GAMMA_DELTA, rel=1e-10)

    def test_covariance_is_symmetric(self):
        a = _oracle(SPEC, geometric_weight(SPEC), dynamical_weight(SPEC), MODEL, 2048, 1e-9)
        b = _oracle(SPEC, dynamical_weight(SPEC), geometric_weight(SPEC), MODEL, 2048, 1e-9)
        assert a.value == pytest.approx(b.value, rel=1e-12)

    def test_constant_weight_analytic_case(self):
        # w = (0,0,1): variance is 2 sigma3^2 (gamma T + e^{-gamma T} - 1)/gamma^2
        t_total, sigma, gamma = 50.0, 0.3, 0.25
        model = NoiseModel.from_scalars(0.0, 1.0, sigma, gamma)
        spec = PrecessionSpec(b0=1.0, theta0=0.0, t_total=t_total, n_cycles=1)
        est = _oracle(spec, Weight(0.0, 1.0), Weight(0.0, 1.0), model, 1024, 1e-9)
        u = gamma * t_total
        expected = 2.0 * sigma**2 * (u + math.expm1(-u)) / gamma**2
        assert est.value == pytest.approx(expected, rel=1e-10)

    def test_zero_noise_short_circuits(self):
        model = NoiseModel.from_scalars(0.0, 1.0, 0.0, 1.0)
        est = _oracle(SPEC, W_GAMMA, W_GAMMA, model, 64, 1e-9)
        assert est.value == 0.0
        assert est.error == 0.0

    def test_refinement_reports_node_count(self):
        est = _oracle(SPEC, W_GAMMA, W_GAMMA, MODEL, 256, 1e-9)
        assert est.nodes >= 256
        assert est.nodes % 2 == 0 or est.nodes >= 256  # doubled grids

    def test_non_convergence_raises(self):
        with pytest.raises(AccuracyError):
            _oracle(SPEC, W_GAMMA, W_GAMMA, MODEL, 64, 1e-15, max_nodes=128)

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the roundoff floor of ROADMAP's 'Quadrature oracle: a stopping rule that "
               "knows its roundoff floor': the doubling estimate stops on roundoff "
               "(3.3e-7 off with an estimate near 1e-8 of the value)",
    )
    def test_roundoff_floor_at_small_gamma_t(self):
        # gamma*T = 1e-6, sigma3 = 0: the transverse double integral is a
        # small difference of large oscillating parts
        spec = PrecessionSpec(b0=1.3, theta0=math.pi / 4, t_total=100.0, n_cycles=7)
        model = NoiseModel.from_scalars(0.05, 1e-8, 0.0, 3e-8)
        w = geometric_weight(spec)
        est = covariance_by_quadrature(spec, w, w, model)
        assert _same(est.value, phase_covariance(spec, model, w, w)["total"], 1e-8)

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the roundoff floor of ROADMAP's 'Quadrature oracle: a stopping rule that "
               "knows its roundoff floor': at gamma = 1e6 the estimates sit at roundoff "
               "and the oracle doubles to 2**21 nodes, then exits 3",
    )
    def test_roundoff_floor_at_large_gamma(self, tmp_path, capsys):
        argv = ["analytic", "--gamma12", "1e6", "--gamma3", "1e6", "--quiet",
                "-o", str(tmp_path / "wide")]
        assert main(argv) == 0


class TestDephasing:
    def test_factor_values(self):
        assert dephasing_factor(0.0) == 1.0
        assert dephasing_factor(0.5) == pytest.approx(math.exp(-1.0))
        with pytest.raises(ValueError):
            dephasing_factor(-1e-3)
        with pytest.raises(ValueError):
            dephasing_factor(math.nan)

    def test_density_matrix_structure(self):
        a = 1.0 / math.sqrt(2.0)
        rho = density_matrix_after(a, a, mean_alpha=0.3, var_alpha=0.2)
        assert rho.shape == (2, 2)
        assert np.trace(rho).real == pytest.approx(1.0)
        assert np.allclose(rho, rho.conj().T)
        assert abs(rho[0, 1]) == pytest.approx(0.5 * math.exp(-0.4))
        assert np.angle(rho[0, 1]) == pytest.approx(0.6)

    def test_density_matrix_positive_semidefinite(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            raw = rng.standard_normal(4)
            a = complex(raw[0], raw[1])
            b = complex(raw[2], raw[3])
            norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            rho = density_matrix_after(
                a / norm,
                b / norm,
                mean_alpha=float(rng.uniform(-10, 10)),
                var_alpha=float(rng.uniform(0, 5)),
            )
            eigs = np.linalg.eigvalsh(rho)
            assert eigs.min() >= -1e-12

    def test_density_matrix_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            density_matrix_after(1.0, 1.0, 0.0, 0.0)


class TestPhaseMoments:
    def test_reference_values(self):
        m = phase_moments(SPEC, MODEL)
        assert m["mean_gamma"] == pytest.approx(math.pi * math.cos(math.pi / 4))
        assert m["mean_delta"] == pytest.approx(100.0)
        assert m["mean_alpha"] == pytest.approx(m["mean_gamma"] + m["mean_delta"])
        assert m["var_gamma"] == pytest.approx(VAR_GAMMA, rel=1e-14)
        assert m["var_delta"] == pytest.approx(VAR_DELTA, rel=1e-14)
        assert m["cov_gamma_delta"] == pytest.approx(COV_GAMMA_DELTA, rel=1e-14)
        assert m["var_alpha"] == pytest.approx(VAR_ALPHA, rel=1e-14)

    def test_overflowing_field_modulus_integral_is_named(self):
        # the noiseless mean of delta, b0*t_total, was published as inf
        spec = PrecessionSpec(b0=1e300, theta0=math.pi / 4, t_total=1e9, n_cycles=1)
        model = NoiseModel.from_scalars(0.05, 1e-9, 0.05, 1e-9)
        with pytest.raises(ValueError, match=r"b0\*t_total overflows float64"):
            phase_moments(spec, model)


class TestNoncyclicTerm:
    def _path_with_endpoints(self, k0, k1, n_steps=4):
        samples = np.zeros((n_steps + 1, 3))
        samples[0] = k0
        samples[-1] = k1
        return samples

    def test_zero_for_matching_endpoints(self):
        path = self._path_with_endpoints([0.01, 0.02, 0.0], [0.01, 0.02, 0.0])
        assert noncyclic_connection_term(SPEC, path) == pytest.approx(0.0, abs=1e-15)

    def test_small_azimuth_kick(self):
        # a pure +y kick at the endpoint rotates the final azimuth by
        # approximately ky / (b0 sin(theta0))
        ky = 1e-4
        path = self._path_with_endpoints([0.0, 0.0, 0.0], [0.0, ky, 0.0])
        expected = 0.5 * math.cos(SPEC.theta0) * ky / (
            SPEC.b0 * math.sin(SPEC.theta0)
        )
        assert noncyclic_connection_term(SPEC, path) == pytest.approx(expected, rel=1e-3)

    @pytest.mark.parametrize("theta0", [0.0, math.pi])
    def test_pole_has_no_term(self, theta0):
        # no reference azimuth on the z axis; None, like a limit outside its domain
        spec = PrecessionSpec(b0=1.0, theta0=theta0, t_total=100.0, n_cycles=1)
        assert noncyclic_connection_term(spec, np.full((5, 3), 0.01)) is None

    @pytest.mark.parametrize("shape", [(1, 3), (0, 3), (5, 2), (5,), (2, 5, 3)])
    @pytest.mark.parametrize("theta0", [math.pi / 4, 0.0])
    def test_malformed_noise_is_named(self, shape, theta0):
        # a ZeroDivisionError for one row, an IndexError for none and a
        # broadcast error for two columns before
        spec = PrecessionSpec(b0=1.0, theta0=theta0, t_total=100.0, n_cycles=1)
        with pytest.raises(ValueError, match=r"^noise must have shape \(n \+ 1, 3\) with n >= 1"):
            noncyclic_connection_term(spec, np.zeros(shape))

    def test_last_node_is_the_grid_node(self):
        # the last sample sits at n * (t_total / n), within an ulp of t_total
        spec = PrecessionSpec(b0=1.0, theta0=math.pi / 4, t_total=7.7, n_cycles=3)
        path = self._path_with_endpoints([0.0, 0.0, 0.0], [0.01, -0.02, 0.0], n_steps=51)
        times = Grid(spec, 51).times
        assert times[-1] == 7.699999999999999
        want = _reference_noncyclic_connection_term(spec, times, path)
        assert noncyclic_connection_term(spec, path).hex() == want.hex()


def _reference_noncyclic_connection_term(spec, times, samples):
    """``noncyclic_connection_term`` on a noise path's times and samples (reference copy).

    The term as it stood while it read a path's first and last time and
    sample; it raised at the cone pole.
    """
    if math.sin(spec.theta0) < 1e-12:
        raise DegeneracyError("control field on the z axis has no reference azimuth")
    deviations = []
    for t, k in ((times[0], samples[0]), (times[-1], samples[-1])):
        b = control_field(spec, float(t))
        total = b + k
        d = math.atan2(total[1], total[0]) - math.atan2(b[1], b[0])
        deviations.append(math.remainder(d, 2.0 * math.pi))
    return float(0.5 * np.cos(spec.theta0)) * (deviations[1] - deviations[0])


# --------------------------------------------------------------------------
# Reference copies of the four closed forms, the subterms of var(alpha), both
# limits and one quadrature pass, as written before the closed forms became one quadratic
# form over weight amplitudes.  TestMatchesReference pins the package to
# them on a grid that spans both poles, the equator, both bandwidth
# extremes and each noise channel alone.


def _ref_brackets(spec, model):
    gamma, omega, t_total = model.transverse.gamma, spec.omega, spec.t_total
    denom = gamma * gamma + omega * omega
    j = (
        gamma * t_total / denom
        + math.expm1(-gamma * t_total) * (gamma * gamma - omega * omega) / denom**2
    )
    gamma = model.longitudinal.gamma
    u = gamma * t_total
    if u < 1e-4:
        ell = t_total * t_total * (0.5 - u / 6.0 + u * u / 24.0 - u**3 / 120.0)
    else:
        ell = (u + math.expm1(-u)) / (gamma * gamma)
    return j, ell


def _ref_closed_forms(spec, model):
    """(transverse, longitudinal) terms of each second moment, and the limits."""
    s, c = math.sin(spec.theta0), math.cos(spec.theta0)
    b0, t_total, n = spec.b0, spec.t_total, spec.n_cycles
    a = math.pi * n * c * s / (t_total * b0)
    b = math.pi * n * s * s / (t_total * b0)
    tr, lo = model.transverse, model.longitudinal
    j, ell = _ref_brackets(spec, model)
    trans_amp = b0 * s - math.pi * n * c * s / t_total
    long_amp = math.pi * n * s * s / t_total + b0 * c
    cov = (-2.0 * tr.sigma**2 * a * s * j, 2.0 * lo.sigma**2 * b * c * ell)
    omega_t = spec.omega * t_total
    return {
        "var_gamma": (2.0 * tr.sigma**2 * a * a * j, 2.0 * lo.sigma**2 * b * b * ell),
        "var_delta": (2.0 * tr.sigma**2 * s * s * j, 2.0 * lo.sigma**2 * c * c * ell),
        "cov_gamma_delta": cov,
        "cross": (2.0 * cov[0], 2.0 * cov[1]),
        "var_alpha": (
            2.0 * (tr.sigma / b0) ** 2 * trans_amp**2 * j,
            2.0 * (lo.sigma / b0) ** 2 * long_amp**2 * ell,
        ),
        "narrowband": (
            4.0 * tr.sigma**2 * (math.pi * n * c * s / b0) ** 2 * tr.gamma * t_total / omega_t**2,
            2.0 * lo.sigma**2 * (math.pi * n * s * s / b0) ** 2 * (0.5 - lo.gamma * t_total / 6.0),
        ),
        "broadband": (
            2.0 * tr.sigma**2 * (math.pi * n * c * s / b0) ** 2 / (tr.gamma * t_total),
            2.0 * lo.sigma**2 * (math.pi * n * s * s / b0) ** 2 / (lo.gamma * t_total),
        ),
    }


def _ref_weight_values(spec, name, t):
    """Weight of gamma, delta or alpha on the grid t, one component at a time."""
    s, c = math.sin(spec.theta0), math.cos(spec.theta0)
    phase = spec.omega * t
    if name == "alpha":
        return _ref_weight_values(spec, "gamma", t) + _ref_weight_values(spec, "delta", t)
    if name == "gamma":
        amp = math.pi * spec.n_cycles / (spec.t_total * spec.b0)
        parts = [-amp * c * s * np.cos(phase), -amp * c * s * np.sin(phase),
                 np.full_like(phase, amp * s * s)]
    else:
        parts = [s * np.cos(phase), s * np.sin(phase), np.full_like(phase, c)]
    return np.stack(parts, axis=-1)


def _ref_filtered_kernel(w, gamma, h):
    u = gamma * h
    i0 = -math.expm1(-u) / gamma
    if u < 1e-4:
        i1 = h * (0.5 - u / 6.0 + u * u / 24.0 - u**3 / 120.0)
    else:
        i1 = (u + math.expm1(-u)) / (u * gamma)
    out, _ = lfilter([i1, i0 - i1], [1.0, -math.exp(-u)], w, zi=np.array([-i1 * w[0]]))
    return out


def _ref_quadrature_pass(spec, name_a, name_b, model, n_nodes):
    t = np.linspace(0.0, spec.t_total, n_nodes + 1)
    h = spec.t_total / n_nodes
    wa = _ref_weight_values(spec, name_a, t)
    wb = _ref_weight_values(spec, name_b, t)
    total = 0.0
    for i in range(3):
        params = params_for(model, i)
        if params.sigma == 0.0:
            continue
        yb = _ref_filtered_kernel(wb[:, i], params.gamma, h)
        ya = _ref_filtered_kernel(wa[:, i], params.gamma, h)
        total += params.sigma**2 * (
            np.trapezoid(wa[:, i] * yb, dx=h) + np.trapezoid(wb[:, i] * ya, dx=h)
        )
    return float(total)


def _ref_doubling(pass_value, n, rtol, max_nodes):
    """The one-level doubling rule, with the two-level rule beside it.

    Returns (first, second).  ``first`` is the (value, error, nodes) where
    |T(n) - T(n/2)|/3 <= rtol*|R2| first holds, or None where it does
    not within max_nodes.  ``second`` is the same for
    |R2(n) - R2(n/2)|/15 <= rtol*|R3| at a grid before ``first``'s.
    """
    first = second = None
    prev, prev_r2 = pass_value(n), None
    while first is None and 2 * n <= max_nodes:
        n *= 2
        cur = pass_value(n)
        err = abs(cur - prev) / 3.0
        r2 = cur + (cur - prev) / 3.0
        if err <= rtol * abs(r2):
            first = (r2, err, n)
        elif second is None and prev_r2 is not None:
            err = abs(r2 - prev_r2) / 15.0
            r3 = r2 + (r2 - prev_r2) / 15.0
            if err <= rtol * abs(r3):
                second = (r3, err, n)
        prev, prev_r2 = cur, r2
    return first, second


def _coeffs(model, x, y):
    """The per-part coefficients that scale a pass's basis integrals for the pair (x, y)."""
    return (
        2.0 * model.transverse.sigma**2 * (x.transverse * y.transverse),
        2.0 * model.longitudinal.sigma**2 * (x.longitudinal * y.longitudinal),
    )


def _own_pass(spec, x, y, model, n_nodes):
    """One pass of the package's own quadrature for the pair (x, y)."""
    integrals = analytics._quadrature_pass(spec, model, n_nodes, (True, True))
    return analytics._pass_value(_coeffs(model, x, y), integrals)


def _oracle(spec, x, y, model, n_nodes, rtol, max_nodes=2**21):
    """The package's stop rule over its own passes, from another start, rtol or limit.

    Bitwise the oracle's estimate where these are its policy.
    """
    return analytics._extrapolate(
        lambda n: _own_pass(spec, x, y, model, n), n_nodes, rtol, max_nodes
    )


# theta0 x gamma*T x (sigma12, sigma3) x n_cycles, at b0 = 1.3 and T = 100
# with the longitudinal bandwidth three times the transverse one.
REFERENCE_GRID = [
    (
        PrecessionSpec(b0=1.3, theta0=theta0, t_total=100.0, n_cycles=n_cycles),
        NoiseModel.from_scalars(sigma12, gamma_t / 100.0, sigma3, 3.0 * gamma_t / 100.0),
    )
    for theta0 in (0.0, 0.05, math.pi / 4, math.pi / 2, math.pi - 0.05, math.pi)
    for gamma_t in (1e-6, 1e-2, 1.0, 100.0, 1e4)
    for sigma12, sigma3 in ((0.05, 0.05), (0.05, 0.0), (0.0, 0.05))
    for n_cycles in (1, 7)
]


def _ref_narrowband_published(spec, model):
    """The narrowband limit is published where its longitudinal bracket is >= 0."""
    return 0.5 - model.longitudinal.gamma * spec.t_total / 6.0 >= 0.0


def _ref_broadband_published(spec, model):
    """The broadband limit is published where neither T/gamma exceeds T**2/2."""
    bound = 0.5 * spec.t_total**2
    return max(spec.t_total / model.transverse.gamma,
               spec.t_total / model.longitudinal.gamma) <= bound


def _same(got, want, rel):
    return abs(got - want) <= rel * abs(want)


QUADRATURE_PAIRS = [("gamma", "gamma"), ("alpha", "alpha"), ("gamma", "delta")]


def _at_roundoff_floor(spec, model):
    """gamma*T = 1e-6 with 7 cycles, where the passes stall at roundoff."""
    return spec.n_cycles == 7 and model.transverse.gamma * spec.t_total < 1e-5


def _quadrature_outcome(spec, model, pair):
    """The package's oracle for a pair of named weights, checked on its rule.

    Returns (got, exact, first, second): the estimate (None where the
    oracle raises), the closed form, and the one- and two-level outcomes
    of ``_ref_doubling`` on the independent reference passes.
    """
    index = {"gamma": 0, "delta": 1, "alpha": 2}
    x, y = (weights(spec)[index[name]] for name in pair)
    first, second = _ref_doubling(
        lambda n: _ref_quadrature_pass(spec, *pair, model, n), 256, 1e-8, 2**16
    )
    # the rule on the package's own passes gives the exact outcome
    own_first, own_second = _ref_doubling(
        lambda n: _own_pass(spec, x, y, model, n), 256, 1e-8, 2**16
    )
    args = (spec, x, y, model, 256, 1e-8, 2**16)
    exact = phase_covariance(spec, model, x, y)["total"]
    if own_first is None and own_second is None:
        assert first is None and second is None, (spec, model)
        with pytest.raises(AccuracyError):
            _oracle(*args)
        return None, exact, first, second
    got = _oracle(*args)
    # first rule met wins: where the one-level rule stops no later
    # than the two-level one, the output is the one-level output
    assert tuple(got) == (own_first if own_second is None else own_second), (spec, model)
    return got, exact, first, second


class TestMatchesReference:
    def test_closed_forms(self):
        for spec, model in REFERENCE_GRID:
            want = _ref_closed_forms(spec, model)
            gamma, delta, alpha = weights(spec)
            pairs = {"var_gamma": (gamma, gamma), "var_delta": (delta, delta),
                     "cov_gamma_delta": (gamma, delta), "var_alpha": (alpha, alpha)}
            for key, (x, y) in pairs.items():
                got = phase_covariance(spec, model, x, y)
                for term, ref in zip((got["transverse"], got["longitudinal"]), want[key]):
                    assert _same(term, ref, 1e-14), (spec, model, key)
            narrowband = berry_phase_variance_narrowband(spec, model)
            if _ref_narrowband_published(spec, model):
                assert _same(narrowband, sum(want["narrowband"]), 1e-14), (spec, model)
            else:
                assert narrowband is None, (spec, model)
            broadband = berry_phase_variance_broadband(spec, model)
            if _ref_broadband_published(spec, model):
                assert _same(broadband, sum(want["broadband"]), 1e-14), (spec, model)
            else:
                assert broadband is None, (spec, model)

    def test_cli_payload(self, monkeypatch):
        # the analytic command's variances, subterms and limits, with the
        # oracle stubbed out so that only the closed forms run
        monkeypatch.setattr(
            analytics, "_covariances_by_quadrature",
            lambda spec, pairs, *args, **kwargs: (QuadratureEstimate(1.0, 0.0, 0),) * len(pairs),
        )
        for spec, model in REFERENCE_GRID:
            config = RunConfig(
                b0=spec.b0, theta0=spec.theta0, t_total=spec.t_total,
                n_cycles=spec.n_cycles, sigma12=model.transverse.sigma,
                gamma12=model.transverse.gamma, sigma3=model.longitudinal.sigma,
                gamma3=model.longitudinal.gamma,
            )
            payload = _analytic_payload(config, ("var_gamma", "var_alpha"))
            want = _ref_closed_forms(spec, model)
            for key, block in payload["variances"].items():
                for term, ref in zip((block["transverse"], block["longitudinal"]), want[key]):
                    assert _same(term, ref, 1e-14), (spec, model, key)
            subterms = {"geometric": "var_gamma", "dynamical": "var_delta", "cross": "cross"}
            for key, ref in subterms.items():
                assert _same(payload["subterms"][key], sum(want[ref]), 1e-14), (spec, model, key)
            limits = payload["limits"]
            if _ref_narrowband_published(spec, model):
                assert _same(limits["narrowband_var_gamma"], sum(want["narrowband"]), 1e-14)
            else:
                assert limits["narrowband_var_gamma"] is None
            if _ref_broadband_published(spec, model):
                assert _same(limits["broadband_var_gamma"], sum(want["broadband"]), 1e-14)
            else:
                assert limits["broadband_var_gamma"] is None

    @pytest.mark.parametrize("pair", QUADRATURE_PAIRS)
    def test_quadrature(self, pair):
        for spec, model in REFERENCE_GRID:
            got, exact, first, second = _quadrature_outcome(spec, model, pair)
            if got is None:
                continue
            if first is None:
                # the one-level reference raises: the value must lie within
                # rtol, except at the floor, which has its own xfail below
                if not _at_roundoff_floor(spec, model):
                    assert _same(got.value, exact, 1e-8), (spec, model)
                continue
            if not _same(first[0], exact, 1e-8):
                # The reference stopped on roundoff, further from the exact
                # value than its rtol (3e-7 at gamma*T = 1e-6 with sigma3 = 0);
                # there the two only have to be equally close to it.
                assert abs(got.value - exact) <= 2.0 * abs(first[0] - exact), (spec, model)
                continue
            if second is None:
                assert got.nodes == first[2], (spec, model)
                assert _same(got.value, first[0], 1e-10), (spec, model)
                continue
            # the two-level rule stops first
            assert _same(got.value, exact, 1e-8), (spec, model)
            assert got.nodes <= first[2], (spec, model)

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the roundoff floor of ROADMAP's 'Quadrature oracle: a stopping rule that "
               "knows its roundoff floor': at gamma*T = 1e-6 with 7 cycles the "
               "one-level reference raises and the two-level rule stops on "
               "roundoff 3.3e-7 off the closed form",
    )
    def test_quadrature_at_the_roundoff_floor(self):
        misses = []
        for pair in QUADRATURE_PAIRS:
            for spec, model in REFERENCE_GRID:
                if not _at_roundoff_floor(spec, model):
                    continue
                got, exact, first, _ = _quadrature_outcome(spec, model, pair)
                if got is not None and first is None and not _same(got.value, exact, 1e-8):
                    misses.append((pair, spec, model))
        assert not misses, misses


# --------------------------------------------------------------------------
# One trapezoid pass over every node of the grid, as written before the pass
# filtered a single drive period.  Where gcd(n_nodes, n_cycles) = 1 the grid
# holds one period and the package's pass must equal it bitwise; elsewhere
# the package sums the same terms in another order.


def _full_grid_pass(spec, model, n_nodes, parts):
    t = np.linspace(0.0, spec.t_total, n_nodes + 1)
    h = spec.t_total / n_nodes
    phase = spec.omega * t
    integrals = []
    for params, bases, needed in zip(
        (model.transverse, model.longitudinal), ((np.cos, np.sin), (np.ones_like,)), parts
    ):
        if not needed:
            integrals.append(None)
            continue
        values = []
        for basis in bases:
            b = basis(phase)
            values.append(np.trapezoid(b * analytics._filtered_kernel(b, params.gamma, h), dx=h))
        integrals.append(values)
    return tuple(integrals)


def _periodic_grid(cycles):
    """(spec, model) at b0 = 1.3 and T = 100, gamma3 = 3*gamma12, one noise part alone or both."""
    return [
        (
            PrecessionSpec(b0=1.3, theta0=math.pi / 4, t_total=100.0, n_cycles=n_cycles),
            NoiseModel.from_scalars(sigma12, gamma_t / 100.0, sigma3, 3.0 * gamma_t / 100.0),
        )
        for n_cycles in cycles
        for gamma_t in (0.01, 1.0, 100.0, 1e4)
        for sigma12, sigma3 in ((0.05, 0.05), (0.05, 0.0), (0.0, 0.05))
    ]


PERIOD_THETAS = (0.0, math.pi / 4, math.pi / 2, math.pi)


def _pairs_at(spec, theta0):
    gamma, delta, _ = weights(
        PrecessionSpec(b0=spec.b0, theta0=theta0, t_total=spec.t_total, n_cycles=spec.n_cycles)
    )
    return {"var_gamma": (gamma, gamma), "var_delta": (delta, delta),
            "cov_gamma_delta": (gamma, delta)}


class TestPeriodReduction:
    """The pass filters one drive period and carries the AR(1) state across the rest."""

    @pytest.mark.parametrize("n_nodes", [256, 4096])
    def test_one_period_grids_are_bitwise(self, n_nodes):
        for spec, model in _periodic_grid((1, 3, 7)):
            for parts in ((True, True), (True, False), (False, True)):
                got = analytics._quadrature_pass(spec, model, n_nodes, parts)
                assert got == _full_grid_pass(spec, model, n_nodes, parts), (spec, model)

    @pytest.mark.parametrize("n_cycles", [2, 16, 96, 1592])
    def test_many_period_passes_match_the_full_grid(self, n_cycles):
        # 4096 nodes hold gcd(4096, n_cycles) periods: 2, 16, 32 and 8
        for n_nodes in (4096, 2 * max(4096, 64 * n_cycles)):
            for spec, model in _periodic_grid((n_cycles,)):
                got = analytics._quadrature_pass(spec, model, n_nodes, (True, True))
                want = _full_grid_pass(spec, model, n_nodes, (True, True))
                for theta0 in PERIOD_THETAS:
                    for key, (x, y) in _pairs_at(spec, theta0).items():
                        coeffs = _coeffs(model, x, y)
                        assert _same(
                            analytics._pass_value(coeffs, got),
                            analytics._pass_value(coeffs, want),
                            1e-10,
                        ), (spec, model, n_nodes, theta0, key)

    @pytest.mark.parametrize("n_cycles", [2, 16, 96, 1592])
    def test_many_period_oracle_matches_the_closed_forms(self, n_cycles):
        for spec, model in _periodic_grid((n_cycles,)):
            for theta0 in PERIOD_THETAS:
                for key, (x, y) in _pairs_at(spec, theta0).items():
                    quad = _oracle(spec, x, y, model, max(4096, 64 * n_cycles), 1e-9)
                    exact = phase_covariance(spec, model, x, y)["total"]
                    assert _same(quad.value, exact, 1e-8), (spec, model, theta0, key)

    def test_a_pass_allocates_one_period(self):
        # 1592 cycles on 407,552 nodes: 256 nodes per period, 1,593 period
        # starts; the full grid of one basis alone takes 3.3 MB
        spec = PrecessionSpec(b0=1.0, theta0=math.pi / 2, t_total=200.0, n_cycles=1592)
        model = NoiseModel.from_scalars(0.05, 0.5, 0.05, 0.5)
        tracemalloc.start()
        try:
            analytics._quadrature_pass(spec, model, 407552, (True, True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest

from berrysim import (
    IntegratorConfig,
    NoiseModel,
    NoisePath,
    PrecessionSpec,
    ResolutionError,
    SphericalAngles,
    connection_phase_discrete,
    control_field,
    evolve_and_extract,
    noiseless_berry_phase,
    polar_angles,
    sample_path,
)
from berrysim.evolve import _eigenvector_chain, _step_coefficients


@dataclass(frozen=True)
class SpinState:
    """A pure spin-1/2 state with amplitudes on the z basis (reference copy)."""

    amp_up: complex
    amp_down: complex

    @property
    def norm(self) -> float:
        return math.sqrt(abs(self.amp_up) ** 2 + abs(self.amp_down) ** 2)

    def normalized(self) -> "SpinState":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return SpinState(self.amp_up / n, self.amp_down / n)

    def as_array(self) -> np.ndarray:
        return np.array([self.amp_up, self.amp_down], dtype=complex)


def eigenstate_up(angles: SphericalAngles) -> SpinState:
    """Upper eigenstate of b_hat . sigma in the half-angle gauge (reference copy)."""
    half = 0.5 * angles.theta
    return SpinState(
        cmath.exp(-0.5j * angles.phi) * math.cos(half),
        cmath.exp(0.5j * angles.phi) * math.sin(half),
    )


def eigenstate_down(angles: SphericalAngles) -> SpinState:
    """Lower eigenstate, orthogonal to :func:`eigenstate_up` (reference copy)."""
    half = 0.5 * angles.theta
    return SpinState(
        cmath.exp(-0.5j * angles.phi) * math.sin(half),
        -cmath.exp(0.5j * angles.phi) * math.cos(half),
    )


def bloch_vector(state: SpinState) -> np.ndarray:
    """Expectation values of the Pauli operators (reference copy)."""
    u = complex(state.amp_up)
    d = complex(state.amp_down)
    if abs(u) == 0.0 and abs(d) == 0.0:
        raise ValueError("the zero state has no Bloch vector")
    cross = u.conjugate() * d
    return np.array([2.0 * cross.real, 2.0 * cross.imag, abs(u) ** 2 - abs(d) ** 2])


def propagate_step(state: SpinState, b_total: np.ndarray, dt: float) -> SpinState:
    """One step of a constant field through the kernel's Cayley-Klein pair.

    A scalar wrapper of ``_step_coefficients``, the step every evolution
    applies, so the single-step tests below exercise the kernel's step.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    b = np.asarray(b_total, dtype=float)
    if b.shape != (3,):
        raise ValueError(f"b_total must be a 3-vector, got shape {b.shape}")
    a, off, _ = _step_coefficients(b, dt)
    a = complex(a)
    off = complex(off)
    u = complex(state.amp_up)
    d = complex(state.amp_down)
    return SpinState(a * u + off * d, a.conjugate() * d - off.conjugate() * u)


def pauli_dot(b):
    bx, by, bz = b
    return np.array([[bz, bx - 1j * by], [bx + 1j * by, -bz]], dtype=complex)


# slow drive: one cycle with B0/omega = 200
ADIABATIC = PrecessionSpec(
    b0=1.0, theta0=math.pi / 4, t_total=400.0 * math.pi, n_cycles=1
)


class TestSpinState:
    def test_norm_and_normalized(self):
        s = SpinState(3.0, 4.0j)
        assert s.norm == pytest.approx(5.0)
        n = s.normalized()
        assert n.norm == pytest.approx(1.0)
        assert n.amp_up == pytest.approx(0.6)
        with pytest.raises(ValueError):
            SpinState(0.0, 0.0).normalized()

    def test_as_array(self):
        arr = SpinState(1.0, 1.0j).as_array()
        assert arr.dtype == complex
        assert np.array_equal(arr, [1.0, 1.0j])


class TestEigenstates:
    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, 2.8, math.pi])
    @pytest.mark.parametrize("phi", [-2.0, 0.0, 1.0])
    def test_eigenvector_property(self, theta, phi):
        angles = SphericalAngles(theta=theta, phi=phi)
        b = np.array(
            [
                math.sin(theta) * math.cos(phi),
                math.sin(theta) * math.sin(phi),
                math.cos(theta),
            ]
        )
        h = pauli_dot(b)
        up = eigenstate_up(angles).as_array()
        dn = eigenstate_down(angles).as_array()
        assert np.allclose(h @ up, up, atol=1e-14)
        assert np.allclose(h @ dn, -dn, atol=1e-14)
        assert abs(np.vdot(up, dn)) < 1e-14
        assert np.vdot(up, up).real == pytest.approx(1.0)

    def test_bloch_vector_matches_angles(self):
        angles = SphericalAngles(theta=1.1, phi=-0.7)
        v = bloch_vector(eigenstate_up(angles))
        expected = [
            math.sin(1.1) * math.cos(-0.7),
            math.sin(1.1) * math.sin(-0.7),
            math.cos(1.1),
        ]
        assert np.allclose(v, expected, atol=1e-14)
        assert np.allclose(bloch_vector(eigenstate_down(angles)), np.negative(expected), atol=1e-14)

    @pytest.mark.parametrize("branch", ["up", "down"])
    def test_chain_rows_equal_scalar_eigenstates(self, branch):
        # the evolution kernel takes its eigenstates from the array chain
        rng = np.random.default_rng(11)
        vectors = [
            *rng.standard_normal((2000, 3)) * rng.uniform(1e-3, 1e3, (2000, 1)),
            np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -2.0]),
            np.array([-0.0, -0.0, 1.0]), np.array([-0.0, 0.0, -3.0]),
            np.array([0.0, -0.0, 0.5]), np.array([-0.0, 1e-300, 1.0]),
        ]
        angles = [polar_angles(v) for v in vectors]
        rows = _eigenvector_chain(
            [a.theta for a in angles], [a.phi for a in angles], branch
        )
        scalar = eigenstate_up if branch == "up" else eigenstate_down
        for row, a in zip(rows, angles):
            # bitwise, so signed zeros agree too
            assert row.tobytes() == scalar(a).as_array().tobytes(), a

    def test_bloch_vector_rejects_null_state(self):
        with pytest.raises(ValueError):
            bloch_vector(SpinState(0.0, 0.0))


class TestPropagateStep:
    def test_unitary(self):
        state = SpinState(0.8, 0.6j)
        out = propagate_step(state, np.array([0.3, -0.2, 0.9]), 0.17)
        assert out.norm == pytest.approx(state.norm, rel=1e-14)

    def test_zero_field_is_identity(self):
        state = SpinState(0.8, 0.6j)
        out = propagate_step(state, np.zeros(3), 0.5)
        assert out.amp_up == state.amp_up and out.amp_down == state.amp_down

    def test_larmor_phases_along_z(self):
        out = propagate_step(SpinState(1.0, 0.0), np.array([0.0, 0.0, 2.0]), 0.3)
        assert out.amp_up == pytest.approx(np.exp(-1j * 0.3), abs=1e-14)
        out = propagate_step(SpinState(0.0, 1.0), np.array([0.0, 0.0, 2.0]), 0.3)
        assert out.amp_down == pytest.approx(np.exp(+1j * 0.3), abs=1e-14)

    def test_rotates_bloch_vector_about_field(self):
        # spin along +x, field along +z: the Bloch vector turns from +x
        # toward +y by |b| dt
        state = eigenstate_up(SphericalAngles(theta=math.pi / 2, phi=0.0))
        out = propagate_step(state, np.array([0.0, 0.0, 1.5]), 0.4)
        angle = 1.5 * 0.4
        assert np.allclose(
            bloch_vector(out), [math.cos(angle), math.sin(angle), 0.0], atol=1e-14
        )

    def test_composition(self):
        b = np.array([0.4, 0.1, -0.8])
        state = SpinState(0.6, 0.8)
        once = propagate_step(state, b, 0.5)
        twice = propagate_step(propagate_step(state, b, 0.25), b, 0.25)
        assert np.allclose(once.as_array(), twice.as_array(), atol=1e-14)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            propagate_step(SpinState(1.0, 0.0), np.ones(3), 0.0)


class TestIntegratorConfig:
    def test_defaults(self):
        config = IntegratorConfig()
        assert config.steps_per_cycle == 4096

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            IntegratorConfig(steps_per_cycle=8)


class TestNoiselessEvolution:
    @pytest.mark.parametrize("theta0", [math.pi / 6, math.pi / 4, math.pi / 2])
    def test_cone_phase_recovered(self, theta0):
        spec = PrecessionSpec(
            b0=1.0, theta0=theta0, t_total=400.0 * math.pi, n_cycles=1
        )
        result = evolve_and_extract(spec, config=IntegratorConfig(steps_per_cycle=2048))
        assert result.winding == 1
        assert result.leakage < 1e-3
        assert not result.non_adiabatic
        assert result.degenerate_steps == 0
        assert result.geometric_phase == pytest.approx(
            noiseless_berry_phase(theta0), abs=0.01
        )

    def test_pole_has_no_geometric_phase(self):
        # identical to machine rounding: total and dynamical sums agree to
        # ~1e-11 over a phase of 628
        spec = PrecessionSpec(b0=1.0, theta0=0.0, t_total=400.0 * math.pi, n_cycles=1)
        result = evolve_and_extract(spec)
        assert result.winding == 0
        assert result.geometric_phase == pytest.approx(0.0, abs=1e-9)
        assert result.leakage < 1e-12

    def test_down_branch_mirrors_phase(self):
        result_up = evolve_and_extract(ADIABATIC, branch="up")
        result_dn = evolve_and_extract(ADIABATIC, branch="down")
        assert result_dn.branch == "down"
        assert result_dn.geometric_phase == pytest.approx(
            -result_up.geometric_phase, abs=1e-6
        )
        assert result_up.dynamical_phase < 0 < result_dn.dynamical_phase

    def test_dynamical_phase_and_bookkeeping(self):
        result = evolve_and_extract(ADIABATIC)
        t_total = ADIABATIC.t_total
        assert result.field_modulus_integral == pytest.approx(t_total, rel=1e-12)
        assert result.dynamical_phase == pytest.approx(-0.5 * t_total, rel=1e-12)
        # adiabatic state energy integral approximates the eigenvalue integral
        assert result.mean_energy_integral == pytest.approx(0.5 * t_total, rel=1e-4)

    def test_winding_counts_cycles(self):
        spec = PrecessionSpec(b0=1.0, theta0=0.9, t_total=400.0 * math.pi, n_cycles=3)
        result = evolve_and_extract(spec, config=IntegratorConfig(steps_per_cycle=1024))
        assert result.winding == 3

    def test_trace_shapes_and_endpoints(self):
        spec = PrecessionSpec(b0=1.0, theta0=0.9, t_total=40.0, n_cycles=1)
        config = IntegratorConfig(steps_per_cycle=512)
        result, trace = evolve_and_extract(spec, config=config, return_trace=True)
        n = 512
        for column in (
            trace.times,
            trace.amp_up,
            trace.amp_down,
            trace.energy,
            trace.total_phase,
            trace.dynamical_phase,
        ):
            assert column.shape == (n + 1,)
        assert trace.times[0] == 0.0
        assert trace.times[-1] == pytest.approx(spec.t_total)
        assert trace.total_phase[0] == 0.0
        assert trace.total_phase[-1] == pytest.approx(result.total_phase)
        assert trace.dynamical_phase[-1] == pytest.approx(result.dynamical_phase)
        norms = np.abs(trace.amp_up) ** 2 + np.abs(trace.amp_down) ** 2
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_coarse_step_raises(self):
        spec = PrecessionSpec(b0=1.0, theta0=0.5, t_total=100.0, n_cycles=1)
        with pytest.raises(ResolutionError):
            evolve_and_extract(spec, config=IntegratorConfig(steps_per_cycle=16))


class TestNoisyEvolution:
    MODEL = NoiseModel.from_scalars(0.005, 0.02, 0.005, 0.02)
    SHORT = PrecessionSpec(b0=1.0, theta0=0.9, t_total=40.0, n_cycles=1)

    def _path(self, spec, config, seed):
        n_steps = config.steps_per_cycle * spec.n_cycles
        return sample_path(self.MODEL, n_steps, spec.t_total / n_steps, seed=seed)

    def test_deterministic_given_path(self):
        config = IntegratorConfig(steps_per_cycle=256)
        path = self._path(self.SHORT, config, seed=5)
        a = evolve_and_extract(self.SHORT, path, config)
        b = evolve_and_extract(self.SHORT, path, config)
        assert a.total_phase == b.total_phase
        assert a.geometric_phase == b.geometric_phase

    def test_agrees_with_discrete_connection(self):
        # weak noise: the dynamical split and the gauge-invariant discrete
        # connection must extract the same geometric part
        config = IntegratorConfig(steps_per_cycle=4096)
        path = self._path(ADIABATIC, config, seed=123)
        result = evolve_and_extract(ADIABATIC, path, config)
        chain = connection_phase_discrete(ADIABATIC, path)
        assert result.leakage < 5e-3
        assert result.geometric_phase == pytest.approx(chain, abs=0.02)

    def test_grid_mismatch_rejected(self):
        config = IntegratorConfig(steps_per_cycle=256)
        bad_steps = sample_path(self.MODEL, 100, self.SHORT.t_total / 100, seed=1)
        with pytest.raises(ValueError):
            evolve_and_extract(self.SHORT, bad_steps, config)
        bad_span = sample_path(self.MODEL, 256, 1.0, seed=1)
        with pytest.raises(ValueError):
            evolve_and_extract(self.SHORT, bad_span, config)


class TestDiscreteConnection:
    def test_noiseless_convergence(self):
        for theta0 in (math.pi / 6, math.pi / 3, 2.0):
            spec = PrecessionSpec(b0=1.0, theta0=theta0, t_total=10.0, n_cycles=1)
            phase = connection_phase_discrete(spec, n_points=2048)
            assert phase == pytest.approx(noiseless_berry_phase(theta0), abs=1e-5)

    def test_error_shrinks_with_refinement(self):
        spec = PrecessionSpec(b0=1.0, theta0=1.0, t_total=10.0, n_cycles=1)
        target = noiseless_berry_phase(1.0)
        coarse = abs(connection_phase_discrete(spec, n_points=128) - target)
        fine = abs(connection_phase_discrete(spec, n_points=2048) - target)
        assert fine < coarse / 16

    def test_pole_and_down_branch(self):
        pole = PrecessionSpec(b0=1.0, theta0=0.0, t_total=10.0, n_cycles=1)
        assert connection_phase_discrete(pole, n_points=256) == 0.0
        spec = PrecessionSpec(b0=1.0, theta0=math.pi / 6, t_total=10.0, n_cycles=1)
        down = connection_phase_discrete(spec, n_points=2048, branch="down")
        assert down == pytest.approx(-noiseless_berry_phase(math.pi / 6), abs=1e-4)

    def test_multi_cycle_wraps_accumulated_phase(self):
        spec = PrecessionSpec(b0=1.0, theta0=0.8, t_total=40.0, n_cycles=5)
        phase = connection_phase_discrete(spec, n_points=5 * 1024)
        expected = _wrap(5.0 * noiseless_berry_phase(0.8))
        assert -math.pi < phase <= math.pi
        assert phase == pytest.approx(expected, abs=1e-4)

    def test_undersampled_loop_raises(self):
        # 32 cycles sampled at 64 points: neighbor overlap collapses
        spec = PrecessionSpec(
            b0=1.0, theta0=math.radians(80.0), t_total=10.0, n_cycles=32
        )
        with pytest.raises(ResolutionError):
            connection_phase_discrete(spec, n_points=64)

    def test_point_count_validation(self):
        spec = PrecessionSpec(b0=1.0, theta0=0.5, t_total=10.0, n_cycles=1)
        with pytest.raises(ValueError):
            connection_phase_discrete(spec, n_points=32)
        model = NoiseModel.from_scalars(0.01, 0.1, 0.01, 0.1)
        path = sample_path(model, 300, 10.0 / 300, seed=2)
        with pytest.raises(ValueError):
            connection_phase_discrete(spec, path, n_points=256)  # 256 does not divide 300

    def test_noisy_path_subsampling_consistent(self):
        spec = PrecessionSpec(b0=1.0, theta0=0.7, t_total=40.0, n_cycles=1)
        model = NoiseModel.from_scalars(0.002, 0.05, 0.002, 0.05)
        path = sample_path(model, 4096, spec.t_total / 4096, seed=11)
        full = connection_phase_discrete(spec, path)
        half = connection_phase_discrete(spec, path, n_points=2048)
        assert half == pytest.approx(full, abs=1e-4)


def _wrap(x: float) -> float:
    """Fold into (-pi, pi]."""
    y = math.remainder(x, 2.0 * math.pi)
    return y + 2.0 * math.pi if y <= -math.pi else y


def _reference_evolve(spec, path, config, branch):
    """Step-by-step scalar evolution: the reference the array kernel must match.

    One exact SU(2) step per grid interval, applied to the state with
    Python complex arithmetic, with the phases and diagnostics
    accumulated along the way.  Returns the fields of
    ``PhaseExtraction`` (minus the bookkeeping ones) and the per-node
    amplitudes and accumulated total phase.
    """
    n_steps = config.steps_per_cycle * spec.n_cycles
    dt = spec.t_total / n_steps
    times = np.arange(n_steps + 1) * dt
    k_nodes = np.zeros((n_steps + 1, 3)) if path is None else path.samples
    b_nodes = control_field(spec, np.minimum(times, spec.t_total)) + k_nodes
    azimuth = np.unwrap(np.arctan2(b_nodes[:, 1] + 0.0, b_nodes[:, 0] + 0.0))
    winding = int(round((azimuth[-1] - azimuth[0]) / math.tau))

    t_mid = (np.arange(n_steps) + 0.5) * dt
    b_mid = control_field(spec, t_mid) + 0.5 * (k_nodes[:-1] + k_nodes[1:])
    nb = np.linalg.norm(b_mid, axis=1)
    cos_half = np.cos(0.5 * nb * dt)
    sin_scaled = np.where(nb >= 1e-300, np.sin(0.5 * nb * dt) / np.maximum(nb, 1e-300), 0.0)

    eigenstate = eigenstate_up if branch == "up" else eigenstate_down
    state0 = eigenstate(polar_angles(b_nodes[0]))
    u = complex(state0.amp_up)
    d = complex(state0.amp_down)
    u0c = u.conjugate()
    d0c = d.conjugate()
    total = 0.0
    mean_energy = 0.0
    f_prev = complex(1.0)
    trace_u, trace_d, trace_total = [u], [d], [0.0]
    for (bx, by, bz), co, si in zip(b_mid.tolist(), cos_half.tolist(), sin_scaled.tolist()):
        p = bz * u + (bx - 1j * by) * d
        q = (bx + 1j * by) * u - bz * d
        mean_energy += (u.conjugate() * p + d.conjugate() * q).real
        u = co * u - 1j * si * p
        d = co * d - 1j * si * q
        f = u0c * u + d0c * d
        total += cmath.phase(f * f_prev.conjugate())
        f_prev = f
        trace_u.append(u)
        trace_d.append(d)
        trace_total.append(total)

    ref = eigenstate(polar_angles(b_nodes[-1]))
    overlap = ref.amp_up.conjugate() * u + ref.amp_down.conjugate() * d
    leakage = max(0.0, 1.0 - abs(overlap) ** 2)
    sign = 1.0 if branch == "up" else -1.0
    dynamical = -sign * 0.5 * float(nb.sum() * dt)
    return {
        "total_phase": total,
        "geometric_phase": _wrap(total - dynamical + math.pi * winding),
        "leakage": leakage,
        "mean_energy_integral": mean_energy * 0.5 * dt,
        "winding": winding,
        "degenerate_steps": int(np.count_nonzero(nb < 1e-300)),
        "non_adiabatic": leakage > config.leakage_warn_threshold,
        "amp_up": np.array(trace_u),
        "amp_down": np.array(trace_d),
        "trace_total_phase": np.array(trace_total),
    }


# Tolerances fixed before the comparison was run: float64 rounding over a
# few thousand unitary steps, with headroom.
PHASE_TOL = 1e-12
ENERGY_RTOL = 1e-12


def _assert_matches_reference(spec, path, config, branch):
    expected = _reference_evolve(spec, path, config, branch)
    result, trace = evolve_and_extract(
        spec, path, config, branch=branch, return_trace=True
    )
    assert abs(result.total_phase - expected["total_phase"]) <= PHASE_TOL
    assert abs(_wrap(result.geometric_phase - expected["geometric_phase"])) <= PHASE_TOL
    assert abs(result.leakage - expected["leakage"]) <= PHASE_TOL
    assert result.mean_energy_integral == pytest.approx(
        expected["mean_energy_integral"], rel=ENERGY_RTOL, abs=0.0
    )
    assert result.winding == expected["winding"]
    assert result.degenerate_steps == expected["degenerate_steps"]
    assert result.non_adiabatic == expected["non_adiabatic"]
    assert np.max(np.abs(trace.amp_up - expected["amp_up"])) <= PHASE_TOL
    assert np.max(np.abs(trace.amp_down - expected["amp_down"])) <= PHASE_TOL
    assert np.max(np.abs(trace.total_phase - expected["trace_total_phase"])) <= PHASE_TOL
    return result


class TestMatchesStepByStepReference:
    @pytest.mark.parametrize("branch", ["up", "down"])
    @pytest.mark.parametrize("sigma", [0.0, 0.05, 0.5])
    @pytest.mark.parametrize("n_cycles", [1, 5])
    @pytest.mark.parametrize("theta0", [0.0, 0.05, math.pi / 4, math.pi / 2, math.pi - 0.05])
    def test_grid(self, theta0, n_cycles, sigma, branch):
        spec = PrecessionSpec(b0=1.0, theta0=theta0, t_total=100.0, n_cycles=n_cycles)
        config = IntegratorConfig(steps_per_cycle=1024)
        model = NoiseModel.from_scalars(sigma, 0.1, sigma, 0.1)
        n_steps = config.steps_per_cycle * n_cycles
        for seed in (1, 2, 3):
            path = sample_path(model, n_steps, spec.t_total / n_steps, seed=seed)
            _assert_matches_reference(spec, path, config, branch)

    @pytest.mark.parametrize("branch", ["up", "down"])
    def test_vanishing_field_at_a_step_midpoint(self, branch):
        # noise that cancels the control field exactly at one midpoint, so
        # that step is the degenerate identity
        spec = PrecessionSpec(b0=1.0, theta0=math.pi / 4, t_total=100.0, n_cycles=1)
        config = IntegratorConfig(steps_per_cycle=1024)
        n_steps = 1024
        dt = spec.t_total / n_steps
        model = NoiseModel.from_scalars(0.05, 0.1, 0.05, 0.1)
        noisy = sample_path(model, n_steps, dt, seed=4)
        samples = noisy.samples.copy()
        j = 300
        b_mid = control_field(spec, (np.arange(n_steps) + 0.5) * dt)
        samples[j] = samples[j + 1] = -b_mid[j]
        path = NoisePath(times=noisy.times, samples=samples)
        result = _assert_matches_reference(spec, path, config, branch)
        assert result.degenerate_steps == 1

    @pytest.mark.parametrize("branch", ["up", "down"])
    def test_trace_does_not_change_the_extraction(self, branch):
        spec = PrecessionSpec(b0=1.0, theta0=0.9, t_total=100.0, n_cycles=3)
        config = IntegratorConfig(steps_per_cycle=1024)
        model = NoiseModel.from_scalars(0.05, 0.1, 0.05, 0.1)
        path = sample_path(model, 3072, spec.t_total / 3072, seed=8)
        plain = evolve_and_extract(spec, path, config, branch=branch)
        traced, trace = evolve_and_extract(
            spec, path, config, branch=branch, return_trace=True
        )
        assert plain == traced
        assert trace.total_phase[-1] == plain.total_phase

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest

from berrysim import (
    DegeneracyError,
    Grid,
    IntegratorConfig,
    NoiseModel,
    PrecessionSpec,
    ResolutionError,
    connection_phase_discrete,
    control_field,
    evolve_and_extract,
    noiseless_berry_phase,
    polar_angles,
    sample_path,
)
from berrysim.evolve import (
    _eigenvector_chain,
    _evolve,
    _step_coefficients,
    _winding_number,
    _wrap_pm_pi,
)


def _reference_winding(b_nodes):
    """Turns of the transverse field, and its unwrapped node azimuths (reference copy).

    The count as it stood before it read the branch-cut crossings:
    np.unwrap over every node azimuth, then the turns between the ends,
    rounded.  Adding 0.0 squashes IEEE negative zeros.
    """
    azimuth = np.unwrap(np.arctan2(b_nodes[:, 1] + 0.0, b_nodes[:, 0] + 0.0))
    return int(round((azimuth[-1] - azimuth[0]) / math.tau)), azimuth


class Angles(NamedTuple):
    """Polar angle and azimuth of a field direction (reference record)."""

    theta: float
    phi: float


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


def eigenstate_up(angles: Angles) -> SpinState:
    """Upper eigenstate of b_hat . sigma in the half-angle gauge (reference copy)."""
    half = 0.5 * angles.theta
    return SpinState(
        cmath.exp(-0.5j * angles.phi) * math.cos(half),
        cmath.exp(0.5j * angles.phi) * math.sin(half),
    )


def eigenstate_down(angles: Angles) -> SpinState:
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
        angles = Angles(theta=theta, phi=phi)
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
        angles = Angles(theta=1.1, phi=-0.7)
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
        angles = [Angles(*polar_angles(v)) for v in vectors]
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
        state = eigenstate_up(Angles(theta=math.pi / 2, phi=0.0))
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


class TestFieldModulus:
    def test_bitwise_equal_to_linalg_norm(self):
        # random rows over twenty decades, degenerate ones below 1e-300,
        # and rows near the overflow edge whose modulus is still finite
        rng = np.random.default_rng(21)
        rows = np.concatenate([
            rng.standard_normal((4096, 3)) * 10.0 ** rng.uniform(-10.0, 10.0, (4096, 1)),
            rng.standard_normal((64, 3)) * 1e-302,
            [[0.0, 0.0, 0.0], [-0.0, 5e-324, -5e-324], [1e-300, 0.0, 0.0]],
            rng.standard_normal((64, 3)) * 1e153,
            [[9e153, 0.0, -9e153], [-7e153, 7e153, 7e153]],
        ])
        _, _, modulus = _step_coefficients(rows.T, 0.01)
        assert modulus.tobytes() == np.linalg.norm(rows, axis=-1).tobytes()
        single = _step_coefficients(rows[7], 0.01)[2]
        assert single.tobytes() == np.linalg.norm(rows[7]).tobytes()

    @pytest.mark.parametrize("row", [[1e155, 0.0, 0.0], [1e200, -1e200, 3.0], [0.0, 0.0, 1.7e308]])
    def test_overflowing_rows_are_refused(self, row):
        rows = np.array([[0.3, 0.1, 1.0], row])
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.linalg.norm(rows, axis=-1)[1])
        with pytest.raises(ValueError, match="not finite"):
            _step_coefficients(rows.T, 0.01)


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

    def test_node_array_shapes_and_endpoints(self):
        spec = PrecessionSpec(b0=1.0, theta0=0.9, t_total=40.0, n_cycles=1)
        config = IntegratorConfig(steps_per_cycle=512)
        result = evolve_and_extract(spec, config=config)
        n = 512
        for column in (
            result.times,
            result.amp_up,
            result.amp_down,
            result.energy,
            result.total_phase_nodes,
            result.dynamical_phase_nodes,
        ):
            assert column.shape == (n + 1,)
        assert result.b_nodes.shape == (n + 1, 3)
        assert result.b_mid.shape == (n, 3)
        assert result.field_modulus.shape == (n,)
        assert result.times[0] == 0.0
        assert result.times[-1] == pytest.approx(spec.t_total)
        assert result.total_phase_nodes[0] == 0.0
        assert result.total_phase_nodes[-1] == result.total_phase
        assert result.dynamical_phase_nodes[-1] == result.dynamical_phase
        norms = np.abs(result.amp_up) ** 2 + np.abs(result.amp_down) ** 2
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
        chain = connection_phase_discrete(result.b_nodes)
        assert result.leakage < 5e-3
        assert result.geometric_phase == pytest.approx(chain, abs=0.02)

    def test_grid_mismatch_rejected(self):
        # the grid is steps_per_cycle * n_cycles steps; noise on any other node count is refused
        config = IntegratorConfig(steps_per_cycle=256)
        bad_steps = sample_path(self.MODEL, 100, self.SHORT.t_total / 100, seed=1)
        with pytest.raises(ValueError, match=r"needs \(257, 3\)"):
            evolve_and_extract(self.SHORT, bad_steps, config)
        with pytest.raises(ValueError, match=r"noise must have shape \(n \+ 1, 3\) with n >= 1, "
                                             r"got \(257, 2\)"):
            evolve_and_extract(self.SHORT, np.zeros((257, 2)), config)


def _noiseless_nodes(spec, n_points):
    """The control field at n_points + 1 equally spaced times over the schedule."""
    return control_field(spec, np.linspace(0.0, spec.t_total, n_points + 1))


class TestDiscreteConnection:
    def test_noiseless_convergence(self):
        for theta0 in (math.pi / 6, math.pi / 3, 2.0):
            spec = PrecessionSpec(b0=1.0, theta0=theta0, t_total=10.0, n_cycles=1)
            phase = connection_phase_discrete(_noiseless_nodes(spec, 2048))
            assert phase == pytest.approx(noiseless_berry_phase(theta0), abs=1e-5)

    def test_error_shrinks_with_refinement(self):
        spec = PrecessionSpec(b0=1.0, theta0=1.0, t_total=10.0, n_cycles=1)
        target = noiseless_berry_phase(1.0)
        coarse = abs(connection_phase_discrete(_noiseless_nodes(spec, 128)) - target)
        fine = abs(connection_phase_discrete(_noiseless_nodes(spec, 2048)) - target)
        assert fine < coarse / 16

    def test_pole_and_down_branch(self):
        pole = PrecessionSpec(b0=1.0, theta0=0.0, t_total=10.0, n_cycles=1)
        assert connection_phase_discrete(_noiseless_nodes(pole, 256)) == 0.0
        spec = PrecessionSpec(b0=1.0, theta0=math.pi / 6, t_total=10.0, n_cycles=1)
        down = connection_phase_discrete(_noiseless_nodes(spec, 2048), branch="down")
        assert down == pytest.approx(-noiseless_berry_phase(math.pi / 6), abs=1e-4)

    def test_multi_cycle_wraps_accumulated_phase(self):
        spec = PrecessionSpec(b0=1.0, theta0=0.8, t_total=40.0, n_cycles=5)
        phase = connection_phase_discrete(_noiseless_nodes(spec, 5 * 1024))
        expected = _wrap(5.0 * noiseless_berry_phase(0.8))
        assert -math.pi < phase <= math.pi
        assert phase == pytest.approx(expected, abs=1e-4)

    def test_undersampled_loop_raises(self):
        # 32 cycles sampled at 64 points: neighbor overlap collapses
        spec = PrecessionSpec(
            b0=1.0, theta0=math.radians(80.0), t_total=10.0, n_cycles=32
        )
        with pytest.raises(ResolutionError, match="increase steps_per_cycle"):
            connection_phase_discrete(_noiseless_nodes(spec, 64))

    @pytest.mark.parametrize("shape", [(5,), (5, 2), (1, 3), (2, 3, 1)])
    def test_node_field_shape_validation(self, shape):
        with pytest.raises(ValueError, match="b_nodes must have shape"):
            connection_phase_discrete(np.ones(shape))

    def test_noisy_path_subsampling_consistent(self):
        spec = PrecessionSpec(b0=1.0, theta0=0.7, t_total=40.0, n_cycles=1)
        model = NoiseModel.from_scalars(0.002, 0.05, 0.002, 0.05)
        noise = sample_path(model, 4096, spec.t_total / 4096, seed=11)
        b_nodes = evolve_and_extract(spec, noise, IntegratorConfig(steps_per_cycle=4096)).b_nodes
        full = connection_phase_discrete(b_nodes)
        half = connection_phase_discrete(b_nodes[::2])
        assert half == pytest.approx(full, abs=1e-4)

    @staticmethod
    def _noisy_case(theta0, n_cycles, branch):
        spec = PrecessionSpec(b0=1.0, theta0=theta0, t_total=100.0, n_cycles=n_cycles)
        n_steps = 512 * n_cycles
        dt = spec.t_total / n_steps
        noise = sample_path(NoiseModel.from_scalars(0.05, 0.1, 0.03, 0.3), n_steps, dt, seed=9)
        result = evolve_and_extract(spec, noise, IntegratorConfig(512), branch=branch)
        return spec, np.arange(n_steps + 1) * dt, noise, result.b_nodes

    @pytest.mark.parametrize("branch", ["up", "down"])
    @pytest.mark.parametrize("n_cycles", [1, 3])
    @pytest.mark.parametrize("theta0", [0.0, math.pi / 4, math.pi - 0.05])
    def test_matches_reference_copy(self, theta0, n_cycles, branch):
        # on the evolution's node field the chain is the path chain bit for bit
        spec, times, noise, b_nodes = self._noisy_case(theta0, n_cycles, branch)
        full = connection_phase_discrete(b_nodes, branch=branch)
        want = _reference_connection_phase_discrete(spec, times, noise, branch=branch)
        assert full.hex() == want.hex()
        noiseless = connection_phase_discrete(_noiseless_nodes(spec, 256), branch=branch)
        want = _reference_connection_phase_discrete(spec, n_points=256, branch=branch)
        assert noiseless.hex() == want.hex()

    @pytest.mark.parametrize("branch", ["up", "down"])
    @pytest.mark.parametrize("n_cycles", [1, 3])
    def test_strided_nodes_match_strided_reference(self, n_cycles, branch):
        # every 4th node: the strided path chain up to the rounding of the
        # unwrapped azimuth.  A coarse chain counts the winding on its own
        # nodes, so near a pole, where the azimuth can turn by more than pi
        # between them, it may differ by pi from the old chain, which took
        # the winding from the full path.
        spec, times, noise, b_nodes = self._noisy_case(math.pi / 4, n_cycles, branch)
        coarse = connection_phase_discrete(b_nodes[::4], branch=branch)
        want = _reference_connection_phase_discrete(
            spec, times, noise, 128 * n_cycles, branch=branch
        )
        assert abs(_wrap(coarse - want)) <= 1e-12


def _reference_connection_phase_discrete(spec, times=None, samples=None, n_points=None,
                                         *, branch="up"):
    """``connection_phase_discrete`` on a noise path's times and samples (reference copy).

    The chain as it stood before it took the evolution's node field: it
    rebuilds the total field from the spec and the path, runs on every
    ``stride``-th node, and takes the winding from the full path.
    Without a path it runs on the noiseless field at ``n_points`` + 1
    equally spaced times.
    """
    if samples is None:
        if n_points is None:
            n_points = max(256, 64 * spec.n_cycles)
        b_full = control_field(spec, np.linspace(0.0, spec.t_total, int(n_points) + 1))
        stride = 1
    else:
        n_steps = samples.shape[0] - 1
        n_points = n_steps if n_points is None else n_points
        b_full = control_field(spec, np.minimum(times, spec.t_total)) + samples
        stride = n_steps // int(n_points)
    r_full = np.linalg.norm(b_full, axis=1)
    if np.any(r_full < 1e-300):
        raise DegeneracyError("total field vanishes along the path")
    winding, azimuth = _reference_winding(b_full)
    b_chain = b_full[::stride]
    r_chain = r_full[::stride]
    theta = np.arccos(np.clip(b_chain[:, 2] / r_chain, -1.0, 1.0))
    phi = azimuth[::stride]
    vecs = _eigenvector_chain(theta, phi, branch)
    links = np.sum(np.conj(vecs[:-1]) * vecs[1:], axis=1)
    if np.min(np.abs(links)) < 0.5:
        raise ResolutionError("chain link overlap below 0.5")
    closing_ref = _eigenvector_chain(theta[:1], phi[:1] + math.tau * winding, branch)[0]
    closing = np.sum(np.conj(vecs[-1]) * closing_ref)
    if abs(closing) < 0.5:
        raise ResolutionError("closing overlap below 0.5")
    return _wrap_pm_pi(float(-(np.sum(np.angle(links)) + np.angle(closing))))


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
    k_nodes = np.zeros((n_steps + 1, 3)) if path is None else path
    b_nodes = control_field(spec, np.minimum(times, spec.t_total)) + k_nodes
    azimuth = np.unwrap(np.arctan2(b_nodes[:, 1] + 0.0, b_nodes[:, 0] + 0.0))
    winding = int(round((azimuth[-1] - azimuth[0]) / math.tau))

    t_mid = (np.arange(n_steps) + 0.5) * dt
    b_mid = control_field(spec, t_mid) + 0.5 * (k_nodes[:-1] + k_nodes[1:])
    nb = np.linalg.norm(b_mid, axis=1)
    cos_half = np.cos(0.5 * nb * dt)
    sin_scaled = np.where(nb >= 1e-300, np.sin(0.5 * nb * dt) / np.maximum(nb, 1e-300), 0.0)

    eigenstate = eigenstate_up if branch == "up" else eigenstate_down
    state0 = eigenstate(Angles(*polar_angles(b_nodes[0])))
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

    ref = eigenstate(Angles(*polar_angles(b_nodes[-1])))
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
        "non_adiabatic": leakage > 1e-3,
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
    result = evolve_and_extract(spec, path, config, branch=branch)
    assert abs(result.total_phase - expected["total_phase"]) <= PHASE_TOL
    assert abs(_wrap(result.geometric_phase - expected["geometric_phase"])) <= PHASE_TOL
    assert abs(result.leakage - expected["leakage"]) <= PHASE_TOL
    assert result.mean_energy_integral == pytest.approx(
        expected["mean_energy_integral"], rel=ENERGY_RTOL, abs=0.0
    )
    assert result.winding == expected["winding"]
    assert result.degenerate_steps == expected["degenerate_steps"]
    assert result.non_adiabatic == expected["non_adiabatic"]
    assert np.max(np.abs(result.amp_up - expected["amp_up"])) <= PHASE_TOL
    assert np.max(np.abs(result.amp_down - expected["amp_down"])) <= PHASE_TOL
    assert np.max(np.abs(result.total_phase_nodes - expected["trace_total_phase"])) <= PHASE_TOL
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
        path = sample_path(model, n_steps, dt, seed=4).copy()
        j = 300
        b_mid = control_field(spec, (np.arange(n_steps) + 0.5) * dt)
        path[j] = path[j + 1] = -b_mid[j]
        result = _assert_matches_reference(spec, path, config, branch)
        assert result.degenerate_steps == 1

    @pytest.mark.parametrize("branch", ["up", "down"])
    def test_energy_does_not_depend_on_the_read_order(self, branch):
        # energy and mean_energy_integral share one Bloch vector, built on first read
        spec = PrecessionSpec(b0=1.0, theta0=0.9, t_total=100.0, n_cycles=3)
        config = IntegratorConfig(steps_per_cycle=1024)
        model = NoiseModel.from_scalars(0.05, 0.1, 0.05, 0.1)
        path = sample_path(model, 3072, spec.t_total / 3072, seed=8)
        energy_first = evolve_and_extract(spec, path, config, branch=branch)
        integral_first = evolve_and_extract(spec, path, config, branch=branch)
        energy = energy_first.energy
        integral = integral_first.mean_energy_integral
        assert integral_first.energy.tobytes() == energy.tobytes()
        assert energy_first.mean_energy_integral.hex() == integral.hex()
        assert energy_first.total_phase_nodes[-1] == energy_first.total_phase


def _reference_node_states(a, b, u0, d0):
    """Spinor amplitudes at every node from a blocked prefix scan (reference copy).

    The node-state kernel as it stood before the kernel's pairwise tree
    also gave the node states.  The n steps, given by their Cayley-Klein
    pairs ``(a, b)``, are cut into blocks of m ~ sqrt(n / 8) (the last one
    padded with identities): the running products within blocks, one row
    of m at a time, vectorised across blocks; a scalar pass that carries
    the state from block to block with each block's full product; and a
    last pass that applies each running product to the state entering its
    block.
    """
    n = a.size
    m = max(1, math.isqrt(n // 8))
    n_blocks = -(-n // m)
    # Row i, column j holds step j*m + i.
    pa = np.ones(n_blocks * m, dtype=complex)
    pb = np.zeros(n_blocks * m, dtype=complex)
    pa[:n] = a
    pb[:n] = b
    pa = pa.reshape(n_blocks, m).T.copy()
    pb = pb.reshape(n_blocks, m).T.copy()
    for i in range(1, m):
        # (U_i) @ (running product): a = a_i a - b_i conj(b), b = a_i b + b_i conj(a)
        prev_a = pa[i - 1]
        prev_b = pb[i - 1]
        next_a = pa[i] * prev_a - pb[i] * prev_b.conj()
        pb[i] = pa[i] * prev_b + pb[i] * prev_a.conj()
        pa[i] = next_a

    entry_u = []
    entry_d = []
    u = u0
    d = d0
    for ta, tb in zip(pa[-1].tolist(), pb[-1].tolist()):
        entry_u.append(u)
        entry_d.append(d)
        u, d = ta * u + tb * d, ta.conjugate() * d - tb.conjugate() * u
    su = np.array(entry_u)
    sd = np.array(entry_d)

    amp_up = np.empty(n + 1, dtype=complex)
    amp_down = np.empty(n + 1, dtype=complex)
    amp_up[0] = u0
    amp_down[0] = d0
    amp_up[1:] = (pa * su + pb * sd).T.reshape(-1)[:n]
    amp_down[1:] = (pa.conj() * sd - pb.conj() * su).T.reshape(-1)[:n]
    return amp_up, amp_down


def _reference_trajectory(b_nodes, b_mid, dt, u0, d0):
    """The per-node values of an evolution from the blocked scan (reference copy).

    The amplitudes, the overlap's phase with the start state unwrapped step
    by step, the energy at each node and its integral over the midpoint
    field, as one dict.
    """
    step_a, step_b, _ = _step_coefficients(b_mid.T, dt)
    amp_up, amp_down = _reference_node_states(step_a, step_b, u0, d0)
    overlap0 = u0.conjugate() * amp_up + d0.conjugate() * amp_down
    overlap0[0] = 1.0
    total_phase_nodes = np.zeros(overlap0.size)
    np.cumsum(np.angle(overlap0[1:] * overlap0[:-1].conj()), out=total_phase_nodes[1:])
    cross = np.conj(amp_up) * amp_down
    pz = np.abs(amp_up) ** 2 - np.abs(amp_down) ** 2
    bloch = np.stack([2.0 * cross.real, 2.0 * cross.imag, pz], axis=1)
    return {
        "amp_up": amp_up,
        "amp_down": amp_down,
        "total_phase_nodes": total_phase_nodes,
        "energy": 0.5 * np.sum(b_nodes * bloch, axis=1),
        "mean_energy_integral": 0.5 * dt * float(np.sum(b_mid * bloch[:-1])),
    }


# The node values that come from the node states, with the scalars read
# from them.  They may differ from the blocked scan in the last digits:
# absolutely by NODE_TOL, and relative to their size for the unwrapped
# phase and the energy integral, whose sums round as they grow.
NODE_KEYS = (
    "amp_up", "amp_down", "total_phase_nodes", "energy", "mean_energy_integral",
    "total_phase", "geometric_phase_raw",
)
NODE_TOL = 1e-12


def _assert_node_values_close(got, want, key):
    np.testing.assert_allclose(got, want, rtol=NODE_TOL, atol=NODE_TOL, err_msg=key)


def _pinned_evolve_and_extract(spec, path, config, branch):
    """``evolve_and_extract`` with its trajectory trace as it stood (reference copy).

    The control and noise grids, the kernel and the trace exactly as one
    evolution computed them before the kernel's value became the public
    result, built from the helpers that did not change, except that the
    dynamical phase at the last node is the kernel's, as the trajectory's
    last state is.  Returns the scalars and the per-node arrays as one dict.
    """
    grid = Grid(spec, config.steps_per_cycle * spec.n_cycles)
    n_steps, dt = grid.n_steps, grid.dt
    control_nodes, control_mid = (rows.T for rows in grid.control)
    k_nodes = np.zeros((n_steps + 1, 3)) if path is None else path
    b_nodes = control_nodes + k_nodes
    b_mid = control_mid + 0.5 * (k_nodes[:-1] + k_nodes[1:])

    winding, _ = _reference_winding(b_nodes)
    nb = _step_coefficients(b_mid.T, dt)[2]
    field_modulus_integral = float(nb.sum() * dt)
    thetas, phis = zip(polar_angles(b_nodes[0]), polar_angles(b_nodes[-1]))
    (u0, d0), (ref_u, ref_d) = _eigenvector_chain(thetas, phis, branch).tolist()
    trajectory = _reference_trajectory(b_nodes, b_mid, dt, u0, d0)
    total = float(trajectory["total_phase_nodes"][-1])
    u, d = trajectory["amp_up"][-1], trajectory["amp_down"][-1]
    overlap = ref_u.conjugate() * u + ref_d.conjugate() * d
    sign = 1.0 if branch == "up" else -1.0
    dynamical = -sign * 0.5 * field_modulus_integral
    leakage = max(0.0, 1.0 - abs(complex(overlap)) ** 2)
    dynamical_nodes = np.concatenate([[0.0], -sign * 0.5 * np.cumsum(nb * dt)])
    dynamical_nodes[-1] = dynamical  # the trajectory ends on the kernel's sum
    return {
        **trajectory,
        "total_phase": total,
        "dynamical_phase": dynamical,
        "geometric_phase": _wrap_pm_pi(total - dynamical + math.pi * winding),
        "geometric_phase_raw": total - dynamical,
        "leakage": leakage,
        "field_modulus_integral": field_modulus_integral,
        "winding": winding,
        "degenerate_steps": int(np.count_nonzero(nb < 1e-300)),
        "non_adiabatic": leakage > 1e-3,
        "branch": branch,
        "times": np.arange(n_steps + 1) * dt,
        "dynamical_phase_nodes": dynamical_nodes,
    }


def _evolution_values(spec, path, config, branch):
    """The package's evolution as the pinned dict's keys."""
    result = evolve_and_extract(spec, path, config, branch=branch)
    return {key: getattr(result, key) for key in (
        "total_phase", "dynamical_phase", "geometric_phase", "geometric_phase_raw",
        "leakage", "field_modulus_integral", "mean_energy_integral", "winding",
        "degenerate_steps", "non_adiabatic", "branch", "times", "amp_up", "amp_down",
        "energy", "total_phase_nodes", "dynamical_phase_nodes",
    )}


def _degenerate_midpoint_path(spec, n_steps):
    """Noise that cancels the control field at one step midpoint exactly."""
    dt = spec.t_total / n_steps
    noise = sample_path(NoiseModel.from_scalars(0.05, 0.1, 0.05, 0.1), n_steps, dt, seed=4).copy()
    noise[300] = noise[301] = -control_field(spec, 300.5 * dt)
    return noise


class TestPinnedToTheTracedEvolution:
    """Every scalar and node array of an evolution against the reference copy.

    Bit for bit, except the geometric phase and the leakage, and the node
    values (``NODE_KEYS``).  The kernel takes the first two from the
    product of all steps, not from the last node state, and they agree
    within ``PHASE_TOL``.  The node values come from a different
    association of the same step products than the reference's blocked
    scan, so they agree within ``NODE_TOL``.
    """

    CONFIG = IntegratorConfig(steps_per_cycle=512)

    def _assert_bitwise(self, spec, path, branch):
        want = _pinned_evolve_and_extract(spec, path, self.CONFIG, branch)
        got = _evolution_values(spec, path, self.CONFIG, branch)
        assert sorted(got) == sorted(want)
        for key, value in want.items():
            if key in ("geometric_phase", "leakage"):
                assert type(got[key]) is float, key
                assert abs(_wrap(got[key] - value)) <= PHASE_TOL, key
            elif key in NODE_KEYS:
                assert type(got[key]) is type(value), key
                assert np.shape(got[key]) == np.shape(value), key
                _assert_node_values_close(got[key], value, key)
            elif isinstance(value, np.ndarray):
                assert got[key].dtype == value.dtype and got[key].shape == value.shape, key
                assert got[key].tobytes() == value.tobytes(), key
            elif isinstance(value, float):
                assert type(got[key]) is float and got[key].hex() == value.hex(), key
            else:
                assert type(got[key]) is type(value) and got[key] == value, key

    @pytest.mark.parametrize("branch", ["up", "down"])
    @pytest.mark.parametrize("theta0", [0.0, 0.9])
    def test_noiseless(self, theta0, branch):
        spec = PrecessionSpec(b0=1.0, theta0=theta0, t_total=100.0, n_cycles=2)
        self._assert_bitwise(spec, None, branch)

    @pytest.mark.parametrize("branch", ["up", "down"])
    @pytest.mark.parametrize("sigma", [0.05, 0.5])
    @pytest.mark.parametrize("theta0", [0.0, 0.9])
    def test_noisy(self, theta0, sigma, branch):
        spec = PrecessionSpec(b0=1.0, theta0=theta0, t_total=100.0, n_cycles=2)
        model = NoiseModel.from_scalars(sigma, 0.1, 0.6 * sigma, 0.3)
        path = sample_path(model, 1024, spec.t_total / 1024, seed=17)
        self._assert_bitwise(spec, path, branch)

    @pytest.mark.parametrize("branch", ["up", "down"])
    def test_degenerate_midpoint(self, branch):
        spec = PrecessionSpec(b0=1.0, theta0=math.pi / 4, t_total=100.0, n_cycles=1)
        path = _degenerate_midpoint_path(spec, 512)
        assert _pinned_evolve_and_extract(spec, path, self.CONFIG, branch)["degenerate_steps"] == 1
        self._assert_bitwise(spec, path, branch)


class _StandInGrid(NamedTuple):
    """What the kernel reads of a :class:`Grid`, here with a control field that is no cone."""

    dt: float
    times: np.ndarray
    control: tuple


def _random_steps_evolution(n, branch):
    """The kernel on n random steps, every fifth one (from the third) the identity.

    Random control fields at the nodes and the midpoints, with no noise
    and ``dt = 0.3``, so the state wanders over the whole sphere.
    """
    rng = np.random.default_rng(n)
    nodes = rng.standard_normal((n + 1, 3))
    mid = rng.standard_normal((n, 3))
    mid[2::5] = 0.0
    grid = _StandInGrid(dt=0.3, times=np.arange(n + 1) * 0.3, control=(nodes.T, mid.T))
    return _evolve(grid, np.zeros((3, n + 1)), branch)


RANDOM_STEP_COUNTS = [1, 2, 3, 17, 4096, 4097, 65536]


class TestNodeStatesMatchTheBlockedScan:
    @pytest.mark.parametrize("branch", ["up", "down"])
    @pytest.mark.parametrize("n", RANDOM_STEP_COUNTS)
    def test_node_values(self, n, branch):
        result = _random_steps_evolution(n, branch)
        want = _reference_trajectory(result.b_nodes, result.b_mid, result.grid.dt, *result.start)
        for key, value in want.items():
            got = getattr(result, key)
            assert type(got) is type(value), key
            assert np.shape(got) == np.shape(value), key
            _assert_node_values_close(got, value, key)


class TestFinalProduct:
    @pytest.mark.parametrize("branch", ["up", "down"])
    @pytest.mark.parametrize("n", RANDOM_STEP_COUNTS)
    def test_equals_the_last_node_state(self, n, branch):
        # one tree: its root gives the kernel's final state and the
        # down-sweep's last node, bit for bit
        result = _random_steps_evolution(n, branch)
        assert len(result.levels) == 1 + math.ceil(math.log2(n))
        root_a, root_b = result.levels[-1]
        pa, pb = complex(root_a[0]), complex(root_b[0])
        u0, d0 = result.start
        u, d = pa * u0 + pb * d0, pa.conjugate() * d0 - pb.conjugate() * u0
        assert u == result.amp_up[-1] and d == result.amp_down[-1]
        # so the last unwrapped phase is the kernel's total mod 2 pi, and the
        # geometric phase is wrap(total_phase - dynamical_phase + pi * winding)
        total = cmath.phase(u0.conjugate() * u + d0.conjugate() * d)
        tol = NODE_TOL * (1.0 + abs(result.total_phase))
        assert abs(_wrap(result.total_phase - total)) <= tol
        geometric = result.total_phase - result.dynamical_phase + math.pi * result.winding
        assert abs(_wrap(result.geometric_phase - geometric)) <= tol


class TestLongChain:
    """Node states over 2**16 and 2**20 noisy steps against the step-by-step product.

    The reference applies the kernel's step pairs one at a time with
    Python complex arithmetic, the update of ``propagate_step``.
    """

    @pytest.mark.parametrize("log2_steps", [16, 20])
    def test_norm_and_sampled_amplitudes(self, log2_steps):
        n_cycles = 2 ** (log2_steps - 12)
        spec = PrecessionSpec(b0=1.0, theta0=math.pi / 4, t_total=100.0 * n_cycles,
                              n_cycles=n_cycles)
        config = IntegratorConfig(steps_per_cycle=4096)
        n_steps = 2 ** log2_steps
        model = NoiseModel.from_scalars(0.5, 0.1, 0.5, 0.1)
        path = sample_path(model, n_steps, spec.t_total / n_steps, seed=5)
        result = evolve_and_extract(spec, path, config)
        norm = np.abs(result.amp_up) ** 2 + np.abs(result.amp_down) ** 2
        assert np.max(np.abs(norm - 1.0)) <= 1e-12

        a, off, _ = _step_coefficients(result.b_mid.T, result.grid.dt)
        sampled = {1, 1000, n_steps // 3, n_steps // 2 + 1, n_steps - 1, n_steps}
        u, d = result.start
        for k, (ak, bk) in enumerate(zip(a.tolist(), off.tolist()), start=1):
            u, d = ak * u + bk * d, ak.conjugate() * d - bk.conjugate() * u
            if k in sampled:
                assert abs(result.amp_up[k] - u) <= 1e-12, k
                assert abs(result.amp_down[k] - d) <= 1e-12, k


class TestFinalStateMatchesNodeStates:
    """The scalars a trial records, against the node-state kernel (reference copy).

    ``_pinned_evolve_and_extract`` unwraps the overlap with the start
    state at every node.  The geometric phase is compared as a wrapped
    difference, since a value near +/-pi may fold to the other side.
    """

    CONFIG = IntegratorConfig(steps_per_cycle=1024)

    @pytest.mark.parametrize("branch", ["up", "down"])
    @pytest.mark.parametrize("sigma", [0.05, 0.5])
    @pytest.mark.parametrize("n_cycles", [1, 3])
    @pytest.mark.parametrize("theta0", [0.0, 0.05, math.pi / 4, math.pi - 0.05])
    def test_geometric_phase_and_leakage(self, theta0, n_cycles, sigma, branch):
        spec = PrecessionSpec(b0=1.0, theta0=theta0, t_total=100.0, n_cycles=n_cycles)
        n_steps = self.CONFIG.steps_per_cycle * n_cycles
        model = NoiseModel.from_scalars(sigma, 0.1, sigma, 0.1)
        path = sample_path(model, n_steps, spec.t_total / n_steps, seed=31)
        want = _pinned_evolve_and_extract(spec, path, self.CONFIG, branch)
        got = evolve_and_extract(spec, path, self.CONFIG, branch=branch)
        assert abs(_wrap(got.geometric_phase - want["geometric_phase"])) <= PHASE_TOL
        assert abs(got.leakage - want["leakage"]) <= PHASE_TOL
        assert got.winding == want["winding"]
        _assert_node_values_close(got.total_phase, want["total_phase"], "total_phase")

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("sigma", [1e-170, 1e-300])
    def test_tiny_noise_on_the_pole(self, sigma, seed):
        # at theta0 = 0 the transverse field is the noise alone, so products
        # of neighbouring transverse fields would underflow to signed zeros
        spec = PrecessionSpec(b0=1.0, theta0=0.0, t_total=100.0, n_cycles=1)
        n_steps = self.CONFIG.steps_per_cycle
        model = NoiseModel.from_scalars(sigma, 0.1, sigma, 0.1)
        path = sample_path(model, n_steps, spec.t_total / n_steps, seed=seed)
        want = _pinned_evolve_and_extract(spec, path, self.CONFIG, "up")
        got = evolve_and_extract(spec, path, self.CONFIG)
        assert got.winding == want["winding"] == _reference_winding(got.b_nodes)[0]
        assert abs(_wrap(got.geometric_phase - want["geometric_phase"])) <= PHASE_TOL


def _random_transverse_fields(rng, n_fields, max_nodes=16):
    """Node fields whose transverse components stress the azimuth's branch cut.

    Each component is an exact or signed zero, +/-1 or +/-1e300 or
    +/-1e-300 half the time, and otherwise of random sign and a
    magnitude between 1e-300 and 1e300.  A third of the nodes after the
    first negate their predecessor, so the azimuth steps by pi, exactly
    so on the axes.
    """
    special = np.array([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300])
    for _ in range(n_fields):
        n = int(rng.integers(1, max_nodes + 1))
        xy = np.where(
            rng.random((n, 2)) < 0.5,
            rng.choice(special, (n, 2)),
            rng.choice([-1.0, 1.0], (n, 2)) * 10.0 ** rng.uniform(-300.0, 300.0, (n, 2)),
        )
        for k in np.flatnonzero(rng.random(n) < 1.0 / 3.0):
            if k:
                xy[k] = -xy[k - 1]
        yield np.column_stack([xy, np.ones(n)])


class TestTurnCount:
    """The winding, a Python int equal to the unwrap count (reference copy)."""

    def test_random_fields(self):
        rng = np.random.default_rng(2024)
        for b_nodes in _random_transverse_fields(rng, 20_000):
            winding = _winding_number(b_nodes[:, 0], b_nodes[:, 1])
            assert type(winding) is int
            assert winding == _reference_winding(b_nodes)[0], b_nodes[:, :2].tolist()

    def test_only_steps_across_the_x_axis_take_a_correction(self):
        # np.unwrap's correction of each step, nonzero only where y < 0 flips:
        # the steps the count evaluates atan2 at
        rng = np.random.default_rng(7)
        for b_nodes in _random_transverse_fields(rng, 5_000):
            azimuth = np.arctan2(b_nodes[:, 1] + 0.0, b_nodes[:, 0] + 0.0)
            jumps = np.diff(azimuth)
            wrapped = np.mod(jumps + math.pi, math.tau) - math.pi
            wrapped[(wrapped == -math.pi) & (jumps > 0.0)] = math.pi
            corrected = (wrapped != jumps) & ~(np.abs(jumps) < math.pi)
            below = b_nodes[:, 1] < 0.0
            assert np.all((below[1:] != below[:-1])[corrected]), b_nodes[:, :2].tolist()

    @pytest.mark.parametrize("sigma", [1e-300, 1e-170, 0.05, 0.5, 3.0])
    @pytest.mark.parametrize("n_cycles", [1, 3])
    @pytest.mark.parametrize(
        "theta0", [0.0, 0.03, 0.05, math.pi / 4, math.pi - 0.03, math.pi]
    )
    def test_noisy_paths(self, theta0, n_cycles, sigma):
        spec = PrecessionSpec(b0=1.0, theta0=theta0, t_total=100.0, n_cycles=n_cycles)
        n_steps = 256 * n_cycles
        grid = Grid(spec, n_steps)
        model = NoiseModel.from_scalars(sigma, 0.1, sigma, 0.1)
        for seed in range(20):
            b_nodes = grid.control[0].T + sample_path(model, n_steps, grid.dt, seed)
            winding = _winding_number(b_nodes[:, 0], b_nodes[:, 1])
            assert type(winding) is int
            assert winding == _reference_winding(b_nodes)[0], seed

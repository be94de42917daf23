import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from berrysim import (
    DegeneracyError,
    Grid,
    NoiseModel,
    PrecessionSpec,
    ResolutionError,
    adiabaticity_report,
    control_field,
    polar_angles,
    sample_path,
)

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # a test-only tool: without it the Grid property test is skipped
    hypothesis = None


@dataclass(frozen=True)
class FieldSample:
    """Control, noise and total field at one instant (reference copy)."""

    t: float
    b_control: np.ndarray
    k_noise: np.ndarray
    b_total: np.ndarray


def field_sample(spec: PrecessionSpec, k_noise: np.ndarray, t: float) -> FieldSample:
    """Bundle control, noise and total field at one instant (reference copy)."""
    k = np.asarray(k_noise, dtype=float)
    if k.shape != (3,):
        raise ValueError(f"k_noise must be a 3-vector, got shape {k.shape}")
    b = control_field(spec, float(t))
    return FieldSample(t=float(t), b_control=b, k_noise=k, b_total=b + k)


def first_order_cos_theta(spec: PrecessionSpec, k_noise: np.ndarray, t: float) -> float:
    """cos(theta) of the total field to first order in the noise (reference copy).

    The exact polar angle of B(t) + K satisfies

        cos(theta) = (B3 + K3) / |B + K|

    whose first-order expansion in K/b0 is

        cos(theta0) + K3/b0 - (B3 / b0**3) * (B . K).

    The neglected remainder is quadratic in |K|/b0.
    """
    k = np.asarray(k_noise, dtype=float)
    if k.shape != (3,):
        raise ValueError(f"k_noise must be a 3-vector, got shape {k.shape}")
    b = control_field(spec, float(t))
    b0 = spec.b0
    return float(b[2] / b0 + k[2] / b0 - (b[2] / b0**3) * np.dot(b, k))


SPEC = PrecessionSpec(b0=1.0, theta0=math.pi / 4, t_total=100.0, n_cycles=1)


class TestSpec:
    def test_omega(self):
        assert SPEC.omega == pytest.approx(2.0 * math.pi / 100.0)
        multi = PrecessionSpec(b0=1.0, theta0=0.5, t_total=100.0, n_cycles=5)
        assert multi.omega == pytest.approx(10.0 * math.pi / 100.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(b0=0.0, theta0=0.5, t_total=1.0, n_cycles=1),
            dict(b0=-1.0, theta0=0.5, t_total=1.0, n_cycles=1),
            dict(b0=1.0, theta0=-0.1, t_total=1.0, n_cycles=1),
            dict(b0=1.0, theta0=math.pi + 0.1, t_total=1.0, n_cycles=1),
            dict(b0=1.0, theta0=0.5, t_total=0.0, n_cycles=1),
            dict(b0=1.0, theta0=0.5, t_total=1.0, n_cycles=0),
            dict(b0=1.0, theta0=0.5, t_total=1.0, n_cycles=1.5),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            PrecessionSpec(**kwargs)


class TestControlField:
    def test_constant_modulus_and_cone_angle(self):
        t = np.linspace(0.0, SPEC.t_total, 257)
        b = control_field(SPEC, t)
        assert b.shape == (257, 3)
        assert np.allclose(np.linalg.norm(b, axis=-1), SPEC.b0, rtol=1e-13)
        assert np.allclose(b[:, 2], SPEC.b0 * math.cos(SPEC.theta0), rtol=1e-13)

    def test_endpoints_close_the_loop(self):
        b = control_field(SPEC, np.array([0.0, SPEC.t_total]))
        assert np.allclose(b[0], b[1], atol=1e-12)

    def test_scalar_time(self):
        b = control_field(SPEC, 25.0)  # quarter cycle
        s = math.sin(SPEC.theta0)
        assert b == pytest.approx(
            np.array([0.0, SPEC.b0 * s, SPEC.b0 * math.cos(SPEC.theta0)]), abs=1e-12
        )

    def test_winding_count(self):
        spec = PrecessionSpec(b0=2.0, theta0=1.0, t_total=10.0, n_cycles=3)
        t = np.linspace(0.0, spec.t_total, 4001)
        b = control_field(spec, t)
        phi = np.unwrap(np.arctan2(b[:, 1], b[:, 0]))
        assert (phi[-1] - phi[0]) / (2.0 * math.pi) == pytest.approx(3.0)

    def test_rejects_time_outside_window(self):
        with pytest.raises(ValueError):
            control_field(SPEC, -1.0)
        with pytest.raises(ValueError):
            control_field(SPEC, SPEC.t_total + 1.0)

    def test_pole_orientations(self):
        north = PrecessionSpec(b0=1.0, theta0=0.0, t_total=1.0, n_cycles=1)
        south = PrecessionSpec(b0=1.0, theta0=math.pi, t_total=1.0, n_cycles=1)
        assert np.allclose(control_field(north, 0.3), [0.0, 0.0, 1.0], atol=1e-12)
        assert np.allclose(control_field(south, 0.3), [0.0, 0.0, -1.0], atol=1e-12)


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)


def _grid_property(test):
    if hypothesis is None:
        return pytest.mark.skip(reason="hypothesis is not installed")(test)
    return hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)(
        hypothesis.given(
            t_total=_log_uniform(1e-3, 1e6),
            n_cycles=st.integers(1, 64),
            n_steps=st.integers(1, 2**16),
            b0=_log_uniform(1e-6, 1e9),
            theta0=st.floats(0.0, math.pi),
        )(test)
    )


class TestGrid:
    @_grid_property
    def test_nodes_and_control_field(self, t_total, n_cycles, n_steps, b0, theta0):
        spec = PrecessionSpec(b0=b0, theta0=theta0, t_total=t_total, n_cycles=n_cycles)
        grid = Grid(spec, n_steps)
        times = grid.times
        assert times.shape == (n_steps + 1,)
        assert times[0] == 0.0
        assert abs(times[-1] - t_total) <= math.ulp(t_total)
        assert grid.dt == t_total / n_steps
        if b0 * grid.dt >= 0.25 * math.pi:
            with pytest.raises(ResolutionError, match="exceeds pi/4"):
                grid.control
            return
        nodes, mid = grid.control
        assert nodes.shape == (3, n_steps + 1) and mid.shape == (3, n_steps)
        assert nodes.flags.c_contiguous and mid.flags.c_contiguous
        assert nodes.tobytes() == control_field(spec, times).T.tobytes()
        midpoints = (np.arange(n_steps) + 0.5) * grid.dt
        assert mid.tobytes() == control_field(spec, midpoints).T.tobytes()
        assert grid.control is grid.control

    def test_resolution_boundary(self):
        # dt = 1 exactly, so b0*dt is b0: pi/4 itself is refused, the float below it is not
        quarter = 0.25 * math.pi
        for b0, refused in ((quarter, True), (math.nextafter(quarter, 0.0), False)):
            grid = Grid(PrecessionSpec(b0=b0, theta0=0.5, t_total=64.0, n_cycles=1), 64)
            if refused:
                with pytest.raises(ResolutionError):
                    grid.control
            else:
                assert grid.control[0].shape == (3, 65)

    @pytest.mark.parametrize("n_steps", [0, -4, 2.0, 1.5, "8", None])
    def test_rejects_a_step_count_that_is_no_positive_integer(self, n_steps):
        with pytest.raises(ValueError, match="n_steps must be a positive integer"):
            Grid(SPEC, n_steps)

    def test_numpy_integer_step_count(self):
        grid = Grid(SPEC, np.int64(16))
        assert type(grid.n_steps) is int and grid == Grid(SPEC, 16)


class TestPolarAngles:
    def test_axes(self):
        assert polar_angles(np.array([0.0, 0.0, 2.0])) == (0.0, 0.0)
        assert polar_angles(np.array([0.0, 0.0, -2.0])) == (pytest.approx(math.pi), 0.0)
        assert polar_angles(np.array([1.0, 0.0, 0.0])) == (
            pytest.approx(math.pi / 2), pytest.approx(0.0)
        )
        assert polar_angles(np.array([0.0, 1.0, 0.0]))[1] == pytest.approx(math.pi / 2)
        assert polar_angles(np.array([-1.0, 0.0, 0.0]))[1] == pytest.approx(math.pi)

    def test_returns_a_pair_of_floats_in_range(self):
        rng = np.random.default_rng(3)
        for v in rng.standard_normal((200, 3)) * rng.uniform(1e-3, 1e3, (200, 1)):
            theta, phi = angles = polar_angles(v)
            assert type(angles) is tuple and len(angles) == 2
            assert type(theta) is float and type(phi) is float
            assert 0.0 <= theta <= math.pi and -math.pi <= phi <= math.pi

    def test_round_trip_through_control_field(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            theta = rng.uniform(0.01, math.pi - 0.01)
            spec = PrecessionSpec(b0=1.7, theta0=theta, t_total=10.0, n_cycles=1)
            t = rng.uniform(0.0, 10.0)
            got_theta, got_phi = polar_angles(control_field(spec, t))
            assert got_theta == pytest.approx(theta, abs=1e-12)
            expected_phi = math.remainder(spec.omega * t, 2.0 * math.pi)
            assert math.remainder(got_phi - expected_phi, 2.0 * math.pi) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_zero_vector_raises(self):
        with pytest.raises(DegeneracyError):
            polar_angles(np.zeros(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_non_finite_component_raises(self, axis, bad):
        # acos and atan2 would still give angles: a pole for (0, 0, nan), the equator for (inf, 0, 1)
        v = np.array([0.0, 0.0, 1.0])
        v[axis] = bad
        with pytest.raises(ValueError, match="finite"):
            polar_angles(v)

    def test_overflowing_norm_raises_without_a_warning(self):
        # the squared norm overflows before the check that refuses it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                polar_angles(np.array([0.0, 1e200, 1e200]))

    def test_negative_zero_transverse_parts(self):
        # (-0.0, -0.0) transverse must not flip phi to +/- pi
        assert polar_angles(np.array([-0.0, -0.0, 1.0]))[1] == 0.0
        assert polar_angles(np.array([-0.0, 0.0, -3.0]))[1] == 0.0


class TestFieldSample:
    def test_total_is_sum(self):
        model = NoiseModel.from_scalars(0.05, 0.1, 0.05, 0.1)
        path = sample_path(model, 100, SPEC.t_total / 100, seed=4)
        k = path[37]
        t = 37 * (SPEC.t_total / 100)
        sample = field_sample(SPEC, k, t)
        assert sample.t == pytest.approx(t)
        assert np.allclose(sample.b_control, control_field(SPEC, t), rtol=1e-15)
        assert np.array_equal(sample.k_noise, k)
        assert np.allclose(sample.b_total, sample.b_control + k, rtol=1e-15)

    def test_rejects_bad_noise_shape(self):
        with pytest.raises(ValueError):
            field_sample(SPEC, np.zeros(2), 1.0)


class TestFirstOrderCosTheta:
    def test_matches_exact_for_weak_noise(self):
        rng = np.random.default_rng(8)
        t = 13.0
        b = control_field(SPEC, t)
        for eps in (1e-3, 1e-5):
            k = eps * rng.standard_normal(3)
            total = b + k
            exact = total[2] / np.linalg.norm(total)
            approx = first_order_cos_theta(SPEC, k, t)
            assert abs(approx - exact) < 5.0 * eps**2

    def test_exact_at_zero_noise(self):
        assert first_order_cos_theta(SPEC, np.zeros(3), 13.0) == pytest.approx(
            math.cos(SPEC.theta0), rel=1e-14
        )


class TestAdiabaticityReport:
    def test_quiet_slow_drive_passes(self):
        spec = PrecessionSpec(b0=1.0, theta0=0.5, t_total=1000.0, n_cycles=1)
        model = NoiseModel.from_scalars(0.01, 0.001, 0.01, 0.001)
        report = adiabaticity_report(spec, model)
        assert report["passed"]
        assert all(report["flags"].values())
        assert set(report["ratios"]) == {
            "omega_over_b0",
            "gamma12_over_b0",
            "gamma3_over_b0",
            "sigma12_over_b0",
            "sigma3_over_b0",
        }

    def test_fast_drive_flags_omega(self):
        spec = PrecessionSpec(b0=1.0, theta0=0.5, t_total=10.0, n_cycles=10)
        model = NoiseModel.from_scalars(0.0, 1e-6, 0.0, 1e-6)
        report = adiabaticity_report(spec, model)
        assert not report["passed"]
        assert report["flags"]["omega_over_b0"] is False

    def test_loud_noise_flags_amplitude(self):
        spec = PrecessionSpec(b0=1.0, theta0=0.5, t_total=1000.0, n_cycles=1)
        model = NoiseModel.from_scalars(0.5, 0.001, 0.01, 0.001)
        report = adiabaticity_report(spec, model)
        assert not report["passed"]
        assert report["flags"]["sigma12_over_b0"] is False
        assert report["flags"]["sigma3_over_b0"] is True

    def test_returns_the_published_dict(self):
        # the CLI publishes this dict as it is; its key order is the CSV row order
        spec = PrecessionSpec(b0=1.0, theta0=0.5, t_total=1000.0, n_cycles=1)
        model = NoiseModel.from_scalars(0.01, 0.001, 0.01, 0.001)
        d = adiabaticity_report(spec, model)
        assert list(d) == ["ratios", "flags", "thresholds", "passed"]
        assert list(d["flags"]) == list(d["ratios"]) == list(d["thresholds"])
        assert d["passed"] is True
        assert d["ratios"]["omega_over_b0"] == pytest.approx(2.0 * math.pi / 1000.0)
        assert json.loads(json.dumps(d)) == d

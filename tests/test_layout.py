"""Pins of the full_sim trial records and of every ``PhaseExtraction`` value.

The digests were taken from the evolution and trial loop as they stood
before the noise and the field moved to component-major rows (three
contiguous rows of node values), so any change of the memory layout
that moves a bit of an output shows here.
"""

import hashlib
import math

import numpy as np
import pytest

from berrysim import (
    IntegratorConfig,
    NoiseModel,
    PrecessionSpec,
    connection_phase_discrete,
    evolve_and_extract,
    run_ensemble,
    sample_path,
)
from berrysim import evolve, montecarlo
from berrysim.noise import _draw_innovations
from test_noise import _reference_ou_filter


def _digest(values) -> str:
    """sha256 over arrays (dtype, shape and C-order bytes), float bit patterns and reprs."""
    h = hashlib.sha256()
    for value in values:
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(value.tobytes())
        elif isinstance(value, float):
            h.update(value.hex().encode())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def _extraction_values(result):
    """Every field, array and scalar of an extraction, and its chain phase, in a fixed order."""
    levels = [array for level in result.levels for array in level]
    return [
        result.branch, result.grid.dt, result.control_nodes, result.b_nodes, result.b_mid,
        *levels, *result.start, result.field_modulus, result.dynamical_phase,
        result.geometric_phase, result.leakage, result.field_modulus_integral,
        result.winding, result.degenerate_steps, result.non_adiabatic,
        result.amp_up, result.amp_down, result.total_phase_nodes, result.total_phase,
        result.geometric_phase_raw, result.times, result.dynamical_phase_nodes,
        result.energy, result.mean_energy_integral,
        connection_phase_discrete(result.b_nodes, branch=result.branch),
    ]


# (theta0, n_cycles, (sigma12, gamma12, sigma3, gamma3) or None, seed, branch, steps_per_cycle)
EXTRACTION_CASES = {
    "reference": (math.pi / 4, 1, (0.05, 0.1, 0.05, 0.1), 3, "up", 4096),
    "pole-anisotropic-down": (0.0, 2, (0.05, 0.1, 0.03, 0.3), 5, "down", 512),
    "strong-transverse": (3.0, 1, (0.5, 0.2, 0.0, 0.1), 7, "up", 256),
    "longitudinal-4-cycles": (math.pi / 2, 4, (0.0, 0.1, 0.05, 0.1), 11, "up", 512),
    "near-pole-down": (0.05, 1, (0.05, 0.1, 0.05, 0.1), 13, "down", 1024),
    "noiseless-pi": (math.pi, 1, None, 0, "up", 512),
}

EXTRACTION_DIGESTS = {
    "reference":
        "a65eac218011f6f0796ddbdd1751cc4fb8c2d553565842d87a1aae5548a529b9",
    "pole-anisotropic-down":
        "50d754109265d50aa02d2da4d29627447a8bf926876508c7e7d35fa11a99f18c",
    "strong-transverse":
        "373dc778d7e94158bd425f0217ac12ebe61bab2c07bd25f74b706374d37ef61b",
    "longitudinal-4-cycles":
        "bd1f2b965e495e0ed0210144c7afd6a9287068169ff3ba5eaef8472d19220f7e",
    "near-pole-down":
        "a3c9bbef3f240da374b7381c94ece370853cc6776d2781ae51f67687459cf92b",
    "noiseless-pi":
        "7e9ff10c828bf4054cb734ae1b868eba7a93c90ae9c77fcb8fce03387bd91c90",
}


def _extraction_case(name):
    theta0, n_cycles, scalars, seed, branch, steps_per_cycle = EXTRACTION_CASES[name]
    spec = PrecessionSpec(b0=1.0, theta0=theta0, t_total=100.0, n_cycles=n_cycles)
    config = IntegratorConfig(steps_per_cycle=steps_per_cycle)
    n_steps = steps_per_cycle * n_cycles
    noise = None
    if scalars is not None:
        noise = sample_path(NoiseModel.from_scalars(*scalars), n_steps, 100.0 / n_steps, seed)
    return spec, noise, config, branch


@pytest.mark.parametrize("name", sorted(EXTRACTION_CASES))
def test_extraction_is_pinned(name):
    spec, noise, config, branch = _extraction_case(name)
    result = evolve_and_extract(spec, noise, config, branch=branch)
    assert _digest(_extraction_values(result)) == EXTRACTION_DIGESTS[name]


# (theta0, n_cycles, (sigma12, gamma12, sigma3, gamma3), steps_per_cycle); 5 trials, seed 42
RECORD_CASES = {
    "theta0=0": (0.0, 1, (0.05, 0.1, 0.05, 0.1), 4096),
    "theta0=0.05": (0.05, 1, (0.05, 0.1, 0.05, 0.1), 4096),
    "theta0=pi/4": (math.pi / 4, 1, (0.05, 0.1, 0.05, 0.1), 4096),
    "theta0=pi/2": (math.pi / 2, 1, (0.05, 0.1, 0.05, 0.1), 4096),
    "theta0=3.0": (3.0, 1, (0.05, 0.1, 0.05, 0.1), 4096),
    "theta0=pi": (math.pi, 1, (0.05, 0.1, 0.05, 0.1), 4096),
    "sigma12=0": (math.pi / 4, 1, (0.0, 0.1, 0.05, 0.1), 4096),
    "sigma3=0": (math.pi / 4, 1, (0.05, 0.1, 0.0, 0.1), 4096),
    "4-cycles": (math.pi / 4, 4, (0.05, 0.1, 0.05, 0.1), 1024),
    "anisotropic-gamma": (math.pi / 4, 1, (0.05, 0.1, 0.05, 0.3), 4096),
    "256-steps": (math.pi / 4, 1, (0.05, 0.1, 0.05, 0.1), 256),
}

RECORD_DIGESTS = {
    "theta0=0":
        "f702de8d85ab71361d104f02bf755a0aabf5d06fd84bc15ac982eab7f2d3052e",
    "theta0=0.05":
        "3d050a074e963b49134e73e920a608be959755fb9c092bf3f45c79e6d4275382",
    "theta0=pi/4":
        "236e489825335fed5f1ae93fd46f479c806e9f327d073f06a31a3acc2507254c",
    "theta0=pi/2":
        "aa9ce35eed49f2ec0b13f39472ae1f7b142fb2e280cb7a3ae40a1ff2f637c038",
    "theta0=3.0":
        "72ce8094f14e75be0fec2b90b3cd33d35ef202069cbfd466cb64a4e167a4c630",
    "theta0=pi":
        "73fef9aa74ec6cd309e1d5a17b520feae9cd67f876eb4a15755108517b600b10",
    "sigma12=0":
        "fe6ca4b24d9f367661b535e50dc9e9accd58764ebed4b556e2411ac1df558b95",
    "sigma3=0":
        "528bb0e91dc076138b3a6169572deb56a7c1be4ae48cffdbd5af18a51275cf64",
    "4-cycles":
        "e019deaf2c64139a4187a08b15cac70d195403c446c8ad3d1618ea96e2429742",
    "anisotropic-gamma":
        "b2e516f09c2d912c6219879926dfcf68115183b00b4cbe5380e2152f34cff5d0",
    "256-steps":
        "cc73525a82d122363011ccd82ed85a3caf3c68b6b42135b6fa6da21f4b2e9e29",
}


@pytest.mark.parametrize("name", sorted(RECORD_CASES))
def test_full_sim_records_are_pinned(name):
    theta0, n_cycles, scalars, steps_per_cycle = RECORD_CASES[name]
    spec = PrecessionSpec(b0=1.0, theta0=theta0, t_total=100.0, n_cycles=n_cycles)
    ensemble = run_ensemble(spec, NoiseModel.from_scalars(*scalars), 5, 42, mode="full_sim",
                            config=IntegratorConfig(steps_per_cycle=steps_per_cycle))
    columns = (ensemble.gamma_fo, ensemble.delta_fo, ensemble.gamma_sim, ensemble.leakage)
    assert _digest(columns) == RECORD_DIGESTS[name]


# (sigma12, gamma12, sigma3, gamma3): one shared pass, two passes, one part silent, both silent
PATH_MODELS = {
    "isotropic": (0.05, 0.1, 0.05, 0.1),
    "anisotropic": (0.05, 0.1, 0.2, 0.3),
    "sigma3=0": (0.05, 0.1, 0.0, 0.1),
    "both-zero": (0.0, 0.1, 0.0, 0.1),
}


@pytest.mark.parametrize("n_steps", [1, 4096, 65_536])
@pytest.mark.parametrize("scalars", PATH_MODELS.values(), ids=list(PATH_MODELS))
def test_sample_path_is_the_reference_filter(scalars, n_steps):
    # the public path keeps its (n + 1, 3) shape and its bits, read-only
    model = NoiseModel.from_scalars(*scalars)
    dt = 100.0 / n_steps
    for seed in (0, 42):
        path = sample_path(model, n_steps, dt, seed)
        want = _reference_ou_filter(model, dt, _draw_innovations(n_steps, seed))
        assert path.shape == (n_steps + 1, 3) and path.dtype == np.float64
        assert not path.flags.writeable
        assert path.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(EXTRACTION_CASES))
def test_noise_layout_does_not_move_a_bit(name):
    # C-ordered, F-ordered and transposed-view noise of equal values
    spec, noise, config, branch = _extraction_case(name)
    if noise is None:
        noise = np.zeros((config.steps_per_cycle * spec.n_cycles + 1, 3))
    layouts = [np.ascontiguousarray(noise), np.asfortranarray(noise),
               np.ascontiguousarray(noise.T).T]
    assert [a.flags.c_contiguous for a in layouts] == [True, False, False]
    digests = {
        _digest(_extraction_values(evolve_and_extract(spec, layout, config, branch=branch)))
        for layout in layouts
    }
    assert digests == {EXTRACTION_DIGESTS[name]}


def test_trial_rows_are_contiguous_along_the_nodes(monkeypatch):
    # the layout guard: every row a trial filters, evolves and counts turns
    # on is one contiguous run of node values, not a stride-24 column view
    seen = []

    def spy(module, name, keep):
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            result = original(*args, **kwargs)
            seen.extend((name, array) for array in keep(args, result))
            return result

        monkeypatch.setattr(module, name, wrapped)

    spy(montecarlo, "_ou_filter", lambda args, result: [result])
    spy(montecarlo, "_evolve", lambda args, result: [*args[0].control, args[1]])
    spy(evolve, "_step_coefficients", lambda args, result: [args[0]])
    spy(evolve, "_winding_number", lambda args, result: args)
    spec = PrecessionSpec(b0=1.0, theta0=math.pi / 4, t_total=100.0, n_cycles=1)
    model = NoiseModel.from_scalars(0.05, 0.1, 0.05, 0.3)
    run_ensemble(spec, model, 2, 42, mode="full_sim", config=IntegratorConfig())
    names = [name for name, _ in seen]
    assert names.count("_ou_filter") == 2 + 2  # the adjoint's two weights, then each trial
    assert names.count("_step_coefficients") == names.count("_winding_number") // 2 == 2
    for name, array in seen:
        rows = array if array.ndim == 2 else array[None]
        assert rows.shape[-1] >= 4096 and rows.strides[-1] == rows.itemsize, name
    path = sample_path(model, 4096, 100.0 / 4096, 1)
    assert path.T.strides[-1] == path.itemsize

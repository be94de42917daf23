"""The input contract: one integer check, one node-array check, one step-count rule,
and the named refusals of values that overflow float64."""

import math
import re

import numpy as np
import pytest

from berrysim import (
    Grid,
    IntegratorConfig,
    NoiseModel,
    PrecessionSpec,
    Ensemble,
    connection_phase_discrete,
    control_field,
    evolve_and_extract,
    noncyclic_connection_term,
    run_ensemble,
    sample_path,
    summarize,
    trial_seed,
)
from berrysim.cli import RunConfig, main
from berrysim.errors import _count

SPEC = PrecessionSpec(b0=1.0, theta0=math.pi / 4, t_total=100.0, n_cycles=1)
MODEL = NoiseModel.from_scalars(0.05, 0.1, 0.05, 0.1)
FAST = IntegratorConfig(steps_per_cycle=256)


class TestCount:
    @pytest.mark.parametrize("low,kind", [
        (0, "a nonnegative integer"), (1, "a positive integer"), (16, "an integer >= 16"),
    ])
    def test_messages(self, low, kind):
        for bad in (low - 1, 2.0 * low, "3", None, True, np.bool_(True)):
            with pytest.raises(ValueError, match=f"^n must be {kind}, got "):
                _count("n", bad, low)

    @pytest.mark.parametrize("value", [20, np.int64(20), np.uint8(20), np.int32(20)])
    def test_ints_and_numpy_integers_pass_as_int(self, value):
        count = _count("n", value, 16)
        assert count == 20 and type(count) is int

    # every one of these accepted a bool, as the integer 1, before
    @pytest.mark.parametrize("call,name", [
        (lambda: PrecessionSpec(1.0, 0.5, 10.0, n_cycles=True), "n_cycles"),
        (lambda: Grid(SPEC, True), "n_steps"),
        (lambda: sample_path(MODEL, True, 0.1, 1), "n_steps"),
        (lambda: sample_path(MODEL, 4, 0.1, True), "seed"),
        (lambda: run_ensemble(SPEC, MODEL, True, 1, config=FAST), "n_trials"),
        (lambda: run_ensemble(SPEC, MODEL, 5, True, config=FAST), "master_seed"),
        (lambda: trial_seed(True, 0), "master_seed"),
        (lambda: trial_seed(0, True), "trial_index"),
        (lambda: RunConfig(n_trials=True).validate(), "n_trials"),
        (lambda: RunConfig(seed=True).validate(), "seed"),
    ])
    def test_a_bool_is_refused(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call()

    def test_numpy_integers_pass_with_the_int_results(self):
        RunConfig(n_trials=np.int64(5), seed=np.uint32(3), n_cycles=np.int8(2),
                  steps_per_cycle=np.int64(64)).validate()
        assert trial_seed(np.int64(3), np.uint16(7)) == trial_seed(3, 7)
        a = run_ensemble(SPEC, MODEL, np.int64(6), np.uint8(4), config=FAST)
        b = run_ensemble(SPEC, MODEL, 6, 4, config=FAST)
        assert a.gamma_fo.tobytes() == b.gamma_fo.tobytes()


def _clean_nodes():
    """The noiseless control field at 513 nodes, at theta0 = pi/4."""
    return control_field(SPEC, np.linspace(0.0, SPEC.t_total, 513))


class TestNodeArrays:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("row", [0, 200, -1])
    def test_non_finite_nodes_are_named(self, bad, row):
        nodes = _clean_nodes()
        clean = connection_phase_discrete(nodes)
        assert clean == connection_phase_discrete(np.asfortranarray(nodes)) == 2.221455408511356
        nodes[row, 1] = bad
        with pytest.raises(ValueError, match="^b_nodes must be finite"):
            connection_phase_discrete(nodes)
        noise = np.zeros((257, 3))
        noise[row, 2] = bad
        with pytest.raises(ValueError, match="^noise must be finite"):
            noncyclic_connection_term(SPEC, noise)
        with pytest.raises(ValueError, match="^noise must be finite"):
            evolve_and_extract(SPEC, noise, FAST)

    @pytest.mark.parametrize("shape", [(1, 3), (0, 3), (5, 2), (5,), (2, 5, 3)])
    def test_shapes_are_named_alike(self, shape):
        message = re.escape(f"must have shape (n + 1, 3) with n >= 1, got {shape}")
        with pytest.raises(ValueError, match="^b_nodes " + message):
            connection_phase_discrete(np.ones(shape))
        with pytest.raises(ValueError, match="^noise " + message):
            noncyclic_connection_term(SPEC, np.ones(shape))
        with pytest.raises(ValueError, match="^noise " + message):
            evolve_and_extract(SPEC, np.ones(shape), FAST)


class TestIntegratorGrid:
    @pytest.mark.parametrize("steps,n_cycles", [(16, 1), (17, 3), (256, 2), (4096, 1)])
    def test_grid_is_steps_per_cycle_times_cycles(self, steps, n_cycles):
        spec = PrecessionSpec(b0=1.0, theta0=0.7, t_total=7.7, n_cycles=n_cycles)
        grid = IntegratorConfig(steps).grid(spec)
        assert grid == Grid(spec, steps * n_cycles)
        assert grid.times.tobytes() == Grid(spec, steps * n_cycles).times.tobytes()

    def test_evolution_runs_on_the_config_grid(self):
        spec = PrecessionSpec(b0=1.0, theta0=0.7, t_total=7.7, n_cycles=3)
        config = IntegratorConfig(17)
        grid = config.grid(spec)
        noise = sample_path(MODEL, grid.n_steps, grid.dt, seed=7)
        assert evolve_and_extract(spec, noise, config).grid == grid


# Each overflows float64 at a different site; before, each warned, raised a
# warning as an error, published an infinity or named the wrong reason.
_REPROS = {
    "omega": ("simulate --b0 4.173948543018504e-178 --t-total 1e-310 --theta0 2.312117910920233 "
              "--sigma12 1.797144655396501e-77 --gamma12 5.2564611185595545e+42 "
              "--sigma3 2.255008077764057e-137 --gamma3 2.58659290604254e-43 --n-cycles 6",
              "omega = 2*pi*n_cycles/t_total is not finite"),
    "ratio": ("simulate --b0 1e-300 --t-total 5.456497461106486e+97 --theta0 1.8796807700073457 "
              "--sigma12 31378365399876.57 --gamma12 1.7195172662343076e-119 "
              "--sigma3 1.1495777038422831e-149 --gamma3 1.1749737645782541e-18 --n-cycles 1",
              "the adiabaticity ratio sigma12_over_b0 is not finite"),
    "law": ("mc --n-trials 8 --b0 57708.15348205794 --t-total 5.0808742889658715e+70 "
            "--theta0 0.8692574692012656 --sigma12 9.08295583268174e+106 "
            "--gamma12 8.273433536658852e-149 --sigma3 9.65802156913358e+74 "
            "--gamma3 6.560525813005931e+91 --n-cycles 8",
            "the first-order law C(n) is not finite"),
    "midpoint": ("simulate --b0 1.214765617728167e+26 --t-total 7.068314709161633e-194 "
                 "--theta0 1.8477141700215955 --sigma12 1.700104520969757e-92 "
                 "--gamma12 1.541817081047441e-42 --sigma3 1.7e+308 "
                 "--gamma3 1.952751768963961e-195 --n-cycles 7",
                 "total field modulus is not finite; the noise overflows it"),
    "step_phase": ("simulate --b0 2.221048815916365e-199 --t-total 1.7705232415146666e+167 "
                   "--theta0 0.17037839646786385 --sigma12 1.0285735424518038e+147 "
                   "--gamma12 2.9944567129501537e-69 --sigma3 2.4898472939620632e-185 "
                   "--gamma3 1.2491856876750714e+165 --n-cycles 4",
                   "the step phase |b| dt / 2 overflows float64"),
    "node_modulus": ("simulate --b0 4.510182054159042e-184 --t-total 4.950242957109771e+72 "
                     "--theta0 0.8315042094074291 --sigma12 7.082724746982159e-131 "
                     "--gamma12 6.423848590717627e+177 --sigma3 1.1289553720213287e+154 "
                     "--gamma3 561831.6336039766 --n-cycles 1",
                     "the field modulus along b_nodes is not finite"),
    "sample_moment": ("mc --mode full_sim --n-trials 8 --b0 3.4755719973679362e-15 "
                      "--t-total 2.7817711176760182e-64 --theta0 2.728476058710324 "
                      "--sigma12 1.430824123004137e+139 --gamma12 1.7116965627775593e-170 "
                      "--sigma3 1.1092328519373164e+139 --gamma3 2.0113488328868364e-117 "
                      "--n-cycles 5",
                      "the sample variance of gamma_fo is not finite"),
}


@pytest.mark.parametrize("name", list(_REPROS))
def test_overflowing_inputs_are_refused_by_name(tmp_path, capsys, name):
    # warnings are errors, so no numpy warning may come first
    argv, reason = _REPROS[name]
    code = main([*argv.split(), "--steps-per-cycle", "16", "--quiet", "-o", str(tmp_path / "x")])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {reason}")
    assert list(tmp_path.iterdir()) == []


def test_an_overflowing_sample_moment_is_refused_by_name():
    rng = np.random.default_rng(3)
    g, d = rng.standard_normal(10), rng.standard_normal(10)
    summarize(Ensemble(g, d))
    with pytest.raises(ValueError, match="^the sample variance of gamma_fo is not finite"):
        summarize(Ensemble(g * 2.0**540, d))


def test_overflowing_response_weights_are_refused_by_name():
    # b0 * t_total is finite, but a weight times the quadrature step is not
    spec = PrecessionSpec(1e-310, 2.8989493330315916, 2.121900801005521e+97, 1)
    model = NoiseModel.from_scalars(3.9e-116, 1.1e+39, 5e-324, 3.2e+189)
    for mode in ("first_order", "full_sim"):
        with pytest.raises(ValueError, match="^the first-order law is not finite"):
            run_ensemble(spec, model, 8, 42, mode=mode, config=IntegratorConfig(16))

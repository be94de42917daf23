"""Acceptance battery: ten end-to-end checks of the whole package.

Each test prints one ``ACCEPTANCE NN name: PASS/FAIL (...)`` line through
the capture-disabled stream, so a plain ``pytest -v`` run leaves a
readable protocol in the terminal log.  Tolerances sit next to each
assertion; frozen working points are listed with the staging results
that motivated them.
"""

import functools
import math
import time

import numpy as np
import pytest

from berrysim import (
    IntegratorConfig,
    NoiseModel,
    PrecessionSpec,
    berry_phase_variance_broadband,
    berry_phase_variance_narrowband,
    coherence,
    connection_phase_discrete,
    covariance_by_quadrature,
    dephasing_factor,
    dynamical_weight,
    evolve_and_extract,
    geometric_weight,
    noiseless_berry_phase,
    phase_moments,
    regime_grid,
    run_ensemble,
    summarize,
    variance_by_quadrature,
)
from berrysim.cli import main
from test_analytics import density_matrix_after


REF_SPEC = PrecessionSpec(b0=1.0, theta0=math.pi / 4, t_total=100.0, n_cycles=1)
REF_MODEL = NoiseModel.from_scalars(0.05, 0.1, 0.05, 0.1)

# slow drive, b0/omega = 200, used by the noiseless and first-order checks
ADIABATIC_T = 400.0 * math.pi


def _report(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@functools.lru_cache(maxsize=1)
def _reference_ensemble():
    """10^4 first-order trials at the reference point, shared by 04 and 06."""
    t0 = time.perf_counter()
    records = run_ensemble(
        REF_SPEC,
        REF_MODEL,
        10_000,
        42,
        mode="first_order",
        config=IntegratorConfig(steps_per_cycle=4096),
    )
    return records, time.perf_counter() - t0


def test_01_noiseless_berry_phase(capsys):
    """Slow noiseless drive reproduces pi*cos(theta0) on both extractors."""
    t0 = time.perf_counter()
    config = IntegratorConfig(steps_per_cycle=4096)
    worst_evolve = 0.0
    worst_chain = 0.0
    for theta0 in (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2):
        spec = PrecessionSpec(b0=1.0, theta0=theta0, t_total=ADIABATIC_T, n_cycles=1)
        target = noiseless_berry_phase(theta0)
        result = evolve_and_extract(spec, None, config=config)
        chain = connection_phase_discrete(spec, n_points=4096)
        worst_evolve = max(worst_evolve, abs(result.geometric_phase - target))
        worst_chain = max(worst_chain, abs(chain - target))
    elapsed = time.perf_counter() - t0
    ok = worst_evolve < 0.02 and worst_chain < 1e-4 and elapsed < 5.0
    _report(
        capsys,
        1,
        "noiseless_berry_phase",
        ok,
        f"evolve err {worst_evolve:.2e} < 0.02, chain err {worst_chain:.2e} < 1e-4, "
        f"{elapsed:.2f}s < 5s",
    )
    assert ok


def test_02_closed_form_matches_quadrature(capsys):
    """Closed-form var(gamma) and var(alpha) agree with the quadrature oracle.

    atol=1e-9 covers the one grid point (equator, 1592 cycles) whose
    var(alpha) ~ 7e-4 sits below the roundoff floor of the doubling
    estimate; the achieved agreement there is still ~8e-12.
    """
    t0 = time.perf_counter()
    worst_gamma = 0.0
    worst_alpha = 0.0
    for point in regime_grid():
        nodes = max(4096, 64 * point.spec.n_cycles)
        w_gamma = geometric_weight(point.spec)
        w_alpha = w_gamma + dynamical_weight(point.spec)
        quad_gamma = variance_by_quadrature(
            point.spec, w_gamma, point.model, nodes, rtol=1e-8, atol=1e-9
        )
        quad_alpha = variance_by_quadrature(
            point.spec, w_alpha, point.model, nodes, rtol=1e-8, atol=1e-9
        )
        moments = phase_moments(point.spec, point.model)
        closed_gamma = moments.var_gamma
        closed_alpha = moments.var_alpha
        worst_gamma = max(
            worst_gamma, abs(quad_gamma.value - closed_gamma) / closed_gamma
        )
        worst_alpha = max(
            worst_alpha, abs(quad_alpha.value - closed_alpha) / closed_alpha
        )
    elapsed = time.perf_counter() - t0
    ok = worst_gamma <= 1e-6 and worst_alpha <= 1e-6 and elapsed < 10.0
    _report(
        capsys,
        2,
        "closed_form_matches_quadrature",
        ok,
        f"27 points, worst rel diff gamma {worst_gamma:.2e}, alpha {worst_alpha:.2e} "
        f"<= 1e-6, {elapsed:.2f}s < 10s",
    )
    assert ok


def test_03_limit_formulas(capsys):
    """Broadband and narrowband limits approximate the closed form to 5%.

    The drive needs an integer cycle count, so the bandwidth ratio is
    realized at the nearest admissible point: gamma*T is exact (1e3 and
    1e-2), gamma/omega lands at 159 and 1.6e-3 instead of 1e3 and 1e-2,
    deeper into each regime's validity for the narrow side and still
    well inside it for the broad side.
    """
    spec = PrecessionSpec(b0=1.0, theta0=math.pi / 4, t_total=200.0, n_cycles=1)

    broad_model = NoiseModel.from_scalars(0.05, 5.0, 0.05, 5.0)
    broad_closed = phase_moments(spec, broad_model).var_gamma
    broad_limit = berry_phase_variance_broadband(spec, broad_model)
    broad_rel = abs(broad_limit - broad_closed) / broad_closed

    narrow_model = NoiseModel.from_scalars(0.05, 5e-5, 0.05, 5e-5)
    narrow_closed = phase_moments(spec, narrow_model).var_gamma
    narrow_limit = berry_phase_variance_narrowband(spec, narrow_model)
    narrow_rel = abs(narrow_limit - narrow_closed) / narrow_closed

    ok = broad_rel <= 0.05 and narrow_rel <= 0.05
    _report(
        capsys,
        3,
        "limit_formulas",
        ok,
        f"broadband rel {broad_rel:.2e} at gamma*T=1e3, "
        f"narrowband rel {narrow_rel:.2e} at gamma*T=1e-2, both <= 0.05",
    )
    assert ok


def test_04_monte_carlo_matches_closed_forms(capsys):
    """Sample moments of 10^4 first-order trials agree with the formulas."""
    records, elapsed = _reference_ensemble()
    stats = summarize(records)

    moments = phase_moments(REF_SPEC, REF_MODEL)
    targets = {
        "gamma_fo": moments.var_gamma,
        "delta_fo": moments.var_delta,
        "alpha_fo": moments.var_alpha,
    }
    z_var = {
        key: abs(stats.variance[key] - target) / stats.sem_variance[key]
        for key, target in targets.items()
    }
    cov_oracle = covariance_by_quadrature(
        REF_SPEC, geometric_weight(REF_SPEC), dynamical_weight(REF_SPEC), REF_MODEL
    ).value
    z_cov = abs(stats.cov_gamma_delta - cov_oracle) / stats.se_cov_gamma_delta
    significance = abs(stats.cov_gamma_delta) / stats.se_cov_gamma_delta

    worst_z = max(max(z_var.values()), z_cov)
    ok = worst_z <= 3.0 and significance > 3.0 and elapsed < 60.0
    _report(
        capsys,
        4,
        "monte_carlo_matches_closed_forms",
        ok,
        f"n=10^4, worst |z| {worst_z:.2f} <= 3, cov significance "
        f"{significance:.1f} > 3, ensemble {elapsed:.1f}s < 60s",
    )
    assert ok


def test_05_scaling_laws(capsys):
    """Broadband log-log slopes: var(gamma) ~ 1/T and var(delta) ~ T."""
    model = NoiseModel.from_scalars(0.05, 1.0, 0.05, 1.0)
    t_values = np.array([128.0, 256.0, 512.0, 1024.0])
    var_gamma = []
    var_delta = []
    for t_total in t_values:
        # n_cycles = T keeps omega = 2*pi fixed while gamma*T grows
        spec = PrecessionSpec(
            b0=1.0, theta0=math.pi / 4, t_total=float(t_total), n_cycles=int(t_total)
        )
        moments = phase_moments(spec, model)
        var_gamma.append(moments.var_gamma)
        var_delta.append(moments.var_delta)
    slope_gamma = float(np.polyfit(np.log(t_values), np.log(var_gamma), 1)[0])
    slope_delta = float(np.polyfit(np.log(t_values), np.log(var_delta), 1)[0])
    ok = abs(slope_gamma + 1.0) <= 0.02 and abs(slope_delta - 1.0) <= 0.02
    _report(
        capsys,
        5,
        "scaling_laws",
        ok,
        f"gamma*T in [128, 1024]: slope var(gamma) {slope_gamma:+.4f} (want -1 +/- 0.02), "
        f"slope var(delta) {slope_delta:+.4f} (want +1 +/- 0.02)",
    )
    assert ok


def test_06_dephasing(capsys):
    """Ensemble coherence matches exp(-2 var(alpha)); rho is physical."""
    records, _ = _reference_ensemble()
    var_alpha = phase_moments(REF_SPEC, REF_MODEL).var_alpha
    estimate = coherence(records, var_alpha)

    rng = np.random.default_rng(2026)
    worst_herm = 0.0
    worst_trace = 0.0
    min_eig = np.inf
    for _ in range(100):
        amps = rng.standard_normal(4)
        a = complex(amps[0], amps[1])
        b = complex(amps[2], amps[3])
        norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
        rho = density_matrix_after(
            a / norm, b / norm, rng.uniform(-math.pi, math.pi), rng.uniform(0.0, 5.0)
        )
        worst_herm = max(worst_herm, float(np.max(np.abs(rho - rho.conj().T))))
        worst_trace = max(worst_trace, abs(float(np.trace(rho).real) - 1.0))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(rho).min()))

    ok = (
        abs(estimate.z_score) <= 3.0
        and worst_herm < 1e-12
        and worst_trace < 1e-12
        and min_eig > -1e-12
    )
    _report(
        capsys,
        6,
        "dephasing",
        ok,
        f"coherence {estimate.measured:.4f} vs {estimate.predicted:.4f} "
        f"(|z| {abs(estimate.z_score):.2f} <= 3), 100 density matrices: "
        f"hermiticity {worst_herm:.1e}, trace err {worst_trace:.1e}, "
        f"min eigenvalue {min_eig:+.1e}",
    )
    assert ok
    assert estimate.predicted == pytest.approx(dephasing_factor(var_alpha))


def test_07_gaussianity(capsys):
    """First-order geometric-phase deviations stay Gaussian on the grid."""
    t0 = time.perf_counter()
    worst_skew = 0.0
    worst_kurt = 0.0
    for i, point in enumerate(regime_grid()):
        config = IntegratorConfig(
            steps_per_cycle=max(16, 2048 // point.spec.n_cycles)
        )
        records = run_ensemble(
            point.spec, point.model, 10_000, 1000 + i, mode="first_order", config=config
        )
        stats = summarize(records)
        worst_skew = max(
            worst_skew, abs(stats.skewness["gamma_fo"]) / stats.se_skewness
        )
        worst_kurt = max(
            worst_kurt, abs(stats.excess_kurtosis["gamma_fo"]) / stats.se_kurtosis
        )
    elapsed = time.perf_counter() - t0
    ok = worst_skew <= 4.0 and worst_kurt <= 4.0
    _report(
        capsys,
        7,
        "gaussianity",
        ok,
        f"27 points x 10^4 trials: worst |skew|/se {worst_skew:.2f}, "
        f"worst |kurt|/se {worst_kurt:.2f}, both <= 4, {elapsed:.0f}s",
    )
    assert ok


def test_08_first_order_regime(capsys):
    """Halving the noise scale shrinks the first-order residual >= 3.5x.

    Working point staged for a clean quadratic residual: slow drive
    (b0/omega = 100) keeps the linear response adiabatic, and a narrow
    bandwidth (gamma = 0.005) keeps spectral weight at the level
    splitting, and with it the stochastic leakage contamination, small.
    Staged ratio 4.5 at seed 7; >= 4.0 across eight scanned seeds.
    """
    spec = PrecessionSpec(
        b0=1.0, theta0=math.pi / 4, t_total=200.0 * math.pi, n_cycles=1
    )
    config = IntegratorConfig(steps_per_cycle=4096)
    zero = NoiseModel.from_scalars(0.0, 0.005, 0.0, 0.005)
    baseline = run_ensemble(spec, zero, 1, 7, mode="full_sim", config=config)[
        0
    ].gamma_sim

    residual = {}
    for sigma in (0.02, 0.04):
        model = NoiseModel.from_scalars(sigma, 0.005, sigma, 0.005)
        records = run_ensemble(spec, model, 32, 7, mode="full_sim", config=config)
        residual[sigma] = float(
            np.mean([abs(r.gamma_sim - baseline - r.gamma_fo) for r in records])
        )
    ratio = residual[0.04] / residual[0.02]
    ok = ratio >= 3.5
    _report(
        capsys,
        8,
        "first_order_regime",
        ok,
        f"mean |residual| {residual[0.04]:.2e} at sigma=0.04 vs "
        f"{residual[0.02]:.2e} at sigma=0.02, ratio {ratio:.2f} >= 3.5",
    )
    assert ok


def test_09_dynamical_dominance(capsys):
    """Dynamical terms dominate var(alpha) wherever the drive is slow."""
    qualifying = 0
    min_ratio = np.inf
    for point in regime_grid():
        if point.spec.omega / point.spec.b0 > 0.05:
            continue
        qualifying += 1
        moments = phase_moments(point.spec, point.model)
        min_ratio = min(min_ratio, moments.var_delta / moments.var_gamma)
    ok = qualifying > 0 and min_ratio > 1.0
    _report(
        capsys,
        9,
        "dynamical_dominance",
        ok,
        f"{qualifying} grid points with omega/b0 <= 0.05, "
        f"min dynamical/geometric ratio {min_ratio:.2f} > 1",
    )
    assert ok


def test_10_cli_determinism(capsys, tmp_path):
    """Fixed-seed mc runs are byte-identical."""
    common = ["mc", "--quiet", "--n-trials", "1000", "--steps-per-cycle", "512",
              "--seed", "7"]
    codes = [
        main(common + ["--output-path", str(tmp_path / "a")]),
        main(common + ["--output-path", str(tmp_path / "b")]),
    ]
    first = (tmp_path / "a.records.csv").read_bytes()
    rerun_same = (tmp_path / "b.records.csv").read_bytes() == first
    ok = codes == [0, 0] and rerun_same
    _report(
        capsys,
        10,
        "cli_determinism",
        ok,
        f"exit codes {codes}, rerun identical={rerun_same}, {len(first)} bytes",
    )
    assert ok

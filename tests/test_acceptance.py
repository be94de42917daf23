"""Acceptance battery: ten end-to-end checks of the whole package.

Each test prints one ``ACCEPTANCE NN name: PASS/FAIL (...)`` line through
the capture-disabled stream, so a plain ``pytest -v`` run leaves a
readable protocol in the terminal log.  Tolerances sit next to each
assertion; frozen working points are listed with the staging results
that motivated them.  The 27-point regime grid that several checks run
on is built here (``regime_grid``) and tested in ``TestRegimeGrid``.
"""

import functools
import json
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from berrysim import (
    Grid,
    IntegratorConfig,
    NoiseModel,
    PrecessionSpec,
    berry_phase_variance_broadband,
    berry_phase_variance_narrowband,
    connection_phase_discrete,
    dephasing_factor,
    dynamical_weight,
    evolve_and_extract,
    geometric_weight,
    noiseless_berry_phase,
    phase_moments,
    run_ensemble,
    second_moments,
    summarize,
)
from berrysim import montecarlo
from berrysim.cli import main
from test_analytics import _oracle, density_matrix_after
from test_montecarlo import _reference_coherence, _reference_law_records


REF_SPEC = PrecessionSpec(b0=1.0, theta0=math.pi / 4, t_total=100.0, n_cycles=1)
REF_MODEL = NoiseModel.from_scalars(0.05, 0.1, 0.05, 0.1)

# slow drive, b0/omega = 200, used by the noiseless and first-order checks
ADIABATIC_T = 400.0 * math.pi


@dataclass(frozen=True)
class GridPoint:
    """One realized point of the bandwidth/adiabaticity regime grid."""

    spec: PrecessionSpec
    model: NoiseModel
    theta0: float
    gamma_t_target: float
    ratio_target: float
    gamma_t: float
    ratio: float


def regime_grid(
    theta0_values: tuple = (math.pi / 6, math.pi / 4, math.pi / 2),
    gamma_t_values: tuple = (0.01, 1.0, 100.0),
    ratio_values: tuple = (0.01, 1.0, 100.0),
    *,
    b0: float = 1.0,
    t_total: float = 200.0,
    sigma_over_b0: float = 0.05,
) -> tuple[GridPoint, ...]:
    """Realize a grid of (theta0, gamma*T, gamma/omega) working points.

    The drive must close (omega*T = 2*pi*n_cycles with integer
    n_cycles), so the bandwidth-to-drive ratio is realized as
    ``gamma*T / (2*pi*n_cycles)`` with ``n_cycles`` rounded to the
    nearest positive integer.  Corners whose target ratio would need
    n_cycles < 1 realize at the n_cycles = 1 boundary.
    """
    points = []
    for theta0 in theta0_values:
        for gamma_t in gamma_t_values:
            gamma = gamma_t / t_total
            model = NoiseModel.from_scalars(
                sigma_over_b0 * b0, gamma, sigma_over_b0 * b0, gamma
            )
            for ratio in ratio_values:
                n_cycles = max(1, round(gamma_t / (2.0 * math.pi * ratio)))
                spec = PrecessionSpec(
                    b0=b0, theta0=theta0, t_total=t_total, n_cycles=n_cycles
                )
                points.append(
                    GridPoint(
                        spec=spec,
                        model=model,
                        theta0=theta0,
                        gamma_t_target=gamma_t,
                        ratio_target=ratio,
                        gamma_t=gamma * t_total,
                        ratio=gamma / spec.omega,
                    )
                )
    return tuple(points)


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
        chain = connection_phase_discrete(result.b_nodes)
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


def test_02_closed_form_matches_quadrature(capsys, tmp_path):
    """``analytic`` resolves var(gamma) and var(alpha) at every grid point.

    Each point runs through the CLI, so the oracle runs as users see it:
    the CLI's starting grid, rtol=1e-8 and no absolute tolerance.  Every
    point must exit 0 and write ``rel_diff_closed`` <= 1e-8 for both
    variances, including theta0 = pi/2 with 1592 cycles at gamma*T = 100,
    whose var(alpha) the one-level doubling estimate cannot resolve
    within 2**21 nodes.
    """
    t0 = time.perf_counter()
    grid = regime_grid()
    assert any(point.spec.n_cycles == 1592 and point.theta0 == math.pi / 2 for point in grid)
    codes = []
    worst = {"var_gamma": 0.0, "var_alpha": 0.0}
    for i, point in enumerate(grid):
        spec, model = point.spec, point.model
        base = tmp_path / f"point{i:02d}"
        argv = [
            "analytic", "--quiet", "-o", str(base),
            "--b0", repr(spec.b0), "--theta0", repr(spec.theta0),
            "--t-total", repr(spec.t_total), "--n-cycles", str(spec.n_cycles),
            "--sigma12", repr(model.transverse.sigma), "--gamma12", repr(model.transverse.gamma),
            "--sigma3", repr(model.longitudinal.sigma), "--gamma3", repr(model.longitudinal.gamma),
        ]
        codes.append(main(argv))
        if codes[-1] != 0:
            continue
        quadrature = json.loads(base.with_suffix(".analytic.json").read_text())["quadrature"]
        for key in worst:
            worst[key] = max(worst[key], quadrature[key]["rel_diff_closed"])
    elapsed = time.perf_counter() - t0
    failed = sum(code != 0 for code in codes)
    ok = failed == 0 and max(worst.values()) <= 1e-8 and elapsed < 10.0
    _report(
        capsys,
        2,
        "closed_form_matches_quadrature",
        ok,
        f"{len(grid)} points, {failed} nonzero exits, worst rel diff gamma "
        f"{worst['var_gamma']:.2e}, alpha {worst['var_alpha']:.2e} <= 1e-8, "
        f"{elapsed:.2f}s < 10s",
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
    broad_closed = phase_moments(spec, broad_model)["var_gamma"]
    broad_limit = berry_phase_variance_broadband(spec, broad_model)
    broad_rel = abs(broad_limit - broad_closed) / broad_closed

    narrow_model = NoiseModel.from_scalars(0.05, 5e-5, 0.05, 5e-5)
    narrow_closed = phase_moments(spec, narrow_model)["var_gamma"]
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
        "gamma_fo": moments["var_gamma"],
        "delta_fo": moments["var_delta"],
        "alpha_fo": moments["var_alpha"],
    }
    z_var = {
        key: abs(stats["variance"][key] - target) / stats["sem_variance"][key]
        for key, target in targets.items()
    }
    cov_oracle = _oracle(
        REF_SPEC, geometric_weight(REF_SPEC), dynamical_weight(REF_SPEC), REF_MODEL, 4096, 1e-9
    ).value
    z_cov = abs(stats["cov_gamma_delta"] - cov_oracle) / stats["se_cov_gamma_delta"]
    significance = abs(stats["cov_gamma_delta"]) / stats["se_cov_gamma_delta"]

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
        # one slow turn, the paper's setting: gamma*T grows while the
        # geometric weight's amplitude pi/(T*b0) falls
        spec = PrecessionSpec(b0=1.0, theta0=math.pi / 4, t_total=float(t_total), n_cycles=1)
        moments = phase_moments(spec, model)
        var_gamma.append(moments["var_gamma"])
        var_delta.append(moments["var_delta"])
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
    """Ensemble coherence matches exp(-2 var(alpha)); rho is physical.

    The coherence |<exp(2i alpha)>| of the 10^4 reference trials, with a
    jackknife standard error, must lie within 3 standard errors of the
    Gaussian prediction exp(-2 var(alpha)).
    """
    records, _ = _reference_ensemble()
    var_alpha = phase_moments(REF_SPEC, REF_MODEL)["var_alpha"]
    estimate = _reference_coherence(records.alpha_fo, var_alpha)

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


def test_07_first_order_law(capsys):
    """First-order trials are L z exactly, and L L^T = A A^T is the closed-form covariance.

    The first-order deviations are (gamma_fo, delta_fo) = A xi, with the
    ensemble's (2, 3(n+1)) adjoint matrix A and iid standard-normal
    innovations xi, so their law is exactly N(0, C) with C = A A^T.  A
    first_order ensemble samples that law as L z with L L^T = C; its
    trials must equal the reference copy of that stream bitwise.
    The trapezoid weights make C(n) converge to the closed form as dt^2,
    so (4/3)|C(n) - C(2n)| estimates its error; C(n) must lie within twice
    that estimate, plus a 1e-12 relative floor, on the whole regime grid.
    That bound also passes an O(dt) defect, such as a wrong end-node
    weight, so the convergence order is checked too: wherever
    |C(2n) - C(4n)| is above roundoff (1e-11 sqrt(c_ii c_jj)), the ratio
    |C(n) - C(2n)| / |C(2n) - C(4n)| must be at least 3 (second order or
    faster), and on the diagonal, whose leading error is the dt^2 term,
    at most 5.  The covariance converges as dt^4 at some points (ratio
    near 16), so only the variances are held to second order.
    """
    t0 = time.perf_counter()
    worst = 0.0
    orders = []
    exact = True
    for i, point in enumerate(regime_grid()):
        spec, model = point.spec, point.model
        steps_per_cycle = max(16, 2048 // spec.n_cycles)
        n_steps = steps_per_cycle * spec.n_cycles
        adjoint, fine, finest = (
            montecarlo._adjoint_matrix(Grid(spec, k * n_steps), model) for k in (1, 2, 4)
        )
        c_n, c_2n, c_4n = (a @ a.T for a in (adjoint, fine, finest))
        m = second_moments(spec, model)
        cov = m["cov_gamma_delta"]["total"]
        closed = np.array([[m["var_gamma"]["total"], cov], [cov, m["var_delta"]["total"]]])
        scale = np.sqrt(np.outer(np.diag(closed), np.diag(closed)))
        bound = 2.0 * (4.0 / 3.0) * np.abs(c_n - c_2n) + 1e-12 * scale
        worst = max(worst, float(np.max(np.abs(c_n - closed) / bound)))
        finer = np.abs(c_2n - c_4n)
        above = finer > 1e-11 * scale
        ratio = np.abs(c_n - c_2n)[above] / finer[above]
        ceiling = np.where(np.eye(2, dtype=bool), 5.0, np.inf)[above]
        orders.extend(zip(ratio.tolist(), ceiling.tolist()))

        seed = 1000 + i
        ensemble = run_ensemble(
            spec, model, 3, seed, config=IntegratorConfig(steps_per_cycle=steps_per_cycle)
        )
        got = np.stack([ensemble.gamma_fo, ensemble.delta_fo], axis=1)
        want = _reference_law_records(adjoint, 3, seed)
        exact = exact and [v.hex() for v in got.flat] == [v.hex() for v in want.flat]
    elapsed = time.perf_counter() - t0
    diagonal = [r for r, ceiling in orders if ceiling == 5.0]
    in_order = all(3.0 <= r <= ceiling for r, ceiling in orders)
    ok = worst <= 1.0 and exact and in_order and len(diagonal) == 54
    _report(
        capsys,
        7,
        "first_order_law",
        ok,
        f"27 points: |A A^T - closed| at most {worst:.2f} of twice the doubling estimate, "
        f"doubling ratios of the variances in [{min(diagonal):.2f}, {max(diagonal):.2f}], "
        f"{len(orders)} ratios >= 3: {in_order}, first trials equal L z bitwise: {exact}, "
        f"{elapsed:.2f}s",
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
    baseline = run_ensemble(spec, zero, 1, 7, mode="full_sim", config=config).gamma_sim[0]

    residual = {}
    for sigma in (0.02, 0.04):
        model = NoiseModel.from_scalars(sigma, 0.005, sigma, 0.005)
        ensemble = run_ensemble(spec, model, 32, 7, mode="full_sim", config=config)
        residual[sigma] = float(
            np.mean(np.abs(ensemble.gamma_sim - baseline - ensemble.gamma_fo))
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
        min_ratio = min(min_ratio, moments["var_delta"] / moments["var_gamma"])
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

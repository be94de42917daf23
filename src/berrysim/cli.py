"""Command-line interface.

Commands
--------
analytic   closed-form variances, limits and the quadrature cross-check
mc         Monte Carlo ensemble, summary statistics and the first-order law check
simulate   one exact evolution with trajectory and noise dumps
sweep      analytic's numbers, var_gamma's oracle only (optionally mc's law), along one parameter
compare    self-check battery: oracle equality, limits, the first-order law, scaling

Configuration is a flat ``key=value`` file; any key can be overridden
with a ``--key value`` command-line flag.

Outputs: a command computes everything before ``main`` writes, so one
that fails writes no files, nor does a failed write.  A file is the base (``-o``, by default
``berrysim_<command>``, under ``$BERRYSIM_OUTPUT_DIR`` if relative) plus
a suffix: ``.analytic.json`` or ``.analytic.csv``; mc ``.records.csv``
and sweep ``.sweep.csv``, each then ``.summary.json``; simulate
``.trajectory.csv``, ``.noise.csv``, ``.summary.json``; ``.compare.json``.
With no ``-o``, analytic writes to stdout and compare writes no file.
Progress lines go to stdout, mc's timing line to stderr; ``--quiet``
silences both.

CSV tables hold one value per cell: floats as ``%.17g`` (round-trip
exact), integers in decimal, and a missing value as an empty cell.
Tables are written together in chunks of rows, formatting a shared column
once, so the writer's memory does not grow with their length.  Float cells come from
:func:`berrysim.cells.float_cells`, a numpy kernel that writes the exact
bytes of ``%.17g``: for 1e-6 < |x| < 1e17 it finds the decimal exponent
and the 17 digits with an error-free product and lays the cell out from
tables; every other value (nan, the infinities, zero, subnormals and the
rest) goes through ``"%.17g" % v`` one at a time.

Exit codes: 0 success, 1 scientific check failed, 2 usage or
configuration error, 3 numerical accuracy failure.  The scientific check
of ``mc`` and the ``first_order_law`` line of ``compare`` are
:func:`~berrysim.montecarlo.check_law`, which reads no record, so their
verdict does not depend on the seed.  ``sweep --with-mc`` publishes the
same law C(n) per point and draws no ensemble.  Only compare's
``first_order_vs_sim``, the median of 8 folded ``full_sim`` residuals, depends
on the seed (its measured FAIL rates are in the README).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytics
from .errors import AccuracyError, BerrysimError, _count
from .evolve import (
    _LEAKAGE_WARN_THRESHOLD,
    IntegratorConfig,
    _wrap_pm_pi,
    connection_phase_discrete,
    evolve_and_extract,
)
from .field import PrecessionSpec, adiabaticity_report
from .montecarlo import _MODES, check_law, run_ensemble, summarize
from .noise import NoiseModel, sample_path

__all__ = ["RunConfig", "config_from_file", "main"]

_FORMATS = ("json", "csv")


@dataclass
class RunConfig:
    """Flat run configuration; defaults are the reference working point."""

    b0: float = 1.0
    theta0: float = math.pi / 4
    t_total: float = 100.0
    n_cycles: int = 1
    sigma12: float = 0.05
    gamma12: float = 0.1
    sigma3: float = 0.05
    gamma3: float = 0.1
    n_trials: int = 10000
    seed: int = 42
    mode: str = "first_order"
    steps_per_cycle: int = 4096
    output_path: str | None = None
    output_format: str = "json"

    def validate(self) -> None:
        self.spec()
        self.model()
        self.integrator()
        _count("n_trials", self.n_trials, 1)
        _count("seed", self.seed, 0)
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.output_format not in _FORMATS:
            raise ValueError(
                f"output_format must be one of {_FORMATS}, got {self.output_format!r}"
            )

    def spec(self) -> PrecessionSpec:
        return PrecessionSpec(
            b0=self.b0, theta0=self.theta0, t_total=self.t_total, n_cycles=self.n_cycles
        )

    def model(self) -> NoiseModel:
        return NoiseModel.from_scalars(self.sigma12, self.gamma12, self.sigma3, self.gamma3)

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(steps_per_cycle=self.steps_per_cycle)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _coerce(key: str, raw: str):
    raw = raw.strip()
    if key == "output_path":
        return raw or None
    try:
        return type(getattr(RunConfig, key))(raw)
    except ValueError:
        raise ValueError(f"invalid value for {key!r}: {raw!r}") from None


def config_from_file(path: str | Path) -> RunConfig:
    """Parse a flat key=value config file; # comments (inline too) allowed."""
    known = {f.name for f in dataclasses.fields(RunConfig)}
    values = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, raw)
    config = RunConfig(**values)
    config.validate()
    return config


# --------------------------------------------------------------------------
# output helpers


def _json_default(obj):
    # np.float64 is a float and serialises as one; arrays and other numpy scalars land here.
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"


def _flatten(payload: dict, prefix: str = "") -> list:
    rows = []
    for key, value in payload.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            rows.extend(_flatten(value, name))
        else:
            rows.append((name, value))
    return rows


def _dump_csv_pairs(payload: dict) -> str:
    from .cells import _fmt  # cells builds its tables at import, so only this format pays

    # csv quotes a cell only when it holds a comma, a quote or a line break.
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in _flatten(payload):
        writer.writerow([key, value if isinstance(value, str) else _fmt(value)])
    return out.getvalue()


def _rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0.0 else 0.0


# --------------------------------------------------------------------------
# commands


@dataclass
class Outcome:
    """What a command computed: ``main`` writes the files, then the text.

    ``files`` maps suffixes, in the order created, to text or to a ``(header,
    columns)`` table.  The paths written are appended to ``lines[wrote_at]``.
    ``--quiet`` silences ``lines`` (stdout) and ``notes`` (stderr), not ``stdout``.
    """

    files: dict
    lines: list
    code: int = 0
    wrote_at: int = 0
    notes: tuple = ()
    stdout: str = ""


def _analytic_payload(config: RunConfig, oracle: tuple) -> dict:
    """A point's closed forms, limits and moments, and the oracle's value of each one in ``oracle``.

    ``analytic``, ``sweep`` and ``compare`` take a point's numbers from here alone.
    """
    spec = config.spec()
    model = config.model()
    variances = analytics.second_moments(spec, model)
    pairs = analytics._moment_weights(spec)
    quads = analytics._covariances_by_quadrature(spec, [pairs[key] for key in oracle], model)
    quadrature = {
        key: {
            "value": quad.value,
            "error": quad.error,
            "nodes": quad.nodes,
            "rel_diff_closed": _rel_diff(quad.value, variances[key]["total"]),
        }
        for key, quad in zip(oracle, quads)
    }
    return {
        "config": config.to_dict(),
        "omega": spec.omega,
        "variances": variances,
        "subterms": {
            "geometric": variances["var_gamma"]["total"],
            "dynamical": variances["var_delta"]["total"],
            "cross": 2.0 * variances["cov_gamma_delta"]["total"],
        },
        "limits": {
            "narrowband_var_gamma": analytics.berry_phase_variance_narrowband(spec, model),
            "broadband_var_gamma": analytics.berry_phase_variance_broadband(spec, model),
        },
        "quadrature": quadrature,
        "moments": analytics.phase_moments(spec, model),
        "dephasing_factor": analytics.dephasing_factor(variances["var_alpha"]["total"]),
        "adiabaticity": adiabaticity_report(spec, model),
    }


def cmd_analytic(config: RunConfig) -> Outcome:
    render = _dump_json if config.output_format == "json" else _dump_csv_pairs
    rendered = render(_analytic_payload(config, ("var_gamma", "var_alpha")))
    if config.output_path is None:
        return Outcome({}, [], stdout=rendered)
    return Outcome({".analytic." + config.output_format: rendered}, ["analytic:"])


def cmd_mc(config: RunConfig) -> Outcome:
    spec = config.spec()
    model = config.model()
    moments = analytics.phase_moments(spec, model)
    start = time.perf_counter()
    ensemble = run_ensemble(
        spec, model, config.n_trials, config.seed, mode=config.mode, config=config.integrator()
    )
    seconds = time.perf_counter() - start
    timing = f"mc: ensemble {seconds:.3f} s, {len(ensemble) / max(seconds, 1e-9):.1f} trials/s"
    if ensemble.processes > 1:
        timing += f", {ensemble.processes} processes"
    law = check_law(spec, model, len(ensemble), config.integrator(), ensemble.covariance)
    stats = summarize(ensemble)
    header = ["trial_index", "gamma_fo", "delta_fo", "alpha_fo", "gamma_sim", "leakage"]
    columns = [np.arange(len(ensemble)), *(getattr(ensemble, name) for name in header[1:])]
    payload = {
        "config": config.to_dict(),
        "analytic": moments,
        "empirical": stats,
        "first_order_law": law,
        "adiabaticity": adiabaticity_report(spec, model),
        "pass": not law["failures"],
    }
    lines = [f"mc: n_trials={len(ensemble)} pass={str(payload['pass']).lower()}"]
    lines += [f"mc: first_order_law failed: {failure}" for failure in law["failures"]]
    if config.mode == "full_sim":
        leakage = ensemble.leakage
        n_leaky = int(np.count_nonzero(leakage > _LEAKAGE_WARN_THRESHOLD))
        payload["full_sim"] = {
            "leakage_median": float(np.median(leakage)),
            "leakage_p95": float(np.percentile(leakage, 95.0)),
            "leakage_max": float(leakage.max()),
            "leakage_warn_threshold": _LEAKAGE_WARN_THRESHOLD,
            "n_above_leakage_warn_threshold": n_leaky,
        }
        if n_leaky:
            lines.append(f"warning: {n_leaky} of {len(ensemble)} trials have leakage above "
                         f"{_LEAKAGE_WARN_THRESHOLD:.1e}; evolution is not adiabatic")
    files = {".records.csv": (header, columns), ".summary.json": _dump_json(payload)}
    return Outcome(files, lines, 0 if payload["pass"] else 1, notes=(timing,))


def cmd_simulate(config: RunConfig, branch: str) -> Outcome:
    spec = config.spec()
    model = config.model()
    integrator = config.integrator()
    grid = integrator.grid(spec)
    noise = sample_path(model, grid.n_steps, grid.dt, config.seed)
    extraction = evolve_and_extract(spec, noise, integrator, branch=branch)
    chain_phase = connection_phase_discrete(extraction.b_nodes, branch=branch)

    times = extraction.times
    header = [
        "t",
        "b_control_x", "b_control_y", "b_control_z",
        "k_x", "k_y", "k_z",
        "re_amp_up", "im_amp_up", "re_amp_down", "im_amp_down",
        "energy", "total_phase", "dynamical_phase",
    ]
    columns = [
        times, extraction.control_nodes, noise,
        extraction.amp_up.real, extraction.amp_up.imag,
        extraction.amp_down.real, extraction.amp_down.imag,
        extraction.energy, extraction.total_phase_nodes, extraction.dynamical_phase_nodes,
    ]
    payload = {
        "config": config.to_dict(),
        "branch": branch,
        "extraction": {
            "total_phase": extraction.total_phase,
            "dynamical_phase": extraction.dynamical_phase,
            "geometric_phase": extraction.geometric_phase,
            "geometric_phase_raw": extraction.geometric_phase_raw,
            "leakage": extraction.leakage,
            "field_modulus_integral": extraction.field_modulus_integral,
            "mean_energy_integral": extraction.mean_energy_integral,
            "winding": extraction.winding,
            "degenerate_steps": extraction.degenerate_steps,
            "non_adiabatic": extraction.non_adiabatic,
        },
        "connection_chain_phase": chain_phase,
        "noncyclic_connection_term": analytics.noncyclic_connection_term(spec, noise),
        "noiseless_berry_phase": analytics.noiseless_berry_phase(spec.theta0),
        "adiabaticity": adiabaticity_report(spec, model),
    }
    lines = [
        f"simulate: geometric={extraction.geometric_phase:.6f} "
        f"dynamical={extraction.dynamical_phase:.6f} leakage={extraction.leakage:.3e} "
        f"winding={extraction.winding}"
    ]
    if extraction.non_adiabatic:
        lines.append(f"warning: leakage {extraction.leakage:.3e} exceeds "
                     f"{_LEAKAGE_WARN_THRESHOLD:.1e}; evolution is not adiabatic")
    files = {
        ".trajectory.csv": (header, columns),
        ".noise.csv": (["t", "k_1", "k_2", "k_3"], [times, noise]),
        ".summary.json": _dump_json(payload),
    }
    return Outcome(files, lines)


def _loglog_slopes(t_values: list, rows: list) -> dict:
    """Least-squares slopes of log var_gamma and log var_delta against log T.

    ``rows`` hold the variances at ``t_values``; a series with a value
    at or below zero, or over fewer than two distinct T, has no slope and
    is left out.
    """
    slopes = {}
    for key in ("var_gamma", "var_delta"):
        series = np.array([row[key] for row in rows])
        if len(set(t_values)) > 1 and np.all(series > 0.0):
            slopes[key] = float(np.polyfit(np.log(t_values), np.log(series), 1)[0])
    return slopes


def cmd_sweep(
    config: RunConfig, param: str, raw_values: str, fixed_omega: bool, with_mc: bool
) -> Outcome:
    try:
        values = [float(v) for v in raw_values.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"invalid sweep values {raw_values!r}") from None
    if not values:
        raise ValueError("sweep needs at least one value")
    if fixed_omega and param != "t_total":
        raise ValueError(f"--fixed-omega applies to t_total sweeps only, not to --param {param}")

    rows = []
    for value in values:
        overrides = {param: value}
        if fixed_omega:
            exact = config.n_cycles * value / config.t_total
            n_cycles = round(exact)
            if abs(exact - n_cycles) > 1e-9 or n_cycles < 1:
                raise ValueError(
                    f"fixed-omega sweep requires t_total {value} to keep n_cycles integral"
                )
            overrides["n_cycles"] = n_cycles
        point = dataclasses.replace(config, **overrides)
        point.validate()
        payload = _analytic_payload(point, ("var_gamma",))
        variances = payload["variances"]
        row = {
            param: value,
            "n_cycles": point.n_cycles,
            "omega": payload["omega"],
            "var_gamma_transverse": variances["var_gamma"]["transverse"],
            "var_gamma_longitudinal": variances["var_gamma"]["longitudinal"],
            **{key: moment["total"] for key, moment in variances.items()},
            **payload["limits"],
            "var_gamma_quadrature": payload["quadrature"]["var_gamma"]["value"],
        }
        if with_mc:
            law = check_law(point.spec(), point.model(), point.n_trials, point.integrator())
            for key in ("var_gamma", "var_delta", "cov_gamma_delta"):
                row["law_" + key] = law[key]["law"]
        rows.append(row)

    slopes = {}
    if param == "t_total":
        slopes = {f"loglog_slope_{k}": v for k, v in _loglog_slopes(values, rows).items()}

    header = list(rows[0].keys())
    payload = {
        "config": config.to_dict(),
        "param": param,
        "values": values,
        "fixed_omega": fixed_omega,
        "rows": rows,
        "slopes": slopes,
    }
    files = {
        ".sweep.csv": (header, [np.array([row[k] for row in rows]) for k in header]),
        ".summary.json": _dump_json(payload),
    }
    slope_note = " ".join(f"{k}={v:.4f}" for k, v in slopes.items())
    return Outcome(files, [f"sweep: {len(rows)} points over {param} {slope_note}"])


def _battery(config: RunConfig) -> list:
    """The compare battery: (name, passed, detail) triples.

    It reads the closed forms, the quadrature and the adiabaticity report
    from the analytic payload and applies mc's pass rule, the law check,
    which draws no ensemble.
    """
    checks = []
    spec = config.spec()
    model = config.model()
    payload = _analytic_payload(config, ("var_gamma", "var_alpha", "cov_gamma_delta"))
    moments = payload["moments"]
    for name, key in (("oracle_var_gamma", "var_gamma"), ("oracle_var_alpha", "var_alpha"),
                      ("oracle_cov", "cov_gamma_delta")):
        quad = payload["quadrature"][key]
        rel = quad["rel_diff_closed"]
        checks.append((name, rel <= 1e-6,
                       f"closed={moments[key]:.9e} quadrature={quad['value']:.9e} rel={rel:.2e}"))

    # Limiting forms, each evaluated in its own regime at this geometry.
    spec_1 = dataclasses.replace(config, n_cycles=1).spec()
    w_1 = analytics.geometric_weight(spec_1)
    for name, gamma_t, limit_of in (
        ("narrowband_limit", 0.01, analytics.berry_phase_variance_narrowband),
        ("broadband_limit", 1000.0, analytics.berry_phase_variance_broadband),
    ):
        gamma = gamma_t / config.t_total
        regime = NoiseModel.from_scalars(config.sigma12, gamma, config.sigma3, gamma)
        limit = limit_of(spec_1, regime)
        closed = analytics.phase_covariance(spec_1, regime, w_1, w_1)["total"]
        rel = _rel_diff(limit, closed)
        checks.append(
            (name, rel <= 0.05, f"limit={limit:.6e} closed={closed:.6e} rel={rel:.2e}")
        )

    law = check_law(spec, model, config.n_trials, config.integrator())
    detail = "; ".join(law["failures"]) or "|C - closed| within both bounds: " + ", ".join(
        f"{name} {e['error']:.2e} <= {min(e['doubling_bound'], e['sampling_bound']):.2e}"
        for name, e in law.items() if name != "failures"
    )
    checks.append(("first_order_law", not law["failures"], detail))

    if model.transverse.sigma > 0.0 or model.longitudinal.sigma > 0.0:
        # log-log slopes of the closed forms deep in the broadband regime
        base_t = max(
            config.t_total, 100.0 / model.transverse.gamma, 100.0 / model.longitudinal.gamma
        )
        t_values = [base_t, 2.0 * base_t, 4.0 * base_t, 8.0 * base_t]
        rows = []
        for t_value in t_values:
            spec_t = PrecessionSpec(config.b0, config.theta0, t_value, 1)
            variances = analytics.second_moments(spec_t, model)
            rows.append({k: m["total"] for k, m in variances.items()})
        targets = {"var_gamma": -1.0, "var_delta": 1.0}
        slopes = _loglog_slopes(t_values, rows)
        checks.append(
            ("broadband_scaling",
             all(abs(slope - targets[key]) <= 0.05 for key, slope in slopes.items()),
             " ".join(f"slope_{key}={slope:.4f} (target {targets[key]:+g})"
                      for key, slope in slopes.items()) or "no noise")
        )

    sim = run_ensemble(spec, model, 8, config.seed, mode="full_sim", config=config.integrator())
    baseline = evolve_and_extract(spec, None, config.integrator())
    # each residual is a difference of phases, so it is folded to (-pi, pi] first
    residuals = sim.gamma_sim - baseline.geometric_phase - sim.gamma_fo
    median_residual = float(np.median([abs(_wrap_pm_pi(r)) for r in residuals.tolist()]))
    checks.append(
        ("first_order_vs_sim", median_residual <= 0.1,
         f"median|gamma_sim - gamma_noiseless - gamma_fo|={median_residual:.3e} rad")
    )

    ad = payload["adiabaticity"]
    worst = max(ad["ratios"], key=lambda k: ad["ratios"][k] / ad["thresholds"][k])
    checks.append(
        ("adiabaticity", ad["passed"],
         f"worst {worst}={ad['ratios'][worst]:.3g} (threshold {ad['thresholds'][worst]:.3g})")
    )
    return checks


def cmd_compare(config: RunConfig) -> Outcome:
    checks = _battery(config)
    lines = [f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}" for name, ok, detail in checks]
    passed = all(ok for _, ok, _ in checks)
    files = {}
    if config.output_path is not None:
        rows = [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks]
        payload = {"config": config.to_dict(), "checks": rows, "pass": passed}
        files[".compare.json"] = _dump_json(payload)
        lines.append("compare:")
    lines.append("compare: all checks passed" if passed else "compare: CHECKS FAILED")
    return Outcome(files, lines, 0 if passed else 1, wrote_at=len(checks))


# --------------------------------------------------------------------------
# argument parsing and dispatch


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``main`` call; later calls share it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, metavar="FILE",
                        help="key=value config file")
    common.add_argument("--quiet", action="store_true", help="suppress progress lines")
    for field in dataclasses.fields(RunConfig):
        flag = "--" + field.name.replace("_", "-")
        if field.name == "output_path":
            common.add_argument(flag, "-o", dest=field.name, default=None,
                                help="output file base (suffixes are appended)")
        else:
            common.add_argument(flag, dest=field.name, type=type(field.default), default=None)

    parser = argparse.ArgumentParser(
        prog="berrysim",
        description="Geometric-phase statistics of a spin-1/2 under field noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("analytic", parents=[common],
                   help="closed-form variances with the quadrature cross-check")
    sub.add_parser("mc", parents=[common],
                   help="Monte Carlo ensemble and the first-order law check")
    sim = sub.add_parser("simulate", parents=[common],
                         help="one exact evolution with trajectory dump")
    sim.add_argument("--branch", choices=("up", "down"), default="up")
    sweep = sub.add_parser("sweep", parents=[common],
                           help="closed forms over one swept parameter")
    sweep.add_argument("--param", required=True,
                       choices=("t_total", "gamma12", "gamma3", "theta0"))
    sweep.add_argument("--values", required=True,
                       help="comma-separated parameter values")
    sweep.add_argument("--fixed-omega", action="store_true",
                       help="rescale n_cycles so omega stays constant (t_total sweeps)")
    sweep.add_argument("--with-mc", action="store_true",
                       help="attach the exact law C(n) of mc's first-order records per point; "
                            "draws no ensemble, so --seed and --n-trials do not change the rows")
    sub.add_parser("compare", parents=[common], help="self-check battery")
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    config = config_from_file(args.config) if args.config else RunConfig()
    for field in dataclasses.fields(RunConfig):
        override = getattr(args, field.name, None)
        if override is not None:
            setattr(config, field.name, override)
    if config.output_path == "":
        config.output_path = None
    config.validate()
    return config


# name -> (command, the names of its own options, passed after the config)
_COMMANDS = {
    "analytic": (cmd_analytic, ()),
    "mc": (cmd_mc, ()),
    "simulate": (cmd_simulate, ("branch",)),
    "sweep": (cmd_sweep, ("param", "values", "fixed_omega", "with_mc")),
    "compare": (cmd_compare, ()),
}


def _write_files(files: dict, config: RunConfig, command: str) -> list:
    """Write each file at the base plus its suffix; return the paths, deleted if a write fails."""
    # an absolute base ignores the output directory
    base = Path(os.getenv("BERRYSIM_OUTPUT_DIR", ""), config.output_path or f"berrysim_{command}")
    paths, tables = [], []
    try:
        with contextlib.ExitStack() as stack:
            for suffix, content in files.items():
                path = base.with_name(base.name + suffix)
                path.parent.mkdir(parents=True, exist_ok=True)
                out = stack.enter_context(path.open("w" if isinstance(content, str) else "wb"))
                paths.append(path)
                if isinstance(content, str):
                    out.write(content)
                else:
                    tables.append((out, *content))
            if tables:
                # imported here, so that commands which write no table never build its tables
                from .cells import write_tables

                write_tables(tables)
    except BaseException:
        for path in paths:
            path.unlink(missing_ok=True)
        raise
    return paths


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        config = _load_config(args)
        command, options = _COMMANDS[args.command]
        outcome = command(config, *(getattr(args, name) for name in options))
        paths = _write_files(outcome.files, config, args.command)
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    except (BerrysimError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(outcome.stdout)
    if not args.quiet:
        for note in outcome.notes:
            print(note, file=sys.stderr)
        if paths:
            outcome.lines[outcome.wrote_at] += " wrote " + " ".join(map(str, paths))
        for line in outcome.lines:
            print(line)
    return outcome.code


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface.

Commands
--------
analytic   closed-form variances, limits and the quadrature cross-check
mc         Monte Carlo ensemble, summary statistics and z-score gate
simulate   one exact evolution with trajectory and noise dumps
sweep      closed forms (optionally with MC) over one swept parameter
compare    self-check battery: oracle equality, limits, MC, scaling

Configuration is a flat ``key=value`` file; any key can be overridden
with a ``--key value`` command-line flag.  Relative output paths are
resolved under ``$BERRYSIM_OUTPUT_DIR`` when that variable is set.

CSV tables hold one value per cell: floats as ``%.17g`` (round-trip
exact), integers in decimal, and a missing value as an empty cell.
Tables are written in chunks of rows, so the writer's memory does not
grow with the table's length.

Exit codes: 0 success, 1 scientific check failed, 2 usage or
configuration error, 3 numerical accuracy failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
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
from .errors import AccuracyError, BerrysimError
from .evolve import (
    IntegratorConfig,
    connection_phase_discrete,
    evolve_and_extract,
)
from .field import PrecessionSpec, adiabaticity_report, control_field
from .montecarlo import (
    coherence,
    compare_to_analytic,
    run_ensemble,
    summarize,
)
from .noise import NoiseModel, sample_path

__all__ = ["RunConfig", "config_from_file", "format_config", "main"]

_MODES = ("first_order", "full_sim")
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
        if not isinstance(self.n_trials, int) or self.n_trials < 1:
            raise ValueError(f"n_trials must be a positive integer, got {self.n_trials}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
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


_INT_FIELDS = {"n_cycles", "n_trials", "seed", "steps_per_cycle"}
_STR_FIELDS = {"mode", "output_format", "output_path"}


def _coerce(key: str, raw: str):
    raw = raw.strip()
    if key == "output_path":
        return raw or None
    try:
        if key in _INT_FIELDS:
            return int(raw)
        if key in _STR_FIELDS:
            return raw
        return float(raw)
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


def format_config(config: RunConfig) -> str:
    """Render a config as the same key=value format the parser accepts."""
    lines = []
    for field in dataclasses.fields(RunConfig):
        value = getattr(config, field.name)
        lines.append(f"{field.name}={'' if value is None else value}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# output helpers


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(val) for val in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(val) for val in obj.tolist()]
    return obj


def _dump_json(payload: dict) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"


def _flatten(payload: dict, prefix: str = "") -> list:
    rows = []
    for key, value in payload.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            rows.extend(_flatten(value, name))
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    rows.extend(_flatten(item, f"{name}[{i}]"))
                else:
                    rows.append((f"{name}[{i}]", item))
        else:
            rows.append((name, value))
    return rows


def _dump_csv_pairs(payload: dict) -> str:
    # csv quotes a cell only when it holds a comma, a quote or a line break.
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in _flatten(payload):
        writer.writerow([key, value if isinstance(value, str) else _fmt(value)])
    return out.getvalue()


def _resolve_base(config: RunConfig, command: str) -> Path:
    base = Path(config.output_path) if config.output_path else Path(f"berrysim_{command}")
    out_dir = os.environ.get("BERRYSIM_OUTPUT_DIR")
    if out_dir and not base.is_absolute():
        base = Path(out_dir) / base
    if base.parent != Path("."):
        base.parent.mkdir(parents=True, exist_ok=True)
    return base


# Rows formatted per write, so the writer's memory does not grow with the table.
_CHUNK_ROWS = 4096
_CELL_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d"}


def _write_columns(path: Path, header: list, columns: list) -> None:
    """Write equal-length columns as CSV; a 2-D array adds its columns in order.

    A column of Python objects may hold None, which is written as an empty cell.
    """
    formats = []
    arrays = []
    for column in columns:
        if column is None:
            formats.append("")
            continue
        column = np.asarray(column)
        if column.dtype.kind == "O" and column.ndim == 1:
            formats.append("%s")
            arrays.append(np.array([_fmt(value) for value in column], dtype=object))
            continue
        if column.dtype.kind not in _CELL_FORMATS or column.ndim not in (1, 2):
            raise TypeError(f"cannot write a {column.dtype} column of shape {column.shape}")
        for array in column.T if column.ndim == 2 else (column,):
            formats.append(_CELL_FORMATS[column.dtype.kind])
            arrays.append(array)
    if len(formats) != len(header):
        raise ValueError(f"{len(header)} header names for {len(formats)} columns")
    lengths = {array.size for array in arrays}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    row = ",".join(formats) + "\n"
    with path.open("w") as out:
        out.write(",".join(header) + "\n")
        for start in range(0, max(lengths, default=0), _CHUNK_ROWS):
            chunk = [array[start:start + _CHUNK_ROWS].tolist() for array in arrays]
            out.writelines(row % cells for cells in zip(*chunk))


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0.0 else 0.0


def _quad_nodes(spec: PrecessionSpec) -> int:
    # Resolve the fastest weight oscillation: >= 64 nodes per drive cycle.
    return max(4096, 64 * spec.n_cycles)


# Keeps the quadrature cross-checks far below their 1e-6 agreement gate
# without stalling near the roundoff floor at extreme working points.
_QUAD_RTOL = 1e-8


# --------------------------------------------------------------------------
# commands


def _analytic_payload(config: RunConfig) -> dict:
    spec = config.spec()
    model = config.model()
    variances = analytics.second_moments(spec, model)
    w_gamma = analytics.geometric_weight(spec)
    w_alpha = w_gamma + analytics.dynamical_weight(spec)
    quadrature = {}
    for key, weight in (("var_gamma", w_gamma), ("var_alpha", w_alpha)):
        quad = analytics.variance_by_quadrature(
            spec, weight, model, _quad_nodes(spec), rtol=_QUAD_RTOL
        )
        quadrature[key] = {
            "value": quad.value,
            "error": quad.error,
            "nodes": quad.nodes,
            "rel_diff_closed": _rel_diff(quad.value, variances[key].total),
        }
    return {
        "config": config.to_dict(),
        "omega": spec.omega,
        "variances": {
            key: {"transverse": m.transverse_term, "longitudinal": m.longitudinal_term,
                  "total": m.total}
            for key, m in variances.items()
        },
        "subterms": {
            "geometric": variances["var_gamma"].total,
            "dynamical": variances["var_delta"].total,
            "cross": 2.0 * variances["cov_gamma_delta"].total,
        },
        "limits": {
            "narrowband_var_gamma": analytics.berry_phase_variance_narrowband(spec, model),
            "broadband_var_gamma": analytics.berry_phase_variance_broadband(spec, model),
        },
        "quadrature": quadrature,
        "moments": dataclasses.asdict(analytics.phase_moments(spec, model)),
        "dephasing_factor": analytics.dephasing_factor(variances["var_alpha"].total),
        "adiabaticity": adiabaticity_report(spec, model).to_dict(),
    }


def cmd_analytic(config: RunConfig, quiet: bool) -> int:
    payload = _analytic_payload(config)
    rendered = (
        _dump_json(payload) if config.output_format == "json" else _dump_csv_pairs(payload)
    )
    if config.output_path is None:
        sys.stdout.write(rendered)
    else:
        target = _resolve_base(config, "analytic")
        path = target.with_name(target.name + ".analytic." + config.output_format)
        path.write_text(rendered)
        _say(quiet, f"analytic: wrote {path}")
    return 0


def _records_table(records) -> dict:
    """Record fields as named columns; a field no trial filled is ``None``."""
    table = {}
    for name in ("trial_index", "gamma_fo", "delta_fo", "alpha_fo", "gamma_sim", "leakage"):
        values = [getattr(r, name) for r in records]
        table[name] = None if values[0] is None else np.array(values)
    return table


def _mc_gate(records: list, moments: analytics.PhaseMoments) -> tuple:
    """The mc pass rule: returns (stats, report, coherence, passed).

    Every moment z-score, and from 100 records on the coherence z-score,
    must lie within the report's threshold.
    """
    stats = summarize(records)
    report = compare_to_analytic(stats, moments)
    coh = coherence(records, moments.var_alpha) if len(records) >= 100 else None
    passed = report.passed and (coh is None or abs(coh.z_score) <= report.threshold)
    return stats, report, coh, passed


def cmd_mc(config: RunConfig, quiet: bool, tamper_variance_scale: float | None) -> int:
    spec = config.spec()
    model = config.model()
    start = time.perf_counter()
    records = run_ensemble(
        spec, model, config.n_trials, config.seed, mode=config.mode, config=config.integrator()
    )
    seconds = time.perf_counter() - start
    if not quiet:
        print(f"mc: ensemble {seconds:.3f} s, {len(records) / max(seconds, 1e-9):.1f} trials/s",
              file=sys.stderr)
    moments = analytics.phase_moments(spec, model)
    if tamper_variance_scale is not None:
        # Deliberately corrupted targets; used to exercise the failure path.
        moments = dataclasses.replace(moments, **{
            key: getattr(moments, key) * tamper_variance_scale
            for key in ("var_gamma", "var_delta", "var_alpha", "cov_gamma_delta")
        })
    stats, report, coh, passed = _mc_gate(records, moments)

    base = _resolve_base(config, "mc")
    records_path = base.with_name(base.name + ".records.csv")
    summary_path = base.with_name(base.name + ".summary.json")
    table = _records_table(records)
    _write_columns(records_path, list(table), list(table.values()))
    payload = {
        "config": config.to_dict(),
        "analytic": dataclasses.asdict(moments),
        "empirical": dataclasses.asdict(stats),
        "z_scores": report.z_scores,
        "z_threshold": report.threshold,
        "coherence": None if coh is None else dataclasses.asdict(coh),
        "adiabaticity": adiabaticity_report(spec, model).to_dict(),
        "pass": passed,
    }
    n_leaky = 0
    if config.mode == "full_sim":
        threshold = config.integrator().leakage_warn_threshold
        leakage = table["leakage"]
        n_leaky = int(np.count_nonzero(leakage > threshold))
        payload["full_sim"] = {
            "leakage_median": float(np.median(leakage)),
            "leakage_p95": float(np.percentile(leakage, 95.0)),
            "leakage_max": float(leakage.max()),
            "leakage_warn_threshold": threshold,
            "n_above_leakage_warn_threshold": n_leaky,
        }
    summary_path.write_text(_dump_json(payload))
    max_z = max(abs(z) for z in report.z_scores.values())
    _say(
        quiet,
        f"mc: n_trials={stats.n_trials} max|z|={max_z:.3f} "
        f"pass={str(passed).lower()} wrote {records_path} {summary_path}",
    )
    if n_leaky:
        _say(quiet, f"warning: {n_leaky} of {stats.n_trials} trials have leakage above "
                    f"{threshold:.1e}; evolution is not adiabatic")
    return 0 if passed else 1


def cmd_simulate(config: RunConfig, quiet: bool, branch: str) -> int:
    spec = config.spec()
    model = config.model()
    integrator = config.integrator()
    n_steps = integrator.steps_per_cycle * spec.n_cycles
    dt = spec.t_total / n_steps
    path = sample_path(model, n_steps, dt, config.seed)
    extraction, trace = evolve_and_extract(
        spec, path, integrator, branch=branch, return_trace=True
    )
    chain_phase = connection_phase_discrete(spec, path, branch=branch)
    s0 = math.sin(spec.theta0)
    noncyclic = (
        analytics.noncyclic_connection_term(spec, path) if s0 >= 1e-12 else None
    )

    base = _resolve_base(config, "simulate")
    trajectory_path = base.with_name(base.name + ".trajectory.csv")
    noise_path = base.with_name(base.name + ".noise.csv")
    summary_path = base.with_name(base.name + ".summary.json")

    b_control = control_field(spec, np.minimum(trace.times, spec.t_total))
    header = [
        "t",
        "b_control_x", "b_control_y", "b_control_z",
        "k_x", "k_y", "k_z",
        "re_amp_up", "im_amp_up", "re_amp_down", "im_amp_down",
        "energy", "total_phase", "dynamical_phase",
    ]
    columns = [
        trace.times, b_control, path.samples,
        trace.amp_up.real, trace.amp_up.imag, trace.amp_down.real, trace.amp_down.imag,
        trace.energy, trace.total_phase, trace.dynamical_phase,
    ]
    _write_columns(trajectory_path, header, columns)
    _write_columns(noise_path, ["t", "k_1", "k_2", "k_3"], [path.times, path.samples])
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
        "noncyclic_connection_term": noncyclic,
        "noiseless_berry_phase": analytics.noiseless_berry_phase(spec.theta0),
        "adiabaticity": adiabaticity_report(spec, model).to_dict(),
    }
    summary_path.write_text(_dump_json(payload))
    _say(
        quiet,
        f"simulate: geometric={extraction.geometric_phase:.6f} "
        f"dynamical={extraction.dynamical_phase:.6f} leakage={extraction.leakage:.3e} "
        f"winding={extraction.winding} wrote {trajectory_path}",
    )
    if extraction.non_adiabatic:
        _say(quiet, f"warning: leakage {extraction.leakage:.3e} exceeds "
                    f"{integrator.leakage_warn_threshold:.1e}; evolution is not adiabatic")
    return 0


_SWEEPABLE = ("t_total", "gamma12", "gamma3", "theta0")


def _loglog_slopes(t_values: list, rows: list) -> dict:
    """Least-squares slopes of log var_gamma and log var_delta against log T.

    ``rows`` hold the variances at ``t_values``; a series with a value
    at or below zero has no slope and is left out.
    """
    slopes = {}
    for key in ("var_gamma", "var_delta"):
        series = np.array([row[key] for row in rows])
        if np.all(series > 0.0):
            slopes[key] = float(np.polyfit(np.log(t_values), np.log(series), 1)[0])
    return slopes


def cmd_sweep(
    config: RunConfig,
    quiet: bool,
    param: str,
    raw_values: str,
    fixed_omega: bool,
    with_mc: bool,
) -> int:
    if param not in _SWEEPABLE:
        raise ValueError(f"unsupported sweep parameter {param!r}")
    try:
        values = [float(v) for v in raw_values.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"invalid sweep values {raw_values!r}") from None
    if not values:
        raise ValueError("sweep needs at least one value")

    rows = []
    for value in values:
        overrides = {param: value}
        if fixed_omega and param == "t_total":
            exact = config.n_cycles * value / config.t_total
            n_cycles = round(exact)
            if abs(exact - n_cycles) > 1e-9 or n_cycles < 1:
                raise ValueError(
                    f"fixed-omega sweep requires t_total {value} to keep n_cycles integral"
                )
            overrides["n_cycles"] = n_cycles
        point = dataclasses.replace(config, **overrides)
        point.validate()
        spec = point.spec()
        model = point.model()
        moments = analytics.second_moments(spec, model)
        row = {
            param: value,
            "n_cycles": spec.n_cycles,
            "omega": spec.omega,
            "var_gamma_transverse": moments["var_gamma"].transverse_term,
            "var_gamma_longitudinal": moments["var_gamma"].longitudinal_term,
            **{key: moment.total for key, moment in moments.items()},
            "narrowband_var_gamma": analytics.berry_phase_variance_narrowband(spec, model),
            "broadband_var_gamma": analytics.berry_phase_variance_broadband(spec, model),
            "var_gamma_quadrature": analytics.variance_by_quadrature(
                spec, analytics.geometric_weight(spec), model, _quad_nodes(spec), rtol=1e-7
            ).value,
        }
        if with_mc:
            stats = summarize(
                run_ensemble(spec, model, point.n_trials, point.seed, config=point.integrator())
            )
            row["mc_var_gamma"] = stats.variance["gamma_fo"]
            row["mc_var_delta"] = stats.variance["delta_fo"]
            row["mc_var_alpha"] = stats.variance["alpha_fo"]
            row["mc_sem_var_gamma"] = stats.sem_variance["gamma_fo"]
        rows.append(row)

    slopes = {}
    if param == "t_total" and len(values) >= 2:
        slopes = {f"loglog_slope_{k}": v for k, v in _loglog_slopes(values, rows).items()}

    base = _resolve_base(config, "sweep")
    table_path = base.with_name(base.name + ".sweep.csv")
    summary_path = base.with_name(base.name + ".summary.json")
    header = list(rows[0].keys())
    _write_columns(table_path, header, [np.array([row[k] for row in rows]) for k in header])
    payload = {
        "config": config.to_dict(),
        "param": param,
        "values": values,
        "fixed_omega": fixed_omega,
        "rows": rows,
        "slopes": slopes,
    }
    summary_path.write_text(_dump_json(payload))
    slope_note = " ".join(f"{k}={v:.4f}" for k, v in slopes.items())
    _say(quiet, f"sweep: {len(rows)} points over {param} {slope_note} wrote {table_path}")
    return 0


def _battery(config: RunConfig) -> list:
    """The compare battery: (name, passed, detail) triples.

    It reads the closed forms, the quadrature and the adiabaticity report
    from the analytic payload and applies the mc gate to a first-order
    ensemble.
    """
    checks = []
    spec = config.spec()
    model = config.model()
    payload = _analytic_payload(config)
    moments = analytics.PhaseMoments(**payload["moments"])
    quad_cov = analytics.covariance_by_quadrature(
        spec, analytics.geometric_weight(spec), analytics.dynamical_weight(spec), model,
        _quad_nodes(spec), rtol=_QUAD_RTOL,
    )
    for name, closed, value in (
        ("oracle_var_gamma", moments.var_gamma, payload["quadrature"]["var_gamma"]["value"]),
        ("oracle_var_alpha", moments.var_alpha, payload["quadrature"]["var_alpha"]["value"]),
        ("oracle_cov", moments.cov_gamma_delta, quad_cov.value),
    ):
        rel = _rel_diff(value, closed)
        checks.append(
            (name, rel <= 1e-6, f"closed={closed:.9e} quadrature={value:.9e} rel={rel:.2e}")
        )

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
        closed = analytics.phase_covariance(spec_1, regime, w_1, w_1).total
        rel = _rel_diff(limit, closed)
        checks.append(
            (name, rel <= 0.05, f"limit={limit:.6e} closed={closed:.6e} rel={rel:.2e}")
        )

    records = run_ensemble(spec, model, config.n_trials, config.seed, config=config.integrator())
    stats, report, coh, _ = _mc_gate(records, moments)
    threshold = report.threshold
    max_z = max(abs(z) for z in report.z_scores.values())
    checks.append(("mc_moments", report.passed, f"n={stats.n_trials} max|z|={max_z:.3f}"))
    if coh is not None:
        checks.append(
            ("mc_coherence", abs(coh.z_score) <= threshold,
             f"measured={coh.measured:.6e} predicted={coh.predicted:.6e} z={coh.z_score:.3f}")
        )
    se_cov = stats.se_cov_gamma_delta
    cov_ok = abs(stats.cov_gamma_delta - moments.cov_gamma_delta) <= threshold * se_cov
    if moments.cov_gamma_delta != 0.0:
        cov_ok = cov_ok and abs(stats.cov_gamma_delta) > threshold * se_cov
    checks.append(
        ("mc_covariance", cov_ok,
         f"empirical={stats.cov_gamma_delta:.6e} closed={moments.cov_gamma_delta:.6e} "
         f"se={se_cov:.2e}")
    )

    if model.transverse.sigma > 0.0 or model.longitudinal.sigma > 0.0:
        # log-log slopes of the closed forms deep in the broadband regime
        base_t = max(
            config.t_total, 100.0 / model.transverse.gamma, 100.0 / model.longitudinal.gamma
        )
        t_values = [base_t, 2.0 * base_t, 4.0 * base_t, 8.0 * base_t]
        rows = []
        for t_value in t_values:
            spec_t = PrecessionSpec(config.b0, config.theta0, t_value, 1)
            rows.append(
                {k: m.total for k, m in analytics.second_moments(spec_t, model).items()}
            )
        targets = {"var_gamma": -1.0, "var_delta": 1.0}
        slopes = _loglog_slopes(t_values, rows)
        checks.append(
            ("broadband_scaling",
             all(abs(slope - targets[key]) <= 0.05 for key, slope in slopes.items()),
             " ".join(f"slope_{key}={slope:.4f} (target {targets[key]:+g})"
                      for key, slope in slopes.items()) or "no noise")
        )

    sim_records = run_ensemble(
        spec, model, 8, config.seed, mode="full_sim", config=config.integrator()
    )
    baseline = evolve_and_extract(spec, None, config.integrator())
    residuals = [abs(r.gamma_sim - baseline.geometric_phase - r.gamma_fo) for r in sim_records]
    median_residual = float(np.median(residuals))
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


def cmd_compare(config: RunConfig, quiet: bool) -> int:
    checks = _battery(config)
    for name, ok, detail in checks:
        _say(quiet, f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    passed = all(ok for _, ok, _ in checks)
    if config.output_path is not None:
        base = _resolve_base(config, "compare")
        path = base.with_name(base.name + ".compare.json")
        rows = [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks]
        path.write_text(_dump_json({"config": config.to_dict(), "checks": rows, "pass": passed}))
        _say(quiet, f"compare: wrote {path}")
    _say(quiet, f"compare: {'all checks passed' if passed else 'CHECKS FAILED'}")
    return 0 if passed else 1


# --------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, metavar="FILE",
                        help="key=value config file")
    common.add_argument("--quiet", action="store_true", help="suppress progress lines")
    common.add_argument("--tamper-variance-scale", type=float, default=None,
                        help=argparse.SUPPRESS)
    for field in dataclasses.fields(RunConfig):
        flag = "--" + field.name.replace("_", "-")
        if field.name == "output_path":
            common.add_argument(flag, "-o", dest=field.name, default=None,
                                help="output file base (suffixes are appended)")
        elif field.name in _INT_FIELDS:
            common.add_argument(flag, dest=field.name, type=int, default=None)
        elif field.name in _STR_FIELDS:
            common.add_argument(flag, dest=field.name, default=None)
        else:
            common.add_argument(flag, dest=field.name, type=float, default=None)

    parser = argparse.ArgumentParser(
        prog="berrysim",
        description="Geometric-phase statistics of a spin-1/2 under field noise",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("analytic", parents=[common],
                   help="closed-form variances with the quadrature cross-check")
    sub.add_parser("mc", parents=[common],
                   help="Monte Carlo ensemble and z-score comparison")
    sim = sub.add_parser("simulate", parents=[common],
                         help="one exact evolution with trajectory dump")
    sim.add_argument("--branch", choices=("up", "down"), default="up")
    sweep = sub.add_parser("sweep", parents=[common],
                           help="closed forms over one swept parameter")
    sweep.add_argument("--param", required=True, choices=_SWEEPABLE)
    sweep.add_argument("--values", required=True,
                       help="comma-separated parameter values")
    sweep.add_argument("--fixed-omega", action="store_true",
                       help="rescale n_cycles so omega stays constant (t_total sweeps)")
    sweep.add_argument("--with-mc", action="store_true",
                       help="attach Monte Carlo variances per point")
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        config = _load_config(args)
        if args.command == "analytic":
            return cmd_analytic(config, args.quiet)
        if args.command == "mc":
            return cmd_mc(config, args.quiet, args.tamper_variance_scale)
        if args.command == "simulate":
            return cmd_simulate(config, args.quiet, args.branch)
        if args.command == "sweep":
            return cmd_sweep(
                config, args.quiet, args.param, args.values,
                args.fixed_omega, args.with_mc,
            )
        if args.command == "compare":
            return cmd_compare(config, args.quiet)
        parser.print_usage(sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    except BerrysimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

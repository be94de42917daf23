#!/usr/bin/env python3
"""Benchmark of the berrysim command line, one workload per run.

Run from the repository root (a checkout of the sources; nothing needs to
be installed beyond numpy and scipy):

    python3 benchmarks/run.py --workload mc_first_order --seed 42 --seconds 18 --trace 0

Each run is one fresh serial process.  It drives the program the way its
users do, one ``berrysim.cli.main(argv)`` command at a time with the
default ``n_jobs=1``, and checks every command's outputs.  A *round* is
one pass over the workload's commands: one command, or the 27 points of
``analytic_grid``.  The measured window of ``--seconds`` opens with one
untimed warm-up round; timed rounds then repeat while the next one is
expected to end inside the window (at least three of them).

``--trace 0`` reports the end-to-end metrics, measured untraced:

  throughput   work units per round / median round wall time (units/s);
               the unit is trials, steps or grid points (see WORKLOADS)
  setup_s      median time of ``import berrysim.cli`` over fresh
               interpreters; every CLI call pays it
  peak_rss_mb  ru_maxrss of this process

Both times are scaled to a reference host speed with a calibration
kernel timed next to each of them (see ``calibration_seconds``); the
unscaled times are kept in the results file.

``failed_ratio`` (commands that exit non-zero or fail a check, over
commands attempted) is printed beside them; the last line carries the
same counts as ``failed`` and ``attempted``.  A command is one distinct
argv of the workload (one for the mc and simulate workloads, 27 for
``analytic_grid``); it counts once however many rounds repeat it, and
it has failed if any of its runs failed.  The counts therefore depend
on the seed and the program only, not on how many rounds fit in the
window.  ``correct`` is false when a command exits 0 with a wrong
output, or a repeat of a command writes a file that differs from its
first run (sha256).  A non-zero exit is a loud failure: it counts as
failed but does not make the run incorrect.

``--trace 1`` alternates untraced and traced rounds.  A traced round
rebinds the names one berrysim module takes from another (BOUNDARIES)
and records a span per call.  It reports the per-layer metrics, each per
round as the median over traced rounds (their times are not scaled),
and ``trace.overhead_ratio``, traced over untraced throughput (median
over adjacent pairs of rounds).
A boundary whose name no longer exists is skipped, and the metrics that
read only it are left out.

Results, with provenance, go to ``.bench_out/`` under the root, and the
spans of a traced run to a gzipped JSON-lines file beside them.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gzip
import hashlib
import inspect
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
from layertrace import Span, Tracer, self_times  # noqa: E402

MIN_ROUNDS = 3
SETUP_REPEATS = 3
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import berrysim.cli; "
    "print(time.perf_counter() - t)"
)
# Reference duration of the calibration kernel; see calibration_seconds.
CAL_REF_S = 0.2


def wrap_pm_pi(x: float) -> float:
    """Fold an angle to (-pi, pi]."""
    w = math.remainder(x, math.tau)
    return w + math.tau if w <= -math.pi else w


# --------------------------------------------------------------------------
# workloads

# The reference point of the paper's validation runs; every value is
# passed explicitly so a change of CLI defaults cannot change the inputs.
REFERENCE = {
    "b0": 1.0,
    "theta0": math.pi / 4,
    "t_total": 100.0,
    "n_cycles": 1,
    "sigma12": 0.05,
    "gamma12": 0.1,
    "sigma3": 0.05,
    "gamma3": 0.1,
}


def flags(values: dict) -> list[str]:
    argv = []
    for key, value in values.items():
        argv += ["--" + key.replace("_", "-"), repr(value)]
    return argv


def grid_points() -> list[dict]:
    """The 27-point regime grid, rebuilt with the rule of ``regime_grid``.

    theta0 x gamma*T x gamma/omega at T = 200, sigma = 0.05 b0.  The drive
    must close, so n_cycles = max(1, round(gamma*T / (2 pi ratio))).
    """
    t_total = 200.0
    points = []
    for theta0 in (math.pi / 6, math.pi / 4, math.pi / 2):
        for gamma_t in (0.01, 1.0, 100.0):
            gamma = gamma_t / t_total
            for ratio in (0.01, 1.0, 100.0):
                points.append({
                    "b0": 1.0,
                    "theta0": theta0,
                    "t_total": t_total,
                    "n_cycles": max(1, round(gamma_t / (2.0 * math.pi * ratio))),
                    "sigma12": 0.05,
                    "gamma12": gamma,
                    "sigma3": 0.05,
                    "gamma3": gamma,
                })
    return points


@dataclass(frozen=True)
class Command:
    tag: str              # output file base, unique within a round
    argv: list[str]
    outputs: tuple        # suffixes the command writes after the base
    check: Callable       # check(files: dict[suffix, Path]) -> reason or None


@dataclass(frozen=True)
class Workload:
    name: str
    lead: str             # the layer that leads the workload
    unit: str             # what one work unit is
    units_per_round: int
    problem: dict         # problem size, recorded with every result
    commands: Callable    # commands(seed, workdir) -> list[Command]


def read_rows(path: Path):
    with path.open(newline="") as fh:
        yield from csv.DictReader(fh)


def check_ok(files: dict) -> str | None:
    return None


def make_full_sim_check(noiseless_geometric: float) -> Callable:
    def check(files: dict) -> str | None:
        # The rule of the compare battery: the exact evolution agrees with
        # first order around the noiseless phase, in the median.
        residuals = [
            abs(wrap_pm_pi(float(r["gamma_sim"]) - noiseless_geometric - float(r["gamma_fo"])))
            for r in read_rows(files[".records.csv"])
        ]
        median = statistics.median(residuals)
        if median > 0.1:
            return f"median |gamma_sim - gamma_noiseless - gamma_fo| = {median:.3g} rad > 0.1"
        return None

    return check


def check_simulate(files: dict) -> str | None:
    worst = 0.0
    last_total = None
    for row in read_rows(files[".trajectory.csv"]):
        norm = (float(row["re_amp_up"]) ** 2 + float(row["im_amp_up"]) ** 2
                + float(row["re_amp_down"]) ** 2 + float(row["im_amp_down"]) ** 2)
        worst = max(worst, abs(norm - 1.0))
        last_total = float(row["total_phase"])
    if worst > 1e-9:
        return f"trajectory norm off by {worst:.3g} > 1e-9"
    ex = json.loads(files[".summary.json"].read_text())["extraction"]
    expected = wrap_pm_pi(ex["total_phase"] - ex["dynamical_phase"] + math.pi * ex["winding"])
    if abs(wrap_pm_pi(expected - ex["geometric_phase"])) > 1e-9:
        return "geometric_phase != wrap(total - dynamical + pi*winding)"
    if last_total != ex["total_phase"]:
        return "last trajectory total_phase differs from the summary"
    return None


def check_analytic(files: dict) -> str | None:
    quad = json.loads(files[".analytic.json"].read_text())["quadrature"]
    worst = max(quad["var_gamma"]["rel_diff_closed"], quad["var_alpha"]["rel_diff_closed"])
    if worst > 1e-6:
        return f"quadrature rel_diff_closed {worst:.3g} > 1e-6"
    return None


def mc_commands(seed: int, workdir: Path, mode: str, n_trials: int, check) -> list[Command]:
    argv = ["mc", *flags(REFERENCE), "--mode", mode, "--n-trials", str(n_trials),
            "--steps-per-cycle", "4096", "--seed", str(seed), "--quiet",
            "-o", str(workdir / "mc")]
    return [Command("mc", argv, (".records.csv", ".summary.json"), check)]


def noiseless_geometric_phase() -> float:
    from berrysim.cli import RunConfig
    from berrysim.evolve import evolve_and_extract

    config = RunConfig(**REFERENCE, steps_per_cycle=4096)
    return evolve_and_extract(config.spec(), None, config.integrator()).geometric_phase


def simulate_commands(seed: int, workdir: Path) -> list[Command]:
    argv = ["simulate", *flags(REFERENCE), "--steps-per-cycle", "65536",
            "--seed", str(seed), "--quiet", "-o", str(workdir / "sim")]
    return [Command("sim", argv, (".trajectory.csv", ".noise.csv", ".summary.json"),
                    check_simulate)]


def grid_commands(seed: int, workdir: Path) -> list[Command]:
    commands = []
    for i, point in enumerate(grid_points()):
        tag = f"grid{i:02d}"
        argv = ["analytic", *flags(point), "--seed", str(seed), "--quiet",
                "-o", str(workdir / tag)]
        commands.append(Command(tag, argv, (".analytic.json",), check_analytic))
    return commands


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_first_order", "noise", "trials", 10_000,
            {"trials": 10_000, "steps_per_trial": 4096},
            lambda seed, workdir: mc_commands(seed, workdir, "first_order", 10_000, check_ok),
        ),
        Workload(
            "mc_full_sim", "evolve", "trials", 200,
            {"trials": 200, "steps_per_trial": 4096},
            lambda seed, workdir: mc_commands(
                seed, workdir, "full_sim", 200,
                make_full_sim_check(noiseless_geometric_phase())),
        ),
        Workload(
            "simulate_long", "cli", "steps", 65_536,
            {"trials": 1, "steps_per_trial": 65_536},
            simulate_commands,
        ),
        Workload(
            "analytic_grid", "analytics", "grid points", 27,
            {"grid_points": 27},
            grid_commands,
        ),
    )
}


# --------------------------------------------------------------------------
# running commands


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Runner:
    """Runs rounds of one workload and keeps the correctness tally."""

    def __init__(self, workload: Workload, seed: int, workdir: Path) -> None:
        import berrysim.cli

        self.main = berrysim.cli.main
        self.commands = workload.commands(seed, workdir)
        self.workdir = workdir
        self.runs = 0
        self.attempted_tags: set = set()
        self.failed_tags: set = set()
        self.wrong_tags: set = set()
        self.reasons: Counter = Counter()
        self.reference: dict = {}
        self.tracebacks: list[str] = []

    def run_round(self, tracer: Tracer | None = None) -> tuple[float, int]:
        """Run every command once; return (wall seconds, bytes written)."""
        main = self.main if tracer is None else tracer.wrap("cli.main", self.main)
        seconds = 0.0
        written = 0
        for command in self.commands:
            for stale in self.workdir.glob(command.tag + ".*"):
                stale.unlink()
            if tracer is not None:
                tracer.command += 1
            stderr = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stderr(stderr):
                    code = main(list(command.argv))
            except Exception as exc:  # a crash fails this command, not the run
                code = "crash"
                stderr.write(f"{type(exc).__name__}: {exc}\n")
                self.tracebacks.append(traceback.format_exc())
            seconds += time.perf_counter() - start
            files = {p.name[len(command.tag):]: p
                     for p in self.workdir.glob(command.tag + ".*")}
            written += sum(p.stat().st_size for p in files.values())
            self._judge(command, code, stderr.getvalue(), files)
        return seconds, written

    @property
    def attempted(self) -> int:
        return len(self.attempted_tags)

    @property
    def failed(self) -> int:
        return len(self.failed_tags)

    @property
    def wrong(self) -> int:
        return len(self.wrong_tags)

    def _judge(self, command: Command, code, message: str, files: dict) -> None:
        self.runs += 1
        self.attempted_tags.add(command.tag)
        reason = None
        if code != 0:
            lines = message.strip().splitlines()
            reason = f"exit {code}" + (f": {lines[0][:160]}" if lines else "")
        else:
            missing = [s for s in command.outputs if s not in files]
            try:
                reason = f"missing outputs {missing}" if missing else command.check(files)
            except (KeyError, ValueError, OSError, csv.Error) as exc:
                reason = f"unreadable outputs: {type(exc).__name__}: {exc}"
            digests = {suffix: sha256(path) for suffix, path in sorted(files.items())}
            first_digests = self.reference.setdefault(command.tag, digests)
            if reason is None and digests != first_digests:
                reason = "output differs from the first run with this seed"
            if reason is not None:
                self.wrong_tags.add(command.tag)
        if reason is not None:
            self.failed_tags.add(command.tag)
            self.reasons[f"{command.tag}: {reason}"] += 1


# --------------------------------------------------------------------------
# layer boundaries and per-layer metrics


def _result_probe(key: str, read: Callable) -> Callable:
    """Probe factory: store ``read(result)`` under ``key``."""
    return lambda fn: lambda args, kwargs, result: (
        None if result is None else {key: read(result)})


def _evolve_probe(fn):
    signature = inspect.signature(fn)

    def probe(args, kwargs, result):
        if result is None:
            return None
        extraction = result[0] if isinstance(result, tuple) else result
        path = signature.bind(*args, **kwargs).arguments["path"]
        return {
            "steps": path.n_steps,
            "leakage": extraction.leakage,
            "non_adiabatic": bool(extraction.non_adiabatic),
        }

    return probe


def _quad_probe(fn):
    """Final grid nodes, and nodes evaluated over all doublings (computed).

    The oracle evaluates n0, 2 n0, ... up to the final grid, or up to the
    largest grid within max_nodes when it gives up.
    """
    signature = inspect.signature(fn)

    def probe(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        first = int(bound.arguments["n_nodes"])
        if result is None:
            last = first
            while 2 * last <= bound.arguments["max_nodes"]:
                last *= 2
            return {"final": 0, "evaluated": 2 * last - first}
        return {"final": result.nodes, "evaluated": 2 * result.nodes - first}

    return probe


CLOSED_FORMS = (
    "berry_phase_variance", "dynamical_phase_variance", "phase_covariance",
    "total_phase_variance", "total_phase_subterms", "berry_phase_variance_narrowband",
    "berry_phase_variance_broadband", "phase_moments", "noiseless_berry_phase",
    "dephasing_factor", "noncyclic_connection_term",
)

# (caller module, name it takes from another module, callee layer, role,
#  probe factory taking the original function, or None)
BOUNDARIES = [
    ("cli", "run_ensemble", "montecarlo", "ensemble", _result_probe("trials", len)),
    ("cli", "summarize", "montecarlo", "reduce", None),
    ("cli", "coherence", "montecarlo", "reduce", None),
    ("cli", "compare_to_analytic", "montecarlo", "reduce", None),
    ("cli", "evolve_and_extract", "evolve", "evolve", _evolve_probe),
    ("cli", "connection_phase_discrete", "evolve", "connection", None),
    ("cli", "sample_path", "noise", "sample",
     _result_probe("nodes", lambda path: path.samples.shape[0])),
    ("cli", "control_field", "field", "field", None),
    ("cli", "adiabaticity_report", "field", "field", None),
    ("montecarlo", "_sample_matrix", "noise", "sample",
     _result_probe("nodes", lambda samples: samples.shape[0])),
    ("montecarlo", "evolve_and_extract", "evolve", "evolve", _evolve_probe),
    ("montecarlo", "trial_seed", "montecarlo", "seed", None),
    ("evolve", "control_field", "field", "field", None),
    ("evolve", "polar_angles", "field", "field", None),
    ("analytics", "variance_by_quadrature", "analytics", "quad", _quad_probe),
    ("analytics", "covariance_by_quadrature", "analytics", "quad", _quad_probe),
    *(("analytics", name, "analytics", "closed", None) for name in CLOSED_FORMS),
]
ROLES = {f"{m}.{a}": (layer, role) for m, a, layer, role, _ in BOUNDARIES}
ROLES["cli.main"] = ("cli", "command")

# Per-layer metrics: the role each reads, and its unit.  A metric whose
# role has no installed boundary is reported as absent.
LAYER_METRICS = {
    "noise.calls": ("sample", "count"),
    "noise.busy_s": ("sample", "s"),
    "noise.ns_per_node": ("sample", "ns"),
    "montecarlo.trials": ("ensemble", "count"),
    "montecarlo.self_s": ("ensemble", "s"),
    "montecarlo.seed_s": ("seed", "s"),
    "montecarlo.reduce_s": ("reduce", "s"),
    "montecarlo.us_per_trial": ("ensemble", "us"),
    "evolve.calls": ("evolve", "count"),
    "evolve.steps": ("evolve", "count"),
    "evolve.busy_s": ("evolve", "s"),
    "evolve.ns_per_step": ("evolve", "ns"),
    "evolve.connection_s": ("connection", "s"),
    "evolve.non_adiabatic_ratio": ("evolve", "fraction"),
    "evolve.leakage_max": ("evolve", "probability"),
    "field.calls": ("field", "count"),
    "field.busy_s": ("field", "s"),
    "analytics.quad_calls": ("quad", "count"),
    "analytics.quad_failed": ("quad", "count"),
    "analytics.quad_busy_s": ("quad", "s"),
    "analytics.quad_nodes_final": ("quad", "count"),
    "analytics.quad_useful_ratio": ("quad", "fraction"),
    "analytics.closed_form_calls": ("closed", "count"),
    "analytics.closed_form_s": ("closed", "s"),
    "cli.commands": ("command", "count"),
    "cli.self_s": ("command", "s"),
    "cli.bytes_written": ("command", "bytes"),
    "cli.ns_per_byte": ("command", "ns"),
}


def install(tracer: Tracer) -> None:
    import berrysim.analytics
    import berrysim.cli
    import berrysim.evolve
    import berrysim.montecarlo

    modules = {"cli": berrysim.cli, "montecarlo": berrysim.montecarlo,
               "evolve": berrysim.evolve, "analytics": berrysim.analytics}
    for module_name, attr, _, _, make_probe in BOUNDARIES:
        module = modules[module_name]
        original = getattr(module, attr, None)
        probe = make_probe(original) if make_probe and original is not None else None
        tracer.patch(module, attr, probe)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans: list[Span], bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one round's spans."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    groups: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        groups[ROLES[span.name][1]].append(span)

    def info_sum(among: list[Span], key: str) -> float:
        return sum(s.info[key] for s in among if s.info)

    def own_sum(role: str) -> float:
        return sum(own[s.id] for s in groups[role])

    def top(role: str) -> list[Span]:
        # Calls made from outside the analytics layer, not nested ones.
        return [s for s in groups[role]
                if s.parent is None or ROLES[by_id[s.parent].name][0] != "analytics"]

    sample_s = own_sum("sample")
    trials = info_sum(groups["ensemble"], "trials")
    evolve = groups["evolve"]
    steps = info_sum(evolve, "steps")
    evolve_s = own_sum("evolve")
    quad = top("quad")
    closed = top("closed")
    cli_s = own_sum("command")
    return {
        "noise.calls": len(groups["sample"]),
        "noise.busy_s": sample_s,
        "noise.ns_per_node": _ratio(sample_s, info_sum(groups["sample"], "nodes"), 1e9),
        "montecarlo.trials": trials,
        "montecarlo.self_s": own_sum("ensemble"),
        "montecarlo.seed_s": own_sum("seed"),
        "montecarlo.reduce_s": own_sum("reduce"),
        "montecarlo.us_per_trial": _ratio(
            sum(s.duration for s in groups["ensemble"]), trials, 1e6),
        "evolve.calls": len(evolve),
        "evolve.steps": steps,
        "evolve.busy_s": evolve_s,
        "evolve.ns_per_step": _ratio(evolve_s, steps, 1e9),
        "evolve.connection_s": own_sum("connection"),
        "evolve.non_adiabatic_ratio": _ratio(
            sum(1 for s in evolve if s.info and s.info["non_adiabatic"]), len(evolve)),
        "evolve.leakage_max": max((s.info["leakage"] for s in evolve if s.info), default=0.0),
        "field.calls": len(groups["field"]),
        "field.busy_s": own_sum("field"),
        "analytics.quad_calls": len(quad),
        "analytics.quad_failed": sum(1 for s in quad if s.error),
        "analytics.quad_busy_s": sum(s.duration for s in quad),
        "analytics.quad_nodes_final": info_sum(quad, "final"),
        "analytics.quad_useful_ratio": _ratio(
            info_sum(quad, "final"), info_sum(quad, "evaluated")),
        "analytics.closed_form_calls": len(closed),
        "analytics.closed_form_s": sum(s.duration for s in closed),
        "cli.commands": len(groups["command"]),
        "cli.self_s": cli_s,
        "cli.bytes_written": bytes_written,
        "cli.ns_per_byte": _ratio(cli_s, bytes_written, 1e9),
    }


# --------------------------------------------------------------------------
# provenance


def _git_sha() -> str:
    # Look only at the root itself: a checkout without .git must not pick
    # up the sha of a repository that happens to enclose it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return {key: sizes.get(key) for key in ("L2", "L3")}


def provenance(workload: Workload, bytes_per_round: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache": _caches(),
        "problem_size": {**workload.problem, "bytes_written_per_round": bytes_per_round},
    }


# --------------------------------------------------------------------------
# measurement


def calibration_seconds() -> float:
    """Wall time of a fixed kernel that uses no berrysim code.

    The speed of a shared host drifts, by up to 40% over minutes in
    measurements on a 2-vCPU VM, and every workload slows down alike.
    The kernel therefore runs just before and just after each measured
    time, and the time is reported as ``time * CAL_REF_S / kernel time``
    with the mean of the two kernel times: at the reference host speed.
    The kernel mixes what the workloads do: an interpreter loop over
    complex numbers, float formatting into text, and numpy array passes.
    """
    import numpy as np

    start = time.perf_counter()
    z = 1.0 + 0.0j
    rot = complex(math.cos(1e-3), math.sin(1e-3))
    for _ in range(600_000):
        z = z * rot
    text = "\n".join(",".join("%.17g" % (i * 1e-3 + j) for j in range(8))
                     for i in range(8_000))
    x = np.linspace(0.0, 1.0 + len(text) * 1e-12, 1 << 18)
    for _ in range(12):
        x = np.sin(x) * x + np.cumsum(x) * 1e-6
    return time.perf_counter() - start


def scaled_median(seconds: list[float], kernel: list[float]) -> float:
    """Median of the times, each scaled to the reference host speed.

    ``kernel`` has one more entry than ``seconds``: the kernel times
    before the first measurement, between measurements and after the last.
    """
    return statistics.median(
        2.0 * t * CAL_REF_S / (before + after)
        for t, before, after in zip(seconds, kernel, kernel[1:])
    )


def measure_setup() -> dict:
    """Time ``import berrysim.cli`` in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples, kernel = [], [calibration_seconds()]
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
        kernel.append(calibration_seconds())
    return {"setup_s": scaled_median(samples, kernel), "setup_samples_s": samples,
            "setup_calibration_s": kernel}


def _more(deadline: float, done: int, least: int, *round_lists: list) -> bool:
    """Start another round while at least ``least`` are not done yet, or
    while one more (at its median length so far) still ends by the deadline."""
    if done < least:
        return True
    return time.perf_counter() + sum(statistics.median(r) for r in round_lists) <= deadline


def untraced(runner: Runner, workload: Workload, deadline: float) -> dict:
    rounds, kernel = [], [calibration_seconds()]
    written = 0
    while _more(deadline, len(rounds), MIN_ROUNDS, rounds):
        elapsed, written = runner.run_round()
        rounds.append(elapsed)
        kernel.append(calibration_seconds())
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "throughput": (workload.units_per_round / scaled_median(rounds, kernel), "units/s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }
    detail = {
        "round_seconds": rounds,
        "round_calibration_s": kernel,
        "throughput_unscaled": workload.units_per_round / statistics.median(rounds),
    }
    return {"metrics": metrics, "detail": detail, "bytes_per_round": written}


def traced(runner: Runner, deadline: float, spans_path: Path) -> dict:
    tracer = Tracer()
    plain_rounds, traced_rounds, per_round = [], [], []
    written = 0
    while _more(deadline, len(traced_rounds), MIN_ROUNDS - 1, plain_rounds, traced_rounds):
        plain_rounds.append(runner.run_round()[0])
        first = len(tracer.spans)
        install(tracer)
        try:
            elapsed, written = runner.run_round(tracer)
        finally:
            tracer.restore()
        traced_rounds.append(elapsed)
        per_round.append(layer_metrics(tracer.spans[first:], written))

    roles = {ROLES[name][1] for name in tracer.found} | {"command"}
    metrics = {}
    for name, (role, unit) in LAYER_METRICS.items():
        if role in roles:
            metrics[name] = (float(statistics.median(m[name] for m in per_round)), unit)
    # Each traced round runs right after an untraced one, so the ratio of
    # a pair is little affected by the host's speed drifting over the run.
    metrics["trace.overhead_ratio"] = (
        statistics.median(p / t for p, t in zip(plain_rounds, traced_rounds)), "fraction")

    with gzip.open(spans_path, "wt") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span._asdict()) + "\n")
    detail = {
        "untraced_round_seconds": plain_rounds,
        "traced_round_seconds": traced_rounds,
        "missing_boundaries": sorted(tracer.missing),
        "spans": str(spans_path.relative_to(ROOT)),
        "span_count": len(tracer.spans),
    }
    return {"metrics": metrics, "detail": detail, "bytes_per_round": written}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "berrysim" / "cli.py").is_file():
        print(f"error: no berrysim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import berrysim

    if Path(berrysim.__file__).resolve().parent != (SRC / "berrysim").resolve():
        print(f"error: imported berrysim from {berrysim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(workload, args.seed, workdir)
        if not args.trace:
            setup = measure_setup()
        # The measured window starts with an untimed warm-up round, which
        # is also the reference for the determinism check.
        deadline = time.perf_counter() + args.seconds
        runner.run_round()
        if args.trace:
            result = traced(runner, deadline,
                            OUT / f"{workload.name}-seed{args.seed}.spans.jsonl.gz")
        else:
            result = untraced(runner, workload, deadline)
            result["metrics"]["setup_s"] = (setup.pop("setup_s"), "s")
            result["detail"].update(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_ratio = runner.failed / runner.attempted
    record = {
        "workload": workload.name,
        "lead_layer": workload.lead,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "unit_of_work": workload.unit,
        "units_per_round": workload.units_per_round,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        "failed_ratio": failed_ratio,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "command_runs": runner.runs,
        "wrong_outputs": runner.wrong,
        "failure_reasons": dict(runner.reasons),
        "crash_tracebacks": runner.tracebacks,
        "provenance": provenance(workload, result["bytes_per_round"]),
        **result["detail"],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {workload.name} (led by {workload.lead}), seed {args.seed}, "
          f"{workload.units_per_round} {workload.unit} per round")
    for name, (value, unit) in result["metrics"].items():
        extra = ""
        if name == "throughput":
            extra = (f" ({workload.unit}/s at the reference host speed; unscaled "
                     f"{result['detail']['throughput_unscaled']:.6g})")
        print(f"  {name:32s} {value:.6g} {unit}{extra}")
    print(f"  {'failed_ratio':32s} {failed_ratio:.6g} fraction "
          f"({runner.failed} of {runner.attempted} commands, run {runner.runs} times)")
    for reason, count in runner.reasons.items():
        print(f"  failure x{count}: {reason}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

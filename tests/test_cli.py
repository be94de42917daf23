import contextlib
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from berrysim import AccuracyError, analytics, cells, cli, montecarlo
from berrysim.cli import RunConfig, config_from_file, main
from berrysim.evolve import evolve_and_extract
from berrysim.field import PrecessionSpec, adiabaticity_report, control_field
from berrysim.noise import NoiseModel, sample_path
from conftest import _assert_no_child_left, _open_fds
from test_analytics import _oracle, _reference_noncyclic_connection_term
from test_evolve import _reference_connection_phase_discrete
from test_montecarlo import (
    _reference_adjoint,
    _reference_law_bounds,
    _reference_run_ensemble,
    _set_workers,
    _trial_index,
)


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def format_config(config: RunConfig) -> str:
    """Render a config in the key=value format that ``config_from_file`` parses."""
    lines = []
    for field in dataclasses.fields(RunConfig):
        value = getattr(config, field.name)
        lines.append(f"{field.name}={'' if value is None else value}")
    return "\n".join(lines) + "\n"


def _reference_fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _reference_write_table(path: Path, header: list, rows: list) -> None:
    """The per-cell CSV writer the CLI used before its column writer."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_reference_fmt(v) if not isinstance(v, str) else v for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_table(path: Path, header: list, columns: list) -> None:
    with path.open("wb") as out:
        cells.write_tables([(out, header, columns)])


def _set_writers(monkeypatch, cpus):
    """Let a table of any size be written by ``cpus`` processes, one per usable CPU."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(cells, "_CELLS_PER_WORKER", 1)


class TestRunConfig:
    def test_defaults_validate(self):
        config = RunConfig()
        config.validate()
        assert config.spec().omega == pytest.approx(2.0 * math.pi / 100.0)
        assert config.model().transverse.sigma == 0.05

    @pytest.mark.parametrize(
        "field,value",
        [
            ("mode", "exact"),
            ("output_format", "xml"),
            ("n_trials", 0),
            ("seed", -1),
            ("theta0", 4.0),
            ("steps_per_cycle", 4),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        config = RunConfig()
        setattr(config, field, value)
        with pytest.raises(ValueError):
            config.validate()

    def test_n_jobs_is_not_an_option(self, tmp_path, capsys):
        # the thread pool and its knob are gone; full_sim works out its
        # process count
        assert main(["mc", "--n-jobs", "2", "-o", str(tmp_path / "run")]) == 2
        assert not list(tmp_path.iterdir())
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_jobs = 2\n")
        with pytest.raises(ValueError, match="unknown config key 'n_jobs'"):
            config_from_file(cfg)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        original = RunConfig(
            theta0=0.9,
            t_total=250.0,
            n_cycles=3,
            sigma12=0.01,
            n_trials=123,
            mode="full_sim",
            output_format="csv",
        )
        path = tmp_path / "run.cfg"
        path.write_text(format_config(original))
        loaded = config_from_file(path)
        assert loaded == original

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# reference point\n\nseed = 9\n  theta0=0.3  # inline\n")
        loaded = config_from_file(path)
        assert loaded.seed == 9
        assert loaded.theta0 == 0.3

    def test_unknown_key_mentions_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("b0 = 1.0\nwibble = 2\n")
        with pytest.raises(ValueError, match=":2: unknown config key"):
            config_from_file(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_trials = lots\n")
        with pytest.raises(ValueError):
            config_from_file(path)


class TestMainBasics:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0
        assert "berrysim" in capsys.readouterr().out

    def test_unknown_flag(self, capsys):
        assert main(["analytic", "--wibble", "1"]) == 2

    def test_invalid_parameter(self, capsys):
        assert main(["analytic", "--theta0", "9.9"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n_trials", "theta0", "seed"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_bad_value_is_a_usage_error(self, tmp_path, capsys, key, source):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = lots\n")
        flag = ["--" + key.replace("_", "-"), "lots"]
        given = flag if source == "flag" else ["--config", str(cfg)]
        assert main(["mc", *given, "-o", str(tmp_path / "run")]) == 2
        assert "lots" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["run.cfg"]

    def test_empty_output_flag_clears_the_config_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BERRYSIM_OUTPUT_DIR", str(tmp_path))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("output_path = ref\n")
        assert main(["analytic", "--config", str(cfg), "-o", ""]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["output_path"] is None
        assert [path.name for path in tmp_path.iterdir()] == ["run.cfg"]
        assert main(["analytic", "--config", str(cfg), "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert read_json(tmp_path / "ref.analytic.json")["config"]["output_path"] == "ref"


_SMALL_SIM = ["--steps-per-cycle", "256", "--seed", "4", "--quiet"]
_SMALL_SWEEP = ["sweep", "--param", "t_total", "--values", "100,200", "--n-trials", "40",
                "--steps-per-cycle", "256", "--seed", "4", "--quiet"]

# argv sequences run in one process, then the file of the last call and what it must
# hold: a later call must not see an earlier one's options
_PARSER_SEQUENCES = {
    "branch_after_down": (
        [(["simulate", "--branch", "down", *_SMALL_SIM, "-o", "first"], 0),
         (["simulate", *_SMALL_SIM, "-o", "second"], 0)],
        "second.summary.json", lambda payload: payload["branch"] == "up",
    ),
    "sweep_flags_after_both": (
        [([*_SMALL_SWEEP, "--fixed-omega", "--with-mc", "-o", "first"], 0),
         ([*_SMALL_SWEEP, "-o", "second"], 0)],
        "second.summary.json",
        lambda payload: not payload["fixed_omega"] and "law_var_gamma" not in payload["rows"][0]
        and [row["n_cycles"] for row in payload["rows"]] == [1, 1],
    ),
    "valid_after_usage_error": (
        [(["analytic", "--theta0", "north", "--quiet", "-o", "first"], 2),
         (["analytic", "--n-cycles", "3", "--quiet", "-o", "second"], 0)],
        "second.analytic.json", lambda payload: payload["config"]["n_cycles"] == 3,
    ),
}


def _fresh_main(argv: list, out_dir: Path) -> int:
    """Run one CLI call in a new interpreter, writing under ``out_dir``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, BERRYSIM_OUTPUT_DIR=str(out_dir))
    return subprocess.run([sys.executable, "-m", "berrysim", *argv],
                          capture_output=True, env=env).returncode


class TestCachedParser:
    """``main`` builds its parser once per process; every call parses afresh."""

    @pytest.mark.parametrize("name", sorted(_PARSER_SEQUENCES))
    def test_later_calls_match_a_fresh_process(self, tmp_path, monkeypatch, capsys, name):
        sequence, last_file, holds = _PARSER_SEQUENCES[name]
        monkeypatch.setenv("BERRYSIM_OUTPUT_DIR", str(tmp_path / "in_process"))
        hits = cli._build_parser.cache_info().hits
        assert [main(argv) for argv, _ in sequence] == [code for _, code in sequence]
        assert cli._build_parser.cache_info().hits >= hits + len(sequence) - 1
        assert cli._build_parser.cache_info().currsize == 1
        assert holds(read_json(tmp_path / "in_process" / last_file))
        for argv, code in sequence:
            assert _fresh_main(argv, tmp_path / "fresh") == code
        written = sorted(path.name for path in (tmp_path / "in_process").iterdir())
        assert written == sorted(path.name for path in (tmp_path / "fresh").iterdir())
        for file_name in written:
            in_process = (tmp_path / "in_process" / file_name).read_bytes()
            assert in_process == (tmp_path / "fresh" / file_name).read_bytes(), file_name

    @pytest.mark.parametrize("command", [[], ["analytic"], ["mc"], ["simulate"], ["sweep"],
                                         ["compare"]])
    def test_help_matches_a_freshly_built_parser(self, capsys, command):
        assert main(["simulate", "--branch", "sideways"]) == 2
        capsys.readouterr()
        assert main([*command, "--help"]) == 0
        cached = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli._build_parser.__wrapped__().parse_args([*command, "--help"])
        assert cached == capsys.readouterr().out
        assert "usage: berrysim" in cached


def test_cli_import_builds_no_parser():
    code = "import berrysim.cli as c; print(c._build_parser.cache_info().currsize)"
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout.strip() == "0"


@pytest.mark.parametrize(
    "args",
    [
        ["analytic"],
        ["mc", "--n-trials", "200"],
        ["simulate"],
        ["sweep", "--param", "theta0", "--values", "0.5,0.7", "--with-mc", "--n-trials", "40"],
        ["compare", "--n-trials", "1000"],
    ],
    ids=lambda args: args[0],
)
def test_quiet_run_prints_nothing(tmp_path, capsys, args):
    # benchmarks/run.py calls main in its own process and reads its own
    # JSON result from the last stdout line
    threads = threading.active_count()
    argv = args + ["--steps-per-cycle", "256", "--seed", "7", "--quiet", "-o", str(tmp_path / "q")]
    assert main(argv) == 0
    assert capsys.readouterr() == ("", "")
    assert threading.active_count() == threads
    assert list(tmp_path.iterdir())


def test_python_m_runs_the_cli(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "berrysim", "analytic", "--quiet", "-o", str(tmp_path / "ref")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "", "")
    omega = read_json(tmp_path / "ref.analytic.json")["omega"]
    assert omega == pytest.approx(2.0 * math.pi / 100.0)


def test_cli_import_leaves_scipy_out():
    # scipy serves the tests only; no CLI call pays for its import, and
    # only a command that writes a float column builds the cell tables
    code = (
        "import sys, berrysim.cli; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m == 'berrysim.cells'))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout.strip() == "[]"


def test_public_surface():
    # the package exports the union of its submodules' __all__
    import berrysim

    assert sorted(berrysim.__all__) == sorted([
        "__version__",
        "AccuracyError", "BerrysimError", "DegeneracyError", "ResolutionError",
        "NoiseModel", "OuParams", "sample_path",
        "PrecessionSpec", "adiabaticity_report", "control_field", "Grid", "polar_angles",
        "QuadratureEstimate", "Weight", "berry_phase_variance_broadband",
        "berry_phase_variance_narrowband", "covariance_by_quadrature", "dephasing_factor",
        "dynamical_weight", "geometric_weight", "noiseless_berry_phase",
        "noncyclic_connection_term", "phase_covariance", "phase_moments", "second_moments",
        "IntegratorConfig", "PhaseExtraction", "connection_phase_discrete", "evolve_and_extract",
        "Ensemble",
        "check_law", "run_ensemble", "summarize",
        "trial_seed",
    ])
    assert all(hasattr(berrysim, name) for name in berrysim.__all__)


def test_checkers_take_no_policy():
    # the oracle and the law check decide their own tolerances, grids and closed forms
    def names(function):
        return list(inspect.signature(function).parameters)

    assert names(analytics.covariance_by_quadrature) == ["spec", "weight_a", "weight_b", "model"]
    assert names(analytics._covariances_by_quadrature) == ["spec", "pairs", "model"]
    assert names(montecarlo.check_law) == ["spec", "model", "n_trials", "config", "covariance"]


class TestAnalyticCommand:
    def test_stdout_json(self, capsys):
        assert main(["analytic"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["omega"] == pytest.approx(2.0 * math.pi / 100.0)
        variances = payload["variances"]
        assert variances["var_gamma"]["total"] == pytest.approx(
            0.0019564677457055337, rel=1e-12
        )
        assert variances["var_alpha"]["total"] == pytest.approx(
            variances["var_gamma"]["total"]
            + variances["var_delta"]["total"]
            + 2.0 * variances["cov_gamma_delta"]["total"],
            rel=1e-12,
        )
        for block in payload["quadrature"].values():
            assert block["rel_diff_closed"] < 1e-8
        assert payload["moments"]["mean_gamma"] == pytest.approx(
            math.pi * math.cos(math.pi / 4)
        )
        assert payload["adiabaticity"]["passed"] is True
        assert payload["dephasing_factor"] == pytest.approx(
            math.exp(-2.0 * variances["var_alpha"]["total"])
        )
        assert payload["subterms"] == {
            "geometric": variances["var_gamma"]["total"],
            "dynamical": variances["var_delta"]["total"],
            "cross": 2.0 * variances["cov_gamma_delta"]["total"],
        }

    def test_json_file_output(self, tmp_path, capsys):
        base = tmp_path / "ref"
        assert main(["analytic", "-o", str(base), "--quiet"]) == 0
        out = read_json(tmp_path / "ref.analytic.json")
        assert out["config"]["t_total"] == 100.0
        assert capsys.readouterr().out == ""

    def test_oracle_filters_each_grid_once_per_command(self, tmp_path, monkeypatch):
        # var(gamma) and var(alpha) share one set of passes, and none of
        # them is kept for the next command
        sizes = []
        original = analytics._quadrature_pass

        def counting(spec, model, n_nodes, parts):
            sizes.append(n_nodes)
            return original(spec, model, n_nodes, parts)

        monkeypatch.setattr(analytics, "_quadrature_pass", counting)
        argv = ["analytic", "-o", str(tmp_path / "ref"), "--quiet"]
        assert main(argv) == 0
        first = list(sizes)
        quadrature = read_json(tmp_path / "ref.analytic.json")["quadrature"]
        assert first == [4096 * 2**k for k in range(len(first))]
        assert first[-1] == max(block["nodes"] for block in quadrature.values())
        sizes.clear()
        assert main(argv) == 0
        assert sizes == first

    def test_csv_output(self, tmp_path):
        base = tmp_path / "ref"
        assert main(
            ["analytic", "-o", str(base), "--output-format", "csv", "--quiet"]
        ) == 0
        lines = (tmp_path / "ref.analytic.csv").read_text().splitlines()
        assert lines[0] == "key,value"
        keys = {line.split(",", 1)[0] for line in lines[1:]}
        assert "variances.var_gamma.total" in keys

    def test_csv_quotes_string_cells(self, tmp_path):
        # a comma, a double quote and a line break in the output path
        base = tmp_path / 'a,b"c\nd'
        assert main(
            ["analytic", "-o", str(base), "--output-format", "csv", "--quiet"]
        ) == 0
        with open(str(base) + ".analytic.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 2 for row in rows)
        assert dict(rows)["config.output_path"] == str(base)

    def test_narrowband_limit_only_inside_its_range(self, tmp_path):
        # the default point has gamma3*T = 10, where the narrowband bracket
        # is negative; gamma3*T = 1 is inside the range
        for gamma3, published in (("0.1", False), ("0.01", True)):
            base = tmp_path / f"g{gamma3}"
            args = ["analytic", "--gamma3", gamma3, "--quiet", "-o", str(base)]
            assert main(args) == 0
            assert main(args + ["--output-format", "csv"]) == 0
            value = read_json(tmp_path / f"g{gamma3}.analytic.json")["limits"][
                "narrowband_var_gamma"
            ]
            with open(tmp_path / f"g{gamma3}.analytic.csv", newline="") as fh:
                cell = dict(csv.reader(fh))["limits.narrowband_var_gamma"]
            if published:
                assert value > 0.0
                assert float(cell) == value
            else:
                assert value is None
                assert cell == ""

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BERRYSIM_OUTPUT_DIR", str(tmp_path / "outputs"))
        assert main(["analytic", "-o", "ref", "--quiet"]) == 0
        assert (tmp_path / "outputs" / "ref.analytic.json").exists()


class TestMcCommand:
    ARGS = ["mc", "--n-trials", "400", "--steps-per-cycle", "512", "--seed", "7", "--quiet"]

    def test_reference_run_passes(self, tmp_path):
        base = tmp_path / "run"
        assert main(self.ARGS + ["-o", str(base)]) == 0
        summary = read_json(tmp_path / "run.summary.json")
        assert summary["pass"] is True
        assert summary["empirical"]["n_trials"] == 400
        assert "z_scores" not in summary
        law = summary["first_order_law"]
        assert law["failures"] == []
        for name in ("var_gamma", "var_delta", "cov_gamma_delta"):
            entry = law[name]
            assert entry["error"] <= min(entry["doubling_bound"], entry["sampling_bound"])
        assert "coherence" not in summary and "z_threshold" not in summary
        records = (tmp_path / "run.records.csv").read_text().splitlines()
        assert len(records) == 401
        assert records[0].startswith("trial_index,gamma_fo,delta_fo,alpha_fo")

    def test_rerun_is_byte_identical(self, tmp_path):
        base = tmp_path / "run"
        main(self.ARGS + ["-o", str(base)])
        first_records = (tmp_path / "run.records.csv").read_bytes()
        first_summary = (tmp_path / "run.summary.json").read_bytes()
        main(self.ARGS + ["-o", str(base)])
        assert (tmp_path / "run.records.csv").read_bytes() == first_records
        assert (tmp_path / "run.summary.json").read_bytes() == first_summary

    def test_ensemble_timing_goes_to_stderr(self, tmp_path, capsys):
        loud = [arg for arg in self.ARGS if arg != "--quiet"]
        assert main(loud + ["-o", str(tmp_path / "loud")]) == 0
        captured = capsys.readouterr()
        assert re.fullmatch(r"mc: ensemble \d+\.\d{3} s, \d+\.\d trials/s\n", captured.err)
        assert "trials/s" not in captured.out
        assert main(self.ARGS + ["-o", str(tmp_path / "quiet")]) == 0
        assert capsys.readouterr().err == ""
        for suffix in (".records.csv", ".summary.json"):
            loud_bytes = (tmp_path / ("loud" + suffix)).read_bytes()
            quiet_bytes = (tmp_path / ("quiet" + suffix)).read_bytes()
            if suffix == ".summary.json":
                # only the output path in the echoed config differs
                loud_bytes = loud_bytes.replace(b"loud", b"quiet")
            assert loud_bytes == quiet_bytes

    def test_split_ensemble_timing_counts_processes(self, tmp_path, monkeypatch, capsys):
        # a full_sim ensemble split over two processes says so on stderr;
        # the records and summary do not carry the count
        monkeypatch.setattr(montecarlo, "_NODES_PER_WORKER", 1)
        argv = ["mc", "--mode", "full_sim", "--n-trials", "7", "--steps-per-cycle", "256"]
        timing = r"^mc: ensemble \d+\.\d{3} s, \d+\.\d trials/s"
        for cpus, tail in ((1, "$"), (2, ", 2 processes$")):
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False
            )
            assert main(argv + ["-o", str(tmp_path / f"cpus{cpus}")]) == 0
            captured = capsys.readouterr()
            assert len(re.findall(timing + tail, captured.err, re.MULTILINE)) == 1
            assert "processes" not in captured.out
        assert (tmp_path / "cpus1.records.csv").read_bytes() == (
            tmp_path / "cpus2.records.csv"
        ).read_bytes()
        assert (tmp_path / "cpus1.summary.json").read_text().replace("cpus1", "cpus2") == (
            tmp_path / "cpus2.summary.json"
        ).read_text()

    def test_a_child_that_dies_is_a_usage_error(self, tmp_path, monkeypatch, capsys, forks):
        # a child's death is an OSError, so main names it and exits 2, the
        # code of a failure to run, not 1, the code of a failed self-check
        fds = _open_fds()
        current = _trial_index(monkeypatch)
        evolve = montecarlo._evolve
        caller = os.getpid()

        def dying_evolve(*args):
            if current[0] == 5 and os.getpid() != caller:
                os._exit(3)
            return evolve(*args)

        monkeypatch.setattr(montecarlo, "_evolve", dying_evolve)
        _set_workers(monkeypatch, 3)
        argv = ["mc", "--mode", "full_sim", "--n-trials", "7", "--steps-per-cycle", "256",
                "-o", str(tmp_path / "mc")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: the process for trials 4 to 6 exited with status 3\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []
        assert len(forks) == 2
        _assert_no_child_left(fds)

    def test_tampered_targets_fail(self, tmp_path, monkeypatch):
        phase_moments = analytics.phase_moments

        def tampered(spec, model):
            moments = phase_moments(spec, model)
            return {**moments, **{
                key: 5.0 * moments[key]
                for key in ("var_gamma", "var_delta", "var_alpha", "cov_gamma_delta")
            }}

        monkeypatch.setattr(analytics, "phase_moments", tampered)
        code = main(self.ARGS + ["-o", str(tmp_path / "bad")])
        assert code == 1
        summary = read_json(tmp_path / "bad.summary.json")
        assert summary["pass"] is False
        assert {f.split(":")[0] for f in summary["first_order_law"]["failures"]} == {
            "var_gamma", "var_delta", "cov_gamma_delta"
        }

    def test_zero_noise_agrees_exactly(self, tmp_path):
        args = [
            "mc", "--n-trials", "60", "--steps-per-cycle", "512", "--seed", "1",
            "--sigma12", "0", "--sigma3", "0", "--quiet", "-o", str(tmp_path / "tiny"),
        ]
        assert main(args) == 0
        summary = read_json(tmp_path / "tiny.summary.json")
        law = summary["first_order_law"]
        assert all(v == 0.0 for name in ("var_gamma", "var_delta", "cov_gamma_delta")
                   for v in law[name].values())

    def test_full_sim_summary_reports_leakage(self, tmp_path):
        args = [
            "mc", "--mode", "full_sim", "--n-trials", "40", "--steps-per-cycle", "512",
            "--seed", "3", "--quiet", "-o", str(tmp_path / "fs"),
        ]
        main(args)
        block = read_json(tmp_path / "fs.summary.json")["full_sim"]
        rows = (tmp_path / "fs.records.csv").read_text().splitlines()[1:]
        leakage = sorted(float(row.split(",")[-1]) for row in rows)
        assert len(leakage) == 40
        assert block["leakage_median"] == pytest.approx(0.5 * (leakage[19] + leakage[20]))
        assert leakage[37] <= block["leakage_p95"] <= leakage[38]
        assert block["leakage_max"] == leakage[-1]
        threshold = block["leakage_warn_threshold"]
        assert threshold == 1e-3
        assert block["n_above_leakage_warn_threshold"] == sum(x > threshold for x in leakage)
        # first-order summaries carry no full_sim block
        main(self.ARGS + ["-o", str(tmp_path / "fo")])
        assert "full_sim" not in read_json(tmp_path / "fo.summary.json")


    def test_full_sim_warns_on_leakage(self, tmp_path, capsys):
        # 512 steps/cycle at the reference point is not adiabatic: most
        # trials leak above the threshold, and the law check, which does
        # not read the leakage, still passes
        args = [
            "mc", "--mode", "full_sim", "--n-trials", "40", "--steps-per-cycle", "512",
            "--seed", "1", "-o", str(tmp_path / "fs"),
        ]
        assert main(args + ["--quiet"]) == 0
        assert capsys.readouterr().out == ""
        quiet_summary = (tmp_path / "fs.summary.json").read_bytes()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert (tmp_path / "fs.summary.json").read_bytes() == quiet_summary
        n_above = read_json(tmp_path / "fs.summary.json")["full_sim"][
            "n_above_leakage_warn_threshold"
        ]
        assert n_above > 0
        assert f"warning: {n_above} of 40 trials have leakage above 1.0e-03" in out


@pytest.mark.parametrize("args", [["mc"]])
def test_three_trials_are_a_usage_error(tmp_path, capsys, args):
    argv = args + ["--n-trials", "3", "--steps-per-cycle", "512", "--quiet",
                   "-o", str(tmp_path / "tiny")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: need at least four records")
    assert "Traceback" not in err


def test_compare_draws_no_first_order_ensemble(tmp_path, capsys):
    # the law check reads no record: one trial is enough, and its
    # sampling bound is infinite
    argv = ["compare", "--n-trials", "1", "--steps-per-cycle", "512", "--quiet",
            "-o", str(tmp_path / "one")]
    assert main(argv) == 0
    checks = read_json(tmp_path / "one.compare.json")["checks"]
    assert [c["name"] for c in checks if c["name"].startswith("mc_")] == []
    law = next(c for c in checks if c["name"] == "first_order_law")
    assert law["passed"] is True


# Seeds, trial counts and modes of the verdict check: (mode, steps/cycle, n_trials, seeds).
# full_sim runs 128 steps/cycle, the coarsest grid its evolution accepts at the
# reference point.
_VERDICT_RUNS = [
    ("first_order", 4096, 40, (0, 1, 2)),
    ("first_order", 4096, 1000, (0, 1, 2)),
    ("first_order", 4096, 10_000, (0, 1, 2)),
    ("full_sim", 128, 40, (0, 1, 2)),
    ("full_sim", 128, 1000, (0, 1)),
    ("full_sim", 128, 10_000, (0, 1)),
]


class _StubRun:
    geometric_phase = 0.0
    leakage = 0.0


class TestLawVerdict:
    """mc's verdict is the law check: the same for every seed, at every trial count."""

    @pytest.mark.parametrize(
        "mode,steps,n_trials,seeds", _VERDICT_RUNS,
        ids=[f"{mode}-{n}" for mode, _, n, _ in _VERDICT_RUNS],
    )
    def test_verdict_does_not_depend_on_the_seed(
        self, tmp_path, monkeypatch, mode, steps, n_trials, seeds
    ):
        if mode == "full_sim" and n_trials == 10_000:
            # the verdict reads nothing of the evolution, so 10^4 trials
            # stub it out; each still draws its noise and records A xi
            monkeypatch.setattr(montecarlo, "_evolve", lambda *args: _StubRun)
        verdicts = set()
        for seed in seeds:
            argv = ["mc", "--mode", mode, "--steps-per-cycle", str(steps),
                    "--n-trials", str(n_trials), "--seed", str(seed), "--quiet",
                    "-o", str(tmp_path / f"s{seed}")]
            code = main(argv)
            summary = read_json(tmp_path / f"s{seed}.summary.json")
            verdicts.add((code, summary["pass"], json.dumps(summary["first_order_law"])))
        assert len(verdicts) == 1
        assert next(iter(verdicts))[:2] == (0, True)

    def test_modes_share_the_law(self, tmp_path):
        blocks = []
        for mode in ("first_order", "full_sim"):
            argv = ["mc", "--mode", mode, "--steps-per-cycle", "128", "--n-trials", "40",
                    "--quiet", "-o", str(tmp_path / mode)]
            assert main(argv) == 0
            blocks.append(read_json(tmp_path / f"{mode}.summary.json")["first_order_law"])
        assert blocks[0] == blocks[1]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--sigma12", "0", "--sigma3", "0"],
            ["--theta0", "0"],
            ["--sigma12", "0"],
            ["--sigma3", "0"],
        ],
        ids=["sigma_0", "theta0_0", "sigma12_0", "sigma3_0"],
    )
    def test_singular_laws_pass(self, tmp_path, flags):
        argv = ["mc", *flags, "--n-trials", "1000", "--quiet", "-o", str(tmp_path / "edge")]
        assert main(argv) == 0
        assert read_json(tmp_path / "edge.summary.json")["first_order_law"]["failures"] == []

    @pytest.mark.parametrize(
        "flags,failures",
        [
            # gamma*dt = 2.4e4: C(n) is 1.2e4 times the closed form
            (["--gamma12", "1e6", "--gamma3", "1e6", "--n-trials", "1000"],
             {("var_gamma", "doubling"), ("var_gamma", "sampling"),
              ("var_delta", "doubling"), ("var_delta", "sampling")}),
            # 16 steps/cycle: C is 3.3% off, within the doubling bound but
            # outside the sampling error of 10^5 trials
            (["--steps-per-cycle", "16", "--n-trials", "100000"],
             {("var_gamma", "sampling"), ("var_delta", "sampling")}),
        ],
        ids=["gamma_1e6", "16_steps_1e5_trials"],
    )
    def test_wrong_laws_fail_by_name(self, tmp_path, capsys, flags, failures):
        assert main(["mc", *flags, "-o", str(tmp_path / "bad")]) == 1
        summary = read_json(tmp_path / "bad.summary.json")
        assert summary["pass"] is False
        named = summary["first_order_law"]["failures"]
        assert {(f.split(":")[0], f.split(" > ")[1].split()[0]) for f in named} == failures
        out = capsys.readouterr().out
        for failure in named:
            assert f"mc: first_order_law failed: {failure}" in out.splitlines()


@pytest.mark.parametrize("sigma", ["1e154", "1e200"])  # the form overflows, then sigma**2 itself
@pytest.mark.parametrize(
    "args",
    [
        ["analytic"],
        ["mc", "--mode", "full_sim"],
        ["sweep", "--param", "t_total", "--values", "100,200", "--with-mc"],
        ["compare"],
    ],
)
def test_non_finite_moments_are_a_usage_error(tmp_path, capsys, args, sigma):
    argv = args + ["--sigma12", sigma, "--n-trials", "100", "--steps-per-cycle", "512",
                   "--quiet", "-o", str(tmp_path / "strong")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: closed-form moments are not finite at sigma12={float(sigma):g}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags,reason",
    [
        # omega**2 overflows, so J is inf/inf
        (["--t-total", "1e-300"],
         "gamma12=0.1, omega=6.28319e+300, t_total=1e-300: the J bracket is nan in float64"),
        # gamma12**2 overflows; the true J is near T/gamma12
        (["--gamma12", "1e300"],
         "gamma12=1e+300, omega=0.0628319, t_total=100: the J bracket is nan in float64"),
        # (gamma12**2 + omega**2)**2 overflows (an OverflowError before)
        (["--gamma12", "1e100"],
         "gamma12=1e+100, omega=0.0628319, t_total=100: the J bracket is nan in float64"),
        # T**2 overflows in the small-u series
        (["--gamma3", "1e-160", "--t-total", "1e155"],
         "gamma3=1e-160, t_total=1e+155: the L bracket is inf in float64"),
        # the geometric amplitudes are 1.6e298
        (["--b0", "1e-300"],
         "b0=1e-300, t_total=100, n_cycles=1: "
         "the product of the weight amplitudes overflows float64"),
        (["--sigma12", "1e200"],
         "sigma12=1e+200, sigma3=0.05: the noise is too strong for float64"),
    ],
)
def test_non_finite_moments_name_their_cause(tmp_path, capsys, flags, reason):
    assert main(["analytic", *flags, "--quiet", "-o", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: closed-form moments are not finite at {reason}\n"
    assert list(tmp_path.iterdir()) == []


_J_UNDERFLOWS = "omega=6.28319e-200, t_total=1e+200: the J bracket is nan in float64"
_L_UNDERFLOWS = "gamma3=1e-200, t_total=1e+200: the L bracket is nan in float64"


@pytest.mark.parametrize(
    "argv,reason",
    [
        # gamma12**2 + omega**2 underflows to zero in the J bracket
        (["analytic", "--gamma12", "1e-200"], f"gamma12=1e-200, {_J_UNDERFLOWS}"),
        # gamma3**2 underflows to zero in the L bracket, also through phase_moments
        (["analytic", "--gamma3", "1e-200"], _L_UNDERFLOWS),
        (["mc", "--gamma3", "1e-200", "--n-trials", "4"], _L_UNDERFLOWS),
        # omega**2 underflows to zero in the narrowband limit's J bracket
        (["sweep", "--param", "t_total", "--values", "1e200"], f"gamma12=0.1, {_J_UNDERFLOWS}"),
    ],
    ids=["analytic_j", "analytic_l", "mc_l", "sweep_narrowband_j"],
)
def test_underflowing_bracket_is_a_usage_error(tmp_path, capsys, argv, reason):
    assert main([*argv, "--t-total", "1e200", "--quiet", "-o", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: closed-form moments are not finite at {reason}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["analytic"], ["mc", "--n-trials", "4"]])
def test_underflowing_weight_amplitude_is_a_usage_error(tmp_path, capsys, command):
    # t_total*b0 underflows to zero in the geometric weight (a ZeroDivisionError before)
    argv = [*command, "--b0", "1e-200", "--t-total", "1e-200", "--quiet"]
    assert main([*argv, "-o", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (
        "error: the geometric weight is not finite at b0=1e-200, t_total=1e-200: "
        "t_total*b0 underflows to zero in float64\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,where", [
    (["analytic", "--b0", "1e300", "--t-total", "1e9", "--gamma12", "1e-9", "--gamma3", "1e-9"],
     "b0=1e+300, t_total=1e+09"),
    (["mc", "--b0", "1e200", "--t-total", "1e200", "--n-trials", "8", "--steps-per-cycle", "16"],
     "b0=1e+200, t_total=1e+200"),
    (["sweep", "--param", "t_total", "--values", "1e9", "--b0", "1e300", "--gamma12", "1e-9",
      "--gamma3", "1e-9"], "b0=1e+300, t_total=1e+09"),
], ids=["analytic", "mc", "sweep"])
def test_overflowing_field_modulus_integral_is_a_usage_error(tmp_path, capsys, argv, where):
    # b0*t_total, the noiseless mean of delta, overflows: analytic and sweep
    # published Infinity with exit 0, and mc warned twice and exited 1
    assert main([*argv, "--quiet", "-o", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (
        f"error: the noiseless moments are not finite at {where}: b0*t_total overflows float64\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_mc_shape_moments_are_scale_free_where_squares_underflow(tmp_path):
    # sigma * 2**-300 scales the first-order records by 2**-300 exactly; the
    # squared second moment then underflows (a ZeroDivisionError before)
    tiny = repr(0.05 * 2.0**-300)
    argv = ["mc", "--n-trials", "50", "--steps-per-cycle", "64", "--quiet"]
    assert main([*argv, "-o", str(tmp_path / "ref")]) == 0
    assert main([*argv, "--sigma12", tiny, "--sigma3", tiny, "-o", str(tmp_path / "tiny")]) == 0
    ref, tiny_run = (read_json(tmp_path / f"{stem}.summary.json")["empirical"]
                     for stem in ("ref", "tiny"))
    for key in ("skewness", "excess_kurtosis"):
        assert tiny_run[key] == ref[key]


@pytest.mark.parametrize("sigma", ["1e154", "1e200"])
def test_non_finite_field_is_a_usage_error(tmp_path, capsys, sigma):
    # |B| overflows; a RuntimeWarning would fail here, as warnings are errors
    argv = ["simulate", "--sigma12", sigma, "--steps-per-cycle", "256", "--quiet",
            "-o", str(tmp_path / "strong")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: total field modulus is not finite; the noise overflows it\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag,sigmas",
    [("--sigma12", "sigma12=1e+308, sigma3=0.05"), ("--sigma3", "sigma12=0.05, sigma3=1e+308")],
)
def test_overflowing_noise_is_a_usage_error(tmp_path, capsys, flag, sigmas):
    # the noise filter overflows; warnings are errors, so none may escape it
    argv = ["simulate", flag, "1e308", "--steps-per-cycle", "256", "--quiet",
            "-o", str(tmp_path / "huge")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: noise samples overflow float64 at {sigmas}\n"
    assert list(tmp_path.iterdir()) == []


class TestSimulateCommand:
    def test_run_and_outputs(self, tmp_path):
        # slow drive (omega/b0 = 0.016) so the evolution fold and the
        # discrete connection agree up to the small adiabatic correction
        base = tmp_path / "sim"
        args = [
            "simulate", "--t-total", "400", "--steps-per-cycle", "1024",
            "--seed", "3", "--quiet", "-o", str(base),
        ]
        assert main(args) == 0
        summary = read_json(tmp_path / "sim.summary.json")
        extraction = summary["extraction"]
        noiseless = summary["noiseless_berry_phase"]
        assert extraction["winding"] == 1
        assert extraction["geometric_phase"] == pytest.approx(noiseless, abs=0.2)
        assert extraction["geometric_phase"] == pytest.approx(
            summary["connection_chain_phase"], abs=0.1
        )
        assert summary["noncyclic_connection_term"] is not None
        trajectory = (tmp_path / "sim.trajectory.csv").read_text().splitlines()
        assert len(trajectory) == 1026
        assert trajectory[0].split(",")[:4] == ["t", "b_control_x", "b_control_y", "b_control_z"]
        noise = (tmp_path / "sim.noise.csv").read_text().splitlines()
        assert len(noise) == 1026
        assert noise[0] == "t,k_1,k_2,k_3"

    def test_down_branch(self, tmp_path):
        base = tmp_path / "sim"
        args = [
            "simulate", "--t-total", "40", "--steps-per-cycle", "1024",
            "--seed", "3", "--branch", "down", "--quiet", "-o", str(base),
        ]
        assert main(args) == 0
        summary = read_json(tmp_path / "sim.summary.json")
        assert summary["branch"] == "down"
        assert summary["extraction"]["geometric_phase"] == pytest.approx(
            -summary["noiseless_berry_phase"], abs=0.2
        )
        assert summary["extraction"]["dynamical_phase"] > 0

    @pytest.mark.parametrize("t_total,n_cycles", [(40.0, 1), (100.0, 3)])
    def test_noise_rows_repeat_trajectory_cells(self, tmp_path, t_total, n_cycles):
        args = [
            "simulate", "--t-total", str(t_total), "--n-cycles", str(n_cycles),
            "--steps-per-cycle", "1024", "--seed", "5", "--quiet", "-o", str(tmp_path / "sim"),
        ]
        assert main(args) == 0
        trajectory = (tmp_path / "sim.trajectory.csv").read_text().splitlines()
        noise = (tmp_path / "sim.noise.csv").read_text().splitlines()
        header = trajectory[0].split(",")
        assert [header[0], *header[4:7]] == ["t", "k_x", "k_y", "k_z"]
        assert len(noise) == len(trajectory) == 1024 * n_cycles + 2
        for trajectory_row, noise_row in zip(trajectory[1:], noise[1:]):
            cells = trajectory_row.split(",")
            assert noise_row == ",".join([cells[0], *cells[4:7]])

    def test_pole_skips_noncyclic_term(self, tmp_path):
        base = tmp_path / "pole"
        args = [
            "simulate", "--theta0", "0", "--t-total", "40",
            "--steps-per-cycle", "1024", "--seed", "3", "--quiet", "-o", str(base),
        ]
        assert main(args) == 0
        assert read_json(tmp_path / "pole.summary.json")["noncyclic_connection_term"] is None


def _read_noise_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The times and samples of a ``.noise.csv``; ``%.17g`` cells parse back exactly."""
    with path.open() as handle:
        rows = [[float(cell) for cell in row] for row in list(csv.reader(handle))[1:]]
    table = np.array(rows)
    return table[:, 0], table[:, 1:]


# sha256 of the .trajectory.csv, .noise.csv and .summary.json that
# ``simulate --theta0 THETA0 --n-cycles N --branch BRANCH --steps-per-cycle 256
# --seed 7 -o pin`` writes, recorded with numpy 2.4.6 on x86-64.
_SIMULATE_DIGESTS = {
    ("up", "0", 1): (
        "2eeaacad57823db7ae9a90cd0a0a74cdd9065700a548a181f6b0e8645935c798",
        "0954e143954b3808bf5688db7b6d60a4f5688c6d5ef0f5e2419fdbd793dc92b1",
        "7715213a799fe7bc9dc307437d534a4a56ac6925b58adebdc2e94566c8f1044e",
    ),
    ("up", "0", 3): (
        "8311db74a619c5532a59f0e05909f51f712e74c16108ea3658c1935e7474ca58",
        "08737e02f3ed1a6f0a0f2b977bc3352a0bc7571d9d528b43f4d0ebf60266d7e1",
        "06dc6eb1a8def2c6cdc182e455942ecb6cf84fdbc40d726c163a4461b3d6b214",
    ),
    ("up", "0.7853981633974483", 1): (
        "7cd1a15b7b442cfa0c3c27586b78f0c1dc6d4fc1835730bdb6d564f5475ad4ae",
        "0954e143954b3808bf5688db7b6d60a4f5688c6d5ef0f5e2419fdbd793dc92b1",
        "0a3ad23733652b9facff83b570921ced18dc176f94daa1d8ec91762484c5e49d",
    ),
    ("up", "0.7853981633974483", 3): (
        "186fa80dbbd8f65ca784753abb975f2f42e8238f48780044439916d1c9bf6997",
        "08737e02f3ed1a6f0a0f2b977bc3352a0bc7571d9d528b43f4d0ebf60266d7e1",
        "277c01958a70f5e9b0f3d3ba34984322af17f2ee85c0546f1b67dc5b3ae7d557",
    ),
    ("up", "3.0915926535897933", 1): (
        "e3f5ce177ab0d68dba88e721fd485c32b22f84f0473f5082c4346104e426fac8",
        "0954e143954b3808bf5688db7b6d60a4f5688c6d5ef0f5e2419fdbd793dc92b1",
        "dd4eb2e90e47bdc91dd7814dfba60e53bc870107f51538317c63c2a2d92e5d26",
    ),
    ("up", "3.0915926535897933", 3): (
        "7434c0f163044bc6bd2c1a13639d4f5558b2b344958700133ba8786d32d9e2da",
        "08737e02f3ed1a6f0a0f2b977bc3352a0bc7571d9d528b43f4d0ebf60266d7e1",
        "2485ec422841278d80d29966d1e604ea891773dadb7af37bbe2607fac5d31f9a",
    ),
    ("down", "0", 1): (
        "8fa6a55aa02d2aa5203bf297a8e87f8c0531542ded3f76df9cd5637457b5b0f4",
        "0954e143954b3808bf5688db7b6d60a4f5688c6d5ef0f5e2419fdbd793dc92b1",
        "b049c99cfb6f89fad635a3e543bfcb73839cbfdd3288ac3d35832f30487b9c10",
    ),
    ("down", "0", 3): (
        "f94cb3885fe95548709be67ce8139f47a6b6c7faf2b8b207079ac51e1d283179",
        "08737e02f3ed1a6f0a0f2b977bc3352a0bc7571d9d528b43f4d0ebf60266d7e1",
        "8c553479504bcb8d3e7a5c88e0c49767dccf0cbfeae2a6afe18c4aca09716e29",
    ),
    ("down", "0.7853981633974483", 1): (
        "939d308a532253eb9aabfb8490ff96aa3a5b5b45a9fb91ea99decf170d0933fd",
        "0954e143954b3808bf5688db7b6d60a4f5688c6d5ef0f5e2419fdbd793dc92b1",
        "db1a8e25176a4359c2e62e56b67328c01917599e5d00a1e7c93d996ad98e7cd2",
    ),
    ("down", "0.7853981633974483", 3): (
        "49a3db537962cda3727b888e9a1968807e562d8590fa11ed8f71f482b5ced58e",
        "08737e02f3ed1a6f0a0f2b977bc3352a0bc7571d9d528b43f4d0ebf60266d7e1",
        "110bd15337c973a942bac2bf799f7e640ecf37becb0446dd329763eb6ab971b6",
    ),
    ("down", "3.0915926535897933", 1): (
        "7de10d0d4a0229846b205ce057b9463a1f2e4b0ef6a4ee49cfbbc8d9a9d40757",
        "0954e143954b3808bf5688db7b6d60a4f5688c6d5ef0f5e2419fdbd793dc92b1",
        "f413c36cf145febd629aaa3fc2dc33d32ce730abbda53f68fbf1c5b45818a7d9",
    ),
    ("down", "3.0915926535897933", 3): (
        "15d74e1164baedddfa125576dd3dc6963fd54ef9e34ab6cf13e68ce5ee0b4485",
        "08737e02f3ed1a6f0a0f2b977bc3352a0bc7571d9d528b43f4d0ebf60266d7e1",
        "70df1a5a1cdecaa1e975e7009923029414bdc80645ab00f94fd5678c22bbe21e",
    ),
}


# The same for ``simulate --t-total 7.7 --steps-per-cycle 16 --n-cycles 3
# --branch BRANCH --seed 7 -o pin``: there n * (t_total / n) is t_total + 8.9e-16,
# so the last node lies one ulp past t_total.
_SIMULATE_ODD_GRID = ["--t-total", "7.7", "--steps-per-cycle", "16", "--n-cycles", "3"]
_SIMULATE_ODD_GRID_DIGESTS = {
    "up": (
        "f0b495539fe6db9974c0e5d81cce5cc12cf6c259fe84738e112377908e358d88",
        "f9b33df06e10f07e0957438ff342567a16b0f9ceb4f1c51c482a8ccd3ca8dbdc",
        "086bd04e107d78d7fb9aefc575c775a764ab905d0c01e540ee2e70e2d04f7c57",
    ),
    "down": (
        "c2b02fa163e502d6cf748713c34895c9c41595039e2dd8ec80747333899e6c7f",
        "f9b33df06e10f07e0957438ff342567a16b0f9ceb4f1c51c482a8ccd3ca8dbdc",
        "59cbd5e66e2ac933b9f768230ce559e00de6ccc2324d11cbde7f3b772c69b20b",
    ),
}


# The same at an odd step count, ``simulate --t-total 7.7 --steps-per-cycle 17
# --n-cycles 3 --branch BRANCH --seed 7 -o pin``: 51 steps, whose last node
# 51 * (7.7 / 51) is 7.699999999999999, one ulp below t_total.
_ODD_STEP_COUNT = ["--t-total", "7.7", "--steps-per-cycle", "17", "--n-cycles", "3"]
_SIMULATE_ODD_STEP_COUNT_DIGESTS = {
    "up": (
        "3e6c522e1002c16ddcec193a64abf66681f870a3dfbd9ff082886f458a478ed7",
        "b6034b1dccc710bb6b0d157584f593c337b4817f95ca7e02bd0dbb87f93c9f50",
        "d7a58f42fb0af3e229209ef414c5d40fd6417918f0978e4fc16ff7d2dfdff4cc",
    ),
    "down": (
        "a60456cdad3d50f76ab244a90dcbbfb7144171d39d1cfbd9fa87e16d6ee586ca",
        "b6034b1dccc710bb6b0d157584f593c337b4817f95ca7e02bd0dbb87f93c9f50",
        "3e58233e4417a5ca47a4fba3b6e4fd1933bde20e670db578434c40d4e944ecc1",
    ),
}


class TestSimulatePinned:
    """Fixed-seed simulate outputs, by digest and against reference copies of the chain and the boundary term."""

    @pytest.mark.parametrize("n_cycles", [1, 3])
    @pytest.mark.parametrize("theta0", ["0", "0.7853981633974483", "3.0915926535897933"])
    @pytest.mark.parametrize("branch", ["up", "down"])
    def test_outputs(self, tmp_path, monkeypatch, branch, theta0, n_cycles):
        argv = ["--theta0", theta0, "--n-cycles", str(n_cycles), "--steps-per-cycle", "256"]
        spec = RunConfig(theta0=float(theta0), n_cycles=n_cycles).spec()
        self._check(tmp_path, monkeypatch, argv, branch, spec,
                    _SIMULATE_DIGESTS[branch, theta0, n_cycles])

    @pytest.mark.parametrize("branch", ["up", "down"])
    def test_odd_grid(self, tmp_path, monkeypatch, branch):
        spec = RunConfig(t_total=7.7, n_cycles=3).spec()
        self._check(tmp_path, monkeypatch, _SIMULATE_ODD_GRID, branch, spec,
                    _SIMULATE_ODD_GRID_DIGESTS[branch])

    @pytest.mark.parametrize("branch", ["up", "down"])
    def test_odd_step_count(self, tmp_path, monkeypatch, branch):
        spec = RunConfig(t_total=7.7, n_cycles=3).spec()
        self._check(tmp_path, monkeypatch, _ODD_STEP_COUNT, branch, spec,
                    _SIMULATE_ODD_STEP_COUNT_DIGESTS[branch])

    @staticmethod
    def _check(tmp_path, monkeypatch, flags, branch, spec, want):
        monkeypatch.setenv("BERRYSIM_OUTPUT_DIR", str(tmp_path))
        argv = ["simulate", *flags, "--branch", branch, "--seed", "7", "--quiet", "-o", "pin"]
        assert main(argv) == 0
        digests = tuple(
            hashlib.sha256((tmp_path / f"pin.{name}").read_bytes()).hexdigest()
            for name in ("trajectory.csv", "noise.csv", "summary.json")
        )
        assert digests == want

        summary = read_json(tmp_path / "pin.summary.json")
        # the trajectory ends on the summary's phases, bitwise
        with open(tmp_path / "pin.trajectory.csv", newline="") as fh:
            *_, last = csv.DictReader(fh)
        for name in ("total_phase", "dynamical_phase"):
            assert float(last[name]).hex() == summary["extraction"][name].hex(), name
        times, samples = _read_noise_csv(tmp_path / "pin.noise.csv")
        chain = _reference_connection_phase_discrete(spec, times, samples, branch=branch)
        assert summary["connection_chain_phase"].hex() == chain.hex()
        if math.sin(spec.theta0) < 1e-12:
            assert summary["noncyclic_connection_term"] is None
        else:
            term = _reference_noncyclic_connection_term(spec, times, samples)
            assert summary["noncyclic_connection_term"].hex() == term.hex()

    def test_benchmark_size(self, tmp_path, monkeypatch):
        # the simulate_long workload's command: 65536 steps at the reference point
        monkeypatch.setenv("BERRYSIM_OUTPUT_DIR", str(tmp_path))
        argv = ["simulate", "--steps-per-cycle", "65536", "--seed", "42", "--quiet", "-o", "pin"]
        assert main(argv) == 0
        digests = tuple(
            hashlib.sha256((tmp_path / f"pin.{name}").read_bytes()).hexdigest()
            for name in ("trajectory.csv", "noise.csv")
        )
        assert digests == (
            "7eedb9b63df8603a762604b66bd4bd71adfa79e1f88200a1f3a7aed2b4d6cd95",
            "3a9198009e262fadec57860ae8d08dd470778b23e4dd9c352581ff8688664239",
        )


# Fixed-seed runs of the other commands: exit code, file digests and stdout
# lines, with the output directory written as <dir>.
_PIN_SMALL = ["--steps-per-cycle", "256", "--seed", "7"]
# compare lines that do not depend on the ensemble, at the reference point
_PIN_ORACLE_LINES = [
    "[PASS] oracle_var_gamma: closed=1.956467746e-03 quadrature=1.956467746e-03 rel=5.41e-14",
    "[PASS] oracle_var_alpha: closed=3.990375780e+00 quadrature=3.990375780e+00 rel=5.49e-14",
    "[PASS] oracle_cov: closed=1.189337870e-02 quadrature=1.189337870e-02 rel=1.95e-13",
    "[PASS] narrowband_limit: limit=6.154191e-03 closed=6.154227e-03 rel=5.80e-06",
    "[PASS] broadband_limit: limit=2.467401e-05 closed=2.464885e-05 rel=1.02e-03",
]
# the law check at the reference point, 256 steps/cycle; its sampling bounds
# are looser than its doubling bounds from 200 trials on
_PIN_LAW_LINE = (
    "[PASS] first_order_law: |C - closed| within both bounds: var_gamma 2.51e-07 <= 5.02e-07, "
    "var_delta 5.09e-04 <= 1.02e-03, cov_gamma_delta 2.34e-10 <= 2.34e-09"
)
_PIN_CLOSING_LINES = [
    "[PASS] broadband_scaling: slope_var_gamma=-0.9950 (target -1) slope_var_delta=1.0050 (target +1)",
    "[PASS] first_order_vs_sim: median|gamma_sim - gamma_noiseless - gamma_fo|=5.479e-03 rad",
    "[PASS] adiabaticity: worst omega_over_b0=0.0628 (threshold 0.1)",
    "compare: wrote <dir>/pin.compare.json",
]
_COMMAND_PINS = {
    "analytic_json": (
        ["analytic", "-o", "pin"],
        0,
        {
            "pin.analytic.json": "9e62145935631957fe356b7c67e6a6569b03ec82cce535a333ab8c5e8836698a",
        },
        [
            "analytic: wrote <dir>/pin.analytic.json",
        ],
    ),
    "analytic_csv": (
        ["analytic", "--output-format", "csv", "-o", "pin"],
        0,
        {
            "pin.analytic.csv": "baf246ef5716a803de5b1964ff5e36376ce4a8c3e8d1793e48c6efc8e5c88ce2",
        },
        [
            "analytic: wrote <dir>/pin.analytic.csv",
        ],
    ),
    # --sigma12 0.5 fails one adiabaticity flag: pins the false cells and the
    # report's row order in CSV
    "analytic_json_non_adiabatic": (
        ["analytic", "--sigma12", "0.5", "-o", "pin"],
        0,
        {
            "pin.analytic.json": "3020d60cabebd0436da236ead24c8afd81c26f43c4f8497dd379f51b7b9eaa2d",
        },
        [
            "analytic: wrote <dir>/pin.analytic.json",
        ],
    ),
    "analytic_csv_non_adiabatic": (
        ["analytic", "--sigma12", "0.5", "--output-format", "csv", "-o", "pin"],
        0,
        {
            "pin.analytic.csv": "b342cb8a69f9b0ee602b86af4350f8a67ac0fabf31aa4f1ccb7e1d468d7581c0",
        },
        [
            "analytic: wrote <dir>/pin.analytic.csv",
        ],
    ),
    "mc_non_adiabatic": (
        ["mc", "--n-trials", "200", "--sigma12", "0.5", *_PIN_SMALL, "-o", "pin"],
        0,
        {
            "pin.records.csv": "1edc1cb45e24f3764bc8060194db852f0619ac3eb8a49cc4afee0c607255be82",
            "pin.summary.json": "b19e8ed2d72de82cc2401f19682903964861d3d7958ea75ce7b91d49ba9162af",
        },
        [
            "mc: n_trials=200 pass=true wrote <dir>/pin.records.csv <dir>/pin.summary.json",
        ],
    ),
    "mc_first_order": (
        ["mc", "--n-trials", "200", *_PIN_SMALL, "-o", "pin"],
        0,
        {
            "pin.records.csv": "b89af76c820defac046c60672acf14470dd932f1d6ce899da8d705480825b3fd",
            "pin.summary.json": "c26bf294feee4cb2d75fe94e612377f724b9ea148af1c85f8ee67191484b5c9e",
        },
        [
            "mc: n_trials=200 pass=true wrote <dir>/pin.records.csv <dir>/pin.summary.json",
        ],
    ),
    "mc_full_sim": (
        ["mc", "--mode", "full_sim", "--n-trials", "40", *_PIN_SMALL, "-o", "pin"],
        0,
        {
            "pin.records.csv": "62ec8133146ec789cdce4a57ffa5e98f342aa2af89c053d197af75f458c7a0d8",
            "pin.summary.json": "e25eb3ee8e73ff530c1769b8d9a7381078995fa46bbf2185c9d5758d7a75efba",
        },
        [
            "mc: n_trials=40 pass=true wrote <dir>/pin.records.csv <dir>/pin.summary.json",
            "warning: 38 of 40 trials have leakage above 1.0e-03; evolution is not adiabatic",
        ],
    ),
    # the simulate odd grid, where the last node lies one ulp past t_total
    "mc_odd_grid": (
        ["mc", "--n-trials", "200", *_SIMULATE_ODD_GRID, "--seed", "7", "-o", "pin"],
        0,
        {
            "pin.records.csv": "5f294b59633a46ba155aade0fa7b2a6820b2ce4271e057bf3013a40fb03b2563",
            "pin.summary.json": "84a9cb784acb0c98593196f7bc0dc4122fe1697cd23f458658ad1c533b7e645e",
        },
        [
            "mc: n_trials=200 pass=true wrote <dir>/pin.records.csv <dir>/pin.summary.json",
        ],
    ),
    "mc_full_sim_odd_grid": (
        ["mc", "--mode", "full_sim", "--n-trials", "40", *_SIMULATE_ODD_GRID, "--seed", "7",
         "-o", "pin"],
        0,
        {
            "pin.records.csv": "8fae6bced26a0aa3c037479591f55abbcc722d105640599aa7feeb619a8c0574",
            "pin.summary.json": "1a9097bf80b3be53dc4b4896799e10f3f8616735f39c3704bc61ead32798e7fd",
        },
        [
            "mc: n_trials=40 pass=true wrote <dir>/pin.records.csv <dir>/pin.summary.json",
            "warning: 40 of 40 trials have leakage above 1.0e-03; evolution is not adiabatic",
        ],
    ),
    # 51 steps: check_law's coarse grid has 25, so its ratio r is 2.04
    "mc_odd_step_count": (
        ["mc", "--n-trials", "200", *_ODD_STEP_COUNT, "--seed", "7", "-o", "pin"],
        0,
        {
            "pin.records.csv": "d0969cfcc155e97bffe0c1be3cd4da05e4097a14c84932c882329e13a61799f0",
            "pin.summary.json": "1e75b8a29278802c75c85c2fe8a16f69558437a76c2d13e7ff79705ae1577218",
        },
        [
            "mc: n_trials=200 pass=true wrote <dir>/pin.records.csv <dir>/pin.summary.json",
        ],
    ),
    "mc_full_sim_odd_step_count": (
        ["mc", "--mode", "full_sim", "--n-trials", "200", *_ODD_STEP_COUNT, "--seed", "7",
         "-o", "pin"],
        0,
        {
            "pin.records.csv": "aa51db6f414abcc056f9c6abac9d809352abec33baa6ad0a40a698e0b124490a",
            "pin.summary.json": "0afc5cdf9e05df061b0eb8195d4e42fabdf82bf3dcea93fc6d1d99a473939b23",
        },
        [
            "mc: n_trials=200 pass=true wrote <dir>/pin.records.csv <dir>/pin.summary.json",
            "warning: 200 of 200 trials have leakage above 1.0e-03; evolution is not adiabatic",
        ],
    ),
    "sweep_with_mc": (
        [
            "sweep", "--param", "t_total", "--values", "50,100", "--with-mc", "--n-trials", "40",
            *_PIN_SMALL, "-o", "pin",
        ],
        0,
        {
            "pin.summary.json": "35aa0a72614f1f3be698d376d98a83f4b031afc7a485554f4d32badb10bef0aa",
            "pin.sweep.csv": "5e0b931595a0a7d8a235c33b7799874783ad6e2c3b566e0ea9b29879d30a121d",
        },
        [
            "sweep: 2 points over t_total loglog_slope_var_gamma=-0.6054 loglog_slope_var_delta=1.3946 wrote <dir>/pin.sweep.csv <dir>/pin.summary.json",
        ],
    ),
    "compare": (
        ["compare", "--n-trials", "1000", *_PIN_SMALL, "-o", "pin"],
        0,
        {
            "pin.compare.json": "b51b3d77ef8668785568d0f6a5ebc09a78efc08e6cb56e84145349882ef29a75",
        },
        [
            *_PIN_ORACLE_LINES,
            _PIN_LAW_LINE,
            *_PIN_CLOSING_LINES,
            "compare: all checks passed",
        ],
    ),
    "compare_200_trials": (
        ["compare", "--n-trials", "200", *_PIN_SMALL, "-o", "pin"],
        0,
        {
            "pin.compare.json": "51b18265cb2ebc7fc12b44cdf20754e49d322a5a300f3b7f602ee7a41663d0c6",
        },
        [
            *_PIN_ORACLE_LINES,
            _PIN_LAW_LINE,
            *_PIN_CLOSING_LINES,
            "compare: all checks passed",
        ],
    ),
    "compare_failing": (
        [
            "compare", "--n-trials", "200", "--sigma12", "0.5", "--sigma3", "0.5", *_PIN_SMALL,
            "-o", "pin",
        ],
        1,
        {
            "pin.compare.json": "d354c06287f0fa2b45b31516b30d31a8c06af6685ef07c420f7417383a8918e8",
        },
        [
            "[PASS] oracle_var_gamma: closed=1.956467746e-01 quadrature=1.956467746e-01 rel=5.42e-14",
            "[PASS] oracle_var_alpha: closed=3.990375780e+02 quadrature=3.990375780e+02 rel=5.51e-14",
            "[PASS] oracle_cov: closed=1.189337870e+00 quadrature=1.189337870e+00 rel=1.94e-13",
            "[PASS] narrowband_limit: limit=6.154191e-01 closed=6.154227e-01 rel=5.80e-06",
            "[PASS] broadband_limit: limit=2.467401e-03 closed=2.464885e-03 rel=1.02e-03",
            "[PASS] first_order_law: |C - closed| within both bounds: var_gamma 2.51e-05 <= 5.02e-05, var_delta 5.09e-02 <= 1.02e-01, cov_gamma_delta 2.34e-08 <= 2.34e-07",
            "[PASS] broadband_scaling: slope_var_gamma=-0.9950 (target -1) slope_var_delta=1.0050 (target +1)",
            "[FAIL] first_order_vs_sim: median|gamma_sim - gamma_noiseless - gamma_fo|=1.284e+00 rad",
            "[FAIL] adiabaticity: worst sigma12_over_b0=0.5 (threshold 0.2)",
            "compare: wrote <dir>/pin.compare.json",
            "compare: CHECKS FAILED",
        ],
    ),
    "compare_non_adiabatic": (
        ["compare", "--n-trials", "200", "--sigma12", "0.5", *_PIN_SMALL, "-o", "pin"],
        1,
        {
            "pin.compare.json": "e4ffb0838e7dfdd3b027c3c10bab6f8737524f6733d2bce522c0a3ed354f3e0e",
        },
        [
            "[PASS] oracle_var_gamma: closed=8.572350106e-02 quadrature=8.572350106e-02 rel=4.05e-14",
            "[PASS] oracle_var_alpha: closed=1.662799594e+02 quadrature=1.662799594e+02 rel=4.05e-14",
            "[PASS] oracle_cov: closed=-3.758947964e+00 quadrature=-3.758947964e+00 rel=3.95e-14",
            "[PASS] narrowband_limit: limit=6.772941e-03 closed=6.771432e-03 rel=2.23e-04",
            "[PASS] broadband_limit: limit=1.246038e-03 closed=1.244743e-03 rel=1.04e-03",
            "[PASS] first_order_law: |C - closed| within both bounds: var_gamma 1.27e-05 <= 2.54e-05, var_delta 2.57e-02 <= 5.14e-02, cov_gamma_delta 5.59e-04 <= 1.12e-03",
            "[PASS] broadband_scaling: slope_var_gamma=-0.9941 (target -1) slope_var_delta=1.0059 (target +1)",
            "[FAIL] first_order_vs_sim: median|gamma_sim - gamma_noiseless - gamma_fo|=1.756e+00 rad",
            "[FAIL] adiabaticity: worst sigma12_over_b0=0.5 (threshold 0.2)",
            "compare: wrote <dir>/pin.compare.json",
            "compare: CHECKS FAILED",
        ],
    ),
}

# sha256 of `analytic`'s stdout when no -o is given
_ANALYTIC_STDOUT_DIGEST = "097a94702f0b0727751f3342e2714777520d2fc290b63cd92ccdda452bfd960f"


class TestCommandsPinned:
    """Fixed-seed outputs of analytic, mc, sweep and compare: files, stdout and exit code."""

    @pytest.mark.parametrize("name", sorted(_COMMAND_PINS))
    def test_outputs(self, tmp_path, monkeypatch, capsys, name):
        argv, code, digests, stdout = _COMMAND_PINS[name]
        monkeypatch.setenv("BERRYSIM_OUTPUT_DIR", str(tmp_path))
        assert main(argv) == code
        written = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()
        }
        assert written == digests
        out = capsys.readouterr().out.replace(str(tmp_path), "<dir>")
        assert out.splitlines() == stdout

    def test_analytic_stdout(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BERRYSIM_OUTPUT_DIR", str(tmp_path))
        assert main(["analytic"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == _ANALYTIC_STDOUT_DIGEST
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed, digests", [
        (42, ("a81a318f4d2da9491ed00d321dbadc6286cbd09010b1b4d3aa04a48a40ef99ab",
              "c7d08986259f69c17b75d5500b9e7e2aa09beaa07066b45a11717c5929e61b04")),
        (7, ("8809dde540b1e8585606bf6659b926dcdc2c15c57e4f5a88ab96ab8e1e60213c",
             "5f7a862a11bec971a1f5fd0bc57a9bf6e15c771de29bf910c6cbe936889728fe")),
    ])
    def test_full_sim_benchmark_size(self, tmp_path, monkeypatch, seed, digests):
        # the mc_full_sim workload's command: 200 trials x 4096 steps at the reference point
        monkeypatch.setenv("BERRYSIM_OUTPUT_DIR", str(tmp_path))
        argv = [
            "mc", "--b0", "1.0", "--theta0", repr(math.pi / 4), "--t-total", "100.0",
            "--n-cycles", "1", "--sigma12", "0.05", "--gamma12", "0.1", "--sigma3", "0.05",
            "--gamma3", "0.1", "--mode", "full_sim", "--n-trials", "200",
            "--steps-per-cycle", "4096", "--seed", str(seed), "--quiet", "-o", "pin",
        ]
        assert main(argv) == 0
        assert tuple(
            hashlib.sha256((tmp_path / f"pin.{name}").read_bytes()).hexdigest()
            for name in ("records.csv", "summary.json")
        ) == digests


class TestSweepCommand:
    def test_fixed_omega_t_total_slopes(self, tmp_path):
        base = tmp_path / "sweep"
        args = [
            "sweep", "--param", "t_total", "--values", "128,256,512,1024",
            "--fixed-omega", "--t-total", "128", "--n-cycles", "128",
            "--gamma12", "1.0", "--gamma3", "1.0", "--quiet", "-o", str(base),
        ]
        assert main(args) == 0
        summary = read_json(tmp_path / "sweep.summary.json")
        slopes = summary["slopes"]
        # at fixed omega the geometric weight's amplitude omega/(2*b0) is
        # fixed too, so var(gamma) grows as T, like var(delta)
        assert slopes["loglog_slope_var_gamma"] == pytest.approx(1.0, abs=0.05)
        assert slopes["loglog_slope_var_delta"] == pytest.approx(1.0, abs=0.05)
        table = (tmp_path / "sweep.sweep.csv").read_text().splitlines()
        assert len(table) == 5
        header = table[0].split(",")
        assert "var_gamma" in header and "n_cycles" in header

    def test_law_columns_are_mcs_law_whatever_the_ensemble(self, tmp_path):
        # --with-mc publishes C(n), the matrix mc's law check reads, and
        # draws no ensemble: the seed and the trial count (three is fine)
        # leave the rows alone
        point = ["--theta0", "0.7", "--n-cycles", "2", "--steps-per-cycle", "512", "--quiet"]
        for seed, n_trials in (("1", "40"), ("9", "3")):
            argv = ["sweep", "--param", "t_total", "--values", "50,100", "--with-mc", *point,
                    "--seed", seed, "--n-trials", n_trials, "-o", str(tmp_path / f"s{seed}")]
            assert main(argv) == 0
        assert (tmp_path / "s1.sweep.csv").read_bytes() == (tmp_path / "s9.sweep.csv").read_bytes()
        first, second = (read_json(tmp_path / f"s{seed}.summary.json") for seed in "19")
        assert first.pop("config") != second.pop("config")
        assert first == second
        header = (tmp_path / "s1.sweep.csv").read_text().splitlines()[0].split(",")
        at = header.index("var_gamma_quadrature")
        assert header[at + 1:] == ["law_var_gamma", "law_var_delta", "law_cov_gamma_delta"]
        for row in first["rows"]:
            argv = ["mc", "--t-total", repr(row["t_total"]), *point, "--n-trials", "4",
                    "-o", str(tmp_path / "mc")]
            assert main(argv) == 0
            law = read_json(tmp_path / "mc.summary.json")["first_order_law"]
            for name in ("var_gamma", "var_delta", "cov_gamma_delta"):
                assert row[f"law_{name}"].hex() == law[name]["law"].hex()

    def test_no_slope_from_one_distinct_t_total(self, tmp_path, capsys):
        # two rows at one T fit no line, so neither series has a slope
        argv = ["sweep", "--param", "t_total", "--values", "100,100", "-o", str(tmp_path / "sw")]
        assert main(argv) == 0
        assert read_json(tmp_path / "sw.summary.json")["slopes"] == {}
        out, err = capsys.readouterr()
        assert "loglog_slope" not in out
        assert err == ""

    def test_theta0_sweep_tracks_closed_form(self, tmp_path):
        base = tmp_path / "th"
        args = [
            "sweep", "--param", "theta0", "--values", "0.5,1.0,1.5",
            "--quiet", "-o", str(base),
        ]
        assert main(args) == 0
        table = (tmp_path / "th.sweep.csv").read_text().splitlines()
        assert len(table) == 4

    def test_rows_match_one_closed_form_call_per_row(self, tmp_path, monkeypatch):
        # a row is analytic's payload at its point, which evaluates the four
        # second moments twice, as analytic does: once for its variances and
        # once more inside phase_moments; each is one evaluation of the
        # quadratic form, and the row publishes the first four
        calls = []
        phase_covariance = analytics.phase_covariance

        def counting(spec, model, x, y):
            calls.append((spec, x, y))
            return phase_covariance(spec, model, x, y)

        monkeypatch.setattr(analytics, "phase_covariance", counting)
        args = [
            "sweep", "--param", "theta0", "--values", "0.5,1.0,1.5",
            "--quiet", "-o", str(tmp_path / "th"),
        ]
        assert main(args) == 0
        assert [spec.theta0 for spec, _, _ in calls] == [0.5] * 8 + [1.0] * 8 + [1.5] * 8
        model = RunConfig().model()
        rows = read_json(tmp_path / "th.summary.json")["rows"]
        table = (tmp_path / "th.sweep.csv").read_text().splitlines()
        header = table[0].split(",")
        for i, (row, line) in enumerate(zip(rows, table[1:])):
            spec = calls[8 * i][0]
            gamma = analytics.geometric_weight(spec)
            delta = analytics.dynamical_weight(spec)
            alpha = gamma + delta
            for start in (8 * i, 8 * i + 4):
                assert {(x, y) for _, x, y in calls[start:start + 4]} == {
                    (gamma, gamma), (delta, delta), (gamma, delta), (alpha, alpha)
                }
            closed = phase_covariance(spec, model, gamma, gamma)
            expected = {
                "var_gamma_transverse": closed["transverse"],
                "var_gamma_longitudinal": closed["longitudinal"],
                "var_gamma": closed["total"],
                "var_delta": phase_covariance(spec, model, delta, delta)["total"],
                "cov_gamma_delta": phase_covariance(spec, model, gamma, delta)["total"],
                "var_alpha": phase_covariance(spec, model, alpha, alpha)["total"],
            }
            cells = dict(zip(header, line.split(",")))
            for key, value in expected.items():
                assert row[key] == value
                assert float(cells[key]) == value

    @pytest.mark.parametrize("overrides", [
        {"theta0": 0.0}, {"theta0": math.pi / 4}, {"theta0": math.pi},
        {"sigma3": 0.0}, {"n_cycles": 96},
    ], ids=["theta0_0", "theta0_pi_4", "theta0_pi", "sigma3_0", "96_cycles"])
    def test_rows_are_analytics_values(self, tmp_path, overrides):
        # a row publishes analytic's closed forms, limits and var_gamma oracle
        # at its point, bitwise, in the summary and in the table
        flags = [arg for key, value in overrides.items()
                 for arg in ("--" + key.replace("_", "-"), repr(value))]
        theta0 = repr(RunConfig(**overrides).theta0)
        assert main(["analytic", *flags, "--quiet", "-o", str(tmp_path / "a")]) == 0
        argv = ["sweep", "--param", "theta0", "--values", theta0, *flags,
                "--quiet", "-o", str(tmp_path / "s")]
        assert main(argv) == 0
        payload = read_json(tmp_path / "a.analytic.json")
        variances = payload["variances"]
        expected = {
            "theta0": payload["config"]["theta0"],
            "n_cycles": payload["config"]["n_cycles"],
            "omega": payload["omega"],
            "var_gamma_transverse": variances["var_gamma"]["transverse"],
            "var_gamma_longitudinal": variances["var_gamma"]["longitudinal"],
            **{key: moment["total"] for key, moment in variances.items()},
            **payload["limits"],
            "var_gamma_quadrature": payload["quadrature"]["var_gamma"]["value"],
        }
        (row,) = read_json(tmp_path / "s.summary.json")["rows"]
        assert row == expected
        assert {key: float(value).hex() for key, value in row.items() if value is not None} == {
            key: float(value).hex() for key, value in expected.items() if value is not None
        }
        with open(tmp_path / "s.sweep.csv", newline="") as fh:
            (cells,) = csv.DictReader(fh)
        assert cells == {
            key: "" if value is None else (str(value) if isinstance(value, int) else
                                           format(value, ".17g"))
            for key, value in expected.items()
        }

    def test_narrowband_cell_empty_outside_its_range(self, tmp_path):
        args = ["sweep", "--param", "gamma3", "--values", "0.01,0.1", "--quiet",
                "-o", str(tmp_path / "sw")]
        assert main(args) == 0
        rows = read_json(tmp_path / "sw.summary.json")["rows"]
        assert rows[0]["narrowband_var_gamma"] > 0.0
        assert rows[1]["narrowband_var_gamma"] is None
        with open(tmp_path / "sw.sweep.csv", newline="") as fh:
            cells = [row["narrowband_var_gamma"] for row in csv.DictReader(fh)]
        assert float(cells[0]) == rows[0]["narrowband_var_gamma"]
        assert cells[1] == ""

    def test_broadband_cell_empty_below_gamma_t_of_two(self, tmp_path):
        # T = 100: gamma12*T = 1e-4 is outside the broadband range, 10 inside
        args = ["sweep", "--param", "gamma12", "--values", "0.1,1e-6", "--quiet",
                "-o", str(tmp_path / "sw")]
        assert main(args) == 0
        rows = read_json(tmp_path / "sw.summary.json")["rows"]
        assert rows[0]["broadband_var_gamma"] > 0.0
        assert rows[1]["broadband_var_gamma"] is None
        with open(tmp_path / "sw.sweep.csv", newline="") as fh:
            cells = [row["broadband_var_gamma"] for row in csv.DictReader(fh)]
        assert float(cells[0]) == rows[0]["broadband_var_gamma"]
        assert cells[1] == ""

    def test_bad_values_exit_2(self, capsys):
        assert main(["sweep", "--param", "t_total", "--values", "a,b", "--quiet"]) == 2

    @pytest.mark.parametrize(
        "flags,reason",
        [
            (["--param", "t_total", "--values", "192.5", "--t-total", "128", "--n-cycles", "128"],
             "fixed-omega sweep requires t_total 192.5 to keep n_cycles integral"),
            *((["--param", param, "--values", "0.1,0.2"],
               f"--fixed-omega applies to t_total sweeps only, not to --param {param}")
              for param in ("gamma12", "gamma3", "theta0")),
        ],
        ids=["t_total_192.5", "gamma12", "gamma3", "theta0"],
    )
    def test_fixed_omega_requires_integral_cycles(self, tmp_path, capsys, flags, reason):
        args = ["sweep", *flags, "--fixed-omega", "--quiet", "-o", str(tmp_path / "x")]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert list(tmp_path.iterdir()) == []


class TestOraclePolicy:
    """The oracle's policy is fixed, and every command publishes its value."""

    POINTS = {
        "1_cycle": {},
        "4_cycles": {"n_cycles": 4},
        "96_cycles": {"n_cycles": 96},
        "theta0_0": {"theta0": 0.0},
        "sigma3_0": {"sigma3": 0.0},
    }

    @pytest.mark.parametrize("name", sorted(POINTS))
    def test_one_oracle_value_per_point(self, tmp_path, name):
        overrides = self.POINTS[name]
        config = RunConfig(**overrides)
        flags = [arg for key, value in overrides.items()
                 for arg in ("--" + key.replace("_", "-"), str(value))]
        assert main(["analytic", *flags, "--quiet", "-o", str(tmp_path / "a")]) == 0
        argv = ["sweep", "--param", "theta0", "--values", repr(config.theta0), *flags,
                "--quiet", "-o", str(tmp_path / "s")]
        assert main(argv) == 0
        quad = read_json(tmp_path / "a.analytic.json")["quadrature"]["var_gamma"]
        (row,) = read_json(tmp_path / "s.summary.json")["rows"]
        spec = config.spec()
        w = analytics.geometric_weight(spec)
        library = analytics.covariance_by_quadrature(spec, w, w, config.model())
        assert row["var_gamma_quadrature"].hex() == quad["value"].hex() == library.value.hex()
        assert quad["nodes"] == library.nodes
        assert library.nodes % max(4096, 64 * spec.n_cycles) == 0

    @pytest.mark.parametrize(
        "command", [["analytic"], ["sweep", "--param", "theta0", "--values", "0.5"]]
    )
    def test_grid_limit_is_stated_by_n_cycles(self, tmp_path, capsys, command):
        # the start grid of 64*n_cycles nodes must double within 2**21 nodes
        def run(n_cycles):
            argv = [*command, "--n-cycles", str(n_cycles), "--t-total", str(100 * n_cycles),
                    "--quiet", "-o", str(tmp_path / "x")]
            return main(argv), capsys.readouterr().err

        code, err = run(16384)
        assert code == 3
        assert "did not reach rtol=1e-08 within 2097152 nodes" in err
        code, err = run(16385)
        assert code == 2
        assert err == (
            "error: the quadrature oracle takes n_cycles <= 16384, got 16385: "
            "its start grid of 64*n_cycles nodes must double within its 2097152-node limit\n"
        )
        assert list(tmp_path.iterdir()) == []


    # sigma12**2 times the weights' product overflows the transverse
    # coefficient to inf, so every pass is -inf or nan; the oracle published
    # Infinity with exit 0 and warned "invalid value encountered in scalar add"
    _INFINITE_PASS = [
        "--b0", "1.914936702139999e-09", "--t-total", "1.1446231801323539e-42",
        "--sigma12", "1.6388618946954713e+116", "--gamma12", "3.0324859943308386e-08",
        "--sigma3", "1.120407458920105e-138", "--gamma3", "1.7e+308", "--n-cycles", "7",
    ]

    @pytest.mark.parametrize("command", [
        ["analytic", "--theta0", "0.3"], ["sweep", "--param", "theta0", "--values", "0.3,1.0"],
    ])
    def test_a_non_finite_pass_is_an_accuracy_error(self, tmp_path, capsys, command):
        argv = [*command, *self._INFINITE_PASS, "--quiet", "-o", str(tmp_path / "x")]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "accuracy error: the quadrature pass over 4096 nodes is -inf, not finite\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestCompareCommand:
    SMALL = ["--n-trials", "1000", "--steps-per-cycle", "512", "--seed", "3"]

    def test_reference_battery_passes(self, tmp_path, capsys):
        assert main(["compare", *self.SMALL, "-o", str(tmp_path / "cmp")]) == 0
        out = capsys.readouterr().out
        assert "[PASS] oracle_var_gamma" in out
        assert "[FAIL]" not in out
        checks = read_json(tmp_path / "cmp.compare.json")["checks"]
        names = {c["name"] for c in checks}
        assert {
            "oracle_var_gamma",
            "oracle_var_alpha",
            "oracle_cov",
            "narrowband_limit",
            "broadband_limit",
            "first_order_law",
            "broadband_scaling",
            "first_order_vs_sim",
            "adiabaticity",
        } <= names
        assert all(c["passed"] for c in checks)

    def test_small_covariance_near_the_pole_passes(self, tmp_path, capsys):
        # near the pole the closed-form covariance is below the sampling
        # error of 1000 trials; the law check resolves it all the same
        args = ["compare", *self.SMALL, "--theta0", "3.0", "-o", str(tmp_path / "cmp")]
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "compare: all checks passed"
        payload = read_json(tmp_path / "cmp.compare.json")
        assert payload["pass"] is True
        assert all(c["passed"] is True for c in payload["checks"])

    def test_wrong_covariance_fails(self, monkeypatch, capsys):
        phase_moments = analytics.phase_moments

        def tampered(spec, model):
            moments = phase_moments(spec, model)
            return {**moments, "cov_gamma_delta": 5.0 * moments["cov_gamma_delta"]}

        monkeypatch.setattr(analytics, "phase_moments", tampered)
        assert main(["compare", *self.SMALL]) == 1
        assert "[FAIL] first_order_law: cov_gamma_delta: " in capsys.readouterr().out

    def test_sim_residual_near_two_pi_counts_as_near_zero(self, monkeypatch, capsys):
        # gamma_sim is a folded phase: shifting records by +/-2 pi (less a
        # little) leaves every residual a little off zero, not near 2 pi
        run_ensemble = cli.run_ensemble

        def shifted(*args, **kwargs):
            ensemble = run_ensemble(*args, **kwargs)
            turns = np.where(np.arange(len(ensemble)) % 2, -1.0, 1.0)
            return dataclasses.replace(
                ensemble, gamma_sim=ensemble.gamma_sim + turns * (2.0 * math.pi - 1e-3)
            )

        line = "[PASS] first_order_vs_sim: median|gamma_sim - gamma_noiseless - gamma_fo|="
        args = ["compare", *self.SMALL]
        assert main(args) == 0
        plain = float(capsys.readouterr().out.split(line)[1].split()[0])
        monkeypatch.setattr(cli, "run_ensemble", shifted)
        assert main(args) == 0
        moved = float(capsys.readouterr().out.split(line)[1].split()[0])
        assert abs(moved - plain) <= 1.001e-3

    def test_loud_noise_fails(self, capsys):
        args = ["compare", *self.SMALL, "--sigma12", "0.5", "--sigma3", "0.5", "--quiet"]
        assert main(args) == 1

    def test_quadrature_failure_exits_3(self, monkeypatch, capsys):
        import berrysim.analytics as analytics

        def explode(*args, **kwargs):
            raise AccuracyError("forced for the exit-code test")

        monkeypatch.setattr(analytics, "_covariances_by_quadrature", explode)
        assert main(["analytic"]) == 3
        assert "accuracy error" in capsys.readouterr().err


def _reference_rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0.0 else 0.0


def _reference_battery(config: RunConfig) -> list:
    """The compare battery as it was before it reused the other commands (reference copy)."""
    checks = []
    spec = config.spec()
    model = config.model()
    moments = analytics.phase_moments(spec, model)
    nodes = max(4096, 64 * spec.n_cycles)

    w_gamma = analytics.geometric_weight(spec)
    w_delta = analytics.dynamical_weight(spec)
    quad_gamma = _oracle(spec, w_gamma, w_gamma, model, nodes, 1e-9)
    rel = _reference_rel_diff(quad_gamma.value, moments["var_gamma"])
    checks.append(
        ("oracle_var_gamma", rel <= 1e-6,
         f"closed={moments['var_gamma']:.9e} quadrature={quad_gamma.value:.9e} rel={rel:.2e}")
    )
    w_alpha = w_gamma + w_delta
    quad_alpha = _oracle(spec, w_alpha, w_alpha, model, nodes, 1e-9)
    rel = _reference_rel_diff(quad_alpha.value, moments["var_alpha"])
    checks.append(
        ("oracle_var_alpha", rel <= 1e-6,
         f"closed={moments['var_alpha']:.9e} quadrature={quad_alpha.value:.9e} rel={rel:.2e}")
    )
    quad_cov = _oracle(spec, w_gamma, w_delta, model, nodes, 1e-9)
    rel = _reference_rel_diff(quad_cov.value, moments["cov_gamma_delta"])
    checks.append(
        ("oracle_cov", rel <= 1e-6,
         f"closed={moments['cov_gamma_delta']:.9e} quadrature={quad_cov.value:.9e} rel={rel:.2e}")
    )

    t_total = config.t_total
    slow = NoiseModel.from_scalars(
        config.sigma12, 0.01 / t_total, config.sigma3, 0.01 / t_total
    )
    spec_1 = PrecessionSpec(config.b0, config.theta0, config.t_total, 1)
    w_1 = analytics.geometric_weight(spec_1)
    nb = analytics.berry_phase_variance_narrowband(spec_1, slow)
    closed = analytics.phase_covariance(spec_1, slow, w_1, w_1)["total"]
    rel = _reference_rel_diff(nb, closed)
    checks.append(
        ("narrowband_limit", rel <= 0.05,
         f"limit={nb:.6e} closed={closed:.6e} rel={rel:.2e}")
    )
    fast = NoiseModel.from_scalars(
        config.sigma12, 1000.0 / t_total, config.sigma3, 1000.0 / t_total
    )
    bb = analytics.berry_phase_variance_broadband(spec_1, fast)
    closed = analytics.phase_covariance(spec_1, fast, w_1, w_1)["total"]
    rel = _reference_rel_diff(bb, closed)
    checks.append(
        ("broadband_limit", rel <= 0.05,
         f"limit={bb:.6e} closed={closed:.6e} rel={rel:.2e}")
    )

    # the battery's configs have an even steps_per_cycle, so the coarse grid has n/2 steps
    adjoint, _, _ = _reference_adjoint(spec, model, config.integrator())
    half = dataclasses.replace(config, steps_per_cycle=config.steps_per_cycle // 2)
    coarse, _, _ = _reference_adjoint(spec, model, half.integrator())
    c, doubling, sampling = _reference_law_bounds(adjoint, coarse, 2.0, config.n_trials)
    closed = np.array([[moments["var_gamma"], moments["cov_gamma_delta"]],
                       [moments["cov_gamma_delta"], moments["var_delta"]]])
    error = np.abs(c - closed)
    entries = {"var_gamma": (0, 0), "var_delta": (1, 1), "cov_gamma_delta": (0, 1)}
    failures = [
        f"{name}: |C - closed| = {error[i, j]:.3e} > {kind} bound {bound[i, j]:.3e}"
        for name, (i, j) in entries.items()
        for kind, bound in (("doubling", doubling), ("sampling", sampling))
        if error[i, j] > bound[i, j]
    ]
    checks.append(
        ("first_order_law", not failures, "; ".join(failures) or
         "|C - closed| within both bounds: " + ", ".join(
             f"{name} {error[i, j]:.2e} <= {min(doubling[i, j], sampling[i, j]):.2e}"
             for name, (i, j) in entries.items()))
    )

    if model.transverse.sigma > 0.0 or model.longitudinal.sigma > 0.0:
        base_t = max(t_total, 100.0 / model.transverse.gamma, 100.0 / model.longitudinal.gamma)
        t_values = [base_t, 2.0 * base_t, 4.0 * base_t, 8.0 * base_t]
        vg = []
        vd = []
        for t_value in t_values:
            spec_t = PrecessionSpec(config.b0, config.theta0, t_value, 1)
            g_t = analytics.geometric_weight(spec_t)
            d_t = analytics.dynamical_weight(spec_t)
            vg.append(analytics.phase_covariance(spec_t, model, g_t, g_t)["total"])
            vd.append(analytics.phase_covariance(spec_t, model, d_t, d_t)["total"])
        log_t = np.log(t_values)
        detail = []
        ok = True
        if all(v > 0.0 for v in vg):
            slope = float(np.polyfit(log_t, np.log(vg), 1)[0])
            ok = ok and abs(slope + 1.0) <= 0.05
            detail.append(f"slope_var_gamma={slope:.4f} (target -1)")
        if all(v > 0.0 for v in vd):
            slope = float(np.polyfit(log_t, np.log(vd), 1)[0])
            ok = ok and abs(slope - 1.0) <= 0.05
            detail.append(f"slope_var_delta={slope:.4f} (target +1)")
        checks.append(("broadband_scaling", ok, " ".join(detail) or "no noise"))

    sim_records = _reference_run_ensemble(
        spec, model, 8, config.seed, mode="full_sim", config=config.integrator()
    )
    baseline = evolve_and_extract(spec, None, config.integrator())
    # a difference of phases, folded to (-pi, pi] before its size is taken
    residuals = [
        abs(math.remainder(r.gamma_sim - baseline.geometric_phase - r.gamma_fo, 2.0 * math.pi))
        for r in sim_records
    ]
    median_residual = float(np.median(residuals))
    checks.append(
        ("first_order_vs_sim", median_residual <= 0.1,
         f"median|gamma_sim - gamma_noiseless - gamma_fo|={median_residual:.3e} rad")
    )

    report_ad = adiabaticity_report(spec, model)
    ratios, thresholds = report_ad["ratios"], report_ad["thresholds"]
    worst = max(ratios, key=lambda k: ratios[k] / thresholds[k])
    checks.append(
        ("adiabaticity", report_ad["passed"],
         f"worst {worst}={ratios[worst]:.3g} (threshold {thresholds[worst]:.3g})")
    )
    return checks


def _without_quadrature_digits(name: str, detail: str) -> str:
    # The oracle lines may differ only in the quadrature value and its rel.
    if name.startswith("oracle_"):
        return re.sub(r"(quadrature|rel)=\S+", r"\1=*", detail)
    return detail


class TestCompareEquivalence:
    """The compare battery gives the reference battery's checks, flags and details."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"sigma12": 0.5, "sigma3": 0.5},
            {"n_trials": 99},
            {"theta0": 0.3, "n_cycles": 3},
            {"sigma3": 0.0},
            {"theta0": 0.03},
        ],
        ids=["reference", "loud", "99_trials", "theta0_0.3_3_cycles", "sigma3_0", "theta0_0.03"],
    )
    def test_matches_reference_battery(self, overrides):
        config = RunConfig(**{"n_trials": 1000, "steps_per_cycle": 512, "seed": 3, **overrides})
        want = _reference_battery(config)
        got = cli._battery(config)
        assert [name for name, _, _ in got] == [name for name, _, _ in want]
        assert [ok for _, ok, _ in got] == [ok for _, ok, _ in want]
        for (name, _, detail), (_, _, ref) in zip(got, want):
            assert _without_quadrature_digits(name, detail) == _without_quadrature_digits(
                name, ref
            )
        if overrides.get("sigma12") == 0.5:
            assert not all(ok for _, ok, _ in want)


def _powers_of_ten(exponents) -> np.ndarray:
    """The floats nearest 10**j, each with its three neighbours on either side."""
    values = []
    for j in exponents:
        below = above = float(f"1e{j}")
        values.append(below)
        for _ in range(3):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            values += [below, above]
    return np.array(values)


def _below_powers_of_ten() -> np.ndarray:
    """The largest float below 10**j for every j with one; 14 of them round up to 10**j."""
    values = []
    for j in range(-323, 309):
        value = float(f"1e{j}")
        # Fraction compares the float and the power of ten exactly
        if value != 0.0 and Fraction(value) >= Fraction(10) ** j:
            value = math.nextafter(value, 0.0)
        values.append(value)
    return np.array(values)


def _decades(rng, exponents, n) -> np.ndarray:
    """Log-uniform draws within the decades [10**E, 10**(E+1)), n per decade."""
    return np.concatenate([10.0 ** (e + rng.uniform(0.0, 1.0, n)) for e in exponents])


def _ties() -> np.ndarray:
    # 1 + odd * 2**-17 times 10**16 ends in exactly .5: a tie for 17 digits
    return 1.0 + np.arange(1, 2**17, 2) * 2.0**-17


_FLOAT_FAMILIES = {
    "normal": lambda: np.random.default_rng(1).standard_normal(20_000),
    "normal_scaled": lambda: (
        (rng := np.random.default_rng(2)).standard_normal(20_000)
        * 10.0 ** rng.integers(-9, 20, 20_000)
    ),
    "bit_patterns": lambda: np.random.default_rng(3).integers(
        0, 2**64, 20_000, dtype=np.uint64
    ).view(np.float64),
    "ties": _ties,
    "int53_scaled": lambda: (
        (rng := np.random.default_rng(4)).integers(2**52, 2**53, 20_000).astype(float)
        * 2.0 ** rng.integers(-80, 6, 20_000)
    ),
    "uniform_to_1e17": lambda: np.random.default_rng(5).uniform(0.0, 1e17, 20_000),
    "three_decimals": lambda: np.random.default_rng(6).integers(-10**7, 10**7, 20_000) / 1000.0,
    "powers_of_ten": lambda: _powers_of_ten(range(-9, 21)),
    "near_1e16_and_1e17": lambda: np.concatenate([
        1e16 + 2.0 * np.arange(-500, 500), 1e17 + 16.0 * np.arange(-500, 500),
    ]),
    "below_powers_of_ten": _below_powers_of_ten,
    "exponent_edges": lambda: _decades(np.random.default_rng(7), [-7, -6, -5, -4, 15, 16], 2000),
}


class TestTableEquivalence:
    """CLI tables are byte-equal to the per-cell reference writer."""

    SPECIALS = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308, 0.1]

    @pytest.mark.parametrize("n_rows", [0, 1, 7, 10_001])
    def test_synthetic_table(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
        floats[: len(self.SPECIALS)] = self.SPECIALS[:n_rows]
        ints = rng.integers(-(2**62), 2**62, n_rows)
        header = ["x", "i", "missing", "y"]
        rows = [[x, i, None, -x] for x, i in zip(floats, ints)]
        _reference_write_table(tmp_path / "ref.csv", header, rows)
        _write_table(tmp_path / "new.csv", header, [floats, ints, None, -floats])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_tables_sharing_columns(self, tmp_path, monkeypatch, forks, workers):
        # simulate's case: the second table repeats columns of the first; its
        # three chunks are written by one, two or three processes
        fds = _open_fds()
        _set_writers(monkeypatch, workers)
        n_rows = 10_001
        assert n_rows > 2 * cells._CHUNK_ROWS
        rng = np.random.default_rng(11)
        t = np.linspace(0.0, 100.0, n_rows)
        block = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-300, 300, (n_rows, 3))
        block[: len(self.SPECIALS), 0] = self.SPECIALS
        ints = rng.integers(-(2**62), 2**62, n_rows)
        maybe = np.array([None if i % 3 else x for i, x in enumerate(block[:, 1].tolist())])
        files = {
            ".first.csv": (["t", "a", "b", "c", "i", "missing"], [t, block, ints, None]),
            ".second.csv": (["t", "a", "b", "c", "maybe", "a_again"],
                            [t, block, maybe, block[:, 0]]),
            ".json": "{}\n",
        }
        paths = cli._write_files(files, RunConfig(output_path=str(tmp_path / "out")), "x")
        assert [p.name for p in paths] == ["out.first.csv", "out.second.csv", "out.json"]
        first = [[t[i], *block[i], ints[i], None] for i in range(n_rows)]
        second = [[t[i], *block[i], maybe[i], block[i, 0]] for i in range(n_rows)]
        _reference_write_table(tmp_path / "ref.first.csv", files[".first.csv"][0], first)
        _reference_write_table(tmp_path / "ref.second.csv", files[".second.csv"][0], second)
        for name in ("first.csv", "second.csv"):
            assert (tmp_path / f"out.{name}").read_bytes() == (tmp_path / f"ref.{name}").read_bytes()
        assert (tmp_path / "out.json").read_text() == "{}\n"
        assert len(forks) == workers - 1
        _assert_no_child_left(fds)

    @pytest.mark.parametrize("family", sorted(_FLOAT_FAMILIES))
    def test_float_family(self, tmp_path, family):
        floats = _FLOAT_FAMILIES[family]()
        header = ["x", "minus_x"]
        _reference_write_table(tmp_path / "ref.csv", header, [[x, -x] for x in floats])
        _write_table(tmp_path / "new.csv", header, [floats, -floats])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    # integers whose float is exact, and so whose "%.17g" is their "%d"
    EXACT_INTS = [0, 1, -1, 9, -9, 10, -10, 10**15, 2**53 - 1, 2**53, -(2**53)]

    def test_exact_integers_print_alike_in_both_formats(self):
        assert ["%.17g" % float(i) for i in self.EXACT_INTS] == ["%d" % i for i in self.EXACT_INTS]

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32, np.uint8])
    def test_exact_integers_take_the_float_writer(self, tmp_path, monkeypatch, dtype):
        values = [i for i in self.EXACT_INTS if np.can_cast(np.min_scalar_type(i), dtype)]
        calls, float_cells = [], cells.float_cells
        monkeypatch.setattr(cells, "float_cells", lambda c: calls.append(c) or float_cells(c))
        _write_table(tmp_path / "new.csv", ["i"], [np.array(values, dtype=dtype)])
        _reference_write_table(tmp_path / "ref.csv", ["i"], [[i] for i in values])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert len(calls) == 1

    @pytest.mark.parametrize("dtype, beyond", [
        (np.int64, 2**53 + 1), (np.int64, -(2**53) - 1),
        (np.int64, np.iinfo(np.int64).max), (np.int64, np.iinfo(np.int64).min),
        (np.uint64, np.iinfo(np.uint64).max),
    ])
    def test_integers_beyond_two_to_the_53_stay_exact(self, tmp_path, dtype, beyond):
        # the chunk holding the large value is formatted by "%d", the one before it by floats
        exact = [i for i in self.EXACT_INTS if np.can_cast(np.min_scalar_type(i), dtype)]
        values = exact * (cells._CHUNK_ROWS // len(exact) + 1) + [beyond]
        _write_table(tmp_path / "new.csv", ["i"], [np.array(values, dtype=dtype)])
        _reference_write_table(tmp_path / "ref.csv", ["i"], [[i] for i in values])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "new.csv").read_text().splitlines()[-1] == str(beyond)

    def test_two_dimensional_block_adds_its_columns_in_order(self, tmp_path):
        block = np.arange(12.0).reshape(4, 3)
        first = np.arange(4)
        _write_table(tmp_path / "new.csv", ["i", "a", "b", "c"], [first, block])
        rows = [[i, *block[i]] for i in range(4)]
        _reference_write_table(tmp_path / "ref.csv", ["i", "a", "b", "c"], rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize(
        "column", [np.array([True, False]), np.array([1j, 2j]), np.array(["a", "b"]),
                   np.array([object(), 1.0]), np.zeros((2, 2, 2))]
    )
    def test_other_kinds_raise_type_error(self, tmp_path, column):
        with pytest.raises(TypeError):
            _write_table(tmp_path / "t.csv", ["x"], [column])

    def test_none_cells_are_empty(self, tmp_path):
        column = np.array([0.1, None, -0.0, 3])
        _write_table(tmp_path / "new.csv", ["i", "x"], [np.arange(4), column])
        rows = [[i, value] for i, value in enumerate(column)]
        _reference_write_table(tmp_path / "ref.csv", ["i", "x"], rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "new.csv").read_text().splitlines()[2] == "1,"

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("with_noise", [False, True])
    def test_memory_does_not_grow_with_the_table(self, tmp_path, monkeypatch, with_noise, workers):
        # simulate's shape: 14 float columns, and a noise table that repeats 4
        # of them; with two writers, this process holds no more than its chunks
        _set_writers(monkeypatch, workers)
        def peak(n_rows):
            block = np.random.default_rng(n_rows).standard_normal((n_rows, 14))
            tables = [(tmp_path / "t.csv", [f"c{i}" for i in range(14)], [block])]
            if with_noise:
                tables.append((tmp_path / "n.csv", ["c0", "c4", "c5", "c6"],
                               [block[:, 0], block[:, 4:7]]))
            tracemalloc.start()
            try:
                with contextlib.ExitStack() as stack:
                    cells.write_tables([(stack.enter_context(path.open("wb")), header, columns)
                                        for path, header, columns in tables])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the chunk's table, the NUL mask and the output, and no cell matrix kept past its table
        chunk_cells = cells._CHUNK_ROWS * 14 * 24
        short, long = peak(2**13), peak(2**16)
        assert long < 3.5 * chunk_cells
        assert long < 1.25 * short

    @pytest.mark.parametrize("workers", [1, 2])
    def test_simulate_formats_each_column_once_per_chunk(self, tmp_path, monkeypatch, workers):
        # 14 distinct float columns: the noise table's t and k_1..k_3 reuse the
        # trajectory's; this process formats chunks 0, workers, 2 workers, ...
        fds = _open_fds()
        _set_writers(monkeypatch, workers)
        calls, float_cells = [], cells.float_cells
        monkeypatch.setattr(cells, "float_cells", lambda c: calls.append(c.size) or float_cells(c))
        args = ["simulate", "--steps-per-cycle", "10000", "--quiet", "-o", str(tmp_path / "s")]
        assert main(args) == 0
        chunk = cells._CHUNK_ROWS
        assert calls == [min(chunk, 10_001 - start)
                         for start in range(0, 10_001, chunk * workers) for _ in range(14)]
        _assert_no_child_left(fds)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, capsys, forks, workers):
        # a kernel that fails on the second chunk, as a full disk would: the
        # 15th call here, or the first call of the child that formats it
        fds = _open_fds()
        calls, float_cells = [], cells.float_cells
        caller = os.getpid()

        def failing(chunk):
            calls.append(chunk)
            if len(calls) > 14 if workers == 1 else os.getpid() != caller:
                raise OSError(28, "No space left on device")
            return float_cells(chunk)

        _set_writers(monkeypatch, workers)
        monkeypatch.setattr(cells, "float_cells", failing)
        args = ["simulate", "--steps-per-cycle", "10000", "--quiet", "-o", str(tmp_path / "s")]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        # with two processes, this one formats chunks 0 and 2 of the three
        assert len(calls) == (15 if workers == 1 else 28)
        assert len(forks) == workers - 1
        assert list(tmp_path.iterdir()) == []
        _assert_no_child_left(fds)

    def test_unequal_lengths_raise(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            _write_table(tmp_path / "t.csv", ["x", "y"], [np.zeros(3), np.zeros(4)])
        # the tables of one call are written row-aligned, so they too have one length
        with (tmp_path / "a.csv").open("wb") as a, (tmp_path / "b.csv").open("wb") as b:
            with pytest.raises(ValueError, match="differ in length"):
                cells.write_tables([(a, ["x"], [np.zeros(3)]), (b, ["y"], [np.zeros(4)])])

    def test_header_must_name_every_column(self, tmp_path):
        with pytest.raises(ValueError, match="header names"):
            _write_table(tmp_path / "t.csv", ["x", "y"], [np.zeros((3, 2)), None])

    @pytest.mark.parametrize("branch", ["up", "down"])
    def test_simulate(self, tmp_path, branch):
        config = RunConfig(t_total=40.0, steps_per_cycle=1024, seed=3)
        args = [
            "simulate", "--t-total", "40", "--steps-per-cycle", "1024", "--seed", "3",
            "--branch", branch, "--quiet", "-o", str(tmp_path / "sim"),
        ]
        assert main(args) == 0
        spec = config.spec()
        n_steps = 1024
        k = sample_path(config.model(), n_steps, spec.t_total / n_steps, 3)
        trace = evolve_and_extract(spec, k, config.integrator(), branch=branch)
        b = control_field(spec, np.minimum(trace.times, spec.t_total))
        rows = [
            [
                trace.times[i], b[i, 0], b[i, 1], b[i, 2], k[i, 0], k[i, 1], k[i, 2],
                trace.amp_up[i].real, trace.amp_up[i].imag,
                trace.amp_down[i].real, trace.amp_down[i].imag,
                trace.energy[i], trace.total_phase_nodes[i], trace.dynamical_phase_nodes[i],
            ]
            for i in range(trace.times.size)
        ]
        header = (tmp_path / "sim.trajectory.csv").read_text().splitlines()[0].split(",")
        _reference_write_table(tmp_path / "ref_traj.csv", header, rows)
        _reference_write_table(
            tmp_path / "ref_noise.csv",
            ["t", "k_1", "k_2", "k_3"],
            [[trace.times[i], *k[i]] for i in range(trace.times.size)],
        )
        assert (tmp_path / "sim.trajectory.csv").read_bytes() == (
            tmp_path / "ref_traj.csv"
        ).read_bytes()
        assert (tmp_path / "sim.noise.csv").read_bytes() == (
            tmp_path / "ref_noise.csv"
        ).read_bytes()

    @pytest.mark.parametrize("mode", ["first_order", "full_sim"])
    def test_mc_records(self, tmp_path, mode):
        config = RunConfig(n_trials=50, steps_per_cycle=512, seed=5, mode=mode)
        args = [
            "mc", "--n-trials", "50", "--steps-per-cycle", "512", "--seed", "5",
            "--mode", mode, "--quiet", "-o", str(tmp_path / "mc"),
        ]
        main(args)
        records = _reference_run_ensemble(
            config.spec(), config.model(), 50, 5, mode=mode, config=config.integrator()
        )
        _reference_write_table(
            tmp_path / "ref.csv",
            ["trial_index", "gamma_fo", "delta_fo", "alpha_fo", "gamma_sim", "leakage"],
            [
                [r.trial_index, r.gamma_fo, r.delta_fo, r.alpha_fo, r.gamma_sim, r.leakage]
                for r in records
            ],
        )
        assert (tmp_path / "mc.records.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("with_mc", [False, True])
    def test_sweep(self, tmp_path, with_mc):
        args = [
            "sweep", "--param", "t_total", "--values", "50,100,200",
            "--n-trials", "40", "--steps-per-cycle", "512", "--quiet",
            "-o", str(tmp_path / "sw"),
        ]
        assert main(args + (["--with-mc"] if with_mc else [])) == 0
        # JSON floats round-trip exactly, so the summary rows are the table's values
        rows = read_json(tmp_path / "sw.summary.json")["rows"]
        header = (tmp_path / "sw.sweep.csv").read_text().splitlines()[0].split(",")
        assert sorted(header) == sorted(rows[0])
        assert ("law_var_gamma" in header) == with_mc
        _reference_write_table(
            tmp_path / "ref.csv", header, [[row[k] for k in header] for row in rows]
        )
        assert (tmp_path / "sw.sweep.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _chunk_of(values: np.ndarray) -> int:
    """The chunk of a slice of ``TestRingWriter.ROWS``, from its first row."""
    return int(values[0]) // cells._CHUNK_ROWS


class TestRingWriter:
    """Tables written by forked processes that pass a token hold the serial writer's bytes.

    The table ``ROWS`` has five chunks, the last of 10 rows, and its one
    column is the row index, so a kernel knows its chunk.  Two processes
    write chunks 0, 2, 4 (this one) and 1, 3; three write 0, 3 (this
    one), 1, 4 and 2.
    """

    ROWS = np.arange(4 * cells._CHUNK_ROWS + 10, dtype=float)

    def _write(self, path: Path, values=ROWS) -> None:
        _write_table(path, ["row"], [values])

    def _reference(self, path: Path, stop: int = len(ROWS)) -> bytes:
        _reference_write_table(path, ["row"], [[x] for x in self.ROWS[:stop]])
        return path.read_bytes()

    def _chunk_kernel(self, monkeypatch, act) -> list:
        """Call ``act(chunk)`` before each chunk's kernel; return the chunks formatted here."""
        seen, float_cells = [], cells.float_cells

        def kernel(values):
            seen.append(_chunk_of(values))
            act(seen[-1])
            return float_cells(values)

        monkeypatch.setattr(cells, "float_cells", kernel)
        return seen

    @pytest.mark.parametrize("failing", [{1}, {2}, {3}, {4}, {1, 3}, {2, 4}, {0, 1}, {3, 4},
                                         {0, 2, 4}], ids=str)
    def test_the_earliest_failing_chunk_raises(self, tmp_path, monkeypatch, forks, failing):
        # the file holds the chunks before it, as the serial writer leaves it
        fds = _open_fds()
        def act(chunk):
            if chunk in failing:
                raise ValueError(f"chunk {chunk} failed")

        self._chunk_kernel(monkeypatch, act)
        first = min(failing)
        want = self._reference(tmp_path / "ref.csv", first * cells._CHUNK_ROWS)
        # five processes write a chunk each, however many CPUs the host has
        for workers in (1, 2, 3, 5):
            _set_writers(monkeypatch, workers)
            with pytest.raises(ValueError, match=f"^chunk {first} failed$"):
                self._write(tmp_path / f"w{workers}.csv")
            assert (tmp_path / f"w{workers}.csv").read_bytes() == want
            _assert_no_child_left(fds)
        assert len(forks) == 1 + 2 + 4

    def test_long_simulate_equals_the_serial_output(self, tmp_path, monkeypatch, forks):
        fds = _open_fds()
        args = ["simulate", "--steps-per-cycle", "65536", "--quiet"]
        for workers in (1, 2):
            _set_writers(monkeypatch, workers)
            assert main(args + ["-o", str(tmp_path / f"w{workers}")]) == 0
        assert len(forks) == 1
        for suffix in (".trajectory.csv", ".noise.csv"):
            serial, ring = ((tmp_path / f"w{w}{suffix}").read_bytes() for w in (1, 2))
            assert serial == ring
        _assert_no_child_left(fds)

    def test_the_break_even(self, tmp_path, monkeypatch, forks):
        # a second process from twice _CELLS_PER_WORKER cells, counted over
        # the three columns of the two tables, a column of None among them
        fds = _open_fds()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(cells, "_CELLS_PER_WORKER", 6 * cells._CHUNK_ROWS)
        for n_rows, processes in ((4 * cells._CHUNK_ROWS - 1, 1), (4 * cells._CHUNK_ROWS, 2)):
            with (tmp_path / "a.csv").open("wb") as a, (tmp_path / "b.csv").open("wb") as b:
                cells.write_tables([(a, ["row"], [self.ROWS[:n_rows]]),
                                    (b, ["row", "none"], [self.ROWS[:n_rows], None])])
            assert len(forks) == processes - 1
        assert (tmp_path / "a.csv").read_bytes() == self._reference(
            tmp_path / "ref.csv", 4 * cells._CHUNK_ROWS)
        _assert_no_child_left(fds)

    @pytest.mark.parametrize("why", ["thread", "no_affinity", "bytes_io"])
    def test_one_process_without_a_safe_fork_or_a_file(self, tmp_path, monkeypatch, forks, why):
        _set_writers(monkeypatch, 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30.0,))
        if why == "no_affinity":
            monkeypatch.delattr(os, "sched_getaffinity")
        if why == "thread":
            thread.start()
        try:
            if why == "bytes_io":
                out = io.BytesIO()
                cells.write_tables([(out, ["row"], [self.ROWS])])
                (tmp_path / "w.csv").write_bytes(out.getvalue())
            else:
                self._write(tmp_path / "w.csv")
        finally:
            release.set()
            if thread.is_alive():
                thread.join(timeout=30.0)
        assert forks == []
        assert (tmp_path / "w.csv").read_bytes() == self._reference(tmp_path / "ref.csv")

    @pytest.mark.parametrize("failing_fork", [1, 2])
    def test_a_failed_fork_leaves_its_chunks_here(self, tmp_path, monkeypatch, failing_fork):
        # residues are forked highest first; where the fork of residue r
        # fails, this process writes the chunks of residues 0 to r
        fds = _open_fds()
        _set_writers(monkeypatch, 3)
        calls = []
        fork = os.fork

        def limited_fork():
            calls.append(None)
            if len(calls) >= failing_fork:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", limited_fork)
        seen = self._chunk_kernel(monkeypatch, lambda chunk: None)
        self._write(tmp_path / "w.csv")
        assert len(calls) == failing_fork
        assert seen == ([0, 1, 2, 3, 4] if failing_fork == 1 else [0, 1, 3, 4])
        assert (tmp_path / "w.csv").read_bytes() == self._reference(tmp_path / "ref.csv")
        _assert_no_child_left(fds)

    @pytest.mark.parametrize("rows, named", [(len(ROWS), "1, 3"),
                                             (9 * cells._CHUNK_ROWS, "1, 3, ..., 7")])
    def test_a_child_that_dies_is_named(self, tmp_path, monkeypatch, forks, rows, named):
        fds = _open_fds()
        caller = os.getpid()

        def act(chunk):
            if chunk == 3 and os.getpid() != caller:
                os._exit(3)

        self._chunk_kernel(monkeypatch, act)
        _set_writers(monkeypatch, 2)
        died = f"^the process for chunks {named} exited with status 3$"
        with pytest.raises(ChildProcessError, match=died):
            self._write(tmp_path / "w.csv", np.arange(rows, dtype=float))
        assert len(forks) == 1
        _assert_no_child_left(fds)

    def test_a_child_that_dies_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        fds = _open_fds()
        caller = os.getpid()

        def dying(values):
            if os.getpid() != caller:
                os._exit(3)
            return values

        _set_writers(monkeypatch, 2)
        kernel = cells._cells
        monkeypatch.setattr(cells, "_cells", lambda values: kernel(dying(values)))
        args = ["simulate", "--steps-per-cycle", "10000", "--quiet", "-o", str(tmp_path / "s")]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: the process for chunks 1 exited with status 3\n"
        assert list(tmp_path.iterdir()) == []
        _assert_no_child_left(fds)

    @pytest.mark.parametrize("failing", [0, 2])
    def test_an_earlier_chunk_than_a_dead_childs_raises(self, tmp_path, monkeypatch, failing):
        # the child dies on chunk 1; this process fails on chunk 0, before
        # it, or on chunk 2, after it
        fds = _open_fds()
        caller = os.getpid()

        def act(chunk):
            if os.getpid() != caller:
                os._exit(3)
            if chunk == failing:
                raise ValueError(f"chunk {chunk} failed")

        self._chunk_kernel(monkeypatch, act)
        _set_writers(monkeypatch, 2)
        error = ValueError if failing == 0 else ChildProcessError
        with pytest.raises(error, match="^chunk 0 failed$" if failing == 0 else "chunks 1, 3 "):
            self._write(tmp_path / "w.csv")
        _assert_no_child_left(fds)

    def test_a_failing_caller_kills_its_children(self, tmp_path, monkeypatch, forks):
        # chunk 0 fails here, so this process need not wait for the children's
        # chunks, which here would take a minute
        fds = _open_fds()
        caller = os.getpid()

        def act(chunk):
            if os.getpid() != caller:
                time.sleep(60.0)
            elif chunk == 0:
                raise ValueError("chunk 0 failed")

        self._chunk_kernel(monkeypatch, act)
        _set_writers(monkeypatch, 3)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^chunk 0 failed$"):
            self._write(tmp_path / "w.csv")
        assert time.perf_counter() - start < 30.0
        assert len(forks) == 2
        _assert_no_child_left(fds)

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from berrysim import AccuracyError, analytics, cli
from berrysim.cli import RunConfig, config_from_file, format_config, main
from berrysim.evolve import evolve_and_extract
from berrysim.field import PrecessionSpec, adiabaticity_report, control_field
from berrysim.montecarlo import coherence, compare_to_analytic, run_ensemble, summarize
from berrysim.noise import NoiseModel, sample_path


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


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
        # trials run serially; the thread pool and its knob are gone
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


def test_cli_import_leaves_scipy_out():
    # scipy serves the tests only; no CLI call pays for its import
    code = (
        "import sys, berrysim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
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
        "NoiseModel", "NoisePath", "OuParams", "autocovariance", "estimate_autocovariance",
        "sample_path",
        "AdiabaticityReport", "PrecessionSpec", "SphericalAngles", "adiabaticity_report",
        "control_field", "polar_angles",
        "PhaseMoments", "QuadratureEstimate", "VarianceBreakdown", "Weight",
        "berry_connection_phi", "berry_phase_variance_broadband",
        "berry_phase_variance_narrowband", "covariance_by_quadrature", "dephasing_factor",
        "dynamical_weight", "geometric_weight", "noiseless_berry_phase",
        "noncyclic_connection_term", "phase_covariance", "phase_moments", "second_moments",
        "variance_by_quadrature",
        "IntegratorConfig", "PhaseExtraction", "TrajectoryTrace", "connection_phase_discrete",
        "evolve_and_extract",
        "CoherenceEstimate", "ComparisonReport", "EnsembleStats", "GridPoint", "TrialRecord",
        "coherence", "compare_to_analytic", "regime_grid", "run_ensemble", "summarize",
        "trial_seed",
    ])
    assert all(hasattr(berrysim, name) for name in berrysim.__all__)


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
        assert max(abs(z) for z in summary["z_scores"].values()) <= 3.0
        assert abs(summary["coherence"]["z_score"]) <= 3.0
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

    def test_tampered_targets_fail(self, tmp_path):
        code = main(
            self.ARGS + ["-o", str(tmp_path / "bad"), "--tamper-variance-scale", "5.0"]
        )
        assert code == 1
        assert read_json(tmp_path / "bad.summary.json")["pass"] is False

    def test_small_ensemble_skips_coherence(self, tmp_path):
        args = [
            "mc", "--n-trials", "60", "--steps-per-cycle", "512", "--seed", "1",
            "--sigma12", "0", "--sigma3", "0", "--quiet", "-o", str(tmp_path / "tiny"),
        ]
        assert main(args) == 0
        summary = read_json(tmp_path / "tiny.summary.json")
        assert summary["coherence"] is None
        assert all(z == 0.0 for z in summary["z_scores"].values())

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
        # trials leak above the threshold, and the z-gate still passes
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


@pytest.mark.parametrize(
    "args",
    [
        ["mc"],
        ["sweep", "--param", "theta0", "--values", "0.5", "--with-mc"],
        ["compare"],
    ],
)
def test_three_trials_are_a_usage_error(tmp_path, capsys, args):
    argv = args + ["--n-trials", "3", "--steps-per-cycle", "512", "--quiet",
                   "-o", str(tmp_path / "tiny")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: need at least four records")
    assert "Traceback" not in err


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
        # the trajectory's t comes from the evolution grid, the noise's from the path
        config = RunConfig(t_total=t_total, n_cycles=n_cycles, steps_per_cycle=1024)
        n_steps = 1024 * n_cycles
        path = sample_path(config.model(), n_steps, t_total / n_steps, 5)
        _, trace = evolve_and_extract(
            config.spec(), path, config.integrator(), return_trace=True
        )
        assert np.array_equal(path.times, trace.times)

    def test_pole_skips_noncyclic_term(self, tmp_path):
        base = tmp_path / "pole"
        args = [
            "simulate", "--theta0", "0", "--t-total", "40",
            "--steps-per-cycle", "1024", "--seed", "3", "--quiet", "-o", str(base),
        ]
        assert main(args) == 0
        assert read_json(tmp_path / "pole.summary.json")["noncyclic_connection_term"] is None


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
        assert slopes["loglog_slope_var_gamma"] == pytest.approx(-1.0, abs=0.05)
        assert slopes["loglog_slope_var_delta"] == pytest.approx(1.0, abs=0.05)
        table = (tmp_path / "sweep.sweep.csv").read_text().splitlines()
        assert len(table) == 5
        header = table[0].split(",")
        assert "var_gamma" in header and "n_cycles" in header

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
        # each second moment of a row is one evaluation of the quadratic form
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
        assert [spec.theta0 for spec, _, _ in calls] == [0.5] * 4 + [1.0] * 4 + [1.5] * 4
        model = RunConfig().model()
        rows = read_json(tmp_path / "th.summary.json")["rows"]
        table = (tmp_path / "th.sweep.csv").read_text().splitlines()
        header = table[0].split(",")
        for i, (row, line) in enumerate(zip(rows, table[1:])):
            spec = calls[4 * i][0]
            gamma = analytics.geometric_weight(spec)
            delta = analytics.dynamical_weight(spec)
            alpha = gamma + delta
            assert {(x, y) for _, x, y in calls[4 * i:4 * i + 4]} == {
                (gamma, gamma), (delta, delta), (gamma, delta), (alpha, alpha)
            }
            closed = phase_covariance(spec, model, gamma, gamma)
            expected = {
                "var_gamma_transverse": closed.transverse_term,
                "var_gamma_longitudinal": closed.longitudinal_term,
                "var_gamma": closed.total,
                "var_delta": phase_covariance(spec, model, delta, delta).total,
                "cov_gamma_delta": phase_covariance(spec, model, gamma, delta).total,
                "var_alpha": phase_covariance(spec, model, alpha, alpha).total,
            }
            cells = dict(zip(header, line.split(",")))
            for key, value in expected.items():
                assert row[key] == value
                assert float(cells[key]) == value

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

    def test_fixed_omega_requires_integral_cycles(self, tmp_path, capsys):
        args = [
            "sweep", "--param", "t_total", "--values", "192.5", "--fixed-omega",
            "--t-total", "128", "--n-cycles", "128", "--quiet",
            "-o", str(tmp_path / "x"),
        ]
        assert main(args) == 2


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
            "mc_moments",
            "mc_coherence",
            "mc_covariance",
            "broadband_scaling",
            "first_order_vs_sim",
            "adiabaticity",
        } <= names
        assert all(c["passed"] for c in checks)

    def test_loud_noise_fails(self, capsys):
        args = ["compare", *self.SMALL, "--sigma12", "0.5", "--sigma3", "0.5", "--quiet"]
        assert main(args) == 1

    def test_quadrature_failure_exits_3(self, monkeypatch, capsys):
        import berrysim.analytics as analytics

        def explode(*args, **kwargs):
            raise AccuracyError("forced for the exit-code test")

        monkeypatch.setattr(analytics, "variance_by_quadrature", explode)
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
    quad_gamma = analytics.variance_by_quadrature(spec, w_gamma, model, nodes)
    rel = _reference_rel_diff(quad_gamma.value, moments.var_gamma)
    checks.append(
        ("oracle_var_gamma", rel <= 1e-6,
         f"closed={moments.var_gamma:.9e} quadrature={quad_gamma.value:.9e} rel={rel:.2e}")
    )
    quad_alpha = analytics.variance_by_quadrature(spec, w_gamma + w_delta, model, nodes)
    rel = _reference_rel_diff(quad_alpha.value, moments.var_alpha)
    checks.append(
        ("oracle_var_alpha", rel <= 1e-6,
         f"closed={moments.var_alpha:.9e} quadrature={quad_alpha.value:.9e} rel={rel:.2e}")
    )
    quad_cov = analytics.covariance_by_quadrature(spec, w_gamma, w_delta, model, nodes)
    rel = _reference_rel_diff(quad_cov.value, moments.cov_gamma_delta)
    checks.append(
        ("oracle_cov", rel <= 1e-6,
         f"closed={moments.cov_gamma_delta:.9e} quadrature={quad_cov.value:.9e} rel={rel:.2e}")
    )

    t_total = config.t_total
    slow = NoiseModel.from_scalars(
        config.sigma12, 0.01 / t_total, config.sigma3, 0.01 / t_total
    )
    spec_1 = PrecessionSpec(config.b0, config.theta0, config.t_total, 1)
    w_1 = analytics.geometric_weight(spec_1)
    nb = analytics.berry_phase_variance_narrowband(spec_1, slow)
    closed = analytics.phase_covariance(spec_1, slow, w_1, w_1).total
    rel = _reference_rel_diff(nb, closed)
    checks.append(
        ("narrowband_limit", rel <= 0.05,
         f"limit={nb:.6e} closed={closed:.6e} rel={rel:.2e}")
    )
    fast = NoiseModel.from_scalars(
        config.sigma12, 1000.0 / t_total, config.sigma3, 1000.0 / t_total
    )
    bb = analytics.berry_phase_variance_broadband(spec_1, fast)
    closed = analytics.phase_covariance(spec_1, fast, w_1, w_1).total
    rel = _reference_rel_diff(bb, closed)
    checks.append(
        ("broadband_limit", rel <= 0.05,
         f"limit={bb:.6e} closed={closed:.6e} rel={rel:.2e}")
    )

    records = run_ensemble(
        spec, model, config.n_trials, config.seed, config=config.integrator()
    )
    stats = summarize(records)
    report = compare_to_analytic(stats, moments)
    max_z = max(abs(z) for z in report.z_scores.values())
    checks.append(
        ("mc_moments", report.passed, f"n={stats.n_trials} max|z|={max_z:.3f}")
    )
    if len(records) >= 100:
        coh = coherence(records, moments.var_alpha)
        checks.append(
            ("mc_coherence", abs(coh.z_score) <= 3.0,
             f"measured={coh.measured:.6e} predicted={coh.predicted:.6e} z={coh.z_score:.3f}")
        )
    cov_ok = abs(stats.cov_gamma_delta - moments.cov_gamma_delta) <= 3.0 * stats.se_cov_gamma_delta
    if moments.cov_gamma_delta != 0.0:
        cov_ok = cov_ok and abs(stats.cov_gamma_delta) > 3.0 * stats.se_cov_gamma_delta
    checks.append(
        ("mc_covariance", cov_ok,
         f"empirical={stats.cov_gamma_delta:.6e} closed={moments.cov_gamma_delta:.6e} "
         f"se={stats.se_cov_gamma_delta:.2e}")
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
            vg.append(analytics.phase_covariance(spec_t, model, g_t, g_t).total)
            vd.append(analytics.phase_covariance(spec_t, model, d_t, d_t).total)
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

    sim_records = run_ensemble(
        spec, model, 8, config.seed, mode="full_sim", config=config.integrator()
    )
    baseline = evolve_and_extract(spec, None, config.integrator())
    residuals = [
        abs(r.gamma_sim - baseline.geometric_phase - r.gamma_fo) for r in sim_records
    ]
    median_residual = float(np.median(residuals))
    checks.append(
        ("first_order_vs_sim", median_residual <= 0.1,
         f"median|gamma_sim - gamma_noiseless - gamma_fo|={median_residual:.3e} rad")
    )

    report_ad = adiabaticity_report(spec, model)
    worst = max(report_ad.ratios, key=lambda k: report_ad.ratios[k] / report_ad.thresholds[k])
    checks.append(
        ("adiabaticity", report_ad.passed,
         f"worst {worst}={report_ad.ratios[worst]:.3g} "
         f"(threshold {report_ad.thresholds[worst]:.3g})")
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
        ],
        ids=["reference", "loud", "99_trials", "theta0_0.3_3_cycles", "sigma3_0"],
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
        names = [name for name, _, _ in want]
        assert ("mc_coherence" in names) == (config.n_trials >= 100)
        if overrides.get("sigma12") == 0.5:
            assert not all(ok for _, ok, _ in want)


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
        cli._write_columns(tmp_path / "new.csv", header, [floats, ints, None, -floats])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_two_dimensional_block_adds_its_columns_in_order(self, tmp_path):
        block = np.arange(12.0).reshape(4, 3)
        first = np.arange(4)
        cli._write_columns(tmp_path / "new.csv", ["i", "a", "b", "c"], [first, block])
        rows = [[i, *block[i]] for i in range(4)]
        _reference_write_table(tmp_path / "ref.csv", ["i", "a", "b", "c"], rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize(
        "column", [np.array([True, False]), np.array([1j, 2j]), np.array(["a", "b"]),
                   np.array([object(), 1.0]), np.zeros((2, 2, 2))]
    )
    def test_other_kinds_raise_type_error(self, tmp_path, column):
        with pytest.raises(TypeError):
            cli._write_columns(tmp_path / "t.csv", ["x"], [column])

    def test_none_cells_are_empty(self, tmp_path):
        column = np.array([0.1, None, -0.0, 3])
        cli._write_columns(tmp_path / "new.csv", ["i", "x"], [np.arange(4), column])
        rows = [[i, value] for i, value in enumerate(column)]
        _reference_write_table(tmp_path / "ref.csv", ["i", "x"], rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "new.csv").read_text().splitlines()[2] == "1,"

    def test_unequal_lengths_raise(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            cli._write_columns(tmp_path / "t.csv", ["x", "y"], [np.zeros(3), np.zeros(4)])

    def test_header_must_name_every_column(self, tmp_path):
        with pytest.raises(ValueError, match="header names"):
            cli._write_columns(tmp_path / "t.csv", ["x", "y"], [np.zeros((3, 2)), None])

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
        path = sample_path(config.model(), n_steps, spec.t_total / n_steps, 3)
        _, trace = evolve_and_extract(
            spec, path, config.integrator(), branch=branch, return_trace=True
        )
        b = control_field(spec, np.minimum(trace.times, spec.t_total))
        k = path.samples
        rows = [
            [
                trace.times[i], b[i, 0], b[i, 1], b[i, 2], k[i, 0], k[i, 1], k[i, 2],
                trace.amp_up[i].real, trace.amp_up[i].imag,
                trace.amp_down[i].real, trace.amp_down[i].imag,
                trace.energy[i], trace.total_phase[i], trace.dynamical_phase[i],
            ]
            for i in range(trace.times.size)
        ]
        header = (tmp_path / "sim.trajectory.csv").read_text().splitlines()[0].split(",")
        _reference_write_table(tmp_path / "ref_traj.csv", header, rows)
        _reference_write_table(
            tmp_path / "ref_noise.csv",
            ["t", "k_1", "k_2", "k_3"],
            [[path.times[i], *path.samples[i]] for i in range(path.times.size)],
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
        records = run_ensemble(
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
        assert ("mc_var_gamma" in header) == with_mc
        _reference_write_table(
            tmp_path / "ref.csv", header, [[row[k] for k in header] for row in rows]
        )
        assert (tmp_path / "sw.sweep.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

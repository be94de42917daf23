import json
import math
from pathlib import Path

import numpy as np
import pytest

from berrysim import AccuracyError, analytics, cli
from berrysim.cli import RunConfig, config_from_file, format_config, main
from berrysim.evolve import evolve_and_extract
from berrysim.field import control_field
from berrysim.montecarlo import run_ensemble
from berrysim.noise import sample_path


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
            ("n_jobs", 0),
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

    def test_parallel_records_match_serial(self, tmp_path):
        main(self.ARGS + ["-o", str(tmp_path / "serial")])
        main(self.ARGS + ["-o", str(tmp_path / "par"), "--n-jobs", "2"])
        assert (tmp_path / "serial.records.csv").read_bytes() == (
            tmp_path / "par.records.csv"
        ).read_bytes()
        a = read_json(tmp_path / "serial.summary.json")
        b = read_json(tmp_path / "par.summary.json")
        assert a["empirical"] == b["empirical"]
        assert a["z_scores"] == b["z_scores"]

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
        calls = []

        class CountingAnalytics:
            def __getattr__(self, name):
                return getattr(analytics, name)

            def berry_phase_variance(self, spec, model):
                calls.append(spec)
                return analytics.berry_phase_variance(spec, model)

        monkeypatch.setattr(cli, "analytics", CountingAnalytics())
        args = [
            "sweep", "--param", "theta0", "--values", "0.5,1.0,1.5",
            "--quiet", "-o", str(tmp_path / "th"),
        ]
        assert main(args) == 0
        assert [spec.theta0 for spec in calls] == [0.5, 1.0, 1.5]
        model = RunConfig().model()
        rows = read_json(tmp_path / "th.summary.json")["rows"]
        table = (tmp_path / "th.sweep.csv").read_text().splitlines()
        header = table[0].split(",")
        for spec, row, line in zip(calls, rows, table[1:]):
            closed = analytics.berry_phase_variance(spec, model)
            expected = {
                "var_gamma_transverse": closed.transverse_term,
                "var_gamma_longitudinal": closed.longitudinal_term,
                "var_gamma": closed.total,
                "var_delta": analytics.dynamical_phase_variance(spec, model).total,
                "var_alpha": analytics.total_phase_variance(spec, model).total,
            }
            cells = dict(zip(header, line.split(",")))
            for key, value in expected.items():
                assert row[key] == value
                assert float(cells[key]) == value

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
                   np.array([None, 1.0]), np.zeros((2, 2, 2))]
    )
    def test_other_kinds_raise_type_error(self, tmp_path, column):
        with pytest.raises(TypeError):
            cli._write_columns(tmp_path / "t.csv", ["x"], [column])

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

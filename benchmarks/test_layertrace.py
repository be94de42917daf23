"""Self-test of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q benchmarks/test_layertrace.py
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from layertrace import Span, Tracer, self_times  # noqa: E402


def fake_clock(*times: float):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] > middle [1, 5] > leaves [1.5, 2.5] and [4, 4.5]
    tracer = Tracer(clock=fake_clock(0.0, 1.0, 1.5, 2.5, 4.0, 4.5, 5.0, 10.0))
    leaf = tracer.wrap("leaf", lambda: None)

    def middle_body():
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle_body)
    tracer.wrap("outer", middle)()

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (outer,), (mid,), leaves = by_name["outer"], by_name["middle"], by_name["leaf"]
    assert outer.parent is None
    assert mid.parent == outer.id
    assert [s.parent for s in leaves] == [mid.id, mid.id]

    own = self_times(tracer.spans)
    assert own[outer.id] == pytest.approx(10.0 - 4.0)
    assert own[mid.id] == pytest.approx(4.0 - 1.0 - 0.5)
    assert [own[s.id] for s in leaves] == pytest.approx([1.0, 0.5])


def test_failed_call_is_recorded_and_reraised():
    tracer = Tracer(clock=fake_clock(0.0, 2.0, 3.0, 4.0))

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom, probe=lambda a, k, r: {"result": r})()
    (span,) = tracer.spans
    assert (span.error, span.info, span.duration) == ("ValueError", {"result": None}, 2.0)
    tracer.wrap("after", lambda: None)()
    assert tracer.spans[-1].parent is None


def test_patch_skips_a_missing_name_and_restores():
    module = types.ModuleType("pkg.fake")
    module.present = lambda x: x + 1
    original = module.present
    tracer = Tracer()

    assert tracer.patch(module, "absent") is False
    assert not hasattr(module, "absent")
    assert tracer.patch(module, "present", probe=lambda a, k, r: {"value": r}) is True
    assert module.present(1) == 2
    tracer.restore()

    assert module.present is original
    assert tracer.missing == {"fake.absent"}
    assert tracer.found == {"fake.present"}
    assert [(s.name, s.info) for s in tracer.spans] == [("fake.present", {"value": 2})]


def test_install_skips_a_boundary_the_package_no_longer_has(monkeypatch):
    import berrysim.montecarlo

    monkeypatch.delattr(berrysim.montecarlo, "_sample_matrix")
    tracer = Tracer()
    run.install(tracer)
    try:
        assert "montecarlo._sample_matrix" in tracer.missing
        assert "cli.sample_path" in tracer.found
    finally:
        tracer.restore()
    assert not hasattr(berrysim.montecarlo, "_sample_matrix")


def span(id, name, start, end, parent=None, error=None, info=None):
    return Span(id, name, start, end, parent, 1, error, info)


def test_layer_metrics_count_outer_quadrature_calls_only():
    spans = [
        span(2, "analytics.covariance_by_quadrature", 1.0, 3.0, parent=1,
             info={"final": 8192, "evaluated": 12288}),
        span(1, "analytics.variance_by_quadrature", 1.0, 3.5, parent=0,
             info={"final": 8192, "evaluated": 12288}),
        span(3, "analytics.variance_by_quadrature", 4.0, 5.0, parent=0,
             error="AccuracyError", info={"final": 0, "evaluated": 4096}),
        span(4, "analytics.berry_phase_variance", 5.0, 5.5, parent=0),
        span(0, "cli.main", 0.0, 6.0),
    ]
    metrics = run.layer_metrics(spans, bytes_written=1000)
    assert metrics["analytics.quad_calls"] == 2
    assert metrics["analytics.quad_failed"] == 1
    assert metrics["analytics.quad_busy_s"] == pytest.approx(3.5)
    assert metrics["analytics.quad_nodes_final"] == 8192
    assert metrics["analytics.quad_useful_ratio"] == pytest.approx(8192 / 16384)
    assert metrics["analytics.closed_form_calls"] == 1
    assert metrics["cli.self_s"] == pytest.approx(6.0 - 2.5 - 1.0 - 0.5)
    assert metrics["cli.ns_per_byte"] == pytest.approx(2.0 / 1000 * 1e9)
    assert metrics["noise.ns_per_node"] == 0.0


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {name: unit for name, (_, unit) in run.LAYER_METRICS.items()}
    assert per_layer == {**expected, "trace.overhead_ratio": "fraction"}
    assert {m["name"] for m in spec["end_to_end"]} == {"throughput", "setup_s", "peak_rss_mb"}


def test_times_are_scaled_by_the_bracketing_kernel_times():
    # kernel 0.2 s around the first time, 0.2 s then 0.6 s around the second
    scaled = run.scaled_median([1.0, 3.0], [0.2, 0.2, 0.6])
    ref = run.CAL_REF_S
    assert scaled == pytest.approx((1.0 * ref / 0.2 + 3.0 * ref / 0.4) / 2)


def test_an_unreadable_output_counts_as_a_wrong_result(tmp_path):
    def check(files):
        return json.loads(files[".json"].read_text())["missing_key"]

    command = run.Command("cmd", ["analytic"], (".json",), check)
    other = run.Command("other", ["analytic"], (".json",), check)
    workload = run.Workload("fake", "cli", "points", 2, {},
                            lambda seed, workdir: [command, other])
    runner = run.Runner(workload, 0, tmp_path)
    output = tmp_path / "cmd.json"
    output.write_text("{}")
    runner._judge(command, 0, "", {".json": output})
    runner._judge(other, 3, "accuracy error: stalled\n", {})
    assert (runner.attempted, runner.failed, runner.wrong) == (2, 2, 1)
    assert "other: exit 3: accuracy error: stalled" in runner.reasons


def test_a_repeated_command_counts_once_and_fails_if_any_run_fails(tmp_path):
    command = run.Command("cmd", ["analytic"], (".json",), run.check_ok)
    workload = run.Workload("fake", "cli", "points", 1, {}, lambda seed, workdir: [command])
    runner = run.Runner(workload, 0, tmp_path)
    output = tmp_path / "cmd.json"
    output.write_text("{}")
    for _ in range(3):
        runner._judge(command, 0, "", {".json": output})
    assert (runner.attempted, runner.failed, runner.wrong, runner.runs) == (1, 0, 0, 3)
    output.write_text("{ }")
    runner._judge(command, 0, "", {".json": output})
    runner._judge(command, 1, "", {})
    assert (runner.attempted, runner.failed, runner.wrong, runner.runs) == (1, 1, 1, 5)

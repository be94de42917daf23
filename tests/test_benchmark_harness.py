"""The benchmark harness still traces a boundary for every per-layer metric.

``benchmarks/run.py`` rebinds the names one berrysim module takes from
another (its ``BOUNDARIES``) and skips a name the package no longer has;
a metric whose role then has no installed name drops out of the traced
report.  These tests load the harness as it is, without changing it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import berrysim.cli
import berrysim.montecarlo

HARNESS = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"


@pytest.fixture
def harness(monkeypatch):
    # run.py puts its own directory on sys.path to import layertrace
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("berrysim_benchmark_run", HARNESS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _roles_without_a_boundary(harness) -> set:
    """Roles of ``LAYER_METRICS`` that no installed boundary records."""
    tracer = harness.Tracer()
    harness.install(tracer)
    try:
        installed = {harness.ROLES[name][1] for name in tracer.found}
    finally:
        tracer.restore()
    # the round driver wraps cli.main itself, outside BOUNDARIES
    installed.add(harness.ROLES["cli.main"][1])
    return {role for role, _ in harness.LAYER_METRICS.values()} - installed


def test_every_layer_metric_has_an_installed_boundary(harness):
    assert _roles_without_a_boundary(harness) == set()


def test_install_then_restore_leaves_the_package_untraced(harness):
    run_ensemble = berrysim.cli.run_ensemble
    tracer = harness.Tracer()
    harness.install(tracer)
    assert berrysim.cli.run_ensemble is not run_ensemble
    tracer.restore()
    assert berrysim.cli.run_ensemble is run_ensemble
    assert not hasattr(berrysim.montecarlo.trial_seed, "__wrapped__")


def test_a_role_whose_only_name_is_gone_is_reported(harness, monkeypatch):
    # trial_seed is the only name booked under the seed role
    monkeypatch.delattr(berrysim.montecarlo, "trial_seed")
    assert _roles_without_a_boundary(harness) == {"seed"}

"""Random float64 inputs across the commands: a named refusal or a finite output.

Every call either exits 0 with finite outputs, fails a check (exit 1),
or stops with a named reason (exit 2 or 3); none raises out of ``main``
or warns, since the test configuration turns warnings into errors.
"""

import csv
import json
import math
import random

import pytest

from berrysim.cli import main

_COMMANDS = (
    ["analytic"],
    ["mc", "--n-trials", "8"],
    ["mc", "--mode", "full_sim", "--n-trials", "8"],
    ["sweep", "--param", "theta0", "--values", "0.3,1.0"],
    ["sweep", "--param", "theta0", "--values", "0.3,1.0", "--with-mc"],
    ["compare", "--n-trials", "8"],
    ["simulate"],
)
_EDGES = (5e-324, 1e-310, 1e-300, 1e300, 1.7e308)
_SCALES = ("b0", "t-total", "sigma12", "gamma12", "sigma3", "gamma3")


def edge_calls(seed: int, count: int) -> list:
    """``count`` argv lists without an output base, drawn from ``random.Random(seed)``.

    The scales are 10**U(-200, 200), one draw in ten an edge value of
    float64 instead; theta0 is uniform on [0, pi], with 1 to 8 cycles of
    16 steps.
    """
    rng = random.Random(seed)
    calls = []
    for _ in range(count):
        argv = list(rng.choice(_COMMANDS))
        for name in _SCALES:
            value = rng.choice(_EDGES) if rng.random() < 0.1 else 10.0 ** rng.uniform(-200, 200)
            argv += [f"--{name}", repr(value)]
        argv += ["--theta0", repr(rng.uniform(0.0, math.pi)),
                 "--n-cycles", str(rng.randint(1, 8)), "--steps-per-cycle", "16", "--quiet"]
        calls.append(argv)
    return calls


def _reject(constant):
    raise ValueError(f"non-finite JSON value {constant}")


def non_finite_outputs(paths) -> list:
    """The files among ``paths`` holding a NaN or an infinity, as JSON or CSV."""
    found = []
    for path in paths:
        text = path.read_text()
        if path.suffix == ".json":
            try:
                json.loads(text, parse_constant=_reject)
            except ValueError:
                found.append(path.name)
        elif any(cell.strip().lower().lstrip("+-") in ("nan", "inf", "infinity")
                 for row in csv.reader(text.splitlines()) for cell in row):
            found.append(path.name)
    return found


def test_random_float64_inputs_are_refused_by_name_or_finite(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BERRYSIM_OUTPUT_DIR", str(tmp_path))
    for index, argv in enumerate(edge_calls(0, 200)):
        code = main([*argv, "-o", f"call{index}"])
        capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
        if code == 0:
            assert non_finite_outputs(tmp_path.glob(f"call{index}.*")) == [], argv


@pytest.mark.parametrize("suffix,text", [
    (".json", '{"a": NaN}'), (".json", '{"a": [1.0, -Infinity]}'),
    (".csv", "x,y\n1,nan\n"), (".csv", "x,y\n-inf,2\n"),
])
def test_non_finite_outputs_are_found(tmp_path, suffix, text):
    path = tmp_path / ("out" + suffix)
    path.write_text(text)
    assert non_finite_outputs([path]) == [path.name]
    path.write_text(text.replace("NaN", "0.5").replace("Infinity", "1").replace("inf", "3")
                    .replace("nan", "4"))
    assert non_finite_outputs([path]) == []

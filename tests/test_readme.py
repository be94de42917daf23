"""The README's library quickstart and CLI examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from berrysim.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README}:Library quickstart", "exec"), {})
    assert capsys.readouterr().out.split()[0] == "10000"


def _cli_examples() -> list:
    """The argv of each command in the CLI section's ``Examples:`` block."""
    section = README.read_text(encoding="utf-8").split("\nExamples:\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.strip()]
    assert commands and all(command[0] == "berrysim" for command in commands)
    return [command[1:] for command in commands]


@pytest.mark.parametrize("argv", _cli_examples(), ids=" ".join)
def test_cli_example_runs(tmp_path, monkeypatch, capsys, argv):
    # a relative -o lands under the output directory
    monkeypatch.setenv("BERRYSIM_OUTPUT_DIR", str(tmp_path))
    assert main([*argv, "--quiet"]) == 0
    assert capsys.readouterr() == ("", "")

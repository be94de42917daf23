"""berrysim.forks is the one module that forks, waits for, kills and ends processes."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "berrysim"
LIFECYCLE = {"fork", "waitpid", "kill", "_exit"}


def _lifecycle_calls(path: Path) -> list:
    """The ``os`` lifecycle names that a module calls or imports, with their lines."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and node.attr in LIFECYCLE
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append(f"os.{node.attr} at line {node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"from os import {a.name} at line {node.lineno}"
                      for a in node.names if a.name in LIFECYCLE]
    return found


def test_only_forks_runs_the_process_lifecycle():
    owners = {path.name: calls for path in sorted(SRC.glob("*.py"))
              if (calls := _lifecycle_calls(path))}
    assert set(owners) == {"forks.py"}, owners
    assert {call.split(" ")[0] for call in owners["forks.py"]} == {f"os.{n}" for n in LIFECYCLE}

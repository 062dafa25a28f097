"""Rules on the package source itself."""

import ast
from pathlib import Path

import finsite


def test_invariants_raise_so_python_O_keeps_them():
    # `python -O` strips assert statements; invariants raise InvariantError
    found = []
    for path in sorted(Path(finsite.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []

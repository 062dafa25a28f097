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


def test_no_module_imports_dataclasses_or_pkgutil():
    # both pull in `inspect`, which would cost every command its start-up
    found = []
    for path in sorted(Path(finsite.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.partition(".")[0] in ("dataclasses", "pkgutil")]
    assert found == []

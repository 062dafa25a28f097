"""Rules on the package source itself."""

import ast
import importlib
from pathlib import Path

import finsite
from finsite.semiring import _Record


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


def test_the_package_lists_every_module():
    # `finsite/__init__.py` names its submodules; one left off the list
    # would be no attribute of the package
    pkg = Path(finsite.__file__).parent
    tree = ast.parse((pkg / "__init__.py").read_text(encoding="utf-8"))
    listed = [elt.value for node in ast.walk(tree)
              if isinstance(node, ast.Tuple)
              for elt in node.elts if isinstance(elt, ast.Constant)]
    assert sorted(listed) == sorted(
        path.stem for path in pkg.glob("*.py")
        if path.stem not in ("__init__", "__main__"))


def test_every_class_is_an_exception_or_a_record():
    # values are immutable records: equal by fields, closed to assignment
    found = []
    for path in sorted(Path(finsite.__file__).parent.glob("[!_]*.py")):
        module = importlib.import_module(f"finsite.{path.stem}")
        found += [f"{path.name} {name}" for name, obj in vars(module).items()
                  if isinstance(obj, type)
                  and obj.__module__ == module.__name__
                  and not issubclass(obj, (Exception, _Record))]
    assert found == []


def test_no_module_uses_cached_property():
    # a class attribute named like a cached value slows every later read of
    # it on CPython 3.11; derived data lives in the record's `_derived` dict
    found = []
    for path in sorted(Path(finsite.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if "cached_property" in (getattr(node, "id", None),
                                           getattr(node, "attr", None),
                                           getattr(node, "name", None))]
    assert found == []

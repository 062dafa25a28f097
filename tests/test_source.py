"""Rules on the package source itself."""

import ast
import importlib
from pathlib import Path

import finsite
from finsite.records import _Record


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


# A top-level function or class of `src/finsite` stays only if a command,
# the benchmark or a kept definition reaches it.  The roots are `cli.main`,
# every module-level statement that defines nothing (`cli.HANDLERS`,
# `cli.EXIT_CODES` and the `__main__` guards among them), and the finsite
# names that the benchmark's case runner, driver and span keys use.
BENCH = Path(__file__).parent.parent / "perfbench"
BENCH_FILES = ("cases.py", "run.py", "spans.py")


def _reachability():
    """Every top-level definition, keyed (module, name), and the set of
    those the roots reach."""
    pkg = Path(finsite.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(pkg.glob("*.py"))}
    defs = {(mod, node.name): node for mod, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    # per module, local name -> (module, name) for `from .m import n` and
    # -> module m for `from . import m`, wherever the import stands
    imports = {mod: {} for mod in trees}
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[mod][alias.asname or alias.name] = (
                        (node.module, alias.name) if node.module
                        else alias.name)

    def resolve(mod, name):
        """The definition `name` means in `mod`, through re-exports."""
        while (mod, name) not in defs:
            target = imports.get(mod, {}).get(name)
            if not isinstance(target, tuple):
                return None
            mod, name = target
        return mod, name

    def named(text):
        """The definitions a dotted name such as `finsite.glue.GlueError`,
        `topology.validate_topology` or `FiniteFrame.index` names."""
        parts = text.removeprefix("finsite.").split(".")
        if parts[0] in trees:
            return [resolve(*parts[:2])] if len(parts) > 1 else []
        return [key for key in defs if key[1] == parts[0]]

    def references(mod, node):
        out = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.append(resolve(mod, sub.id))
            elif (isinstance(sub, ast.Attribute)
                  and isinstance(sub.value, ast.Name)
                  and isinstance(imports[mod].get(sub.value.id), str)):
                out.append(resolve(imports[mod][sub.value.id], sub.attr))
            elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                  and sub.value.startswith("finsite.")):
                out += named(sub.value)
        return out

    roots = [("cli", "main")]
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                roots += references(mod, node)
    for name in BENCH_FILES:
        tree = ast.parse((BENCH / name).read_text(encoding="utf-8"))
        for sub in ast.walk(tree):
            # `fs.glue.glue_space`, and span keys such as "semiring.localize"
            if (isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Attribute)
                    and sub.value.attr in trees):
                roots.append(resolve(sub.value.attr, sub.attr))
            elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                  and "." in sub.value and " " not in sub.value):
                roots += named(sub.value)
    reached = set()
    todo = roots
    while todo:
        key = todo.pop()
        if key is not None and key not in reached:
            reached.add(key)
            todo += references(key[0], defs[key])
    return defs, reached


def test_every_definition_is_reached_from_a_command_or_the_benchmark():
    defs, reached = _reachability()
    assert sorted(f"{mod}.{name}" for mod, name in defs.keys() - reached) \
        == []

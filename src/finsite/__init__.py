"""finsite: finite commutative semirings, their spectra, finite locales and
Stone duality, sheaf checks over principal-open covers, and space gluing.

Everything is exhaustive and deterministic: inputs are immutable table-backed
values, outputs come in canonical order, and checks either verify or produce
a concrete witness.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name: str):
    """The submodule `name`, registered in `sys.modules` but executed only
    when one of its attributes is first read or it is imported by name."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Every submodule is an attribute of the package from the start, but a
# process compiles and runs only the ones it uses: `finsite check` executes
# `cli`, `formats` and `semiring` alone.  Tools that enumerate `sys.modules`
# still find the whole package, and inspecting a module loads it.  The
# names are listed: scanning the directory would import `inspect`.
globals().update((name, _lazy(name)) for name in (
    "catalog", "checks", "cli", "colimit", "finset", "formats", "glue",
    "locales", "semiring", "site", "spectra", "topology"))

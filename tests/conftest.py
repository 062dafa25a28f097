import collections
import sys
from pathlib import Path

import pytest

# make the shared oracles importable from any test module
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def enumerations(monkeypatch):
    """Counter of `enumerate_congruences` calls per semiring, counted in
    every finsite module that imported the function."""
    import finsite.cli  # noqa: F401  (bind every module that imports it)
    import finsite.spectra

    counts = collections.Counter()
    original = finsite.spectra.enumerate_congruences

    def counted(R):
        counts[R] += 1
        return original(R)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "finsite"
                and getattr(module, "enumerate_congruences", None)
                is original):
            monkeypatch.setattr(module, "enumerate_congruences", counted)
    return counts

import collections
import sys
from pathlib import Path

import pytest

# make the shared oracles importable from any test module
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def enumerations(monkeypatch):
    """Counter, per semiring, of congruence enumerations actually run: the
    builds behind each semiring's derived-data record, not calls to the
    public `enumerate_congruences`."""
    import finsite.semiring

    counts = collections.Counter()
    original = finsite.semiring._congruences

    def counted(R):
        counts[R] += 1
        return original(R)

    monkeypatch.setattr(finsite.semiring, "_congruences", counted)
    return counts


@pytest.fixture
def frame_builds(monkeypatch):
    """Counter, per tuple of element labels, of frames validated by
    `locales.finite_frame`: the builds behind the frame each space keeps,
    not calls to `frame_of_opens`."""
    import finsite.locales

    counts = collections.Counter()
    original = finsite.locales.finite_frame

    def counted(elements, above):
        elements = tuple(elements)
        counts[elements] += 1
        return original(elements, above)

    monkeypatch.setattr(finsite.locales, "finite_frame", counted)
    return counts

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
    """Counter, per space, of frames of opens built by
    `locales._frame_of_opens`: the builds behind the frame each space
    keeps, not calls to `frame_of_opens`."""
    import finsite.locales

    counts = collections.Counter()
    original = finsite.locales._frame_of_opens

    def counted(X):
        counts[X] += 1
        return original(X)

    monkeypatch.setattr(finsite.locales, "_frame_of_opens", counted)
    return counts

"""The census of small commutative semirings is complete and irredundant."""

import itertools

from finsite.catalog import catalog

from census import census
from oracles import are_isomorphic


def test_census_counts_per_order():
    assert [len(census(k)) for k in range(1, 6)] == [1, 2, 6, 36, 228]


def test_census_classes_are_pairwise_non_isomorphic():
    for k in range(1, 6):
        for A, B in itertools.combinations(census(k), 2):
            assert not are_isomorphic(A, B), (A, B)


def test_every_small_catalog_semiring_appears_once():
    for name, R in catalog():
        if R.n <= 5:
            hits = [S for S in census(R.n) if are_isomorphic(R, S)]
            assert len(hits) == 1, name

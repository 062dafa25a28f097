"""Bundled test-bench semirings, all with at most 8 elements.

Ring examples (Z/2, Z/3, Z/6), idempotent examples (the Boolean semiring B,
the pair B x B, a 4-chain under max/min), and truncated counting semirings
N2 = {0,1,T} and N3 = {0,1,2,T} where sums and products cap at the top.
"""

from __future__ import annotations

from .semiring import FiniteSemiring, product_semiring, validate_semiring


def boolean() -> FiniteSemiring:
    return validate_semiring(("0", "1"),
                             ((0, 1), (1, 1)),
                             ((0, 0), (0, 1)), 0, 1)


def boolean_pair() -> FiniteSemiring:
    return product_semiring(boolean(), boolean())


def zmod(m: int) -> FiniteSemiring:
    labels = tuple(str(i) for i in range(m))
    add = tuple(tuple((i + j) % m for j in range(m)) for i in range(m))
    mul = tuple(tuple((i * j) % m for j in range(m)) for i in range(m))
    return validate_semiring(labels, add, mul, 0, 1)


def truncated_naturals(top: int) -> FiniteSemiring:
    """{0, 1, ..., top} with both operations capped at top (labelled T)."""
    labels = tuple(str(i) for i in range(top)) + ("T",)
    n = top + 1
    add = tuple(tuple(min(i + j, top) for j in range(n)) for i in range(n))
    mul = tuple(tuple(min(i * j, top) for j in range(n)) for i in range(n))
    return validate_semiring(labels, add, mul, 0, 1)


def chain(k: int) -> FiniteSemiring:
    """The k-element total order as a semiring: + is max, * is min."""
    labels = tuple(f"c{i}" for i in range(k))
    add = tuple(tuple(max(i, j) for j in range(k)) for i in range(k))
    mul = tuple(tuple(min(i, j) for j in range(k)) for i in range(k))
    return validate_semiring(labels, add, mul, 0, k - 1)


def catalog() -> list[tuple[str, FiniteSemiring]]:
    """The bench in canonical order; names are stable identifiers."""
    return [
        ("B", boolean()),
        ("BxB", boolean_pair()),
        ("Z2", zmod(2)),
        ("Z3", zmod(3)),
        ("Z6", zmod(6)),
        ("N2", truncated_naturals(2)),
        ("N3", truncated_naturals(3)),
        ("chain4", chain(4)),
    ]

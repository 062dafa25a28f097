"""Independent brute force for the benchmark's correctness checks.

Nothing here imports finsite.  The semiring oracles scan every subset or
every set partition of a table; the space oracles count opens as the
down-sets of a preorder.  They are slow and plain on purpose.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

# Dedekind numbers D(0..5): monotone Boolean functions, or antichains of
# subsets.  The n-simplex has D(n+1) - 1 opens.
DEDEKIND = (2, 3, 6, 20, 168, 7581)


def simplex_counts(n: int) -> tuple[int, int]:
    """(points, opens) of the face space of the n-simplex."""
    return 2 ** (n + 1) - 1, DEDEKIND[n + 1] - 1


def ideals(R) -> list[frozenset[int]]:
    """Every ideal, by scanning each subset that holds zero."""
    rest = [i for i in range(R.n) if i != R.zero]
    out = []
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            s = frozenset((R.zero,) + extra)
            if all(R.add[a][b] in s for a in s for b in s) and \
                    all(R.mul[a][c] in s for a in s for c in range(R.n)):
                out.append(s)
    return out


def is_prime_ideal(R, s) -> bool:
    comp = [i for i in range(R.n) if i not in s]
    return R.one in comp and all(R.mul[a][b] in comp
                                 for a in comp for b in comp)


def _partitions(n: int):
    def rec(i, vec, used):
        if i == n:
            yield tuple(vec)
            return
        for b in range(used + 1):
            vec.append(b)
            yield from rec(i + 1, vec, max(used, b + 1))
            vec.pop()
    yield from rec(0, [], 0)


def congruences(R) -> list[tuple[int, ...]]:
    """Every congruence as a first-occurrence block vector, by testing
    every set partition for stability."""
    out = []
    rng = range(R.n)
    for p in _partitions(R.n):
        if all(p[R.add[a][c]] == p[R.add[b][c]]
               and p[R.mul[a][c]] == p[R.mul[b][c]]
               for a in rng for b in rng if a < b and p[a] == p[b]
               for c in rng):
            out.append(p)
    return out


def weak_spectrum_counts(R) -> tuple[int, int]:
    """(points, opens) of the weak congruence spectrum: proper congruences
    where a product related to zero forces a factor related to zero, with
    the topology generated by U_ab = {c : c separates a and b}."""
    rng = range(R.n)
    points = [c for c in congruences(R)
              if c[R.one] != c[R.zero]
              and all(c[R.mul[a][b]] != c[R.zero] or c[a] == c[R.zero]
                      or c[b] == c[R.zero] for a in rng for b in rng)]
    subbasis = [frozenset(i for i, c in enumerate(points) if c[a] != c[b])
                for a in rng for b in rng]
    return len(points), count_opens(len(points), subbasis)


def count_opens(n: int, subbasis) -> int:
    """Number of opens of the topology on range(n) generated by the
    subbasis: the down-sets of the preorder y <= x iff y lies in every
    subbasic open around x."""
    full = (1 << n) - 1
    minimal = []
    for x in range(n):
        m = full
        for u in subbasis:
            if x in u:
                m &= sum(1 << y for y in u)
        minimal.append(m)
    up = [sum(1 << y for y in range(n) if minimal[y] >> x & 1)
          for x in range(n)]

    @lru_cache(maxsize=None)
    def downsets(alive: int) -> int:
        # a down-set either avoids x, so avoids everything above x, or
        # holds x, so holds everything below x
        if not alive:
            return 1
        x = (alive & -alive).bit_length() - 1
        return downsets(alive & ~up[x]) + downsets(alive & ~minimal[x])

    return downsets(full)


def face_poset_opens(faces) -> int:
    """Opens of the face space of a complex given by its faces."""
    faces = list(faces)
    n = len(faces)
    return count_opens(n, [frozenset(j for j in range(n)
                                     if faces[j] <= faces[i])
                           for i in range(n)])

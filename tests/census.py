"""Every commutative semiring with 0 and 1 of a given small order, up to
isomorphism: the exhaustive test corpus.

Elements are 0..n-1 with 0 the zero and 1 the one (both 0 for the zero
semiring).  A backtracking search fills the addition table, a commutative
monoid with identity 0, then the multiplication, commutative with identity
1 and absorbing 0, checking associativity and distributivity as soon as the
entries they read are known.  Each class is kept once, as the least table
pair over every relabeling that fixes 0 and 1.  The tables are built from
the axioms alone; `validate_semiring` then checks them again.

    PYTHONPATH=src python3 tests/census.py 5   # class count per order
"""

from __future__ import annotations

import functools
import itertools
import sys

from finsite.semiring import FiniteSemiring, validate_semiring


def _associative_so_far(t, n) -> bool:
    """No (ab)c != a(bc) among the triples whose four entries are known."""
    for a in range(n):
        for b in range(n):
            ab = t[a][b]
            if ab is None:
                continue
            for c in range(n):
                bc = t[b][c]
                if bc is None:
                    continue
                left, right = t[ab][c], t[a][bc]
                if left is not None and right is not None and left != right:
                    return False
    return True


def _distributive_so_far(add, mul, n) -> bool:
    """No a(b+c) != ab+ac among the triples whose entries are known."""
    for a in range(n):
        for b in range(n):
            ab = mul[a][b]
            if ab is None:
                continue
            for c in range(b, n):
                ac, left = mul[a][c], mul[a][add[b][c]]
                if ac is not None and left is not None \
                        and left != add[ab][ac]:
                    return False
    return True


def _fill(t, cells, ok):
    """Every completion of the symmetric table t over the free cells that
    keeps ok(t) true, as tuples of rows."""
    if not cells:
        yield tuple(tuple(row) for row in t)
        return
    (i, j), rest = cells[0], cells[1:]
    for v in range(len(t)):
        t[i][j] = t[j][i] = v
        if ok(t):
            yield from _fill(t, rest, ok)
    t[i][j] = t[j][i] = None


def _tables(n: int):
    """Every (add, mul) pair on 0..n-1 with 0 and 1 in place, n >= 2."""
    free = [(i, j) for i in range(1, n) for j in range(i, n)]
    add = [[j if i == 0 else i if j == 0 else None for j in range(n)]
           for i in range(n)]
    for A in _fill(add, free, lambda t: _associative_so_far(t, n)):
        mul = [[0 if 0 in (i, j) else j if i == 1 else i if j == 1 else None
                for j in range(n)] for i in range(n)]
        yield from ((A, M) for M in _fill(
            mul, [(i, j) for i, j in free if i > 1],
            lambda t: (_associative_so_far(t, n)
                       and _distributive_so_far(A, t, n))))


def _canonical(tables, perms):
    """The least relabeled (add, mul) pair; perm[x] is x's new label."""
    def relabel(t, p):
        inv = sorted(range(len(p)), key=p.__getitem__)
        return tuple(tuple(p[t[inv[i]][inv[j]]] for j in range(len(p)))
                     for i in range(len(p)))
    return min(tuple(relabel(t, p) for t in tables) for p in perms)


@functools.lru_cache(maxsize=None)
def census(order: int) -> tuple[FiniteSemiring, ...]:
    """One semiring per isomorphism class of the given order, ordered by
    their canonical tables; computed once per process."""
    if order == 1:
        return (validate_semiring(("0",), ((0,),), ((0,),), 0, 0),)
    perms = [(0, 1) + p for p in itertools.permutations(range(2, order))]
    classes = sorted({_canonical(pair, perms) for pair in _tables(order)})
    labels = tuple(str(x) for x in range(order))
    return tuple(validate_semiring(labels, add, mul, 0, 1)
                 for add, mul in classes)


def census_upto(order: int) -> list[FiniteSemiring]:
    """Every class of order 1..order, smallest first."""
    return [R for k in range(1, order + 1) for R in census(k)]


if __name__ == "__main__":
    for k in range(1, int(sys.argv[1]) + 1 if len(sys.argv) > 1 else 6):
        print(k, len(census(k)), flush=True)

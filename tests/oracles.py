"""Independent brute-force oracles used to freeze expected values.

These deliberately re-derive everything from the raw tables with plain
loops, sharing no logic with the package internals.
"""

from __future__ import annotations

import itertools


def oracle_is_semiring(labels, add, mul, zero, one) -> bool:
    n = len(labels)
    idx = range(n)
    if len(set(labels)) != n:
        return False
    for a in idx:
        if add[zero][a] != a or mul[one][a] != a or mul[zero][a] != zero:
            return False
    for a in idx:
        for b in idx:
            if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                return False
            for c in idx:
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    return False
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    return False
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    return False
    return True


def oracle_homs(A, B) -> list[tuple[int, ...]]:
    """All hom image vectors A -> B by filtering every map."""
    out = []
    for images in itertools.product(range(B.n), repeat=A.n):
        if images[A.zero] != B.zero or images[A.one] != B.one:
            continue
        ok = True
        for a in range(A.n):
            for b in range(A.n):
                if images[A.add[a][b]] != B.add[images[a]][images[b]]:
                    ok = False
                    break
                if images[A.mul[a][b]] != B.mul[images[a]][images[b]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(images)
    return out


def oracle_isomorphic(A, B) -> bool:
    """Isomorphism test by scanning all bijections."""
    if A.n != B.n:
        return False
    for perm in itertools.permutations(range(B.n)):
        if perm[A.zero] != B.zero or perm[A.one] != B.one:
            continue
        if all(perm[A.add[a][b]] == B.add[perm[a]][perm[b]]
               and perm[A.mul[a][b]] == B.mul[perm[a]][perm[b]]
               for a in range(A.n) for b in range(A.n)):
            return True
    return False


def all_partitions(n: int):
    """Every partition of range(n) as a first-occurrence block vector."""
    def rec(i, vec, used):
        if i == n:
            yield tuple(vec)
            return
        for b in range(used + 1):
            vec.append(b)
            yield from rec(i + 1, vec, max(used, b + 1))
            vec.pop()
    yield from rec(0, [], 0)


def oracle_stable_partition(R, blocks) -> bool:
    n = R.n
    for a in range(n):
        for b in range(n):
            if blocks[a] != blocks[b]:
                continue
            for c in range(n):
                if blocks[R.add[a][c]] != blocks[R.add[b][c]]:
                    return False
                if blocks[R.mul[a][c]] != blocks[R.mul[b][c]]:
                    return False
    return True


def oracle_congruences(R) -> list[tuple[int, ...]]:
    """All congruences by filtering every set partition."""
    return [p for p in all_partitions(R.n) if oracle_stable_partition(R, p)]


def oracle_ideals(R) -> list[frozenset[int]]:
    """All ideals by scanning every subset containing 0."""
    out = []
    rest = [i for i in range(R.n) if i != R.zero]
    for k in range(len(rest) + 1):
        for extra in itertools.combinations(rest, k):
            s = frozenset((R.zero,) + extra)
            if all(R.add[a][b] in s for a in s for b in s) and \
               all(R.mul[a][c] in s for a in s for c in range(R.n)):
                out.append(s)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def oracle_is_prime_ideal(R, s) -> bool:
    comp = [i for i in range(R.n) if i not in s]
    if R.one not in comp:
        return False
    return all(R.mul[a][b] in comp for a in comp for b in comp)


def oracle_is_k_ideal(R, s) -> bool:
    return all(not (R.add[a][b] in s and b in s and a not in s)
               for a in range(R.n) for b in range(R.n))


def oracle_is_prime_congruence(R, blocks, flavor) -> bool:
    """Prime congruences straight from the definitions, over the set of
    related pairs ~ of the partition `blocks`; each flavor demands 1 !~ 0.

    weak:    ab ~ 0 implies a ~ 0 or b ~ 0;
    strong:  ab ~ ad implies a ~ 0 or b ~ d;
    twisted: ax + by ~ ay + bx implies a ~ b or x ~ y.
    """
    n = R.n
    rel = {(a, b) for a in range(n) for b in range(n)
           if blocks[a] == blocks[b]}
    add, mul, zero = R.add, R.mul, R.zero
    if (R.one, zero) in rel:
        return False
    if flavor == "weak":
        return not any((mul[a][b], zero) in rel and (a, zero) not in rel
                       and (b, zero) not in rel
                       for a, b in itertools.product(range(n), repeat=2))
    if flavor == "strong":
        return not any((mul[a][b], mul[a][d]) in rel and (a, zero) not in rel
                       and (b, d) not in rel
                       for a, b, d in itertools.product(range(n), repeat=3))
    if flavor == "twisted":
        return not any(
            (add[mul[a][x]][mul[b][y]], add[mul[a][y]][mul[b][x]]) in rel
            and (a, b) not in rel and (x, y) not in rel
            for a, b, x, y in itertools.product(range(n), repeat=4))
    raise ValueError(flavor)


def oracle_pushout(f, g):
    """Pushout of f.target <- f.source -> g.target the long way: the full
    coproduct f.target (+) g.target, then the quotient identifying f(x)
    with g(x).  Unlike the oracles above this reuses the package's
    coproduct engine, so that the quotient steps of `colimit` are checked
    against the route they replace."""
    from finsite.colimit import _quotient_by_pairs, tensor
    T, inj_f, inj_g = tensor(f.target, g.target)
    Q, _ = _quotient_by_pairs(
        T, [(inj_f(f(x)), inj_g(g(x))) for x in range(f.source.n)])
    return Q


# -- finite spaces, straight from their families of opens ------------------


def oracle_generated_opens(n, family) -> set[frozenset[int]]:
    """The topology a family generates on range(n): add the empty and the
    full set, then close under pairwise union and intersection."""
    fam = {frozenset(u) for u in family} | {frozenset(), frozenset(range(n))}
    changed = True
    while changed:
        changed = False
        for u in list(fam):
            for v in list(fam):
                for w in (u | v, u & v):
                    if w not in fam:
                        fam.add(w)
                        changed = True
    return fam


def oracle_closure(X, subset) -> frozenset[int]:
    """The intersection of the closed sets containing subset."""
    full = frozenset(range(X.n))
    out = full
    for u in X.opens:
        if not u & frozenset(subset):
            out &= full - u
    return out


def oracle_interior(X, subset) -> frozenset[int]:
    """The union of the opens inside subset."""
    return frozenset().union(*(u for u in X.opens if u <= frozenset(subset)))


def oracle_min_open(X, x) -> frozenset[int]:
    """The intersection of the opens containing x."""
    out = frozenset(range(X.n))
    for u in X.opens:
        if x in u:
            out &= u
    return out


def oracle_preimage(f, u) -> frozenset[int]:
    return frozenset(x for x in range(f.source.n) if f.images[x] in u)


def oracle_discontinuities(f) -> set[frozenset[int]]:
    """The target opens whose preimage is not open."""
    return {u for u in f.target.opens if oracle_preimage(f, u)
            not in f.source.opens}


def oracle_is_open_embedding(f) -> bool:
    """Injective, continuous, and every open goes onto an open."""
    return (len(set(f.images)) == len(f.images)
            and not oracle_discontinuities(f)
            and all(frozenset(f.images[x] for x in u) in f.target.opens
                    for u in f.source.opens))


def oracle_subspace_opens(X, subset) -> set[frozenset[int]]:
    """The traces of X's opens on subset, renumbered in index order."""
    back = {x: i for i, x in enumerate(sorted(subset))}
    return {frozenset(back[x] for x in u if x in back) for u in X.opens}


def oracle_disjoint_union_opens(spaces) -> set[frozenset[int]]:
    """Unions of one open per space, each shifted to its block."""
    offsets = list(itertools.accumulate((X.n for X in spaces), initial=0))
    return {frozenset().union(*(frozenset(off + x for x in u)
                                for off, u in zip(offsets, choice)))
            for choice in itertools.product(*(X.opens for X in spaces))}


def oracle_t0_classes(X) -> list[int]:
    """Per point, the number of its class when points with the same open
    neighbourhoods are identified, classes numbered by least member."""
    number = {}
    return [number.setdefault(frozenset(u for u in X.opens if x in u),
                              len(number))
            for x in range(X.n)]


# -- finite frames and orders, by exhaustive search ------------------------


def oracle_cover_pairs(leq) -> list[tuple[int, int]]:
    """Covering pairs (x, y) of a preorder in index order: x strictly below
    y, and no z strictly between them, by scanning every z."""
    n = len(leq)
    out = []
    for x in range(n):
        for y in range(n):
            if x == y or not leq[x][y] or leq[y][x]:
                continue
            between = any(leq[x][z] and leq[z][y] and z != x and z != y
                          and not leq[z][x] and not leq[y][z]
                          for z in range(n))
            if not between:
                out.append((x, y))
    return out


def oracle_bound(leq, a, b, below):
    """The meet (below) or join of a and b by searching all candidates:
    the one lower (upper) bound that every other lies under (over), or
    None."""
    n = len(leq)
    if below:
        cands = [c for c in range(n) if leq[c][a] and leq[c][b]]
        best = [c for c in cands if all(leq[d][c] for d in cands)]
    else:
        cands = [c for c in range(n) if leq[a][c] and leq[b][c]]
        best = [c for c in cands if all(leq[c][d] for d in cands)]
    return best[0] if len(best) == 1 else None


def oracle_distributivity_failures(meet, join) -> list[tuple[int, int, int]]:
    """Every triple (a, b, c) with a ^ (b v c) != (a ^ b) v (a ^ c)."""
    n = len(meet)
    return [(a, b, c) for a in range(n) for b in range(n) for c in range(n)
            if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]]


def oracle_frame(elements, leq):
    """Validate an order matrix as a frame by scanning triples and
    searching candidates, check by check in the order `finite_frame` uses.
    Returns the message of the first failed check, or the tables
    (meet, join, bottom, top)."""
    n = len(elements)
    for a in range(n):
        if not leq[a][a]:
            return f"order not reflexive at {elements[a]}"
        for b in range(n):
            if a != b and leq[a][b] and leq[b][a]:
                return ("order not antisymmetric on "
                        f"{elements[a]}, {elements[b]}")
            for c in range(n):
                if leq[a][b] and leq[b][c] and not leq[a][c]:
                    return f"order not transitive through {elements[b]}"
    tables = []
    for below, kind in ((True, "meet"), (False, "join")):
        table = [[oracle_bound(leq, a, b, below) for b in range(n)]
                 for a in range(n)]
        for a in range(n):
            for b in range(n):
                if table[a][b] is None:
                    return f"no {kind} for {elements[a]}, {elements[b]}"
        tables.append(table)
    meet, join = tables
    bottoms = [a for a in range(n) if all(leq[a][b] for b in range(n))]
    tops = [a for a in range(n) if all(leq[b][a] for b in range(n))]
    if len(bottoms) != 1 or len(tops) != 1:
        return "missing bottom or top"
    if oracle_distributivity_failures(meet, join):
        return "meet does not distribute over join"
    return meet, join, bottoms[0], tops[0]


def oracle_join_primes(leq, join, bottom) -> list[int]:
    """Non-bottom m with m <= a v b forcing m <= a or m <= b, scanning every
    pair (a, b)."""
    n = len(leq)
    return [m for m in range(n) if m != bottom
            and all(not leq[m][join[a][b]] or leq[m][a] or leq[m][b]
                    for a in range(n) for b in range(n))]


def oracle_is_spatial(leq, primes) -> bool:
    """u -> the primes below u is injective and reflects the order."""
    n = len(leq)
    below = [frozenset(m for m in primes if leq[m][u]) for u in range(n)]
    return len(set(below)) == n and all(
        (below[a] <= below[b]) == leq[a][b]
        for a in range(n) for b in range(n))


def oracle_reflexive_transitive(n, pairs) -> list[list[bool]]:
    """The reflexive-transitive closure of pairs on range(n), as a matrix,
    by adding composites until none is new."""
    leq = [[a == b for b in range(n)] for a in range(n)]
    for a, b in pairs:
        leq[a][b] = True
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if leq[a][b] and leq[b][c] and not leq[a][c]:
                        leq[a][c] = True
                        changed = True
    return leq

"""Independent brute-force oracles used to freeze expected values.

These deliberately re-derive everything from the raw tables with plain
loops, sharing no logic with the package internals.  The exceptions are
reference constructions built on the package's own routines: the
coproduct engine (`tensor`) on its semiring tables, homs and congruence
quotients; the colimit fold (`colimit`, `pushout`, `path_limit`) on
congruence quotients, which the package's union-find monodromy check and
its P3 check replaced; the monodromy comparison map (`loop_comparison`)
from two colimits; the finite-localization search that builds and extends every
candidate localization (`search_finite_localization`); primality
quantified over every element (`full_primality`); and, at the end, the
constructions no command reaches (`quotient`, `atlas`, `frame_morphism`,
`quotient_space` and the rest), which the tests build values with.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from finsite.finset import (FinSet, Injection, _subsets, face_injection,
                            injection)
from finsite.glue import (DiagramPath, GlueError, SPresentation, _atlas_parts,
                          _closed_walks, presentation)
from finsite.locales import FrameError, frame_of_opens, stone_dual
from finsite.semiring import (DEFAULT_BUDGET, FLAVORS, AxiomError,
                              BudgetExceeded, Congruence, FiniteSemiring,
                              InvariantError, SemiringError, SemiringHom,
                              TableError, _Map, _Record, congruence_closure,
                              find_isomorphism, hom_violation, localize,
                              validate_semiring)
from finsite.site import CoverFamily, OpenSubscheme
from finsite.spectra import _points, prime_spectrum
from finsite.topology import (ContinuousMap, FiniteTopSpace, TopologyError,
                              _bits, _classes, _restrict, _space_of_order,
                              continuous_map, glue_along_maps, order_closure)


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


def oracle_primes(R) -> set[frozenset[int]]:
    """The prime ideals of R, found from its idempotents.  For a nonzero
    idempotent e, let S_e = {a : e in aR}.  R minus S_e holds 0, is closed
    under multiplication by R, and its complement S_e holds 1 and is
    multiplicative, so it is a prime ideal exactly when it is closed under
    +.  Each prime P arises so, from one e: the idempotent power of the
    product of R minus P."""
    rng = range(R.n)
    primes = set()
    for e in rng:
        if e == R.zero or R.mul[e][e] != e:
            continue
        p = frozenset(a for a in rng if e not in R.mul[a])
        if all(R.add[a][b] in p for a in p for b in p):
            primes.add(p)
    return primes


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


# -- coproducts, by coset enumeration -------------------------------------
#
# The coproduct of two semirings is presented on the monoid of pure products
# (one factor from each side): formal sums of those monomials modulo the
# additive relations of both sides, each relation rescaled by every monomial.
# The presented additive monoid is closed coset-enumeration style: a state is
# a canonical set of monomials (a duplicated monomial carries into its double
# inside one factor, and monomials with a zero slot are dropped outright),
# transitions add one monomial, and every relation instance is enforced at
# every state through a worklist until nothing merges.  An explicit element
# budget turns runaway growth into a clean error instead of a hang.


class _Engine:
    """Quotient of sums of monomials from a finite commutative monoid by
    vector relations closed under monomial rescaling.

    mul_table: monomial products.  dbl[m]: the monomial equal to m + m.
    dead[m]: monomials equal to the empty sum.  relations: pairs of
    multiplicity vectors (tuples of (monomial, count)).
    """

    def __init__(self, n_monos, mul_table, unit, dbl, dead, relations, budget):
        self.n_monos = n_monos
        self.mul_table = mul_table
        self.unit = unit
        self.dbl = dbl
        self.dead = dead
        self.budget = budget
        self.sets: list[frozenset[int]] = []
        self.ids: dict[frozenset[int], int] = {}
        self.parent: list[int] = []
        self.trans: list[dict[int, int]] = []
        self.pending: list[tuple[int, int]] = []
        self.queue: deque[int] = deque()
        self.inq: list[bool] = []
        self.relations = self._scale_relations(relations)
        self._state(frozenset())

    def _scale(self, vec, m):
        acc: dict[int, int] = {}
        for mono, c in vec:
            p = self.mul_table[m][mono]
            if not self.dead[p]:
                acc[p] = acc.get(p, 0) + c
        return tuple(sorted(acc.items()))

    def _scale_relations(self, relations):
        seen = set()
        out = []
        for u, v in relations:
            for m in range(self.n_monos):
                su = self._scale(u, m)
                sv = self._scale(v, m)
                if su == sv:
                    continue
                key = (su, sv) if su < sv else (sv, su)
                if key not in seen:
                    seen.add(key)
                    out.append(key)
        return out

    def _state(self, fs):
        s = self.ids.get(fs)
        if s is not None:
            return s
        if len(self.sets) >= self.budget:
            raise BudgetExceeded(
                f"coproduct closure: element budget {self.budget} exceeded")
        s = len(self.sets)
        self.sets.append(fs)
        self.ids[fs] = s
        self.parent.append(s)
        self.trans.append({})
        self.inq.append(False)
        self.enqueue(s)
        return s

    def enqueue(self, s):
        s = self.find(s)
        if not self.inq[s]:
            self.inq[s] = True
            self.queue.append(s)

    def find(self, s):
        parent = self.parent
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def step(self, s, m):
        """The state for (class of s) + m."""
        if self.dead[m]:
            return self.find(s)
        s = self.find(s)
        t = self.trans[s].get(m)
        if t is not None:
            return self.find(t)
        fs = self.sets[s]
        if m in fs:
            t = self.step(self._state(fs - {m}), self.dbl[m])
        else:
            t = self._state(fs | {m})
        self.trans[s][m] = t
        return self.find(t)

    def walk(self, s, vec):
        for m, c in vec:
            for _ in range(c):
                s = self.step(s, m)
        return s

    def union(self, a, b):
        a, b = self.find(a), self.find(b)
        if a == b:
            return
        if b < a:
            a, b = b, a
        self.parent[b] = a
        self.pending.append((a, b))
        while self.pending:
            ra, rb = self.pending.pop()
            ra = self.find(ra)
            moved = self.trans[rb]
            self.trans[rb] = {}
            for m, t in moved.items():
                t = self.find(t)
                cur = self.trans[ra].get(m)
                if cur is None:
                    self.trans[ra][m] = t
                else:
                    cur = self.find(cur)
                    if cur != t:
                        if t < cur:
                            cur, t = t, cur
                        self.parent[t] = cur
                        self.pending.append((cur, t))
                        self.enqueue(cur)
            self.enqueue(ra)

    def close(self):
        while self.queue:
            s = self.queue.popleft()
            self.inq[s] = False
            s = self.find(s)
            for m in range(self.n_monos):
                self.step(s, m)
            # adding monomials must commute as an action on classes; the
            # set representation only makes this automatic when no carry
            # fires, so enforce it
            for m1 in range(self.n_monos):
                for m2 in range(m1 + 1, self.n_monos):
                    a = self.step(self.step(s, m1), m2)
                    b = self.step(self.step(s, m2), m1)
                    if self.find(a) != self.find(b):
                        self.union(a, b)
            for u, v in self.relations:
                a = self.walk(s, u)
                b = self.walk(s, v)
                if self.find(a) != self.find(b):
                    self.union(a, b)

    def result(self):
        """Extract the semiring after closing, plus a sum locator."""
        live = sorted((s for s in range(len(self.sets)) if self.find(s) == s),
                      key=lambda s: (len(self.sets[s]), sorted(self.sets[s])))
        index = {s: i for i, s in enumerate(live)}
        k = len(live)
        add = [[0] * k for _ in range(k)]
        mul = [[0] * k for _ in range(k)]
        for i, s in enumerate(live):
            ms = sorted(self.sets[s])
            for j, t in enumerate(live):
                mt = sorted(self.sets[t])
                add[i][j] = index[self.walk(s, [(m, 1) for m in mt])]
                prod: dict[int, int] = {}
                for m1 in ms:
                    for m2 in mt:
                        p = self.mul_table[m1][m2]
                        if not self.dead[p]:
                            prod[p] = prod.get(p, 0) + 1
                mul[i][j] = index[self.walk(0, sorted(prod.items()))]
        zero = index[self.find(0)]
        one = index[self.walk(0, [(self.unit, 1)])]
        labels = tuple(f"e{i}" for i in range(k))
        S = validate_semiring(labels, add, mul, zero, one)
        return S, lambda vec: index[self.walk(0, vec)]


def tensor(A: FiniteSemiring, B: FiniteSemiring,
           budget: int = DEFAULT_BUDGET) -> tuple[FiniteSemiring, SemiringHom, SemiringHom]:
    """Coproduct A (+) B with its two injections."""
    nb = B.n

    def mono(a, b):
        return a * nb + b

    n_monos = A.n * B.n
    mul_table = [[0] * n_monos for _ in range(n_monos)]
    for a1 in range(A.n):
        for b1 in range(B.n):
            for a2 in range(A.n):
                for b2 in range(B.n):
                    mul_table[mono(a1, b1)][mono(a2, b2)] = \
                        mono(A.mul[a1][a2], B.mul[b1][b2])
    unit = mono(A.one, B.one)
    dbl = [0] * n_monos
    dead = [False] * n_monos
    for a in range(A.n):
        for b in range(B.n):
            dbl[mono(a, b)] = mono(A.add[a][a], b)
            dead[mono(a, b)] = a == A.zero or b == B.zero
    relations = []
    # diagonal pairs stay in: the carry rule normalizes a duplicate by
    # doubling in the first factor, but a sum reached in another order
    # needs the doubling available as a rewrite too
    for a1 in range(A.n):
        for a2 in range(a1, A.n):
            if a1 == a2:
                u = ((mono(a1, B.one), 2),)
            else:
                u = tuple(sorted(((mono(a1, B.one), 1), (mono(a2, B.one), 1))))
            relations.append((u, ((mono(A.add[a1][a2], B.one), 1),)))
    for b1 in range(B.n):
        for b2 in range(b1, B.n):
            if b1 == b2:
                u = ((mono(A.one, b1), 2),)
            else:
                u = tuple(sorted(((mono(A.one, b1), 1), (mono(A.one, b2), 1))))
            relations.append((u, ((mono(A.one, B.add[b1][b2]), 1),)))

    eng = _Engine(n_monos, mul_table, unit, dbl, dead, relations, budget)
    for m in range(n_monos):
        eng.walk(0, [(m, 1)])
    eng.close()
    T, locate = eng.result()
    inj_a = SemiringHom(A, T, tuple(locate([(mono(a, B.one), 1)])
                                    for a in range(A.n)))
    inj_b = SemiringHom(B, T, tuple(locate([(mono(A.one, b), 1)])
                                    for b in range(B.n)))
    for h in (inj_a, inj_b):
        if hom_violation(h) is not None:
            raise TableError("coproduct injection failed to be a hom")
    return T, inj_a, inj_b


def oracle_pushout(f, g):
    """Pushout of f.target <- f.source -> g.target the long way: the full
    coproduct f.target (+) g.target, then the quotient identifying f(x)
    with g(x).  This is the general route the quotient steps of `colimit`
    replace, so the fold's pushouts are checked against it."""
    T, inj_f, inj_g = tensor(f.target, g.target)
    c = congruence_closure(
        T, [(inj_f(f(x)), inj_g(g(x))) for x in range(f.source.n)])
    return quotient(T, c)[0]


# -- colimits, folded by quotients ------------------------------------------
#
# The reference the monodromy check and the P3 check of `site` replaced.  A
# connected diagram folds along a spanning tree, one node at a time, keeping
# the part T built so far collapsed.  A tree arrow h: A -> B that reaches a
# new node is one of three kinds of step:
#
# - the new node is A, the arrow's source: A already maps into T through B,
#   so T does not change and A's leg is B's leg after h;
# - the new node is B and h is surjective: a pushout along a surjection is a
#   quotient, so T is divided by the image of h's kernel, and each element
#   of B takes the leg of any of its preimages;
# - the new node is B and A's leg into T is surjective: the same pushout
#   with the sides swapped, so B is divided by Cg{(h(x), h(y)) : leg(x) =
#   leg(y)}, and each element of T maps to the class of h of any of its
#   preimages.
#
# Arrows left over after the tree are coequalized at the end.  Every step
# keeps one leg surjective (the root's, until a step of the third kind hands
# that role to B's), so the colimit is the image of that leg.  A diagram
# whose colimit needs a coproduct -- a disconnected one, or a tree step
# where neither h nor the leg is surjective -- raises ValueError.


class SemiringDiagram(_Record):
    """Finite multigraph of semirings; arrows carry homs src -> dst."""

    nodes: tuple[FiniteSemiring, ...]
    arrows: tuple[tuple[int, int, SemiringHom], ...]

    @classmethod
    def build(cls, nodes, arrows) -> "SemiringDiagram":
        nodes = tuple(nodes)
        arrows = tuple(arrows)
        for src, dst, h in arrows:
            if not (0 <= src < len(nodes) and 0 <= dst < len(nodes)):
                raise TableError("arrow endpoint out of range")
            if h.source != nodes[src] or h.target != nodes[dst]:
                raise TableError("arrow hom endpoints do not match its nodes")
            if hom_violation(h) is not None:
                raise TableError("arrow assignment is not a hom")
        return cls(nodes, arrows)


class ColimitResult(_Record):
    semiring: FiniteSemiring
    cocones: tuple[SemiringHom, ...]

    def induced_hom(self, legs, target: FiniteSemiring) -> SemiringHom:
        """The unique hom out of the colimit determined by compatible legs
        (one hom per diagram node, by position, into `target`).  One cocone
        is surjective, so the legs alone fix every image."""
        S = self.semiring
        img: list[int | None] = [None] * S.n
        for cocone, leg in zip(self.cocones, legs):
            if leg.target != target:
                raise TableError("leg lands in the wrong semiring")
            for x in range(cocone.source.n):
                e, v = cocone(x), leg(x)
                if img[e] is None:
                    img[e] = v
                elif img[e] != v:
                    raise TableError("legs are not a cocone: images clash")
        if None in img:
            raise TableError("colimit is not covered by its cocone images")
        out = SemiringHom(S, target, tuple(img))
        if hom_violation(out) is not None:
            raise TableError("induced map failed to be a hom")
        return out


def _quotient_by_pairs(S, pairs):
    c = congruence_closure(S, pairs)
    return quotient(S, c)


def _push(s: SemiringHom, g: SemiringHom):
    """Pushout of the span s.target <- A -> g.target with s surjective:
    g.target divided by the image of s's kernel.  Returns the quotient Q,
    the projection g.target -> Q and the map s.target -> Q that sends each
    element to the class of g of any of its preimages."""
    preimage: dict[int, int] = {}
    for x in range(s.source.n):
        preimage.setdefault(s(x), x)
    Q, proj = _quotient_by_pairs(
        g.target, [(g(x), g(preimage[s(x)])) for x in range(s.source.n)])
    across = SemiringHom(s.target, Q, tuple(
        proj(g(preimage[y])) for y in range(s.target.n)))
    return Q, proj, across


def colimit(diagram: SemiringDiagram,
            budget: int = DEFAULT_BUDGET) -> ColimitResult:
    """Colimit with one cocone hom per node, folded by quotients.

    Raises BudgetExceeded when a node has more elements than the budget
    (every other table the fold holds is a quotient of a node).  Raises
    ValueError on the empty diagram (its colimit, the initial semiring of
    plain counting, is infinite) and on a diagram whose colimit needs a
    coproduct: a disconnected one, or a tree step where neither the arrow
    nor its source's leg is surjective.
    """
    nodes, arrows = diagram.nodes, diagram.arrows
    if not nodes:
        raise ValueError("empty diagram: the colimit is the infinite initial "
                         "semiring and cannot be tabulated")
    largest = max(R.n for R in nodes)
    if largest > budget:
        raise BudgetExceeded(f"table size: a diagram node has {largest} "
                             f"elements, over the element budget {budget}")
    n = len(nodes)
    adj: list[set[int]] = [set() for _ in range(n)]
    for src, dst, _ in arrows:
        adj[src].add(dst)
        adj[dst].add(src)
    reached, queue = {0}, [0]
    while queue:
        for y in adj[queue.pop()] - reached:
            reached.add(y)
            queue.append(y)
    if len(reached) < n:
        raise ValueError("disconnected diagram: the colimit is a coproduct "
                         "of its components, which the quotient fold does "
                         "not build")

    tree_used: set[int] = set()
    visited = {0}
    T = nodes[0]
    cocone: dict[int, SemiringHom] = {0: identity_hom(T)}
    while len(visited) < n:
        pick = next(((ai, src, dst, h)
                     for ai, (src, dst, h) in enumerate(arrows)
                     if ai not in tree_used
                     and (src in visited) != (dst in visited)), None)
        if pick is None:
            raise InvariantError("connectivity bookkeeping broke")
        ai, src, dst, h = pick
        tree_used.add(ai)
        if dst in visited:
            # the source maps into T through dst: T does not change
            cocone[src] = cocone[dst].compose(h)
            visited.add(src)
            continue
        leg = cocone[src]
        if h.is_surjective():
            # divide T by h's kernel; dst maps in through preimages
            T, proj, across = _push(h, leg)
            cocone = {i: proj.compose(c) for i, c in cocone.items()}
            cocone[dst] = across
        elif leg.is_surjective():
            # divide dst by the leg's kernel; T maps in through preimages
            T, proj, across = _push(leg, h)
            cocone = {i: across.compose(c) for i, c in cocone.items()}
            cocone[dst] = proj
        else:
            raise ValueError(f"arrow {ai} and the leg of its source are "
                             "not surjective: the pushout needs a "
                             "coproduct, which the quotient fold does not "
                             "build")
        visited.add(dst)
    pairs = []
    for ai, (src, dst, h) in enumerate(arrows):
        if ai not in tree_used:
            pairs.extend((cocone[dst](h(x)), cocone[src](x))
                         for x in range(nodes[src].n))
    if pairs:
        T, proj = _quotient_by_pairs(T, pairs)
        cocone = {i: proj.compose(c) for i, c in cocone.items()}
    legs = tuple(cocone[i] for i in range(n))
    for leg in legs:
        if hom_violation(leg) is not None:
            raise TableError("cocone failed to be a hom")
    for src, dst, h in arrows:
        if legs[dst].compose(h).images != legs[src].images:
            raise TableError("cocone does not commute with a diagram arrow")
    return ColimitResult(T, legs)


def pushout(f: SemiringHom, g: SemiringHom,
            budget: int = DEFAULT_BUDGET) -> ColimitResult:
    """Colimit of the span  f.target <- f.source==g.source -> g.target."""
    if f.source != g.source:
        raise TableError("pushout needs a common source")
    d = SemiringDiagram.build(
        (f.source, f.target, g.target),
        ((0, 1, f), (0, 2, g)))
    return colimit(d, budget)


def _walk_diagram(p, identify_ends: bool) -> SemiringDiagram:
    """The algebra diagram of a walk: one node per visit, arrows running
    against the walk's geometric direction.  With identify_ends the last
    visit of a closed walk reuses the first node."""
    P = p.presentation
    seq = p.nodes_visited()
    k = len(p.steps)
    if identify_ends:
        if seq[0] != seq[-1]:
            raise GlueError("cannot identify the endpoints of an open walk")
        m = k if k else 1
    else:
        m = k + 1
    nodes = tuple(P.charts[seq[t]] for t in range(m))
    arrows = []
    for t, (ai, forward) in enumerate(p.steps):
        _, _, h = P.arrows[ai]
        a, b = t % m, (t + 1) % m
        arrows.append((b, a, h) if forward else ((a, b, h)))
    return SemiringDiagram.build(nodes, arrows)


def path_limit(p, mode: str = "closed",
               budget: int = DEFAULT_BUDGET) -> FiniteSemiring:
    """Algebra of the limit carved out by a walk, computed as the colimit
    of the walk's algebra diagram.  Mode "closed" treats a closed walk as a
    loop, "opened" keeps every visit distinct."""
    if mode not in ("closed", "opened"):
        raise ValueError(f"unknown walk mode {mode!r}")
    return colimit(_walk_diagram(p, mode == "closed"), budget=budget).semiring


# -- localization, straight from the pair classes ---------------------------


@dataclass(frozen=True)
class OracleLocalization:
    """R[1/h] as raw tables on classes of pairs; `reps` holds the least
    (element, power) pair of each class, in class order, and `class_of`
    the class of every pair."""

    base: FiniteSemiring
    h: int
    elements: tuple[str, ...]
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    zero: int
    one: int
    to_local: tuple[int, ...]
    reps: tuple[tuple[int, int], ...]
    class_of: dict

    @property
    def n(self) -> int:
        return len(self.elements)


def _oracle_inverse(T, x):
    return next((y for y in range(T.n) if T.mul[x][y] == T.one), None)


def oracle_localization(R, h) -> OracleLocalization:
    """R[1/h] by its definition: pairs (a, p) with p a power of h, where
    (a, p) and (b, q) are identified when r*q*a == r*p*b for some power r.
    Classes are ordered and labelled by their least pair, preferring the
    denominator-free ones; colliding labels get a class-number prefix."""
    powers = []
    acc = R.one
    while acc not in powers:
        powers.append(acc)
        acc = R.mul[acc][h]
    pset = sorted(powers)
    pairs = [(a, p) for a in range(R.n) for p in pset]

    def related(x, y):
        (a, p), (b, q) = x, y
        return any(R.mul[R.mul[r][q]][a] == R.mul[R.mul[r][p]][b]
                   for r in pset)

    parent = list(range(len(pairs)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if find(i) != find(j) and related(pairs[i], pairs[j]):
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    classes: dict[int, list[int]] = {}
    for i in range(len(pairs)):
        classes.setdefault(find(i), []).append(i)

    def rep_key(i):
        a, p = pairs[i]
        return (p != R.one, a, p)

    roots = sorted(classes, key=lambda r: min(rep_key(i) for i in classes[r]))
    reps = tuple(pairs[min(classes[r], key=rep_key)] for r in roots)
    class_of = {pairs[i]: ci for ci, r in enumerate(roots) for i in classes[r]}
    labels = [R.elements[a] if p == R.one
              else f"{R.elements[a]}/{R.elements[p]}" for a, p in reps]
    if len(set(labels)) != len(labels):
        labels = [f"c{i}_{lab}" for i, lab in enumerate(labels)]
    add = tuple(tuple(class_of[(R.add[R.mul[q][a]][R.mul[p][b]], R.mul[p][q])]
                      for b, q in reps) for a, p in reps)
    mul = tuple(tuple(class_of[(R.mul[a][b], R.mul[p][q])] for b, q in reps)
                for a, p in reps)
    return OracleLocalization(
        R, h, tuple(labels), add, mul, class_of[(R.zero, R.one)],
        class_of[(R.one, R.one)],
        tuple(class_of[(a, R.one)] for a in range(R.n)), reps, class_of)


def oracle_extend(loc: OracleLocalization, g) -> tuple[int, ...]:
    """Images of g: R -> T factored through R -> R[1/h], by a/p -> g(a)/g(p).
    Raises TableError when g(h) or a denominator's image has no inverse,
    and AxiomError when the factor is not a hom."""
    if g.source != loc.base:
        raise TableError("extend expects a hom out of the base")
    T = g.target
    if _oracle_inverse(T, g(loc.h)) is None:
        raise TableError("image of the inverted element is not invertible")
    images = []
    for a, p in loc.reps:
        ip = _oracle_inverse(T, g(p))
        if ip is None:
            raise TableError("image of a denominator is not invertible")
        images.append(T.mul[g(a)][ip])
    k = len(images)
    if (images[loc.zero] != T.zero or images[loc.one] != T.one
            or any(images[loc.add[i][j]] != T.add[images[i]][images[j]]
                   or images[loc.mul[i][j]] != T.mul[images[i]][images[j]]
                   for i in range(k) for j in range(k))):
        raise AxiomError("localization-extension", (loc.h,),
                         "extension through the localization failed")
    return tuple(images)


def oracle_finite_localization(g) -> int | None:
    """Least x whose localization, extended along g, is a bijection."""
    for x in range(g.source.n):
        try:
            images = oracle_extend(oracle_localization(g.source, x), g)
        except SemiringError:
            continue
        if len(set(images)) == g.target.n == len(images):
            return x
    return None


def search_finite_localization(h) -> int | None:
    """Least x such that h extends along B -> B[1/x] to a bijection, found
    by building each candidate localization and extending h through it."""
    B = h.source
    for x in range(B.n):
        if h.target.inverse_of(h(x)) is None:
            continue
        try:
            induced = localize(B, x).extend(h)
        except SemiringError:
            continue
        if induced.is_bijective():
            return x
    return None


# -- monodromy and primality, the long way ----------------------------------


def loop_comparison(p, budget: int = DEFAULT_BUDGET) -> SemiringHom:
    """The unique algebra map from the cut-open colimit of a closed walk to
    the loop colimit that is compatible with the visit legs; the loop is
    glue-safe exactly when this map is an isomorphism."""
    closed = colimit(_walk_diagram(p, True), budget=budget)
    opened = colimit(_walk_diagram(p, False), budget=budget)
    k = len(p.steps)
    m = k if k else 1
    legs = [closed.cocones[t % m] for t in range(k + 1)]
    return opened.induced_hom(legs, closed.semiring)


def full_primality(c, flavor) -> bool:
    """Flavor primality of a congruence quantified over every element,
    not one member per block."""
    R = c.semiring
    if not c.is_proper():
        return False
    k, add, mul, z = c.blocks, R.add, R.mul, c.blocks[R.zero]
    rng = range(R.n)
    if flavor == "weak":
        return all(k[mul[a][b]] != z or k[a] == z or k[b] == z
                   for a in rng for b in rng)
    if flavor == "strong":
        return all(k[mul[a][b]] != k[mul[a][d]] or k[a] == z or k[b] == k[d]
                   for a in rng for b in rng for d in rng)
    if flavor == "twisted":
        return all(
            k[add[mul[a][x]][mul[b][y]]] != k[add[mul[a][y]][mul[b][x]]]
            or k[a] == k[b] or k[x] == k[y]
            for a in rng for b in rng for x in rng for y in rng)
    raise ValueError(flavor)


# -- matching families and descent, straight from the definitions ----------


def oracle_matching_tuples(candidates, links) -> list[tuple]:
    """Every tuple of the product of the candidate lists, in product order,
    that satisfies key_j(t[j]) == key_i(t[i]) for every link
    (j, i, key_j, key_i)."""
    return [t for t in itertools.product(*candidates)
            if all(key_j(t[j]) == key_i(t[i])
                   for j, i, key_j, key_i in links)]


def oracle_descent(base, families):
    """Verdict on restriction from base maps to matching families: `base`
    lists (label, restriction) pairs in order.  The first label whose
    restriction an earlier label already has fails injectivity, against
    the first label with that restriction; else the first family that is
    no restriction fails surjectivity."""
    restrictions = [key for _, key in base]
    for b, (label, key) in enumerate(base):
        if key in restrictions[:b]:
            return False, ("not injective",
                           base[restrictions.index(key)][0], label)
    missed = [m for m in families if m not in restrictions]
    if missed:
        return False, ("not surjective", missed[0])
    return True, None


def oracle_restriction(loc: OracleLocalization,
                       finer: OracleLocalization) -> tuple[int, ...]:
    """R[1/h] -> R[1/hg] on classes: a/p goes to (a/1) * (p/1)^-1."""
    return tuple(finer.mul[finer.to_local[a]][
                     _oracle_inverse(finer, finer.to_local[p])]
                 for a, p in loc.reps)


def oracle_site_descent(R, elements, Y):
    """Descent for the principal opens of R at `elements` against Y: homs
    Y -> R, labelled by their images, restrict to tuples of homs into the
    localizations; a tuple matches when each pair of entries agrees in the
    localization at the product of the two elements."""
    locs = [oracle_localization(R, h) for h in elements]
    base = [(f, tuple(tuple(loc.to_local[x] for x in f) for loc in locs))
            for f in oracle_homs(Y, R)]
    agree = []
    for i, j in itertools.combinations(range(len(locs)), 2):
        finer = oracle_localization(R, R.mul[elements[i]][elements[j]])
        agree.append((i, j, oracle_restriction(locs[i], finer),
                      oracle_restriction(locs[j], finer)))
    families = [t for t in itertools.product(*(oracle_homs(Y, loc)
                                                 for loc in locs))
                if all(tuple(ri[x] for x in t[i]) == tuple(rj[x] for x in t[j])
                       for i, j, ri, rj in agree)]
    return oracle_descent(base, families)


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


def order_rows(leq) -> list[int]:
    """A boolean order matrix as the bitmask rows finsite takes: bit y of
    row x is set iff leq[x][y]."""
    return [sum(1 << y for y, flag in enumerate(row) if flag) for row in leq]


def order_matrix(rows) -> list[list[bool]]:
    """Bitmask order rows on range(len(rows)) as a boolean matrix."""
    n = len(rows)
    return [[bool(row >> y & 1) for y in range(n)] for row in rows]


def mask_order(masks) -> list[list[bool]]:
    """The order of a frame stored as join-prime masks, as a boolean
    matrix: a <= b iff masks[a] lies inside masks[b]."""
    return [[not a & ~b for b in masks] for a in masks]


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


def oracle_order_isomorphism(a, b) -> tuple[int, ...] | None:
    """A bijection f with a[x][y] == b[f(x)][f(y)] for all x, y, found by
    backtracking over the points of a in index order, or None."""
    n = len(a)
    if len(b) != n:
        return None
    f = []

    def extend():
        x = len(f)
        if x == n:
            return True
        for y in range(n):
            if y not in f and a[x][x] == b[y][y] and all(
                    a[x][z] == b[y][f[z]] and a[z][x] == b[f[z]][y]
                    for z in range(x)):
                f.append(y)
                if extend():
                    return True
                f.pop()
        return False

    return tuple(f) if extend() else None


# -- mod-2 homology, by chains and elimination -----------------------------


def oracle_order_chains(above) -> list[list[tuple[int, ...]]]:
    """The simplices of the order complex of a finite T0 space, by
    dimension: the chains x0 < x1 < ... < xk of its order, given by bare
    bitmask rows (bit y of above[x] set iff x <= y).  By McCord's theorem
    the space and its order complex have the same homology."""
    n = len(above)
    strict = [[y for y in range(n) if y != x and above[x] >> y & 1
               and not above[y] >> x & 1] for x in range(n)]
    chains = [[(x,) for x in range(n)]]
    while chains[-1]:
        chains.append([c + (y,) for c in chains[-1] for y in strict[c[-1]]])
    return chains[:-1]


def oracle_gf2_rank(rows) -> int:
    """The rank over GF(2) of int-mask rows, by XOR elimination on the
    leading bit."""
    pivots = {}
    for row in rows:
        while row and row.bit_length() in pivots:
            row ^= pivots[row.bit_length()]
        if row:
            pivots[row.bit_length()] = row
    return len(pivots)


def oracle_betti_mod2(simplices) -> tuple[int, ...]:
    """The mod-2 Betti numbers of a simplicial complex given as lists of
    simplices by dimension, each a tuple of vertices whose faces, the
    tuples with one vertex left out, are listed one dimension lower."""
    ranks = [0]
    for k in range(1, len(simplices)):
        index = {s: i for i, s in enumerate(simplices[k - 1])}
        ranks.append(oracle_gf2_rank(
            sum(1 << index[s[:i] + s[i + 1:]] for i in range(len(s)))
            for s in simplices[k]))
    ranks.append(0)
    return tuple(len(level) - ranks[k] - ranks[k + 1]
                 for k, level in enumerate(simplices))


# ---------------------------------------------------------------------------
# Constructions no command and no benchmark case calls, kept here with the
# tests that build values through them.  `tests/test_source.py` requires
# every definition in `src/finsite` to be reached from a command or the
# benchmark; these are built on the package's own records and routines.

def trivial() -> FiniteSemiring:
    return validate_semiring(("*",), ((0,),), ((0,),), 0, 0)


def identity_injection(A: FinSet) -> Injection:
    return injection(A, A, range(A.n))


def contains_bijection(family) -> bool:
    return any(f.is_bijective() for f in family)


def all_injection_families(A: FinSet):
    """Every family of injections into A, one per nonempty set of image
    subsets (the empty subset included as the empty injection)."""
    subsets = [frozenset()] + _subsets(A)
    for r in range(1, len(subsets) + 1):
        for combo in itertools.combinations(subsets, r):
            yield [face_injection(A, s) for s in combo]


def atlas(S: CoverFamily) -> SPresentation:
    parts, arrows = _atlas_parts(S)
    return presentation([(nm, loc.semiring) for nm, loc in parts], arrows)


def arrow_names(P: SPresentation):
    return tuple((P.names[s], P.names[d]) for s, d, _ in P.arrows)


def closed_walks(P: SPresentation, bound: int = 8) -> list[DiagramPath]:
    """Self-loop traversals, there-and-back doublings of every arrow, and
    one representative of every simple cycle of at most bound steps."""
    return _closed_walks(P, bound)[0]


class FrameMorphism(_Map):
    """A lattice map preserving bottom, top, binary meets and joins; build
    through `frame_morphism`."""

    _error = FrameError


def frame_morphism(source, target, images) -> FrameMorphism:
    images = tuple(images)
    if len(images) != source.n or \
            any(not 0 <= y < target.n for y in images):
        raise FrameError("element assignment out of range")
    # the masks of a and of its image; top's mask is full, so the largest
    S, T = source.masks, [target.masks[y] for y in images]
    if T[S.index(0)]:
        raise FrameError("bottom not preserved")
    if T[S.index(max(S))] != max(target.masks):
        raise FrameError("top not preserved")
    position = {m: c for c, m in enumerate(S)}
    for a in range(source.n):
        for b in range(source.n):
            if T[position[S[a] & S[b]]] != T[a] & T[b]:
                raise FrameError(
                    f"meet not preserved at ({source.elements[a]}, "
                    f"{source.elements[b]})")
            if T[position[S[a] | S[b]]] != T[a] | T[b]:
                raise FrameError(
                    f"join not preserved at ({source.elements[a]}, "
                    f"{source.elements[b]})")
    return FrameMorphism(source, target, images)


def opens_pullback(f: ContinuousMap) -> FrameMorphism:
    """A continuous map induces the preimage map between open-set frames,
    running the other way."""
    position = {u: i for i, u in enumerate(f.source.open_masks)}
    images = [position[sum(1 << x for x, y in enumerate(f.images)
                           if v >> y & 1)]
              for v in f.target.open_masks]
    return frame_morphism(frame_of_opens(f.target), frame_of_opens(f.source),
                          images)


def stone_map(h: FrameMorphism) -> ContinuousMap:
    """A frame map M -> N induces the continuous map between the duals in
    the reverse direction, by pulling filters back."""
    M, N = h.source, h.target
    dual_M, filters_M = stone_dual(M)
    dual_N, _ = stone_dual(N)
    images = tuple(filters_M.index(frozenset(
        u for u in range(M.n) if N.masks[h(u)] >> m & 1)) for m in N.primes)
    return continuous_map(dual_N, dual_M, images)


def identity_hom(R: FiniteSemiring) -> SemiringHom:
    return SemiringHom(R, R, tuple(range(R.n)))


def are_isomorphic(A: FiniteSemiring, B: FiniteSemiring) -> bool:
    return find_isomorphism(A, B) is not None


def total_congruence(R: FiniteSemiring) -> Congruence:
    return Congruence(R, (0,) * R.n)


def is_congruence(R: FiniteSemiring, blocks) -> tuple[bool, tuple | None]:
    """Check stability of a partition; returns (ok, witness)."""
    n = R.n
    for a in range(n):
        for b in range(a + 1, n):
            if blocks[a] != blocks[b]:
                continue
            for c in range(n):
                if blocks[R.add[a][c]] != blocks[R.add[b][c]]:
                    return False, (a, b, c, "add")
                if blocks[R.mul[a][c]] != blocks[R.mul[b][c]]:
                    return False, (a, b, c, "mul")
    return True, None


def quotient(R: FiniteSemiring, c: Congruence) -> tuple[FiniteSemiring, SemiringHom]:
    """Quotient semiring by block arithmetic plus the projection hom.

    Blocks are labelled by their least member's label.
    """
    ok, witness = is_congruence(R, c.blocks)
    if not ok:
        raise AxiomError("congruence-stability", witness,
                         f"partition is not a congruence, witness {witness}")
    members = c.block_members()
    reps = [min(m) for m in members]
    labels = tuple(R.elements[r] for r in reps)
    k = len(reps)
    add = tuple(tuple(c.blocks[R.add[reps[i]][reps[j]]] for j in range(k))
                for i in range(k))
    mul = tuple(tuple(c.blocks[R.mul[reps[i]][reps[j]]] for j in range(k))
                for i in range(k))
    Q = validate_semiring(labels, add, mul, c.blocks[R.zero], c.blocks[R.one])
    proj = SemiringHom(R, Q, tuple(c.blocks))
    return Q, proj


def open_subscheme(R: FiniteSemiring, generators) -> OpenSubscheme:
    spec = prime_spectrum(R)
    gens = tuple(sorted(set(generators)))
    extent = frozenset()
    for h in gens:
        extent |= spec.basic_open(h)
    return OpenSubscheme(R, gens, extent)


def is_ideal(R: FiniteSemiring, members) -> bool:
    members = frozenset(members)
    if R.zero not in members:
        return False
    for a in members:
        for b in members:
            if R.add[a][b] not in members:
                return False
        for r in range(R.n):
            if R.mul[r][a] not in members:
                return False
    return True


def prime_congruences(R: FiniteSemiring, flavor: str) -> list[Congruence]:
    """The flavor-prime congruences in the order of the weak ones; each
    call returns a fresh list."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown primality flavor {flavor!r}")
    return list(_points(R, flavor))


def subspace(X: FiniteTopSpace, subset) -> tuple[FiniteTopSpace, ContinuousMap]:
    """The subset with the restricted specialization order, and its
    inclusion; the reference the spectra's level spaces are compared with."""
    subset = sorted(frozenset(subset))
    S = _space_of_order(tuple(X.points[x] for x in subset),
                        _restrict(X.above, subset))
    incl = continuous_map(S, X, tuple(subset))
    return S, incl


def disjoint_union(spaces, prefixes=None) -> tuple[FiniteTopSpace, tuple[ContinuousMap, ...]]:
    """The spaces glued along no maps: the block-diagonal order, each point
    labeled by its space's prefix."""
    if prefixes is None:
        prefixes = [str(i) for i in range(len(spaces))]
    X, incls, _ = glue_along_maps(prefixes, spaces, ())
    return X, incls


def quotient_space(X: FiniteTopSpace, pairs, labels=None) -> tuple[FiniteTopSpace, ContinuousMap]:
    """Quotient by the equivalence generated by pairs; opens are exactly the
    sets with open preimage (computed through the projected specialization
    preorder, which finite spaces make exact)."""
    proj, reps = _classes(X.n, pairs)
    if labels is None:
        labels = tuple(X.points[r] for r in reps)
    if len(labels) != len(reps):
        raise TopologyError(f"{len(labels)} labels for {len(reps)} classes")
    Q = _space_of_order(labels, order_closure(
        len(reps), [(proj[x], proj[y]) for x in range(X.n)
                    for y in _bits(X.above[x])]))
    # the quotient topology must agree with the order picture: every open
    # of Q has an open preimage exactly when the projection is monotone
    pi = ContinuousMap(X, Q, tuple(proj))
    if pi.continuity_violation() is not None:
        raise TopologyError("quotient opens disagree with preimages")
    return Q, pi


def kolmogorov_quotient(X: FiniteTopSpace) -> tuple[FiniteTopSpace, ContinuousMap]:
    """Identify x and y when x <= y <= x: points with the same least open."""
    first = {}
    return quotient_space(X, [(first.setdefault(below, x), x)
                              for x, below in enumerate(X._below)])

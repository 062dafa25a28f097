"""Coproducts and finite colimits of finite commutative semirings.

The coproduct of two semirings is presented on the monoid of pure products
(one factor from each side): formal sums of those monomials modulo the
additive relations of both sides, each relation rescaled by every monomial.
The presented additive monoid is closed coset-enumeration style: a state is
a canonical set of monomials (a duplicated monomial carries into its double
inside one factor, and monomials with a zero slot are dropped outright),
transitions add one monomial, and every relation instance is enforced at
every state through a worklist until nothing merges.  An explicit element
budget turns runaway growth into a clean error instead of a hang.

General colimits fold each connected component along a spanning tree, one
node at a time, keeping the part T built so far collapsed.  A tree arrow
h: A -> B that reaches a new node is one of three kinds of step:

- the new node is A, the arrow's source: A already maps into T through B,
  so T does not change and A's leg is B's leg after h;
- the new node is B and h is surjective: a pushout along a surjection is a
  quotient, so T is divided by the image of h's kernel, and each element of
  B takes the leg of any of its preimages;
- otherwise (B is new and h is not surjective): the coproduct of T with B,
  then the quotient that coequalizes h.

A finite localization R -> R[1/s] is surjective: s is a unit of the finite
monoid (R[1/s], *), so s**r == 1 for some r >= 1, 1/s = s**(r-1)/1, and
every a/s**k comes from R.  Gluing arrows are finite localizations, so the
walk diagrams of a presentation fold without a coproduct.  Arrows left over
after the tree are coequalized at the end, and disconnected components are
combined by plain coproduct.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .semiring import (DEFAULT_BUDGET, FiniteSemiring, InvariantError,
                       SemiringHom, TableError, congruence_closure,
                       hom_violation, identity_hom, quotient,
                       validate_semiring)


class BudgetExceeded(Exception):
    """A colimit needed a table larger than the element budget: either a
    diagram node is larger, or closing a coproduct outgrew it."""


# ---------------------------------------------------------------------------
# Additive-monoid completion engine


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


# ---------------------------------------------------------------------------
# Diagrams and colimits


@dataclass(frozen=True)
class SemiringDiagram:
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


@dataclass(frozen=True)
class ColimitResult:
    semiring: FiniteSemiring
    cocones: tuple[SemiringHom, ...]

    def induced_hom(self, legs, target: FiniteSemiring) -> SemiringHom:
        """The unique hom out of the colimit determined by compatible legs
        (one hom per diagram node into `target`)."""
        S = self.semiring
        img: dict[int, int] = {}

        def put(e, v):
            if e in img:
                if img[e] != v:
                    raise TableError("legs are not a cocone: images clash")
            else:
                img[e] = v

        for cocone, leg in zip(self.cocones, legs):
            if leg.target != target:
                raise TableError("leg lands in the wrong semiring")
            for x in range(cocone.source.n):
                put(cocone(x), leg(x))
        changed = True
        while changed:
            changed = False
            known = sorted(img)
            for a in known:
                for b in known:
                    for e, v in ((S.add[a][b], target.add[img[a]][img[b]]),
                                 (S.mul[a][b], target.mul[img[a]][img[b]])):
                        if e not in img:
                            img[e] = v
                            changed = True
                        elif img[e] != v:
                            raise TableError("legs are not a cocone: images clash")
        if len(img) != S.n:
            raise TableError("colimit is not generated by its cocone images")
        out = SemiringHom(S, target, tuple(img[i] for i in range(S.n)))
        if hom_violation(out) is not None:
            raise TableError("induced map failed to be a hom")
        return out


def _quotient_by_pairs(S, pairs):
    c = congruence_closure(S, pairs)
    return quotient(S, c)


def colimit(diagram: SemiringDiagram,
            budget: int = DEFAULT_BUDGET) -> ColimitResult:
    """Colimit with one cocone hom per node.

    Raises BudgetExceeded when a node or a coproduct closure has more
    elements than the budget (every other table the fold holds is a
    quotient of a node) and ValueError on the empty diagram (its colimit,
    the initial semiring of plain counting, is infinite).
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
    unseen = set(range(n))
    components: list[list[int]] = []
    while unseen:
        root = min(unseen)
        comp = [root]
        unseen.remove(root)
        queue = [root]
        while queue:
            x = queue.pop(0)
            for y in sorted(adj[x]):
                if y in unseen:
                    unseen.remove(y)
                    comp.append(y)
                    queue.append(y)
        components.append(sorted(comp))

    comp_results: list[tuple[FiniteSemiring, dict[int, SemiringHom]]] = []
    for comp in components:
        tree_used: set[int] = set()
        visited = {comp[0]}
        T = nodes[comp[0]]
        cocone: dict[int, SemiringHom] = {comp[0]: identity_hom(T)}
        while len(visited) < len(comp):
            pick = None
            for ai, (src, dst, h) in enumerate(arrows):
                if ai in tree_used:
                    continue
                if (src in visited) != (dst in visited):
                    pick = (ai, src, dst, h)
                    break
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
                # pushout along a surjection: divide T by h's kernel
                preimage: dict[int, int] = {}
                for x in range(h.source.n):
                    preimage.setdefault(h(x), x)
                pairs = [(leg(x), leg(preimage[h(x)]))
                         for x in range(h.source.n)]
                Q, proj = _quotient_by_pairs(T, pairs)
                cocone = {i: proj.compose(c) for i, c in cocone.items()}
                cocone[dst] = SemiringHom(h.target, Q, tuple(
                    proj(leg(preimage[y])) for y in range(h.target.n)))
            else:
                T2, inj_t, inj_n = tensor(T, h.target, budget)
                pairs = [(inj_t(leg(x)), inj_n(h(x)))
                         for x in range(h.source.n)]
                Q, proj = _quotient_by_pairs(T2, pairs)
                step = proj.compose(inj_t)
                cocone = {i: step.compose(c) for i, c in cocone.items()}
                cocone[dst] = proj.compose(inj_n)
            T = Q
            visited.add(dst)
        pairs = []
        for ai, (src, dst, h) in enumerate(arrows):
            if ai in tree_used or src not in visited:
                continue
            pairs.extend((cocone[dst](h(x)), cocone[src](x))
                         for x in range(nodes[src].n))
        if pairs:
            Q, proj = _quotient_by_pairs(T, pairs)
            cocone = {i: proj.compose(c) for i, c in cocone.items()}
            T = Q
        comp_results.append((T, cocone))

    total, cocones = comp_results[0]
    for T2, cocone2 in comp_results[1:]:
        P, inj1, inj2 = tensor(total, T2, budget)
        cocones = {i: inj1.compose(c) for i, c in cocones.items()}
        cocones.update({i: inj2.compose(c) for i, c in cocone2.items()})
        total = P
    legs = tuple(cocones[i] for i in range(n))
    for leg in legs:
        if hom_violation(leg) is not None:
            raise TableError("cocone failed to be a hom")
    for src, dst, h in arrows:
        if legs[dst].compose(h).images != legs[src].images:
            raise TableError("cocone does not commute with a diagram arrow")
    return ColimitResult(total, legs)


def pushout(f: SemiringHom, g: SemiringHom,
            budget: int = DEFAULT_BUDGET) -> ColimitResult:
    """Colimit of the span  f.target <- f.source==g.source -> g.target."""
    if f.source != g.source:
        raise TableError("pushout needs a common source")
    d = SemiringDiagram.build(
        (f.source, f.target, g.target),
        ((0, 1, f), (0, 2, g)))
    return colimit(d, budget)

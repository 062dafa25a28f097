"""Finite topological spaces, continuous maps, quotients, and gluing.

A finite space is stored as an explicit family of open point-sets.  Finite
spaces are exactly preorders: x <= y holds when y lies in the closure of x,
opens are the down-sets (stable under passing to more generic points),
closed points sit at the top.  Constructions that need a topology on new
points (disjoint unions, quotients, gluing spaces along maps) go through
that order picture.
"""

from __future__ import annotations

from dataclasses import dataclass


class TopologyError(Exception):
    pass


def set_label(labels, members) -> str:
    """The label of a subset, by its members' labels in index order."""
    return "{" + ",".join(labels[x] for x in sorted(members)) + "}"


@dataclass(frozen=True)
class FiniteTopSpace:
    points: tuple[str, ...]
    opens: frozenset[frozenset[int]]

    @property
    def n(self):
        return len(self.points)

    def index(self, label: str) -> int:
        try:
            return self.points.index(label)
        except ValueError:
            raise TopologyError(f"no point labeled {label!r}") from None

    def sorted_opens(self) -> list[frozenset[int]]:
        return sorted(self.opens, key=lambda u: (len(u), sorted(u)))

    def is_open(self, subset) -> bool:
        return frozenset(subset) in self.opens

    def is_closed(self, subset) -> bool:
        return frozenset(range(self.n)) - frozenset(subset) in self.opens

    def closure(self, subset) -> frozenset:
        subset = frozenset(subset)
        out = frozenset(range(self.n))
        for u in self.opens:
            if not (u & subset):
                out -= u
        return out

    def interior(self, subset) -> frozenset:
        subset = frozenset(subset)
        out = frozenset()
        for u in self.opens:
            if u <= subset:
                out |= u
        return out

    def min_open(self, x: int) -> frozenset:
        out = frozenset(range(self.n))
        for u in self.opens:
            if x in u:
                out &= u
        return out

    def specialization_leq(self) -> tuple[tuple[bool, ...], ...]:
        """leq[x][y] iff y is in the closure of x (closed points on top)."""
        cls = [self.closure({x}) for x in range(self.n)]
        return tuple(tuple(y in cls[x] for y in range(self.n))
                     for x in range(self.n))

    def is_t0(self) -> bool:
        seen = {}
        for x in range(self.n):
            key = frozenset(u for u in self.opens if x in u)
            if key in seen:
                return False
            seen[key] = x
        return True

    def irreducible_closed_sets(self) -> list[frozenset[int]]:
        """In a finite space these are exactly the point closures: a
        nonempty closed set is the finite union of its points' closures."""
        return sorted({self.closure({x}) for x in range(self.n)},
                      key=lambda c: (len(c), sorted(c)))

    def generic_points(self, closed_set) -> list[int]:
        closed_set = frozenset(closed_set)
        return [x for x in range(self.n) if self.closure({x}) == closed_set]

    def specialization_edges(self) -> list[tuple[str, str]]:
        """Covering pairs of the specialization order by label, each from
        the more special point toward its generization."""
        leq = self.specialization_leq()
        n = self.n
        edges = []
        for x in range(n):
            for y in range(n):
                if x == y or not leq[x][y] or leq[y][x]:
                    continue
                between = any(leq[x][z] and leq[z][y] and z != x and z != y
                              and not leq[z][x] and not leq[y][z]
                              for z in range(n))
                if not between:
                    edges.append((self.points[y], self.points[x]))
        return edges

    def specialization_dot(self, edges=None) -> str:
        """Edges run from each closed point toward its generizations, one
        covering pair per line; `edges` defaults to specialization_edges()."""
        lines = ["digraph specialization {"]
        lines += [f'  "{p}";' for p in self.points]
        lines += [f'  "{a}" -> "{b}";' for a, b in (
            self.specialization_edges() if edges is None else edges)]
        lines.append("}")
        return "\n".join(lines) + "\n"


def validate_topology(points, opens) -> FiniteTopSpace:
    points = tuple(points)
    if len(set(points)) != len(points):
        raise TopologyError("duplicate point labels")
    n = len(points)
    fam = {frozenset(u) for u in opens}
    for u in fam:
        for x in u:
            if not (0 <= x < n):
                raise TopologyError(f"open set mentions unknown point {x}")
    if frozenset() not in fam:
        raise TopologyError("the empty set must be open")
    if frozenset(range(n)) not in fam:
        raise TopologyError("the full point set must be open")
    for u in fam:
        for v in fam:
            if u | v not in fam:
                raise TopologyError(
                    f"opens not closed under union: {sorted(u)} | {sorted(v)}")
            if u & v not in fam:
                raise TopologyError(
                    f"opens not closed under intersection: {sorted(u)} & {sorted(v)}")
    return FiniteTopSpace(points, frozenset(fam))


def space_from_opens(points, opens) -> FiniteTopSpace:
    """Close a family under union/intersection and validate."""
    fam = {frozenset(u) for u in opens}
    fam.add(frozenset())
    fam.add(frozenset(range(len(points))))
    changed = True
    while changed:
        changed = False
        current = list(fam)
        for i, u in enumerate(current):
            for v in current[i + 1:]:
                for w in (u | v, u & v):
                    if w not in fam:
                        fam.add(w)
                        changed = True
    return validate_topology(points, fam)


def from_preorder(points, leq) -> FiniteTopSpace:
    """Space whose specialization order is the reflexive-transitive closure
    of leq; opens are the down-sets (leq[x][y] reads: y specializes x)."""
    n = len(points)
    reach = [set([x]) for x in range(n)]
    for x in range(n):
        for y in range(n):
            if leq[x][y]:
                reach[x].add(y)
    changed = True
    while changed:
        changed = False
        for x in range(n):
            for y in list(reach[x]):
                if not reach[y] <= reach[x]:
                    reach[x] |= reach[y]
                    changed = True
    # mutually reachable points always travel together, so enumerate
    # down-sets over the clusters
    cluster_of = {}
    clusters: list[list[int]] = []
    for x in range(n):
        for ci, c in enumerate(clusters):
            r = c[0]
            if x in reach[r] and r in reach[x]:
                c.append(x)
                cluster_of[x] = ci
                break
        else:
            cluster_of[x] = len(clusters)
            clusters.append([x])
    k = len(clusters)
    reps = [c[0] for c in clusters]
    below = [frozenset(cj for cj in range(k)
                       if cj != ci and reps[ci] in reach[reps[cj]])
             for ci in range(k)]
    order = sorted(range(k), key=lambda ci: (len(below[ci]), clusters[ci][0]))
    downs = {frozenset()}
    for ci in order:
        downs |= {d | {ci} for d in downs if below[ci] <= d}
    opens = {frozenset(x for ci in d for x in clusters[ci]) for d in downs}
    return validate_topology(points, opens)


@dataclass(frozen=True)
class ContinuousMap:
    source: FiniteTopSpace
    target: FiniteTopSpace
    images: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.images[i]

    def continuity_violation(self):
        for u in self.target.opens:
            pre = frozenset(x for x in range(self.source.n)
                            if self.images[x] in u)
            if pre not in self.source.opens:
                return u
        return None

    def is_continuous(self) -> bool:
        return self.continuity_violation() is None

    def is_injective(self) -> bool:
        return len(set(self.images)) == len(self.images)

    def is_surjective(self) -> bool:
        return set(self.images) == set(range(self.target.n))

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def compose(self, other: "ContinuousMap") -> "ContinuousMap":
        """self after other."""
        if other.target != self.source:
            raise TopologyError("composition endpoint mismatch")
        return ContinuousMap(other.source, self.target,
                             tuple(self.images[i] for i in other.images))

    def is_homeomorphism(self) -> bool:
        if not (self.is_bijective() and self.is_continuous()):
            return False
        inv = [0] * self.target.n
        for x, y in enumerate(self.images):
            inv[y] = x
        back = ContinuousMap(self.target, self.source, tuple(inv))
        return back.is_continuous()

    def is_open_embedding(self) -> bool:
        if not (self.is_injective() and self.is_continuous()):
            return False
        image = frozenset(self.images)
        if image not in self.target.opens:
            return False
        for u in self.source.opens:
            fu = frozenset(self.images[x] for x in u)
            if fu not in self.target.opens:
                return False
        return True


def continuous_map(source, target, images) -> ContinuousMap:
    images = tuple(images)
    if len(images) != source.n or any(not 0 <= y < target.n for y in images):
        raise TopologyError("point assignment out of range")
    m = ContinuousMap(source, target, images)
    bad = m.continuity_violation()
    if bad is not None:
        raise TopologyError(
            f"preimage of open {sorted(bad)} is not open")
    return m


def subspace(X: FiniteTopSpace, subset) -> tuple[FiniteTopSpace, ContinuousMap]:
    subset = sorted(frozenset(subset))
    back = {x: i for i, x in enumerate(subset)}
    opens = {frozenset(back[x] for x in u if x in back) for u in X.opens}
    S = validate_topology(tuple(X.points[x] for x in subset), opens)
    incl = continuous_map(S, X, tuple(subset))
    return S, incl


def disjoint_union(spaces, prefixes=None) -> tuple[FiniteTopSpace, tuple[ContinuousMap, ...]]:
    if prefixes is None:
        prefixes = [str(i) for i in range(len(spaces))]
    points = []
    offsets = []
    for pre, sp in zip(prefixes, spaces):
        offsets.append(len(points))
        points.extend(f"{pre}:{lab}" for lab in sp.points)
    opens = set()
    pieces = [sorted(sp.opens, key=lambda u: (len(u), sorted(u)))
              for sp in spaces]

    def build(i, acc):
        if i == len(spaces):
            opens.add(frozenset(acc))
            return
        for u in pieces[i]:
            build(i + 1, acc | {offsets[i] + x for x in u})

    build(0, set())
    X = validate_topology(tuple(points), opens)
    incls = tuple(continuous_map(sp, X,
                                 tuple(offsets[i] + x for x in range(sp.n)))
                  for i, sp in enumerate(spaces))
    return X, incls


def _classes(n: int, pairs) -> tuple[list[int], list[int]]:
    """Classes of the equivalence on range(n) generated by pairs, numbered
    in the order of their least members; returns the class of each point
    and the least member of each class."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            # the least member stays the root of its class
            parent[max(ra, rb)] = min(ra, rb)
    reps = sorted({find(x) for x in range(n)})
    idx = {r: i for i, r in enumerate(reps)}
    return [idx[find(x)] for x in range(n)], reps


def quotient_space(X: FiniteTopSpace, pairs, labels=None) -> tuple[FiniteTopSpace, ContinuousMap]:
    """Quotient by the equivalence generated by pairs; opens are exactly the
    sets with open preimage (computed through the projected specialization
    preorder, which finite spaces make exact)."""
    proj, reps = _classes(X.n, pairs)
    k = len(reps)
    leq = [[False] * k for _ in range(k)]
    xleq = X.specialization_leq()
    for x in range(X.n):
        for y in range(X.n):
            if xleq[x][y]:
                leq[proj[x]][proj[y]] = True
    if labels is None:
        labels = tuple(X.points[r] for r in reps)
    Q = from_preorder(tuple(labels), leq)
    # the quotient topology must agree with the order picture
    for u in Q.opens:
        pre = frozenset(x for x in range(X.n) if proj[x] in u)
        if pre not in X.opens:
            raise TopologyError("quotient opens disagree with preimages")
    pi = continuous_map(X, Q, tuple(proj))
    return Q, pi


def glue_along_maps(names, spaces, arrows):
    """Glue finite spaces along point maps: the disjoint union of spaces
    modulo x ~ m(x) for each arrow (src, dst, m), where m is a continuous
    map from spaces[src] to spaces[dst].  The glued specialization order
    is generated by the charts' orders.  Returns the glued space, the
    chart maps into it, and per glued point its (chart name, point label)
    pairs; a glued point is labeled by its first pair."""
    offsets = []
    total = 0
    for X in spaces:
        offsets.append(total)
        total += X.n
    pairs = []
    for si, di, m in arrows:
        if m.source != spaces[si] or m.target != spaces[di]:
            raise TopologyError("an arrow's map misses its chart spaces")
        pairs += [(offsets[si] + x, offsets[di] + m(x))
                  for x in range(m.source.n)]
    of, reps = _classes(total, pairs)
    k = len(reps)

    provenance = [[] for _ in range(k)]
    for ci, X in enumerate(spaces):
        for x in range(X.n):
            provenance[of[offsets[ci] + x]].append((names[ci], X.points[x]))
    labels = tuple(f"{ps[0][0]}:{ps[0][1]}" for ps in provenance)

    leq = [[i == j for j in range(k)] for i in range(k)]
    for ci, X in enumerate(spaces):
        lo = X.specialization_leq()
        for x in range(X.n):
            for y in range(X.n):
                if lo[x][y]:
                    leq[of[offsets[ci] + x]][of[offsets[ci] + y]] = True
    glued = from_preorder(labels, leq)
    charts = tuple(
        continuous_map(X, glued,
                       tuple(of[offsets[ci] + x] for x in range(X.n)))
        for ci, X in enumerate(spaces))
    return glued, charts, tuple(tuple(ps) for ps in provenance)


def kolmogorov_quotient(X: FiniteTopSpace) -> tuple[FiniteTopSpace, ContinuousMap]:
    """Identify points contained in exactly the same opens."""
    key = {}
    pairs = []
    for x in range(X.n):
        k = frozenset(u for u in X.opens if x in u)
        if k in key:
            pairs.append((key[k], x))
        else:
            key[k] = x
    return quotient_space(X, pairs)

"""Finite frames (bounded distributive lattices) and Stone duality.

At finite scale a frame is exactly a bounded distributive lattice, and the
points of its Stone dual are the completely prime filters; each such filter
is generated by a join-prime element, so the dual space is computed from
those generators.
"""

from __future__ import annotations

from .topology import (
    ContinuousMap,
    FiniteTopSpace,
    continuous_map,
    set_label,
    validate_topology,
)


class FrameError(Exception):
    pass


class FiniteFrame:
    """A validated finite bounded distributive lattice; build through
    `finite_frame`."""

    def __init__(self, elements, leq, meet, join, bottom, top):
        self.elements = tuple(elements)
        self.leq = leq
        self.meet = meet
        self.join = join
        self.bottom = bottom
        self.top = top

    @property
    def n(self):
        return len(self.elements)

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise FrameError(f"no lattice element labeled {label!r}") \
                from None

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (a, b) with a strictly below b and nothing between."""
        out = []
        for a in range(self.n):
            for b in range(self.n):
                if a == b or not self.leq[a][b]:
                    continue
                if not any(self.leq[a][c] and self.leq[c][b]
                           and c != a and c != b for c in range(self.n)):
                    out.append((a, b))
        return out

    def join_primes(self) -> list[int]:
        """Non-bottom elements m with m <= a v b forcing m <= a or m <= b;
        these generate the completely prime filters."""
        out = []
        for m in range(self.n):
            if m == self.bottom:
                continue
            if all(not self.leq[m][self.join[a][b]]
                   or self.leq[m][a] or self.leq[m][b]
                   for a in range(self.n) for b in range(self.n)):
                out.append(m)
        return out

    def __eq__(self, other):
        return (isinstance(other, FiniteFrame)
                and self.elements == other.elements and self.leq == other.leq)

    def __hash__(self):
        return hash((self.elements, self.leq))

    def __repr__(self):
        return f"FiniteFrame({self.n} elements)"


def finite_frame(elements, leq) -> FiniteFrame:
    """Validate an order matrix into a frame: a bounded lattice whose meet
    distributes over join.  The distributivity error carries a witness
    triple."""
    elements = tuple(elements)
    n = len(elements)
    if len(set(elements)) != n:
        raise FrameError("duplicate element labels")
    leq = tuple(tuple(bool(x) for x in row) for row in leq)
    if len(leq) != n or any(len(row) != n for row in leq):
        raise FrameError("order matrix shape mismatch")
    for a in range(n):
        if not leq[a][a]:
            raise FrameError(f"order not reflexive at {elements[a]}")
        for b in range(n):
            if a != b and leq[a][b] and leq[b][a]:
                raise FrameError(
                    f"order not antisymmetric on {elements[a]}, {elements[b]}")
            for c in range(n):
                if leq[a][b] and leq[b][c] and not leq[a][c]:
                    raise FrameError(
                        f"order not transitive through {elements[b]}")

    def bound(a, b, below):
        if below:
            cands = [c for c in range(n) if leq[c][a] and leq[c][b]]
            best = [c for c in cands if all(leq[d][c] for d in cands)]
        else:
            cands = [c for c in range(n) if leq[a][c] and leq[b][c]]
            best = [c for c in cands if all(leq[c][d] for d in cands)]
        if len(best) != 1:
            kind = "meet" if below else "join"
            raise FrameError(
                f"no {kind} for {elements[a]}, {elements[b]}")
        return best[0]

    meet = tuple(tuple(bound(a, b, True) for b in range(n))
                 for a in range(n))
    join = tuple(tuple(bound(a, b, False) for b in range(n))
                 for a in range(n))
    bottoms = [a for a in range(n) if all(leq[a][b] for b in range(n))]
    tops = [a for a in range(n) if all(leq[b][a] for b in range(n))]
    if len(bottoms) != 1 or len(tops) != 1:
        raise FrameError("missing bottom or top")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = meet[a][join[b][c]]
                rhs = join[meet[a][b]][meet[a][c]]
                if lhs != rhs:
                    raise FrameError(
                        "meet does not distribute over join at "
                        f"({elements[a]}, {elements[b]}, {elements[c]})")
    return FiniteFrame(elements, leq, meet, join, bottoms[0], tops[0])


def frame_from_covers(elements, cover_pairs) -> FiniteFrame:
    """Rebuild a frame from its covering pairs (a below b)."""
    elements = tuple(elements)
    n = len(elements)
    leq = [[a == b for b in range(n)] for a in range(n)]
    for a, b in cover_pairs:
        leq[a][b] = True
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(n):
                if not leq[a][b]:
                    continue
                for c in range(n):
                    if leq[b][c] and not leq[a][c]:
                        leq[a][c] = True
                        changed = True
    return finite_frame(elements, leq)


def frame_of_opens(X: FiniteTopSpace) -> FiniteFrame:
    """The lattice of open sets ordered by inclusion, in canonical order."""
    opens = X.sorted_opens()
    labels = tuple(set_label(X.points, u) for u in opens)
    leq = tuple(tuple(u <= v for v in opens) for u in opens)
    return finite_frame(labels, leq)


class FrameMorphism:
    """A lattice map preserving bottom, top, binary meets and joins; build
    through `frame_morphism`."""

    def __init__(self, source: FiniteFrame, target: FiniteFrame, images):
        self.source = source
        self.target = target
        self.images = tuple(images)

    def __call__(self, a: int) -> int:
        return self.images[a]

    def is_injective(self) -> bool:
        return len(set(self.images)) == len(self.images)

    def is_surjective(self) -> bool:
        return set(self.images) == set(range(self.target.n))

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def compose(self, other: "FrameMorphism") -> "FrameMorphism":
        if other.target != self.source:
            raise FrameError("composition endpoint mismatch")
        return FrameMorphism(other.source, self.target,
                             tuple(self.images[a] for a in other.images))


def frame_morphism(source, target, images) -> FrameMorphism:
    images = tuple(images)
    if len(images) != source.n or \
            any(not 0 <= y < target.n for y in images):
        raise FrameError("element assignment out of range")
    if images[source.bottom] != target.bottom:
        raise FrameError("bottom not preserved")
    if images[source.top] != target.top:
        raise FrameError("top not preserved")
    for a in range(source.n):
        for b in range(source.n):
            if images[source.meet[a][b]] != \
                    target.meet[images[a]][images[b]]:
                raise FrameError(
                    f"meet not preserved at ({source.elements[a]}, "
                    f"{source.elements[b]})")
            if images[source.join[a][b]] != \
                    target.join[images[a]][images[b]]:
                raise FrameError(
                    f"join not preserved at ({source.elements[a]}, "
                    f"{source.elements[b]})")
    return FrameMorphism(source, target, images)


def opens_pullback(f: ContinuousMap) -> FrameMorphism:
    """A continuous map induces the preimage map between open-set frames,
    running the other way."""
    LY = frame_of_opens(f.target)
    LX = frame_of_opens(f.source)
    src_opens = f.source.sorted_opens()
    images = []
    for v in f.target.sorted_opens():
        pre = frozenset(x for x in range(f.source.n) if f(x) in v)
        images.append(src_opens.index(pre))
    return frame_morphism(LY, LX, images)


def stone_dual(L: FiniteFrame) -> tuple[FiniteTopSpace, tuple[frozenset[int], ...]]:
    """The space of completely prime filters of L; each filter is the
    up-set of a join-prime element, and the opens are the sets
    O_u = filters containing u."""
    gens = L.join_primes()
    filters = tuple(frozenset(u for u in range(L.n) if L.leq[m][u])
                    for m in gens)
    labels = tuple(L.elements[m] for m in gens)
    opens = {frozenset(i for i, m in enumerate(gens) if L.leq[m][u])
             for u in range(L.n)}
    space = validate_topology(labels, opens)
    return space, filters


def stone_map(h: FrameMorphism) -> ContinuousMap:
    """A frame map M -> N induces the continuous map between the duals in
    the reverse direction, by pulling filters back."""
    M, N = h.source, h.target
    dual_M, filters_M = stone_dual(M)
    dual_N, _ = stone_dual(N)
    gens_N = N.join_primes()
    images = []
    for m in gens_N:
        back = frozenset(u for u in range(M.n) if N.leq[m][h(u)])
        images.append(filters_M.index(back))
    return continuous_map(dual_N, dual_M, tuple(images))


def sobrification_unit(X: FiniteTopSpace) -> ContinuousMap:
    """The canonical comparison x -> (filter of opens containing x) into
    the dual of the open-set frame; a homeomorphism exactly on T0 spaces."""
    L = frame_of_opens(X)
    opens = X.sorted_opens()
    dual, filters = stone_dual(L)
    images = []
    for x in range(X.n):
        fx = frozenset(i for i, u in enumerate(opens) if x in u)
        images.append(filters.index(fx))
    return continuous_map(X, dual, tuple(images))


def is_sober(X: FiniteTopSpace):
    """Each irreducible closed set must be the closure of exactly one
    point; returns (flag, witness) where the witness names an offending
    closed set and its generic points."""
    for c in X.irreducible_closed_sets():
        gens = X.generic_points(c)
        if len(gens) != 1:
            return False, (c, tuple(X.points[g] for g in gens))
    return True, None


def spatiality_check(L: FiniteFrame) -> bool:
    """Whether u -> O_u identifies L with the open-set frame of its dual;
    for that the assignment must be injective and order-reflecting."""
    gens = L.join_primes()
    point_sets = [frozenset(i for i, m in enumerate(gens) if L.leq[m][u])
                  for u in range(L.n)]
    if len(set(point_sets)) != L.n:
        return False
    for a in range(L.n):
        for b in range(L.n):
            if (point_sets[a] <= point_sets[b]) != L.leq[a][b]:
                return False
    return True

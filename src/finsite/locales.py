"""Finite frames (bounded distributive lattices) and Stone duality.

At finite scale a frame is exactly a bounded distributive lattice, and the
points of its Stone dual are the completely prime filters; each such filter
is generated by a join-prime element, so the dual space is computed from
those generators.  By Birkhoff duality a finite distributive lattice is the
lattice of down-sets of its join-irreducibles (the elements with exactly
one lower cover), and these are exactly its join-primes.
"""

from __future__ import annotations

from .semiring import _Map, _Record
from .topology import (
    ContinuousMap,
    FiniteTopSpace,
    continuous_map,
    cover_pairs,
    from_preorder,
    order_closure,
    set_label,
)


class FrameError(Exception):
    pass


class FiniteFrame(_Record):
    """A validated finite bounded distributive lattice with its order,
    meet and join tables and its join-primes; build through
    `finite_frame`."""

    elements: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]
    bottom: int
    top: int
    primes: tuple[int, ...]

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
        return cover_pairs(self.leq)

    def join_primes(self) -> list[int]:
        """Non-bottom elements m with m <= a v b forcing m <= a or m <= b;
        these generate the completely prime filters.  In a distributive
        lattice they are the join-irreducibles `finite_frame` found."""
        return list(self.primes)

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
    # up[a] and down[a]: the elements above and below a, as bitmasks
    up = [sum(1 << b for b in range(n) if leq[a][b]) for a in range(n)]
    down = [sum(1 << a for a in range(n) if leq[a][b]) for b in range(n)]
    for a in range(n):
        if not leq[a][a]:
            raise FrameError(f"order not reflexive at {elements[a]}")
        for b in range(n):
            if a != b and leq[a][b] and leq[b][a]:
                raise FrameError(
                    f"order not antisymmetric on {elements[a]}, {elements[b]}")
            # some c above b is not above a
            if leq[a][b] and up[b] & ~up[a]:
                raise FrameError(
                    f"order not transitive through {elements[b]}")

    # in a poset an element is fixed by its up-set: a v b, when it exists,
    # is the element whose up-set is up(a) & up(b), and dually for meets
    by_up = {u: c for c, u in enumerate(up)}
    by_down = {d: c for c, d in enumerate(down)}

    def bound(a, b, below):
        if below:
            best = by_down.get(down[a] & down[b])
        else:
            best = by_up.get(up[a] & up[b])
        if best is None:
            kind = "meet" if below else "join"
            raise FrameError(
                f"no {kind} for {elements[a]}, {elements[b]}")
        return best

    meet = tuple(tuple(bound(a, b, True) for b in range(n))
                 for a in range(n))
    join = tuple(tuple(bound(a, b, False) for b in range(n))
                 for a in range(n))
    bottoms = [a for a in range(n) if all(leq[a][b] for b in range(n))]
    tops = [a for a in range(n) if all(leq[b][a] for b in range(n))]
    if len(bottoms) != 1 or len(tops) != 1:
        raise FrameError("missing bottom or top")
    # Birkhoff: a finite lattice is distributive iff each join-irreducible
    # is join-prime, that is J(a v b) = J(a) | J(b) with J(x) the
    # join-irreducibles below x.  A j below a v b but below neither a nor b
    # has j ^ (a v b) = j above (j ^ a) v (j ^ b), which lies under j's
    # one lower cover, so (j, a, b) witnesses the failure.
    lower = [0] * n
    for _, b in cover_pairs(leq):
        lower[b] += 1
    primes = tuple(j for j in range(n) if lower[j] == 1)
    irreducible = sum(1 << j for j in primes)
    J = [d & irreducible for d in down]
    for a in range(n):
        for b in range(a + 1, n):
            missed = J[join[a][b]] & ~(J[a] | J[b])
            if missed:
                j = (missed & -missed).bit_length() - 1
                raise FrameError(
                    "meet does not distribute over join at "
                    f"({elements[j]}, {elements[a]}, {elements[b]})")
    return FiniteFrame(elements, leq, meet, join, bottoms[0], tops[0], primes)


def frame_from_covers(elements, pairs) -> FiniteFrame:
    """Rebuild a frame from its covering pairs (a below b)."""
    elements = tuple(elements)
    n = len(elements)
    rows = order_closure(n, pairs)
    return finite_frame(elements, [[bool(r >> b & 1) for b in range(n)]
                                   for r in rows])


def frame_of_opens(X: FiniteTopSpace) -> FiniteFrame:
    """The lattice of open sets ordered by inclusion, in canonical order."""
    opens = X.sorted_opens()
    labels = tuple(set_label(X.points, u) for u in opens)
    leq = tuple(tuple(u <= v for v in opens) for u in opens)
    return finite_frame(labels, leq)


class FrameMorphism(_Map):
    """A lattice map preserving bottom, top, binary meets and joins; build
    through `frame_morphism`."""

    _error = FrameError


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
    """The space of completely prime filters of L, each the up-set of a
    join-prime; built from the join-prime order, whose down-sets are the
    O_u = filters containing u, so the O_u generate the same topology."""
    gens = L.join_primes()
    filters = tuple(frozenset(u for u in range(L.n) if L.leq[m][u])
                    for m in gens)
    labels = tuple(L.elements[m] for m in gens)
    # O_u = join-primes below u, and by Birkhoff every down-set is some O_u
    space = from_preorder(labels, [[L.leq[m][k] for k in gens] for m in gens])
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

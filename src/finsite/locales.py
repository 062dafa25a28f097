"""Finite frames (bounded distributive lattices) and Stone duality.

At finite scale a frame is exactly a bounded distributive lattice, and the
points of its Stone dual are the completely prime filters; each such filter
is generated by a join-prime element, so the dual space is computed from
those generators.  By Birkhoff duality a finite distributive lattice is the
lattice of down-sets of its join-irreducibles (the elements with exactly
one lower cover), and these are exactly its join-primes.  A frame stores
its order as a space does, in int-bitmask rows `above`.

A finite space keeps its frame of opens, and a frame its Stone dual, in
the record `semiring._memo` fills: each is built and validated once, on
first use, and equality, hash and repr ignore it.
"""

from __future__ import annotations

from .semiring import _Map, _memo, _Record
from .topology import (
    ContinuousMap,
    FiniteTopSpace,
    _bits,
    _converse,
    _restrict,
    continuous_map,
    cover_pairs,
    from_preorder,
    order_closure,
    set_label,
)


class FrameError(Exception):
    pass


class FiniteFrame(_Record):
    """A validated finite bounded distributive lattice with its order
    (bit b of above[a] is set iff a <= b), meet and join tables and its
    join-primes; build through `finite_frame`."""

    elements: tuple[str, ...]
    above: tuple[int, ...]
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
        return cover_pairs(self.above)

    def join_primes(self) -> list[int]:
        """Non-bottom elements m with m <= a v b forcing m <= a or m <= b;
        these generate the completely prime filters.  In a distributive
        lattice they are the join-irreducibles `finite_frame` found."""
        return list(self.primes)

    def __repr__(self):
        return f"FiniteFrame({self.n} elements)"


def finite_frame(elements, above) -> FiniteFrame:
    """Validate order rows (bit b of above[a] set iff a <= b) into a frame:
    a bounded lattice whose meet distributes over join.  The
    distributivity error carries a witness triple."""
    elements = tuple(elements)
    n = len(elements)
    if len(set(elements)) != n:
        raise FrameError("duplicate element labels")
    # up[a] and down[a]: the elements above and below a, as bitmasks
    up = tuple(above)
    if len(up) != n or any(row >> n for row in up):
        raise FrameError(f"order rows do not fit {n} elements")
    down = _converse(up)
    for a in range(n):
        if not up[a] >> a & 1:
            raise FrameError(f"order not reflexive at {elements[a]}")
        # both checks concern the b above a, taken in index order
        for b in _bits(up[a]):
            if a != b and up[b] >> a & 1:
                raise FrameError(
                    f"order not antisymmetric on {elements[a]}, {elements[b]}")
            # some c above b is not above a
            if up[b] & ~up[a]:
                raise FrameError(
                    f"order not transitive through {elements[b]}")

    # in a poset an element is fixed by its up-set: a v b, when it exists,
    # is the element whose up-set is up(a) & up(b), and dually for meets
    def table(masks, kind):
        by_mask = {m: c for c, m in enumerate(masks)}
        rows = tuple(tuple(map(by_mask.get, [m & k for k in masks]))
                     for m in masks)
        for a, row in enumerate(rows):
            if None in row:
                raise FrameError(f"no {kind} for {elements[a]}, "
                                 f"{elements[row.index(None)]}")
        return rows

    meet = table(down, "meet")
    join = table(up, "join")
    full = (1 << n) - 1
    bottoms = [a for a in range(n) if up[a] == full]
    tops = [a for a in range(n) if down[a] == full]
    if len(bottoms) != 1 or len(tops) != 1:
        raise FrameError("missing bottom or top")
    # Birkhoff: a finite lattice is distributive iff each join-irreducible
    # is join-prime, that is J(a v b) = J(a) | J(b) with J(x) the
    # join-irreducibles below x.  A j below a v b but below neither a nor b
    # has j ^ (a v b) = j above (j ^ a) v (j ^ b), which lies under j's
    # one lower cover, so (j, a, b) witnesses the failure.
    lower = [0] * n
    for _, b in cover_pairs(up):
        lower[b] += 1
    primes = tuple(j for j in range(n) if lower[j] == 1)
    irreducible = sum(1 << j for j in primes)
    J = [d & irreducible for d in down]
    for a in range(n):
        Ja, row = J[a], join[a]
        for b in range(a + 1, n):
            missed = J[row[b]] & ~(Ja | J[b])
            if missed:
                j = (missed & -missed).bit_length() - 1
                raise FrameError(
                    "meet does not distribute over join at "
                    f"({elements[j]}, {elements[a]}, {elements[b]})")
    return FiniteFrame(elements, up, meet, join, bottoms[0], tops[0], primes)


def frame_from_covers(elements, pairs) -> FiniteFrame:
    """Rebuild a frame from its covering pairs (a below b)."""
    elements = tuple(elements)
    return finite_frame(elements, order_closure(len(elements), pairs))


def frame_of_opens(X: FiniteTopSpace) -> FiniteFrame:
    """The lattice of open sets ordered by inclusion, in canonical order;
    validated on first use and kept by X."""
    return _memo(X, "frame", lambda: _frame_of_opens(X))


def _frame_of_opens(X: FiniteTopSpace) -> FiniteFrame:
    labels = tuple(set_label(X.points, u) for u in X.sorted_opens())
    opens = X.open_masks
    return finite_frame(labels, [
        sum(1 << j for j, v in enumerate(opens) if u & ~v == 0)
        for u in opens])


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
    position = {u: i for i, u in enumerate(f.source.open_masks)}
    images = [position[sum(1 << x for x, y in enumerate(f.images)
                           if v >> y & 1)]
              for v in f.target.open_masks]
    return frame_morphism(LY, LX, images)


def stone_dual(L: FiniteFrame) -> tuple[FiniteTopSpace, tuple[frozenset[int], ...]]:
    """The space of completely prime filters of L, each the up-set of a
    join-prime; built from the join-prime order, whose down-sets are the
    O_u = filters containing u, so the O_u generate the same topology.
    Built on first use and kept by L."""
    return _memo(L, "dual", lambda: _stone_dual(L))


def _stone_dual(L: FiniteFrame):
    gens = L.primes
    filters = tuple(frozenset(_bits(L.above[m])) for m in gens)
    labels = tuple(L.elements[m] for m in gens)
    # O_u = join-primes below u, and by Birkhoff every down-set is some O_u
    return from_preorder(labels, _restrict(L.above, gens)), filters


def stone_map(h: FrameMorphism) -> ContinuousMap:
    """A frame map M -> N induces the continuous map between the duals in
    the reverse direction, by pulling filters back."""
    M, N = h.source, h.target
    dual_M, filters_M = stone_dual(M)
    dual_N, _ = stone_dual(N)
    gens_N = N.join_primes()
    images = []
    for m in gens_N:
        back = frozenset(u for u in range(M.n) if N.above[m] >> h(u) & 1)
        images.append(filters_M.index(back))
    return continuous_map(dual_N, dual_M, tuple(images))


def sobrification_unit(X: FiniteTopSpace) -> ContinuousMap:
    """The canonical comparison x -> (filter of opens containing x) into
    the dual of the open-set frame; a homeomorphism exactly on T0 spaces."""
    L = frame_of_opens(X)
    dual, _ = stone_dual(L)
    # the opens around x are those holding x's least open: the up-set of
    # that open, a join-prime, so the filter of the dual's point there
    position = {u: i for i, u in enumerate(X.open_masks)}
    point = {m: p for p, m in enumerate(L.primes)}
    return continuous_map(X, dual, tuple(point[position[least]]
                                         for least in X._below))


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
    for that the assignment must be injective and order-reflecting.  It
    preserves meets, O_{a ^ b} = O_a & O_b, so injective is enough: O_a
    inside O_b gives O_{a ^ b} = O_a, so a ^ b = a and a <= b."""
    # point_sets[u]: O_u, the join-primes below u
    point_sets = [0] * L.n
    for m in L.primes:
        for u in _bits(L.above[m]):
            point_sets[u] |= 1 << m
    return len(set(point_sets)) == L.n

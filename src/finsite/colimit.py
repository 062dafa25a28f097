"""Finite colimits of finite commutative semirings, folded by quotients.

A connected diagram folds along a spanning tree, one node at a time,
keeping the part T built so far collapsed.  A tree arrow h: A -> B that
reaches a new node is one of three kinds of step:

- the new node is A, the arrow's source: A already maps into T through B,
  so T does not change and A's leg is B's leg after h;
- the new node is B and h is surjective: a pushout along a surjection is a
  quotient, so T is divided by the image of h's kernel, and each element of
  B takes the leg of any of its preimages;
- the new node is B and A's leg into T is surjective: the same pushout with
  the sides swapped, so B is divided by Cg{(h(x), h(y)) : leg(x) = leg(y)},
  and each element of T maps to the class of h of any of its preimages.

Arrows left over after the tree are coequalized at the end.  Every step
keeps one leg surjective (the root's, until a step of the third kind hands
that role to B's), so the colimit is the image of that leg.

A finite localization R -> R[1/s] is surjective: some power e of s is
idempotent, R[1/s] is the corner eR, and the canonical map a -> e*a
reaches every element e*x == x of eR.  Gluing arrows are finite
localizations, so the walk diagrams of a presentation take the first two
steps only, and the pushout of a localization along any hom (base
change) takes the second, then the third.  A diagram whose colimit needs
a coproduct -- a disconnected one, or a tree step where neither h nor the
leg is surjective -- raises ValueError.
"""

from __future__ import annotations

from .semiring import (DEFAULT_BUDGET, FiniteSemiring, InvariantError,
                       SemiringHom, TableError, _Record, congruence_closure,
                       hom_violation, identity_hom, quotient)


class BudgetExceeded(Exception):
    """A colimit needed a table larger than the element budget: a diagram
    node is larger (every other table the fold holds is a quotient of a
    node)."""


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

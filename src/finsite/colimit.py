"""Colimits and limits of finite diagrams, as set computations: the
colimit of a path of finite localizations, finite spaces glued along
point maps, and the matching families of a descent check with its verdict.

A finite localization R -> R[1/s] is surjective: some power e of s is
idempotent, R[1/s] is the corner eR, and a -> e*a reaches every e*x == x.
Along a path of surjections each pushout divides by the image of a
congruence under a surjection, a reflexive compatible relation whose
transitive closure is already a congruence.  So the colimit of semirings
is the colimit of sets: the equivalence on the nodes' elements that
joins x to h(x) for each arrow's hom h.  Gluing spaces takes the same
equivalence of their points and generates the glued order from the
charts' orders.  Both come from `records._partition` with no tables, the
routine that closes congruences with the tables + and *.

Both sites decide descent here: `matching_tuples` lists the families
that agree along given maps, and `descent_verdict` says whether
restriction from the base is a bijection onto them.  Only `glue`,
`sheaf-check` and `claims` load this module.
"""

from __future__ import annotations

from itertools import accumulate

from .records import InvariantError, _partition
from .topology import (
    TopologyError,
    _bits,
    _space_of_order,
    continuous_map,
    order_closure,
)


def colimit(nodes, arrows) -> tuple[list[int], tuple[int, ...]]:
    """The colimit of a path of surjective homs: arrows (i, j, h) carry h
    from nodes[i] to nodes[j].  Returns the offset of each node, whose
    elements are laid out one node after another, and the colimit class
    of each laid-out element."""
    offsets = list(accumulate((R.n for R in nodes), initial=0))
    of = _partition(offsets[-1], [
        (offsets[i] + x, offsets[j] + y)
        for i, j, h in arrows for x, y in enumerate(h.images)])
    return offsets, of


def glue_along_maps(names, spaces, arrows):
    """Glue finite spaces along point maps: the disjoint union of spaces
    modulo x ~ m(x) for each arrow (src, dst, m), where m is a continuous
    map from spaces[src] to spaces[dst].  The glued specialization order
    is generated by the charts' orders.  Returns the glued space, the
    chart maps into it, and per glued point its (chart name, point label)
    pairs; a glued point is labeled by its first pair."""
    offsets = list(accumulate((X.n for X in spaces), initial=0))
    pairs = []
    for si, di, m in arrows:
        if m.source != spaces[si] or m.target != spaces[di]:
            raise TopologyError("an arrow's map misses its chart spaces")
        pairs += [(offsets[si] + x, offsets[di] + m(x))
                  for x in range(m.source.n)]
    of = _partition(offsets[-1], pairs)
    k = max(of, default=-1) + 1

    provenance = [[] for _ in range(k)]
    for ci, X in enumerate(spaces):
        for x in range(X.n):
            provenance[of[offsets[ci] + x]].append((names[ci], X.points[x]))
    labels = tuple(f"{ps[0][0]}:{ps[0][1]}" for ps in provenance)

    order = []
    for ci, X in enumerate(spaces):
        for x in range(X.n):
            for y in _bits(X.above[x]):
                order.append((of[offsets[ci] + x], of[offsets[ci] + y]))
    glued = _space_of_order(labels, order_closure(k, order))
    charts = tuple(
        continuous_map(X, glued,
                       tuple(of[offsets[ci] + x] for x in range(X.n)))
        for ci, X in enumerate(spaces))
    return glued, charts, tuple(tuple(ps) for ps in provenance)


def matching_tuples(candidates, links) -> list[tuple]:
    """Every tuple t with t[i] from candidates[i] and key_j(t[j]) ==
    key_i(t[i]) for each link (j, i, key_j, key_i) with j <= i, in the
    lexicographic order of the candidate lists.  Each slot's candidates
    are bucketed once by their keys on the links into it, and the search
    looks up the bucket that the earlier slots pin."""
    cands = [list(c) for c in candidates]
    for j, i, key_j, key_i in links:
        if not 0 <= j <= i < len(cands):
            raise InvariantError(f"link ({j}, {i}) does not run forward")
        if j == i:
            cands[i] = [x for x in cands[i] if key_j(x) == key_i(x)]
    pins = [[] for _ in cands]             # per slot: (j, keys of j's cands)
    own = [[()] * len(c) for c in cands]   # per candidate: its pinned keys
    for j, i, key_j, key_i in links:
        if j < i:
            pins[i].append((j, [key_j(x) for x in cands[j]]))
            own[i] = [k + (key_i(x),) for k, x in zip(own[i], cands[i])]
    buckets = [{} for _ in cands]
    for bucket, keys in zip(buckets, own):
        for c, key in enumerate(keys):
            bucket.setdefault(key, []).append(c)
    out, chosen = [], []

    def extend(i):
        if i == len(cands):
            out.append(tuple(cands[s][c] for s, c in enumerate(chosen)))
            return
        pinned = tuple(keys[chosen[j]] for j, keys in pins[i])
        for c in buckets[i].get(pinned, ()):
            chosen.append(c)
            extend(i + 1)
            chosen.pop()

    extend(0)
    return out


def descent_verdict(base, families):
    """Whether restriction is a bijection from the base maps onto the
    matching families; `base` yields (shown label, restriction) per base
    map.  Returns (True, None), else (False, witness): ("not injective",
    a, b) for the first label b restricting like an earlier a, or ("not
    surjective", family) for the first family left unhit.  Both maps to
    an overlap factor through the base, so every restriction matches."""
    matching = set(families)
    seen = {}
    for label, key in base:
        if key not in matching:
            raise InvariantError(
                "a restricted base map is not a matching family")
        if key in seen:
            return False, ("not injective", seen[key], label)
        seen[key] = label
    for key in families:
        if key not in seen:
            return False, ("not surjective", key)
    return True, None

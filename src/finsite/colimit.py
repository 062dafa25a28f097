"""Colimits of paths of finite localizations, as colimits of sets.

A finite localization R -> R[1/s] is surjective: some power e of s is
idempotent, R[1/s] is the corner eR, and a -> e*a reaches every e*x == x.
Along a path of surjections each pushout divides by the image of a
congruence under a surjection, a reflexive compatible relation whose
transitive closure is already a congruence.  So the colimit of semirings
is the colimit of sets: one union-find over the nodes' elements, joining
x to h(x) for each arrow's hom h.
"""

from __future__ import annotations

from itertools import accumulate

from .topology import _classes


def colimit(nodes, arrows) -> tuple[list[int], list[int]]:
    """The colimit of a path of surjective homs: arrows (i, j, h) carry h
    from nodes[i] to nodes[j].  Returns the offset of each node, whose
    elements are laid out one node after another, and the colimit class
    of each laid-out element."""
    offsets = list(accumulate((R.n for R in nodes), initial=0))
    of, _ = _classes(offsets[-1], [
        (offsets[i] + x, offsets[j] + y)
        for i, j, h in arrows for x, y in enumerate(h.images)])
    return offsets, of

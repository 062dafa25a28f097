"""Chart presentations and gluing of finite spectral spaces.

A presentation is a finite multigraph whose nodes name charts (semirings)
and whose arrows carry algebra maps that must be finite localizations: an
arrow src -> dst says the src chart sits inside the dst chart as a
principal open.  Closed walks in the graph can force identifications a
plain disjoint union would not see; the monodromy check compares, for each
closed walk, the algebra colimit of the loop against the colimit of the
same walk cut open, and gluing refuses presentations where some loop
disagrees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colimit import DEFAULT_BUDGET, SemiringDiagram, colimit
from .semiring import (
    FiniteSemiring,
    InvariantError,
    SemiringHom,
    is_finite_localization,
)
from .site import CoverFamily, pairwise_overlaps
from .spectra import (
    FLAVORS,
    congruence_spectrum,
    congruence_spectrum_pullback,
    k_spectrum,
    localization_spectrum_map,
    prime_spectrum,
    spectrum_pullback,
    visualization_chain,
)
from .topology import (
    ContinuousMap,
    FiniteTopSpace,
    continuous_map,
    glue_along_maps,
)

VISUALIZATIONS = ("prime", "k") + FLAVORS

CHAIN_LEVELS = ("twisted", "strong", "weak", "k", "prime")


class GlueError(Exception):
    pass


@dataclass(frozen=True)
class SPresentation:
    """Named charts plus localization arrows between them.

    An arrow (src, dst, h) points the src chart into the dst chart; its
    algebra map h runs the other way, from dst's semiring to src's, and has
    to be a finite localization followed by an isomorphism."""

    names: tuple[str, ...]
    semirings: tuple[FiniteSemiring, ...]
    arrows: tuple[tuple[int, int, SemiringHom], ...]

    def node(self, name: str) -> int:
        return self.names.index(name)

    def arrow_names(self):
        return tuple((self.names[s], self.names[d]) for s, d, _ in self.arrows)


def presentation(nodes, arrows) -> SPresentation:
    """Build a presentation from (name, semiring) pairs and
    (src_name, dst_name, hom) triples, checking every hom is a finite
    localization of the dst chart's algebra."""
    items = list(nodes.items()) if isinstance(nodes, dict) else list(nodes)
    names = tuple(name for name, _ in items)
    if len(set(names)) != len(names):
        raise GlueError("duplicate chart name")
    semirings = tuple(R for _, R in items)
    index = {name: i for i, name in enumerate(names)}
    packed = []
    for src, dst, h in arrows:
        if src not in index or dst not in index:
            raise GlueError(f"arrow endpoint {src!r} or {dst!r} is not a chart")
        si, di = index[src], index[dst]
        if h.source != semirings[di] or h.target != semirings[si]:
            raise GlueError(
                f"arrow {src} -> {dst} must carry a map from the algebra "
                "of its head chart to the algebra of its tail chart")
        if is_finite_localization(h) is None:
            raise GlueError(f"arrow {src} -> {dst} is not a finite localization")
        packed.append((si, di, h))
    return SPresentation(names, semirings, tuple(packed))


def _atlas_parts(S: CoverFamily):
    """Charts of a family of basic opens: one localization per member plus
    one per pairwise overlap, with the overlap arrows into both members."""
    locs = [u.localization for u in S.members]
    parts = [(f"U{i}", loc) for i, loc in enumerate(locs)]
    arrows = []
    for (i, j), (both, ri, rj) in pairwise_overlaps(locs).items():
        name = f"U{i}_{j}"
        parts.append((name, both))
        arrows.append((name, f"U{i}", ri))
        arrows.append((name, f"U{j}", rj))
    return parts, arrows


def atlas(S: CoverFamily) -> SPresentation:
    parts, arrows = _atlas_parts(S)
    return presentation([(nm, loc.semiring) for nm, loc in parts], arrows)


@dataclass(frozen=True)
class DiagramPath:
    """A walk in the index graph: a start node and a sequence of
    (arrow id, forward?) steps, each step traversing the arrow with or
    against its direction."""

    presentation: SPresentation
    start: int
    steps: tuple[tuple[int, bool], ...]

    def nodes_visited(self) -> tuple[int, ...]:
        P = self.presentation
        seq = [self.start]
        for ai, forward in self.steps:
            si, di, _ = P.arrows[ai]
            here = seq[-1]
            tail, head = (si, di) if forward else (di, si)
            if here != tail:
                raise GlueError("walk step does not start where the walk stands")
            seq.append(head)
        return tuple(seq)

    @property
    def is_closed(self) -> bool:
        seq = self.nodes_visited()
        return seq[0] == seq[-1]

    def describe(self) -> str:
        P = self.presentation
        seq = self.nodes_visited()
        text = P.names[seq[0]]
        for (ai, forward), node in zip(self.steps, seq[1:]):
            text += (" -> " if forward else " <- ") + P.names[node]
        return text


def _walk_diagram(p: DiagramPath, identify_ends: bool) -> SemiringDiagram:
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
    nodes = tuple(P.semirings[seq[t]] for t in range(m))
    arrows = []
    for t, (ai, forward) in enumerate(p.steps):
        _, _, h = P.arrows[ai]
        a, b = t % m, (t + 1) % m
        arrows.append((b, a, h) if forward else ((a, b, h)))
    return SemiringDiagram.build(nodes, arrows)


def path_limit(p: DiagramPath, mode: str = "closed",
               budget: int = DEFAULT_BUDGET) -> FiniteSemiring:
    """Algebra of the limit carved out by a walk, computed as the colimit
    of the walk's algebra diagram.  Mode "closed" treats a closed walk as a
    loop, "opened" keeps every visit distinct."""
    if mode not in ("closed", "opened"):
        raise ValueError(f"unknown walk mode {mode!r}")
    return colimit(_walk_diagram(p, mode == "closed"), budget=budget).semiring


def loop_comparison(p: DiagramPath, budget: int = DEFAULT_BUDGET) -> SemiringHom:
    """The unique algebra map from the cut-open colimit of a closed walk to
    the loop colimit that is compatible with the visit legs; the loop is
    glue-safe exactly when this map is an isomorphism."""
    closed = colimit(_walk_diagram(p, True), budget=budget)
    opened = colimit(_walk_diagram(p, False), budget=budget)
    k = len(p.steps)
    m = k if k else 1
    legs = [closed.cocones[t % m] for t in range(k + 1)]
    return opened.induced_hom(legs, closed.semiring)


def closed_walks(P: SPresentation, bound: int = 8) -> list[DiagramPath]:
    """Self-loop traversals, there-and-back doublings of every arrow, and
    one representative of every simple cycle of at most bound steps."""
    return _closed_walks(P, bound)[0]


def _closed_walks(P: SPresentation, bound: int):
    n = len(P.names)
    walks = []
    truncated = False
    for ai, (si, di, _) in enumerate(P.arrows):
        if si == di:
            walks.append(DiagramPath(P, si, ((ai, True),)))
    for ai, (si, di, _) in enumerate(P.arrows):
        walks.append(DiagramPath(P, si, ((ai, True), (ai, False))))
    adjacent = [[] for _ in range(n)]
    for ai, (si, di, _) in enumerate(P.arrows):
        if si != di:
            adjacent[si].append((ai, di, True))
            adjacent[di].append((ai, si, False))

    def search(start, here, steps, used, seen):
        nonlocal truncated
        for ai, nxt, forward in adjacent[here]:
            if ai in used:
                continue
            if nxt == start:
                # close the cycle; keep one orientation of each
                if steps and steps[0][0] < ai:
                    if len(steps) < bound:
                        walks.append(DiagramPath(
                            P, start, tuple(steps) + ((ai, forward),)))
                    else:
                        truncated = True
                continue
            if nxt in seen or nxt < start:
                continue
            if len(steps) + 2 > bound:
                # a cycle through nxt would need at least two more steps
                truncated = True
                continue
            steps.append((ai, forward))
            used.add(ai)
            seen.add(nxt)
            search(start, nxt, steps, used, seen)
            steps.pop()
            used.discard(ai)
            seen.discard(nxt)

    for start in range(n):
        search(start, start, [], set(), {start})
    return walks, truncated


@dataclass(frozen=True)
class MonodromyReport:
    free: bool
    witness: DiagramPath | None
    exhaustive: bool
    walks_checked: int

    def verdict(self) -> str:
        if not self.free:
            return "monodromy obstruction along " + self.witness.describe()
        if not self.exhaustive:
            return (f"no obstruction among {self.walks_checked} loops; "
                    "inconclusive beyond bound")
        return f"monodromy free ({self.walks_checked} loops checked)"


def is_monodromy_free(P: SPresentation, bound: int = 8,
                      budget: int = DEFAULT_BUDGET) -> MonodromyReport:
    """Check every enumerated closed walk by comparing its loop colimit
    with its cut-open colimit.  A failing walk is conclusive; a clean sweep
    is conclusive only if the bound pruned no simple cycle, and is
    otherwise reported as inconclusive beyond the bound."""
    walks, truncated = _closed_walks(P, bound)
    for p in walks:
        if not loop_comparison(p, budget).is_bijective():
            return MonodromyReport(False, p, True, len(walks))
    return MonodromyReport(True, None, not truncated, len(walks))


def visualization_space(R: FiniteSemiring, vis: str) -> FiniteTopSpace:
    if vis == "prime":
        return prime_spectrum(R).space
    if vis == "k":
        return k_spectrum(R)[0]
    if vis in FLAVORS:
        return congruence_spectrum(R, vis)[0]
    raise ValueError(f"unknown visualization {vis!r}")


def visualization_map(h: SemiringHom, vis: str) -> ContinuousMap:
    """The continuous map of visualization spaces a hom h: B -> A induces,
    running from the A side to the B side."""
    if vis == "prime":
        return spectrum_pullback(h)
    if vis == "k":
        src_spec = prime_spectrum(h.source)
        tgt_spec = prime_spectrum(h.target)
        full = spectrum_pullback(h, src_spec, tgt_spec)
        src_k, src_incl = k_spectrum(h.source, src_spec)
        tgt_k, tgt_incl = k_spectrum(h.target, tgt_spec)
        src_ids = [src_incl(i) for i in range(src_k.n)]
        images = tuple(src_ids.index(full(tgt_incl(x)))
                       for x in range(tgt_k.n))
        return continuous_map(tgt_k, src_k, images)
    if vis in FLAVORS:
        return congruence_spectrum_pullback(h, vis)
    raise ValueError(f"unknown visualization {vis!r}")


@dataclass(frozen=True)
class GluedSpace:
    """Disjoint union of the chart visualization spaces modulo the
    identifications the arrows induce, with the quotient topology."""

    presentation: SPresentation
    vis: str
    space: FiniteTopSpace
    chart_spaces: tuple[FiniteTopSpace, ...]
    charts: tuple[ContinuousMap, ...]
    provenance: tuple[tuple[tuple[str, str], ...], ...]
    monodromy: MonodromyReport

    def point_table(self):
        return tuple(
            (self.space.points[i], self.provenance[i])
            for i in range(self.space.n))


def glue_space(P: SPresentation, vis: str = "prime", bound: int = 8,
               budget: int = DEFAULT_BUDGET) -> GluedSpace:
    """Glue the chosen visualization of every chart along the arrows.
    Presentations with a monodromy obstruction are refused."""
    return _glue_checked(P, vis, is_monodromy_free(P, bound, budget))


def _glue_checked(P: SPresentation, vis: str,
                  report: MonodromyReport) -> GluedSpace:
    """glue_space given the monodromy report of P, so that callers gluing
    several visualizations run the check once."""
    if not report.free:
        raise GlueError("refusing to glue: " + report.verdict())
    spaces = [visualization_space(R, vis) for R in P.semirings]
    glued, charts, provenance = glue_along_maps(
        P.names, spaces,
        [(si, di, visualization_map(h, vis)) for si, di, h in P.arrows])
    return GluedSpace(P, vis, glued, tuple(spaces), charts, provenance, report)


@dataclass(frozen=True)
class GluedChain:
    """All five glued visualizations with the comparison maps between
    them; the subspace hooks stay injective and whether the kernel map
    reaches every glued k-point is reported."""

    levels: tuple[GluedSpace, ...]
    names: tuple[str, ...]
    maps: tuple[ContinuousMap, ...]
    kernel_map_surjective: bool


def glued_chain(P: SPresentation, bound: int = 8,
                budget: int = DEFAULT_BUDGET) -> GluedChain:
    chains = [visualization_chain(R) for R in P.semirings]
    report = is_monodromy_free(P, bound, budget)
    levels = tuple(_glue_checked(P, vis, report) for vis in CHAIN_LEVELS)
    for ci in range(len(P.names)):
        glued_spaces = tuple(lvl.chart_spaces[ci] for lvl in levels)
        if chains[ci].spaces != glued_spaces:
            raise InvariantError("a chart's chain spaces differ from its "
                                 "glued chart spaces")
    # the square of each arrow against each comparison map must commute
    for si, di, h in P.arrows:
        for lvl in range(4):
            here = visualization_map(h, CHAIN_LEVELS[lvl])
            there = visualization_map(h, CHAIN_LEVELS[lvl + 1])
            for x in range(here.source.n):
                if chains[di].maps[lvl](here(x)) != \
                        there(chains[si].maps[lvl](x)):
                    raise InvariantError("arrow breaks a comparison square")
    maps = []
    for lvl in range(4):
        src, dst = levels[lvl], levels[lvl + 1]
        images: list[int | None] = [None] * src.space.n
        for ci in range(len(P.names)):
            node_map = chains[ci].maps[lvl]
            for x in range(src.chart_spaces[ci].n):
                g = src.charts[ci](x)
                v = dst.charts[ci](node_map(x))
                if images[g] not in (None, v):
                    raise InvariantError(
                        "comparison map does not respect the gluing")
                images[g] = v
        if None in images:
            raise InvariantError("comparison map misses a glued point")
        maps.append(continuous_map(src.space, dst.space, tuple(images)))
    for hook in (maps[0], maps[1], maps[3]):
        if not hook.is_injective():
            raise InvariantError("a subspace hook collapsed under gluing")
    reached = {maps[2](i) for i in range(levels[2].space.n)}
    return GluedChain(levels, CHAIN_LEVELS, tuple(maps),
                      len(reached) == levels[3].space.n)


def affine_glue_check(S: CoverFamily, budget: int = DEFAULT_BUDGET
                      ) -> tuple[bool, ContinuousMap]:
    """Glue the prime spectra of the atlas of a family and compare against
    the prime spectrum of the base: each chart is a localization, so its
    spectrum maps into the base spectrum, and those maps must assemble to a
    homeomorphism exactly when the family covers."""
    parts, arrows = _atlas_parts(S)
    P = presentation([(nm, loc.semiring) for nm, loc in parts], arrows)
    glued = glue_space(P, "prime", budget=budget)
    base_spec = prime_spectrum(S.base)
    images: list[int | None] = [None] * glued.space.n
    for ci, (_, loc) in enumerate(parts):
        into_base, _ = localization_spectrum_map(loc, base_spec)
        for x in range(glued.chart_spaces[ci].n):
            g = glued.charts[ci](x)
            v = into_base(x)
            if images[g] not in (None, v):
                raise InvariantError("chart spectra disagree on a shared point")
            images[g] = v
    if None in images:
        raise InvariantError("a glued point has no image in the base spectrum")
    comparison = continuous_map(glued.space, base_spec.space, tuple(images))
    return comparison.is_homeomorphism(), comparison

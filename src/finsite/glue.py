"""Chart presentations and gluing of finite spectral spaces.

A presentation is a finite multigraph whose nodes name charts (semirings)
and whose arrows carry algebra maps that must be finite localizations: an
arrow src -> dst says the src chart sits inside the dst chart as a
principal open.  Closed walks in the graph can force identifications a
plain disjoint union would not see, and gluing refuses presentations where
some loop does.  The colimit of a closed walk of k steps is the colimit of
the walk cut open, coequalized along its end legs i_0 and i_k, so the loop
is glue-safe at that cut exactly when i_0 == i_k: when each x of the start
chart lands in one class at both ends of the cut-open walk's colimit,
which `colimit` computes with one union-find (gluing arrows are
surjective).  A loop can pass at one cut and fail at another, as the
wedge of two arrows from a point does when cut at the point, so every
loop is cut at each chart it visits.  A presentation is the record
`topology._Presentation` that the finite-set site shares.  A glued
space joins the charts' spaces of one visualization along the maps
`spectra.visualization_map` pulls back along the arrows' algebra maps,
through `colimit.glue_along_maps`.
Only the atlas of a cover family (`affine_glue_check`) loads `site`, so
the `glue` command loads neither `site` nor `locales`.  The presentation
file format and the `glue` handler end the module.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from .colimit import colimit, glue_along_maps
from .records import (DEFAULT_BUDGET, VISUALIZATIONS, BudgetExceeded,
                      InvariantError, _count, _Record)
from .semiring import (SemiringHom, find_isomorphism, hom_violation,
                       is_finite_localization, localize)
from .spectra import (
    CHAIN_LEVELS,
    localization_spectrum_map,
    prime_spectrum,
    visualization_chain,
    visualization_map,
    visualization_space,
)
from .topology import (
    ContinuousMap,
    FiniteTopSpace,
    _Presentation,
    _presentation,
    _space_listing,
    continuous_map,
)

if TYPE_CHECKING:
    from .semiring import FiniteSemiring
    from .site import CoverFamily


class GlueError(Exception):
    pass


class SPresentation(_Presentation):
    """Named charts plus localization arrows between them.

    An arrow (src, dst, h) points the src chart into the dst chart; its
    algebra map h runs the other way, from dst's semiring to src's, and has
    to be a finite localization followed by an isomorphism."""

    _error = GlueError


def presentation(nodes, arrows) -> SPresentation:
    """Build a presentation from (name, semiring) pairs and
    (src_name, dst_name, hom) triples, checking every hom is a finite
    localization of the dst chart's algebra."""

    def check(arrow, tail, head, h):
        if h.source != head or h.target != tail:
            raise GlueError(
                f"{arrow} must carry a map from the algebra "
                "of its head chart to the algebra of its tail chart")
        # rebound onto the shared chart objects
        h = SemiringHom(head, tail, h.images)
        if is_finite_localization(h) is None:
            raise GlueError(f"{arrow} is not a finite localization")
        return h

    return _presentation(SPresentation, nodes, arrows, check)


def _atlas_parts(S: CoverFamily):
    """Charts of a family of basic opens: one localization per member plus
    one per pairwise overlap, with the overlap arrows into both members."""
    from .site import pairwise_overlaps

    parts = [(f"U{i}", loc) for i, loc in enumerate(S.members)]
    arrows = []
    for (i, j), (both, ri, rj) in pairwise_overlaps(S.members).items():
        name = f"U{i}_{j}"
        parts.append((name, both))
        arrows.append((name, f"U{i}", ri))
        arrows.append((name, f"U{j}", rj))
    return parts, arrows


class DiagramPath(_Record):
    """A walk in the index graph: a start node and a sequence of
    (arrow id, forward?) steps, each step traversing the arrow with or
    against its direction."""

    presentation: SPresentation
    start: int
    steps: tuple[tuple[int, bool], ...]

    def nodes_visited(self) -> tuple[int, ...]:
        return self.presentation.walk(self.start, self.steps)

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


class MonodromyReport(_Record):
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
    """Check every enumerated closed walk cut at each chart it visits, its
    enumerated start first, with one union-find per cut (see above).  The
    first failing cut is conclusive and is the witness; a clean sweep is
    conclusive only if the bound pruned no simple cycle, and is otherwise
    reported as inconclusive beyond the bound."""
    walks, truncated = _closed_walks(P, bound)
    for p in walks:
        cut = _failing_cut(p, budget)
        if cut is not None:
            return MonodromyReport(False, cut, True, len(walks))
    return MonodromyReport(True, None, not truncated, len(walks))


def _failing_cut(p: DiagramPath, budget: int) -> DiagramPath | None:
    """The closed walk p restarted at the first of its visits where the
    end legs of the cut-open walk disagree (see above), or None.  A walk
    out and back along one surjective arrow agrees at both of its cuts, so
    its second cut is skipped."""
    P = p.presentation
    seq = p.nodes_visited()
    charts = [P.charts[node] for node in seq]
    largest = max(R.n for R in charts)
    if largest > budget:
        raise BudgetExceeded(f"table size: a diagram node has {largest} "
                             f"elements, over the element budget {budget}")
    homs = [P.arrows[ai][2] for ai, _ in p.steps]
    if len(homs) > 1 and not all(h.is_surjective() for h in homs):
        raise ValueError(f"walk {p.describe()} crosses an arrow that is not "
                         "surjective: its colimit needs a coproduct, which "
                         "the union-find does not build")
    # h runs against the walk: out of visit t+1 on a forward step
    legs = [(forward, h) for (_, forward), h in zip(p.steps, homs)]
    k = len(legs)
    for t in range(1 if k == 2 and p.steps[0][0] == p.steps[1][0] else k):
        rotated = legs[t:] + legs[:t]
        offsets, of = colimit(charts[t:k] + charts[:t + 1], [
            (i + forward, i + 1 - forward, h)
            for i, (forward, h) in enumerate(rotated)])
        if any(of[x] != of[offsets[-2] + x] for x in range(charts[t].n)):
            return DiagramPath(P, seq[t], p.steps[t:] + p.steps[:t])
    return None


class GluedSpace(_Record):
    """Disjoint union of the chart visualization spaces modulo the
    identifications the arrows induce, with the quotient topology."""

    presentation: SPresentation
    vis: str
    space: FiniteTopSpace
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
    spaces = [visualization_space(R, vis) for R in P.charts]
    glued, charts, provenance = glue_along_maps(
        P.names, spaces,
        [(si, di, visualization_map(h, vis)) for si, di, h in P.arrows])
    return GluedSpace(P, vis, glued, charts, provenance, report)


class GluedChain(_Record):
    """All five glued visualizations with the comparison maps between
    them; the subspace hooks stay injective and whether the kernel map
    reaches every glued k-point is reported."""

    levels: tuple[GluedSpace, ...]
    names: tuple[str, ...]
    maps: tuple[ContinuousMap, ...]
    kernel_map_surjective: bool


def glued_chain(P: SPresentation, bound: int = 8,
                budget: int = DEFAULT_BUDGET) -> GluedChain:
    chains = [visualization_chain(R) for R in P.charts]
    report = is_monodromy_free(P, bound, budget)
    levels = tuple(_glue_checked(P, vis, report) for vis in CHAIN_LEVELS)
    # the square of each arrow against each comparison map must commute
    for si, di, h in P.arrows:
        arrows = [visualization_map(h, vis) for vis in CHAIN_LEVELS]
        for lvl, (here, there) in enumerate(zip(arrows, arrows[1:])):
            if chains[di].maps[lvl].compose(here) != \
                    there.compose(chains[si].maps[lvl]):
                raise InvariantError("arrow breaks a comparison square")
    maps = tuple(_map_out_of(src, dst.space,
                             [there.compose(c.maps[lvl])
                              for there, c in zip(dst.charts, chains)],
                             "comparison map does not respect the gluing",
                             "comparison map misses a glued point")
                 for lvl, (src, dst) in enumerate(zip(levels, levels[1:])))
    for hook in (maps[0], maps[1], maps[3]):
        if not hook.is_injective():
            raise InvariantError("a subspace hook collapsed under gluing")
    return GluedChain(levels, CHAIN_LEVELS, maps,
                      len(set(maps[2].images)) == levels[3].space.n)


def affine_glue_check(S: CoverFamily, budget: int = DEFAULT_BUDGET
                      ) -> tuple[bool, ContinuousMap]:
    """Glue the prime spectra of the atlas of a family and compare against
    the prime spectrum of the base: each chart is a localization, so its
    spectrum maps into the base spectrum, and those maps must assemble to a
    homeomorphism exactly when the family covers."""
    parts, arrows = _atlas_parts(S)
    P = presentation([(nm, loc.semiring) for nm, loc in parts], arrows)
    glued = glue_space(P, "prime", budget=budget)
    comparison = _map_out_of(
        glued, prime_spectrum(S.base).space,
        [localization_spectrum_map(loc)[0] for _, loc in parts],
        "chart spectra disagree on a shared point",
        "a glued point has no image in the base spectrum")
    return comparison.is_homeomorphism(), comparison


def _map_out_of(glued: GluedSpace, target: FiniteTopSpace, legs,
                clash: str, missing: str) -> ContinuousMap:
    """The map out of a glued space that restricts to legs[ci] on chart
    ci; raises InvariantError with `clash` when two legs send one glued
    point apart and with `missing` when no leg reaches a glued point."""
    images: list[int | None] = [None] * glued.space.n
    for chart, leg in zip(glued.charts, legs):
        for g, v in zip(chart.images, leg.images):
            if images[g] not in (None, v):
                raise InvariantError(clash)
            images[g] = v
    if None in images:
        raise InvariantError(missing)
    return continuous_map(glued.space, target, tuple(images))


def _parse_presentation(text: str, base: str) -> SPresentation:
    """The presentation file format, read by `formats.read_presentation`:
    `node <name> <semiring-file>` lines, the files relative to the
    directory `base`, then `arrow <src> <dst> localize-at <element>` or
    `arrow <src> <dst> map <label-list>` lines.  An arrow src -> dst
    carries the algebra map of its head chart into its tail chart.  Each
    file is read once, and nodes with equal semirings share one object."""
    from .formats import FormatError, _logical_lines, read_semiring

    def label(R: FiniteSemiring, token: str) -> int:
        if token not in R.elements:
            raise FormatError(f"unknown element label {token!r}")
        return R.elements.index(token)

    files: dict[str, FiniteSemiring] = {}
    canon: dict[FiniteSemiring, FiniteSemiring] = {}
    table: dict[str, FiniteSemiring] = {}
    arrows = []
    for line in _logical_lines(text):
        if line[0] == "node":
            if len(line) != 3:
                raise FormatError("node lines read: node <name> <file>")
            name, ref = line[1], os.path.join(base, line[2])
            if name in table:
                raise FormatError(f"duplicate node name {name!r}")
            if ref not in files:
                R = read_semiring(ref)
                files[ref] = canon.setdefault(R, R)
            table[name] = files[ref]
        elif line[0] == "arrow":
            if len(line) < 4:
                raise FormatError("arrow lines read: arrow <src> <dst> ...")
            src, dst, kind = line[1], line[2], line[3]
            if src not in table or dst not in table:
                raise FormatError(f"arrow endpoint {src!r} or {dst!r} "
                                  "is not a declared node")
            if kind == "localize-at":
                if len(line) != 5:
                    raise FormatError("localize-at takes one element label")
                loc = localize(table[dst], label(table[dst], line[4]))
                h = loc.to_local
                if loc.semiring != table[src]:
                    iso = find_isomorphism(loc.semiring, table[src])
                    if iso is None:
                        raise FormatError(
                            f"node {src!r} does not carry the localization "
                            f"of {dst!r} at {line[4]!r}")
                    h = iso.compose(h)
            elif kind == "map":
                images = line[4:]
                if len(images) != table[dst].n:
                    raise FormatError(
                        f"map needs {table[dst].n} image labels")
                h = SemiringHom(table[dst], table[src],
                                tuple(label(table[src], t) for t in images))
                if hom_violation(h) is not None:
                    raise FormatError(
                        f"arrow {src} -> {dst} map does not preserve "
                        "the operations")
            else:
                raise FormatError(f"unknown arrow kind {kind!r}")
            arrows.append((src, dst, h))
        else:
            raise FormatError(f"unknown directive {line[0]!r}")
    return presentation(table, arrows)


# The `glue` command, run by `cli.main`
def _cmd_glue(ns):
    from .formats import read_presentation

    P = read_presentation(ns.file)
    report = is_monodromy_free(P, bound=ns.path_bound, budget=ns.budget)
    lines = ["monodromy: " + report.verdict()]
    data = {"monodromy": report.verdict(), "free": report.free,
            "exhaustive": report.exhaustive,
            "walks_checked": report.walks_checked}
    if not report.free:
        lines.insert(0, "refusing to glue")
        data["refused"] = True
        return 1, lines, data
    G = _glue_checked(P, ns.vis, report)
    lines.append(f"glued space ({ns.vis}): {_count(G.space.n)}")
    table = G.point_table()
    for label, prov in table:
        lines.append(f"point {label} = "
                     + " ".join(f"{c}:{p}" for c, p in prov))
    # the point table replaces the listing's own point lines
    listing, space_data = _space_listing(G.space, ns.dot)
    lines += listing[G.space.n:]
    data["vis"] = ns.vis
    data["point_table"] = [{"label": label,
                            "charts": [[c, p] for c, p in prov]}
                           for label, prov in table]
    data["opens"] = space_data["opens"]
    data["specialization_edges"] = space_data["specialization_edges"]
    return 0, lines, data

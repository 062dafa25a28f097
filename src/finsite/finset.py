"""The site of finite sets: injections as principal opens, simplices,
abstract simplicial complexes, and set-level gluing.

Everything here is computed set-theoretically; no semiring machinery is
involved.  A simplex on a finite set A has one point per nonempty face,
faces specialize toward larger faces, and the top face is the unique
closed point.  Covering data is a family of injections into a common
target; the sheaf condition for plain maps of sets turns out to track
joint surjectivity of the family, and the pretopology that demands a
bijective member is strictly smaller.  Face charts glue through
`colimit.glue_along_maps`, once each chart is seen to embed in the glued
set of elements; presentations and their walks share the record
`topology._Presentation` with the semiring site, and descent and walk
limits its `colimit.matching_tuples` and `colimit.descent_verdict`.  The
face posets of `simplex` load no `colimit` and no `semiring`, and more
faces than the element budget are refused before any is listed.  The
complex file format and the `simplex` handler end the module.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from . import colimit
from .records import (DEFAULT_BUDGET, BudgetExceeded, InvariantError, _count,
                      _Map, _Record)
from .topology import (
    ContinuousMap,
    FiniteTopSpace,
    _Presentation,
    _presentation,
    _space_listing,
    continuous_map,
    from_preorder,
    set_label,
)


class FinSetError(Exception):
    pass


class FinSet(_Record):
    labels: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.labels)


def finset(labels) -> FinSet:
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise FinSetError("duplicate element label")
    return FinSet(labels)


class Injection(_Map):
    """An injective map of finite sets; build through `injection`."""

    _error = FinSetError


def injection(source: FinSet, target: FinSet, images) -> Injection:
    images = tuple(images)
    if len(images) != source.n:
        raise FinSetError("injection must assign every source element")
    if any(not 0 <= y < target.n for y in images):
        raise FinSetError("injection image out of range")
    if len(set(images)) != len(images):
        raise FinSetError("assignment is not injective")
    return Injection(source, target, images)


def _common_target(family, target):
    """The target all members share; an empty family must be given one."""
    if target is None:
        if not family:
            raise FinSetError("empty family needs an explicit target")
        target = family[0].target
    if any(f.target != target for f in family):
        raise FinSetError("family members have different targets")
    return target


def is_jointly_surjective(family, target: FinSet | None = None) -> bool:
    """True when every element of the common target is hit by some member."""
    family = list(family)
    target = _common_target(family, target)
    return len(set().union(*(f.images for f in family))) == target.n


# the most vertices a simplex may have: its 2^m - 1 faces fit the budget
_MAX_VERTICES = (DEFAULT_BUDGET + 1).bit_length() - 1


def _too_many_faces(what: str, count: str) -> BudgetExceeded:
    return BudgetExceeded(f"face count: {what} has {count} faces, over the "
                          f"element budget {DEFAULT_BUDGET}")


def _subsets(A: FinSet):
    """Nonempty subsets of A in canonical order: by size, then position."""
    if A.n > _MAX_VERTICES:
        raise _too_many_faces(f"a simplex of dimension {A.n - 1}",
                              f"2^{A.n} - 1")
    out = []
    for size in range(1, A.n + 1):
        out.extend(frozenset(c)
                   for c in itertools.combinations(range(A.n), size))
    return out


def face_label(A: FinSet, members) -> str:
    return set_label(A.labels, members)


def face_injection(A: FinSet, members) -> Injection:
    """The principal open picked out by a subset of A."""
    members = sorted(members)
    B = finset(tuple(A.labels[i] for i in members))
    return injection(B, A, members)


def simplex_space(A: FinSet) -> FiniteTopSpace:
    """One point per nonempty face of A; a face specializes to every face
    containing it, so vertices are open points and the top face is the
    unique closed point."""
    if A.n == 0:
        raise FinSetError("a simplex needs at least one vertex")
    space = face_space(AbstractSimplicialComplex(A.labels, tuple(_subsets(A))))
    closed = [p for p in range(space.n) if space.is_closed(frozenset([p]))]
    if closed != [space.n - 1]:
        raise InvariantError("the top face must be the only closed point")
    return space


def sheaf_axiom_check(family, Y: FinSet, target: FinSet | None = None):
    """Restriction from maps A -> Y to matching tuples of maps B_i -> Y,
    where tuples match when they agree on every pairwise overlap; returns
    (True, None) for a bijection and (False, witness) otherwise."""
    family = list(family)
    target = _common_target(family, target)
    # equality is transitive, so linking each member's value at a target
    # element to the first member hitting it forces every pairwise overlap
    first: dict[int, tuple[int, int]] = {}
    links = []
    for i, f in enumerate(family):
        for b, a in enumerate(f.images):
            j, c = first.setdefault(a, (i, b))
            if j != i:
                links.append((j, i, itemgetter(c), itemgetter(b)))
    families = colimit.matching_tuples(
        [itertools.product(range(Y.n), repeat=f.source.n)
         for f in family], links)
    return colimit.descent_verdict(
        ((h, tuple(tuple(h[a] for a in f.images) for f in family))
         for h in itertools.product(range(Y.n), repeat=target.n)),
        families)


def _subset_orbit_reps(size: int):
    """Families of subsets of an n-set up to relabeling elements, encoded as
    bitmasks over the 2^n subsets in binary order (bit s set means the
    subset with mask s belongs to the family)."""
    m = 1 << size
    # each relabeling as the map it induces on subset masks
    moves = [[sum(1 << perm[i] for i in range(size) if s >> i & 1)
              for s in range(m)]
             for perm in itertools.permutations(range(size))]
    seen = set()
    reps = []
    for fam in range(1 << m):
        if fam in seen:
            continue
        reps.append(fam)
        members = [s for s in range(m) if fam >> s & 1]
        seen.update(sum(1 << move[s] for s in members) for move in moves)
    return reps


def subcanonicity_sweep(max_a: int = 4, max_y: int = 3) -> dict:
    """For every family of injections into a set of at most max_a elements
    (up to relabeling), compare the sheaf condition against all test sets
    of at most max_y elements with joint surjectivity of the family.  A
    5-set has 2^32 families of subsets, too many to sweep."""
    if max_a > 4:
        raise ValueError(f"subcanonicity_sweep covers sets of at most 4 "
                         f"elements, not {max_a}")
    families = 0
    disagreements = []
    for a in range(1, max_a + 1):
        A = finset(tuple(f"a{i}" for i in range(a)))
        tests = [finset(tuple(f"y{j}" for j in range(y)))
                 for y in range(max_y + 1)]
        for fam_mask in _subset_orbit_reps(a):
            family = []
            probe = fam_mask
            while probe:
                low = probe & -probe
                mask = low.bit_length() - 1
                members = [i for i in range(a) if mask & (1 << i)]
                family.append(face_injection(A, members))
                probe ^= low
            families += 1
            surjective = is_jointly_surjective(family, A)
            sheafy = all(sheaf_axiom_check(family, Y, A)[0] for Y in tests)
            if sheafy != surjective:
                disagreements.append((a, fam_mask))
    return {"max_a": max_a, "max_y": max_y, "families": families,
            "agree": not disagreements, "disagreements": disagreements}


class AbstractSimplicialComplex(_Record):
    vertices: tuple[str, ...]
    faces: tuple[frozenset[int], ...]

    def face_labels(self) -> tuple[str, ...]:
        """One label per face; refuses vertex labels with commas that
        print two faces alike."""
        A = FinSet(self.vertices)
        first = {}
        for f in self.faces:
            label = face_label(A, f)
            if first.setdefault(label, f) != f:
                raise FinSetError(f"two faces are labeled {label}")
        return tuple(first)


def asc(vertices, generating_faces) -> AbstractSimplicialComplex:
    """Close the generating faces under nonempty subsets; every vertex must
    appear in some face.  More than `DEFAULT_BUDGET` faces are refused
    with BudgetExceeded before they are listed."""
    vertices = tuple(vertices)
    if len(set(vertices)) != len(vertices):
        raise FinSetError("duplicate vertex label")
    index = {v: i for i, v in enumerate(vertices)}
    closed = set()
    for face in generating_faces:
        members = []
        for v in face:
            if v not in index:
                raise FinSetError(f"face uses unknown vertex {v!r}")
            members.append(index[v])
        members = frozenset(members)
        if len(members) > _MAX_VERTICES:
            raise _too_many_faces(f"a face on {len(members)} vertices",
                                  f"2^{len(members)} - 1")
        for size in range(1, len(members) + 1):
            closed.update(frozenset(c)
                          for c in itertools.combinations(sorted(members),
                                                          size))
        if len(closed) > DEFAULT_BUDGET:
            raise _too_many_faces("the complex", f"at least {len(closed)}")
    covered = set().union(*closed) if closed else set()
    if covered != set(range(len(vertices))):
        raise FinSetError("every vertex must lie in some face")
    faces = sorted(closed, key=lambda f: (len(f), sorted(f)))
    return AbstractSimplicialComplex(vertices, tuple(faces))


def face_space(K: AbstractSimplicialComplex) -> FiniteTopSpace:
    """The face poset of K as a finite space, faces specializing toward
    larger faces."""
    return from_preorder(K.face_labels(), [
        sum(1 << j for j, g in enumerate(K.faces) if f <= g)
        for f in K.faces])


class FinSetPresentation(_Presentation):
    """Charts that are finite sets, glued along injections: an arrow
    (src, dst, f) embeds the src chart into the dst chart."""

    _error = FinSetError


def finset_presentation(nodes, arrows) -> FinSetPresentation:
    def check(arrow, tail, head, f):
        if f.source != tail or f.target != head:
            raise FinSetError(
                f"{arrow} must carry an injection between the chart sets")
        return f

    return _presentation(FinSetPresentation, nodes, arrows, check)


def asc_presentation(K: AbstractSimplicialComplex) -> FinSetPresentation:
    """One chart per face, one arrow per proper face inclusion."""
    A = FinSet(K.vertices)
    names = K.face_labels()
    carriers = []
    for face in K.faces:
        carriers.append(finset(tuple(K.vertices[i] for i in sorted(face))))
    arrows = []
    for i, small in enumerate(K.faces):
        for j, big in enumerate(K.faces):
            if small < big:
                into = {v: pos for pos, v in enumerate(sorted(big))}
                arrows.append((names[i], names[j],
                               injection(carriers[i], carriers[j],
                                         tuple(into[v]
                                               for v in sorted(small)))))
    return finset_presentation(list(zip(names, carriers)), arrows)


def _face_map(f: Injection, src_space: FiniteTopSpace,
              dst_space: FiniteTopSpace) -> ContinuousMap:
    """An injection of vertex sets acts on faces, hence on the simplices
    `src_space` and `dst_space` of its source and target."""
    src_faces = _subsets(f.source)
    dst_index = {s: i for i, s in enumerate(_subsets(f.target))}
    images = tuple(dst_index[frozenset(f(x) for x in face)]
                   for face in src_faces)
    return continuous_map(src_space, dst_space, images)


class FinSetGluedSpace(_Record):
    presentation: FinSetPresentation
    space: FiniteTopSpace
    charts: tuple[ContinuousMap, ...]
    provenance: tuple[tuple[tuple[str, str], ...], ...]


def finset_glue_space(P: FinSetPresentation) -> FinSetGluedSpace:
    """Disjoint union of the chart simplices modulo the identifications the
    arrow face maps induce, with the quotient topology.  Refused unless
    each chart embeds in the glued set of elements: the carriers side by
    side with each x joined to f(x) for each arrow f.  Two elements of one
    chart joined there are a monodromy obstruction, a closed walk of
    arrows carrying one onto the other."""
    spaces = [simplex_space(A) for A in P.charts]
    glued, charts, provenance = colimit.glue_along_maps(
        P.names, spaces, [(si, di, _face_map(f, spaces[si], spaces[di]))
                          for si, di, f in P.arrows])
    # a simplex lists its vertices first, and the face maps join vertex to
    # vertex exactly as the arrows join element to element
    for name, A, chart in zip(P.names, P.charts, charts):
        first = {}
        for x in range(A.n):
            y = first.setdefault(chart(x), x)
            if y != x:
                raise FinSetError(
                    f"monodromy: the arrows identify {A.labels[y]} and "
                    f"{A.labels[x]} in chart {name}")
    return FinSetGluedSpace(P, glued, charts, provenance)


def _same(x):
    return x


def finset_path_limit(P: FinSetPresentation, start: int, steps,
                      mode: str = "closed") -> FinSet:
    """Limit of a walk through the chart diagram: one element per visit,
    matched along each step's injection; mode "closed" forces the two ends
    of a closed walk to be the same element."""
    if mode not in ("closed", "opened"):
        raise ValueError(f"unknown walk mode {mode!r}")
    steps = tuple(steps)
    seq = P.walk(start, steps)
    if mode == "closed":
        if seq[0] != seq[-1]:
            raise FinSetError("cannot identify the endpoints of an open walk")
        m = len(steps) if steps else 1
    else:
        m = len(steps) + 1
    carriers = [P.charts[seq[t]] for t in range(m)]
    # step t links visit t to visit t + 1; a closed walk's last step links
    # back to the first visit, or to itself when it has one visit
    links = []
    for t, (ai, forward) in enumerate(steps):
        f = P.arrows[ai][2]
        ends, keys = (t, (t + 1) % m), (f, _same) if forward else (_same, f)
        if ends[0] > ends[1]:
            ends, keys = ends[::-1], keys[::-1]
        links.append((*ends, *keys))
    elements = colimit.matching_tuples([range(c.n) for c in carriers], links)
    labels = tuple("(" + ",".join(carriers[t].labels[x]
                                  for t, x in enumerate(combo)) + ")"
                   for combo in elements)
    return FinSet(labels)


class WedgeReport(_Record):
    closed_limit: FinSet
    opened_limit: FinSet
    free: bool
    witness: str


def monodromy_wedge_counterexample() -> WedgeReport:
    """Two different arrows from a one-point chart into a two-point chart:
    the closed walk around them has empty limit while the cut-open walk has
    a one-element limit, so the presentation is not monodromy free."""
    U = finset(("x",))
    V = finset(("x", "y"))
    alpha = injection(U, V, (0,))
    beta = injection(U, V, (1,))
    P = finset_presentation([("V", V), ("U", U)],
                            [("U", "V", alpha), ("U", "V", beta)])
    walk = ((0, False), (1, True))
    closed = finset_path_limit(P, P.node("V"), walk, "closed")
    opened = finset_path_limit(P, P.node("V"), walk, "opened")
    return WedgeReport(closed, opened,
                       free=closed.n == opened.n,
                       witness="V <- U -> V")


def _parse_asc(text: str) -> AbstractSimplicialComplex:
    """The complex file format, read by `formats.read_asc`: a
    `vertices: a b c` line, then `face: a b` lines; the subset closure is
    computed automatically."""
    from .formats import FormatError, _keyword, _logical_lines

    lines = _logical_lines(text)
    if not lines:
        raise FormatError("empty complex file")
    vertices = _keyword(lines[0], "vertices")
    faces = [_keyword(line, "face") for line in lines[1:]]
    try:
        return asc(vertices, faces)
    except FinSetError as e:
        raise FormatError(str(e)) from None


# The `simplex` command, run by `cli.main`
def _cmd_simplex(ns):
    if ns.n is not None:
        if ns.n >= _MAX_VERTICES:  # refused before its labels are made
            raise _too_many_faces(f"a simplex of dimension {ns.n}",
                                  f"2^{ns.n + 1} - 1")
        A = finset(tuple(f"v{i}" for i in range(ns.n + 1)))
        space = simplex_space(A)
        head = f"simplex of dimension {ns.n}: {_count(space.n)}"
    else:
        from .formats import read_asc

        K = read_asc(ns.file)
        space = face_space(K)
        head = (f"complex with {len(K.faces)} faces: "
                f"{_count(space.n)}")
    closed = [space.points[p] for p in range(space.n)
              if space.is_closed(frozenset([p]))]
    listing, space_data = _space_listing(space, ns.dot)
    lines = [head] + listing
    lines.append("closed points: " + " ".join(closed))
    data = {"closed_points": closed}
    data.update(space_data)
    return 0, lines, data

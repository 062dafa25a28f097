"""The site of finite sets: injections as principal opens, simplices,
abstract simplicial complexes, and set-level gluing.

Everything here is computed set-theoretically; no semiring machinery is
involved.  A simplex on a finite set A has one point per nonempty face,
faces specialize toward larger faces, and the top face is the unique
closed point.  Covering data is a family of injections into a common
target; the sheaf condition for plain maps of sets turns out to track
joint surjectivity of the family, and the pretopology that demands a
bijective member is strictly smaller.  Face charts glue through
`topology.glue_along_maps`, the routine that also glues semiring charts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .semiring import InvariantError
from .topology import (
    ContinuousMap,
    FiniteTopSpace,
    continuous_map,
    from_preorder,
    glue_along_maps,
    set_label,
)


class FinSetError(Exception):
    pass


@dataclass(frozen=True)
class FinSet:
    labels: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.labels)


def finset(labels) -> FinSet:
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise FinSetError("duplicate element label")
    return FinSet(labels)


@dataclass(frozen=True)
class Injection:
    source: FinSet
    target: FinSet
    images: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.images[x]

    @property
    def is_bijective(self) -> bool:
        return self.source.size == self.target.size


def injection(source: FinSet, target: FinSet, images) -> Injection:
    images = tuple(images)
    if len(images) != source.size:
        raise FinSetError("injection must assign every source element")
    if any(not 0 <= y < target.size for y in images):
        raise FinSetError("injection image out of range")
    if len(set(images)) != len(images):
        raise FinSetError("assignment is not injective")
    return Injection(source, target, images)


def identity_injection(A: FinSet) -> Injection:
    return injection(A, A, range(A.size))


def is_jointly_surjective(family, target: FinSet | None = None) -> bool:
    """True when every element of the common target is hit by some member."""
    family = list(family)
    if target is None:
        if not family:
            raise FinSetError("empty family needs an explicit target")
        target = family[0].target
    hit = set()
    for f in family:
        if f.target != target:
            raise FinSetError("family members have different targets")
        hit.update(f.images)
    return len(hit) == target.size


def contains_bijection(family) -> bool:
    return any(f.is_bijective for f in family)


def _subsets(A: FinSet):
    """Nonempty subsets of A in canonical order: by size, then position."""
    out = []
    for size in range(1, A.size + 1):
        out.extend(frozenset(c)
                   for c in itertools.combinations(range(A.size), size))
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
    if A.size == 0:
        raise FinSetError("a simplex needs at least one vertex")
    faces = _subsets(A)
    labels = tuple(face_label(A, f) for f in faces)
    leq = [[faces[x] <= faces[y] for y in range(len(faces))]
           for x in range(len(faces))]
    space = from_preorder(labels, leq)
    closed = [p for p in range(space.n) if space.is_closed(frozenset([p]))]
    if closed != [space.n - 1]:
        raise InvariantError("the top face must be the only closed point")
    return space


def sheaf_axiom_check(family, Y: FinSet, target: FinSet | None = None):
    """Restriction from maps A -> Y to matching tuples of maps B_i -> Y,
    where tuples match when they agree on every pairwise overlap; returns
    (True, None) for a bijection and (False, witness) otherwise."""
    family = list(family)
    if target is None:
        if not family:
            raise FinSetError("empty family needs an explicit target")
        target = family[0].target
    for f in family:
        if f.target != target:
            raise FinSetError("family members have different targets")

    # constraints[i][c] lists pairs (j, b) with family[j](b) == family[i](c),
    # so in a matching family the value at c is already pinned by member j.
    constraints = [[[] for _ in range(f.source.size)] for f in family]
    for i, fi in enumerate(family):
        hits = {fi(c): c for c in range(fi.source.size)}
        for j in range(i):
            fj = family[j]
            for b in range(fj.source.size):
                c = hits.get(fj(b))
                if c is not None:
                    constraints[i][c].append((j, b))

    matching = []

    def extend(partial):
        i = len(partial)
        if i == len(family):
            matching.append(tuple(partial))
            return
        slots = []
        for c in range(family[i].source.size):
            forced = None
            for j, b in constraints[i][c]:
                v = partial[j][b]
                if forced is None:
                    forced = v
                elif forced != v:
                    return
            slots.append(forced)
        free = [c for c, v in enumerate(slots) if v is None]
        for vals in itertools.product(range(Y.size), repeat=len(free)):
            g = list(slots)
            for c, v in zip(free, vals):
                g[c] = v
            partial.append(tuple(g))
            extend(partial)
            partial.pop()

    extend([])

    seen = {}
    for h in itertools.product(range(Y.size), repeat=target.size):
        key = tuple(tuple(h[f(b)] for b in range(f.source.size))
                    for f in family)
        if key in seen:
            return False, ("not injective", seen[key], h)
        seen[key] = h
    for m in matching:
        if m not in seen:
            return False, ("not surjective", m)
    return True, None


def all_injection_families(A: FinSet):
    """Every family of injections into A, one per nonempty set of image
    subsets (the empty subset included as the empty injection)."""
    subsets = [frozenset()] + _subsets(A)
    for r in range(1, len(subsets) + 1):
        for combo in itertools.combinations(subsets, r):
            yield [face_injection(A, s) for s in combo]


def _subset_orbit_reps(size: int):
    """Families of subsets of an n-set up to relabeling elements, encoded as
    bitmasks over the 2^n subsets in binary order (bit s set means the
    subset with mask s belongs to the family)."""
    m = 1 << size
    tables = []
    for perm in itertools.permutations(range(size)):
        sub = [sum(1 << perm[i] for i in range(size) if mask & (1 << i))
               for mask in range(m)]
        low = [0] * 256
        for x in range(min(256, 1 << m)):
            low[x] = sum(1 << sub[s] for s in range(min(8, m))
                         if x & (1 << s))
        high = [0] * 256
        if m > 8:
            for x in range(256):
                high[x] = sum(1 << sub[s + 8] for s in range(m - 8)
                              if x & (1 << s))
        tables.append((low, high))
    seen = set()
    reps = []
    for fam in range(1 << m):
        if fam in seen:
            continue
        reps.append(fam)
        for low, high in tables:
            seen.add(low[fam & 255] | high[fam >> 8])
    return reps


def subcanonicity_sweep(max_a: int = 4, max_y: int = 3) -> dict:
    """For every family of injections into a set of at most max_a elements
    (up to relabeling), compare the sheaf condition against all test sets
    of at most max_y elements with joint surjectivity of the family."""
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


@dataclass(frozen=True)
class AbstractSimplicialComplex:
    vertices: tuple[str, ...]
    faces: tuple[frozenset[int], ...]

    def face_labels(self) -> tuple[str, ...]:
        A = FinSet(self.vertices)
        return tuple(face_label(A, f) for f in self.faces)


def asc(vertices, generating_faces) -> AbstractSimplicialComplex:
    """Close the generating faces under nonempty subsets; every vertex must
    appear in some face."""
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
        for size in range(1, len(members) + 1):
            closed.update(frozenset(c)
                          for c in itertools.combinations(sorted(members),
                                                          size))
    covered = set().union(*closed) if closed else set()
    if covered != set(range(len(vertices))):
        raise FinSetError("every vertex must lie in some face")
    faces = sorted(closed, key=lambda f: (len(f), sorted(f)))
    return AbstractSimplicialComplex(vertices, tuple(faces))


def face_space(K: AbstractSimplicialComplex) -> FiniteTopSpace:
    """The face poset of K as a finite space, faces specializing toward
    larger faces."""
    labels = K.face_labels()
    leq = [[K.faces[x] <= K.faces[y] for y in range(len(K.faces))]
           for x in range(len(K.faces))]
    return from_preorder(labels, leq)


@dataclass(frozen=True)
class FinSetPresentation:
    """Charts that are finite sets, glued along injections: an arrow
    (src, dst, f) embeds the src chart into the dst chart."""

    names: tuple[str, ...]
    carriers: tuple[FinSet, ...]
    arrows: tuple[tuple[int, int, Injection], ...]

    def node(self, name: str) -> int:
        return self.names.index(name)


def finset_presentation(nodes, arrows) -> FinSetPresentation:
    items = list(nodes.items()) if isinstance(nodes, dict) else list(nodes)
    names = tuple(name for name, _ in items)
    if len(set(names)) != len(names):
        raise FinSetError("duplicate chart name")
    carriers = tuple(A for _, A in items)
    index = {name: i for i, name in enumerate(names)}
    packed = []
    for src, dst, f in arrows:
        if src not in index or dst not in index:
            raise FinSetError(f"arrow endpoint {src!r} or {dst!r} is not a chart")
        si, di = index[src], index[dst]
        if f.source != carriers[si] or f.target != carriers[di]:
            raise FinSetError(
                f"arrow {src} -> {dst} must carry an injection between the "
                "chart sets")
        packed.append((si, di, f))
    return FinSetPresentation(names, carriers, tuple(packed))


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


def _face_map(f: Injection) -> ContinuousMap:
    """An injection of vertex sets acts on faces, hence on simplices."""
    src_space = simplex_space(f.source)
    dst_space = simplex_space(f.target)
    src_faces = _subsets(f.source)
    dst_index = {s: i for i, s in enumerate(_subsets(f.target))}
    images = tuple(dst_index[frozenset(f(x) for x in face)]
                   for face in src_faces)
    return continuous_map(src_space, dst_space, images)


@dataclass(frozen=True)
class FinSetGluedSpace:
    presentation: FinSetPresentation
    space: FiniteTopSpace
    chart_spaces: tuple[FiniteTopSpace, ...]
    charts: tuple[ContinuousMap, ...]
    provenance: tuple[tuple[tuple[str, str], ...], ...]


def finset_glue_space(P: FinSetPresentation) -> FinSetGluedSpace:
    """Disjoint union of the chart simplices modulo the identifications the
    arrow face maps induce, with the quotient topology."""
    spaces = [simplex_space(A) for A in P.carriers]
    glued, charts, provenance = glue_along_maps(
        P.names, spaces, [(si, di, _face_map(f)) for si, di, f in P.arrows])
    return FinSetGluedSpace(P, glued, tuple(spaces), charts, provenance)


def finset_path_limit(P: FinSetPresentation, start: int, steps,
                      mode: str = "closed") -> FinSet:
    """Limit of a walk through the chart diagram: one element per visit,
    matched along each step's injection; mode "closed" forces the two ends
    of a closed walk to be the same element."""
    if mode not in ("closed", "opened"):
        raise ValueError(f"unknown walk mode {mode!r}")
    steps = tuple(steps)
    seq = [start]
    for ai, forward in steps:
        si, di, _ = P.arrows[ai]
        tail, head = (si, di) if forward else (di, si)
        if seq[-1] != tail:
            raise FinSetError("walk step does not start where the walk stands")
        seq.append(head)
    if mode == "closed":
        if seq[0] != seq[-1]:
            raise FinSetError("cannot identify the endpoints of an open walk")
        m = len(steps) if steps else 1
    else:
        m = len(steps) + 1
    carriers = [P.carriers[seq[t]] for t in range(m)]
    elements = []
    for combo in itertools.product(*(range(c.size) for c in carriers)):
        ok = True
        for t, (ai, forward) in enumerate(steps):
            _, _, f = P.arrows[ai]
            a, b = combo[t % m], combo[(t + 1) % m]
            if forward:
                if f(a) != b:
                    ok = False
                    break
            elif f(b) != a:
                ok = False
                break
        if ok:
            elements.append(combo)
    labels = tuple("(" + ",".join(carriers[t].labels[x]
                                  for t, x in enumerate(combo)) + ")"
                   for combo in elements)
    return FinSet(labels)


@dataclass(frozen=True)
class WedgeReport:
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
                       free=closed.size == opened.size,
                       witness="V <- U -> V")

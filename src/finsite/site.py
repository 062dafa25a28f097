"""Principal opens, covering families, the sheaf condition, and the frame
of open subschemes.

A principal open of Spec R is the localization R -> R[1/h].  A family of
principal opens covers when its basic opens exhaust the prime spectrum; the
sheaf condition asks the restriction map from Hom(Y, R) to compatible
tuples of homs into the R[1/h_i], with overlaps taken at products h_i*h_j,
to be a bijection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colimit import DEFAULT_BUDGET, pushout
from .locales import FiniteFrame, frame_of_opens, stone_dual
from .semiring import (
    FiniteSemiring,
    InvariantError,
    Localization,
    SemiringError,
    SemiringHom,
    enumerate_homs,
    localize,
    validate_semiring,
)
from .spectra import Spectrum, prime_spectrum
from .topology import continuous_map


@dataclass(frozen=True)
class PrincipalOpen:
    base: FiniteSemiring
    element: int
    localization: Localization

    @property
    def semiring(self) -> FiniteSemiring:
        return self.localization.semiring

    @property
    def to_local(self) -> SemiringHom:
        return self.localization.to_local


def principal_open(R: FiniteSemiring, h: int) -> PrincipalOpen:
    return PrincipalOpen(R, h, localize(R, h))


@dataclass(frozen=True)
class CoverFamily:
    base: FiniteSemiring
    members: tuple[PrincipalOpen, ...]


def cover_family(R: FiniteSemiring, elements) -> CoverFamily:
    return CoverFamily(R, tuple(principal_open(R, h) for h in elements))


@dataclass(frozen=True)
class OpenSubscheme:
    base: FiniteSemiring
    generators: tuple[int, ...]
    extent: frozenset[int]


def open_subscheme(R: FiniteSemiring, generators,
                   spec: Spectrum | None = None) -> OpenSubscheme:
    if spec is None:
        spec = prime_spectrum(R)
    gens = tuple(sorted(set(generators)))
    extent = frozenset()
    for h in gens:
        extent |= spec.basic_open(h)
    return OpenSubscheme(R, gens, extent)


def covers(S: CoverFamily, spec: Spectrum | None = None) -> bool:
    """Point-level criterion: the basic opens of the members exhaust the
    prime spectrum."""
    if spec is None:
        spec = prime_spectrum(S.base)
    hit = frozenset()
    for m in S.members:
        hit |= spec.basic_open(m.element)
    return hit == frozenset(range(len(spec.primes)))


def pairwise_overlaps(locs) -> dict:
    """For each pair i < j of localizations of one semiring, the
    localization at the product of their elements and the two
    restrictions into it."""
    out = {}
    for i, li in enumerate(locs):
        for j in range(i + 1, len(locs)):
            lj = locs[j]
            lij = localize(li.base, li.base.mul[li.h][lj.h])
            out[i, j] = (lij, li.extend(lij.to_local), lj.extend(lij.to_local))
    return out


def _matching_tuples(candidates, agree) -> list[tuple]:
    """Every tuple with one entry from each candidates[i] such that
    agree(j, a, i, b) holds whenever an earlier slot j holds a and slot i
    holds b, in the order of the candidate lists."""
    out = []
    chosen = []

    def extend(i):
        if i == len(candidates):
            out.append(tuple(chosen))
            return
        for c in candidates[i]:
            if all(agree(j, chosen[j], i, c) for j in range(i)):
                chosen.append(c)
                extend(i + 1)
                chosen.pop()

    extend(0)
    return out


def sheaf_axiom_check(S: CoverFamily, Y: FiniteSemiring):
    """Whether restriction identifies Hom(Y, R) with the matching tuples of
    homs into the member localizations; returns (flag, witness)."""
    base_homs = enumerate_homs(Y, S.base)
    member_homs = [enumerate_homs(Y, m.semiring) for m in S.members]
    overlaps = pairwise_overlaps([m.localization for m in S.members])

    def agree(j, gj, i, gi):
        _, rj, ri = overlaps[j, i]
        return rj.compose(gj).images == ri.compose(gi).images

    families = _matching_tuples(member_homs, agree)
    images = []
    for f in base_homs:
        images.append(tuple(m.to_local.compose(f) for m in S.members))
    image_keys = [tuple(tuple(g.images) for g in fam) for fam in images]
    family_keys = [tuple(tuple(g.images) for g in fam) for fam in families]

    seen = {}
    for f, key in zip(base_homs, image_keys):
        if key in seen:
            return False, ("not injective",
                           seen[key].images, f.images)
        seen[key] = f
    for fam, key in zip(families, family_keys):
        if key not in seen:
            return False, ("not surjective",
                           tuple(tuple(g.images) for g in fam))
    # injective and every matching family is hit; every image is itself
    # matching, because both restrictions factor through the base
    matching = set(family_keys)
    if not all(key in matching for key in image_keys):
        raise InvariantError("a restricted base hom is not a matching family")
    return True, None


def lambda_X(R: FiniteSemiring, spec: Spectrum | None = None
             ) -> tuple[FiniteFrame, tuple[OpenSubscheme, ...]]:
    """The frame of open subsets of the prime spectrum; each element
    carries the set of all h whose basic open it contains."""
    if spec is None:
        spec = prime_spectrum(R)
    frame = frame_of_opens(spec.space)
    opens = spec.space.sorted_opens()
    subschemes = tuple(
        OpenSubscheme(R,
                      tuple(h for h in range(R.n)
                            if spec.basic_open(h) <= u),
                      u)
        for u in opens)
    return frame, subschemes


def intrinsic_order_check(R: FiniteSemiring, g: int, h: int,
                          spec: Spectrum | None = None) -> bool:
    """The morphism criterion (h invertible after inverting g) must agree
    with the extent criterion (basic open of g inside basic open of h);
    returns the shared answer."""
    if spec is None:
        spec = prime_spectrum(R)
    loc = localize(R, g)
    morphism = loc.semiring.inverse_of(loc.to_local(h)) is not None
    extent = spec.basic_open(g) <= spec.basic_open(h)
    if morphism != extent:
        raise SemiringError(
            f"order criteria disagree at g={R.elements[g]}, "
            f"h={R.elements[h]}")
    return morphism


def theorem_A_check(R: FiniteSemiring):
    """The dual of the open-subscheme frame must be the prime spectrum;
    returns (flag, point pairs) with the canonical matching prime ->
    filter of opens around it."""
    spec = prime_spectrum(R)
    frame, subschemes = lambda_X(R, spec)
    dual, filters = stone_dual(frame)
    opens = spec.space.sorted_opens()
    images = []
    for p in range(len(spec.primes)):
        around = frozenset(i for i, u in enumerate(opens) if p in u)
        try:
            images.append(filters.index(around))
        except ValueError:
            return False, ("prime has no matching filter point",
                           spec.space.points[p])
    m = continuous_map(spec.space, dual, tuple(images))
    if not m.is_homeomorphism():
        return False, ("canonical map is not a homeomorphism",
                       tuple(m.images))
    pairs = tuple((spec.space.points[p], dual.points[m(p)])
                  for p in range(spec.space.n))
    return True, pairs


def structure_sheaf_sections(R: FiniteSemiring, u: OpenSubscheme):
    """Sections over u: tuples of elements of the generator localizations
    that agree in the pairwise overlap localizations; returns the section
    semiring and the projection homs."""
    gens = u.generators
    locs = [localize(R, h) for h in gens]
    if not gens:
        T = validate_semiring(("*",), ((0,),), ((0,),), 0, 0)
        return T, ()
    overlaps = pairwise_overlaps(locs)
    tuples = _matching_tuples(
        [range(loc.semiring.n) for loc in locs],
        lambda j, a, i, b: overlaps[j, i][1](a) == overlaps[j, i][2](b))
    index = {t: k for k, t in enumerate(tuples)}

    def combine(table):
        return tuple(
            tuple(index[tuple(table(locs[k].semiring, a[k], b[k])
                              for k in range(len(gens)))]
                  for b in tuples)
            for a in tuples)

    add = combine(lambda S_, x, y: S_.add[x][y])
    mul = combine(lambda S_, x, y: S_.mul[x][y])
    zero = index[tuple(loc.semiring.zero for loc in locs)]
    one = index[tuple(loc.semiring.one for loc in locs)]
    labels = tuple("(" + ",".join(locs[k].semiring.elements[t[k]]
                                  for k in range(len(gens))) + ")"
                   for t in tuples)
    sections = validate_semiring(labels, add, mul, zero, one)
    projections = tuple(
        SemiringHom(sections, locs[k].semiring,
                    tuple(t[k] for t in tuples))
        for k in range(len(gens)))
    return sections, projections


def principal_sections_iso(R: FiniteSemiring, h: int,
                           spec: Spectrum | None = None) -> SemiringHom:
    """The canonical map from R[1/h] to the sections over the saturated
    basic open U_h; raises unless it is an isomorphism."""
    if spec is None:
        spec = prime_spectrum(R)
    u = OpenSubscheme(
        R,
        tuple(g for g in range(R.n)
              if spec.basic_open(g) <= spec.basic_open(h)),
        spec.basic_open(h))
    sections, projections = structure_sheaf_sections(R, u)
    index = {tuple(p(s) for p in projections): s for s in range(sections.n)}
    loc_h = localize(R, h)
    maps = [loc_h.extend(localize(R, g).to_local) for g in u.generators]
    images = tuple(index[tuple(m(a) for m in maps)]
                   for a in range(loc_h.semiring.n))
    out = SemiringHom(loc_h.semiring, sections, images)
    if not out.is_bijective():
        raise SemiringError(
            f"sections over the basic open of {R.elements[h]} do not "
            "reduce to the localization")
    return out


def principal_open_props_check(entries, budget: int = DEFAULT_BUDGET) -> dict:
    """Per catalog entry: the identity localization is an isomorphism
    (P1), iterated localization matches localizing at the product (P2),
    and base change along any hom is localization of the target at the
    image (P3)."""
    p1, p2, p3 = [], [], []
    for name, R in entries:
        loc1 = localize(R, R.one)
        p1.append({"semiring": name,
                   "pass": loc1.to_local.is_bijective()})
        ok = True
        witness = None
        for g in range(R.n):
            lg = localize(R, g)
            for h in range(R.n):
                iterated = localize(lg.semiring, lg.to_local(h))
                composite = iterated.to_local.compose(lg.to_local)
                product = localize(R, R.mul[g][h])
                phi = product.extend(composite)
                if not phi.is_bijective():
                    ok = False
                    witness = (R.elements[g], R.elements[h])
        row = {"semiring": name, "pass": ok}
        if witness:
            row["witness"] = list(witness)
        p2.append(row)
    semirings = [R for _, R in entries]
    for name, R in entries:
        for name2, R2 in entries:
            homs = enumerate_homs(R, R2)
            for fi, f in enumerate(homs):
                ok = True
                witness = None
                for h in range(R.n):
                    loc = localize(R, h)
                    po = pushout(loc.to_local, f, budget)
                    target = localize(R2, f(h))
                    legs = (target.to_local.compose(f),
                            loc.extend(target.to_local.compose(f)),
                            target.to_local)
                    induced = po.induced_hom(legs, target.semiring)
                    if not induced.is_bijective():
                        ok = False
                        witness = R.elements[h]
                row = {"source": name, "target": name2, "hom": fi,
                       "pass": ok}
                if witness:
                    row["witness"] = witness
                p3.append(row)
    report = {"P1": p1, "P2": p2, "P3": p3}
    report["all_pass"] = all(r["pass"] for rows in (p1, p2, p3)
                             for r in rows)
    return report

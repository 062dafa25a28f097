"""Principal opens, covering families, the sheaf condition, and the frame
of open subschemes.

A principal open of Spec R is the localization R -> R[1/h].  A family of
principal opens covers when its basic opens exhaust the prime spectrum; the
sheaf condition asks the restriction map from Hom(Y, R) to compatible
tuples of homs into the R[1/h_i], with overlaps taken at products h_i*h_j,
to be a bijection.  Tuples and verdict come from `colimit`, which the
finite-set site shares: `matching_tuples` and `descent_verdict`.  Only
the descent check and the sections over an open load `colimit`, so
`verify` does not, and only `lambda_X` and `theorem_A_check` load
`locales`, so `sheaf-check` does not; `locale` loads no `site` at all.
The cover file format and the `sheaf-check` handler end the module.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from . import colimit
from .records import _Record
from .semiring import (
    Congruence,
    FiniteSemiring,
    Localization,
    SemiringError,
    SemiringHom,
    congruence_closure,
    enumerate_homs,
    hom_kernel,
    localize,
    validate_semiring,
)
from .spectra import prime_spectrum

if TYPE_CHECKING:
    from .locales import FiniteFrame


class CoverFamily(_Record):
    """Basic opens of Spec R, each member the localization R -> R[1/h]."""
    base: FiniteSemiring
    members: tuple[Localization, ...]


def cover_family(R: FiniteSemiring, elements) -> CoverFamily:
    return CoverFamily(R, tuple(localize(R, h) for h in elements))


class OpenSubscheme(_Record):
    base: FiniteSemiring
    generators: tuple[int, ...]
    extent: frozenset[int]


def covers(S: CoverFamily) -> bool:
    """Point-level criterion: the basic opens of the members exhaust the
    prime spectrum."""
    spec = prime_spectrum(S.base)
    hit = frozenset()
    for m in S.members:
        hit |= spec.basic_open(m.h)
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


def _after(r: SemiringHom):
    """The images of r after a hom, as a function of the hom's images."""
    return lambda images: tuple(r.images[x] for x in images)


def sheaf_axiom_check(S: CoverFamily, Y: FiniteSemiring):
    """Whether restriction identifies Hom(Y, R) with the matching tuples of
    homs into the member localizations; returns (flag, witness)."""
    overlaps = pairwise_overlaps(S.members)
    families = colimit.matching_tuples(
        [[g.images for g in enumerate_homs(Y, m.semiring)]
         for m in S.members],
        [(j, i, _after(rj), _after(ri))
         for (j, i), (_, rj, ri) in overlaps.items()])
    restrict = [_after(m.to_local) for m in S.members]
    return colimit.descent_verdict(
        ((f.images, tuple(r(f.images) for r in restrict))
         for f in enumerate_homs(Y, S.base)), families)


def lambda_X(R: FiniteSemiring
             ) -> tuple[FiniteFrame, tuple[OpenSubscheme, ...]]:
    """The frame of open subsets of the prime spectrum; each element
    carries the set of all h whose basic open it contains."""
    from .locales import frame_of_opens

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


def intrinsic_order_check(R: FiniteSemiring, g: int, h: int) -> bool:
    """The morphism criterion (h invertible after inverting g) must agree
    with the extent criterion (basic open of g inside basic open of h);
    returns the shared answer."""
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
    filter of opens around it, which is the sobrification unit of the
    spectrum."""
    from .locales import sobrification_unit

    X = prime_spectrum(R).space
    m = sobrification_unit(X)
    if not m.is_homeomorphism():
        return False, ("canonical map is not a homeomorphism",
                       tuple(m.images))
    pairs = tuple((X.points[p], m.target.points[m(p)]) for p in range(X.n))
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
    tuples = colimit.matching_tuples(
        [range(loc.semiring.n) for loc in locs],
        [(j, i, rj, ri)
         for (j, i), (_, rj, ri) in pairwise_overlaps(locs).items()])
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


def principal_sections_iso(R: FiniteSemiring, h: int) -> SemiringHom:
    """The canonical map from R[1/h] to the sections over the saturated
    basic open U_h; raises unless it is an isomorphism."""
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


def _pushout_kernel(s: SemiringHom, f: SemiringHom) -> Congruence:
    """Kernel of the pushout's leg out of f.target, for s and f out of one
    semiring and s surjective: the pushout is f.target divided by the
    congruence generated by f(a) ~ f(b) for s(a) == s(b)."""
    first: dict[int, int] = {}
    return congruence_closure(f.target, [
        (f(x), f(first.setdefault(y, x))) for x, y in enumerate(s.images)])


def _localizes_twice_at_product(R, g: int, h: int) -> bool:
    """R[1/g][1/h] is R[1/gh], by the map out of the latter."""
    lg = localize(R, g)
    iterated = localize(lg.semiring, lg.to_local(h))
    composite = iterated.to_local.compose(lg.to_local)
    return localize(R, R.mul[g][h]).extend(composite).is_bijective()


def principal_open_props_check(entries) -> dict:
    """Per catalog entry: the identity localization is an isomorphism
    (P1), iterated localization matches localizing at the product (P2),
    and base change along any hom is localization of the target at the
    image (P3), compared as congruences of the target."""
    p1, p2, p3 = [], [], []
    for name, R in entries:
        loc1 = localize(R, R.one)
        p1.append({"semiring": name,
                   "pass": loc1.to_local.is_bijective()})
        witness = next(((g, h) for g in range(R.n) for h in range(R.n)
                        if not _localizes_twice_at_product(R, g, h)), None)
        row = {"semiring": name, "pass": witness is None}
        if witness:
            row["witness"] = [R.elements[x] for x in witness]
        p2.append(row)
    for name, R in entries:
        for name2, R2 in entries:
            for fi, f in enumerate(enumerate_homs(R, R2)):
                failed = [R.elements[h] for h in range(R.n)
                          if _pushout_kernel(localize(R, h).to_local, f)
                          != hom_kernel(localize(R2, f(h)).to_local)]
                row = {"source": name, "target": name2, "hom": fi,
                       "pass": not failed}
                if failed:
                    row["witness"] = failed[0]
                p3.append(row)
    report = {"P1": p1, "P2": p2, "P3": p3}
    report["all_pass"] = all(r["pass"] for rows in (p1, p2, p3)
                             for r in rows)
    return report


def _parse_cover(text: str, base: str) -> CoverFamily:
    """The cover file format, read by `formats.read_cover`: a
    `semiring: <path>` reference, relative to the directory `base` of the
    cover file, plus a `cover: h1 h2 ...` line of element labels."""
    from .formats import FormatError, _keyword, _logical_lines, read_semiring

    lines = _logical_lines(text)
    if len(lines) != 2:
        raise FormatError("cover file needs a semiring line and a cover line")
    ref = _keyword(lines[0], "semiring")
    if len(ref) != 1:
        raise FormatError("the semiring line names exactly one file")
    R = read_semiring(os.path.join(base, ref[0]))
    labels = _keyword(lines[1], "cover")
    try:
        return cover_family(R, tuple(R.index(t) for t in labels))
    except SemiringError as e:
        raise FormatError(str(e)) from None


# The `sheaf-check` command, run by `cli.main`
def _cmd_sheaf_check(ns):
    from .catalog import catalog
    from .formats import read_cover

    S = read_cover(ns.file)
    rows = [("covers spectrum", covers(S), "")]
    for name, Y in catalog():
        ok, witness = sheaf_axiom_check(S, Y)
        rows.append((f"descent vs {name}", ok, "" if ok else str(witness)))
    failures = sum(1 for _, ok, _ in rows if not ok)
    lines = [f"{label}: " + ("pass" if ok else f"fail {note}".rstrip())
             for label, ok, note in rows]
    lines.append(f"{len(rows)} checks, {failures} failures")
    data = {"rows": [{"check": label, "result": "pass" if ok else "fail",
                      "witness": note} for label, ok, note in rows],
            "failures": failures}
    return (1 if failures else 0), lines, data

"""Principal opens, covers, the sheaf condition, and the subscheme frame."""

import collections
import itertools

import pytest

from finsite.catalog import (
    boolean,
    boolean_pair,
    catalog,
    chain,
    truncated_naturals,
    zmod,
)
import finsite.semiring
import finsite.site
from finsite.semiring import (
    SemiringError,
    TableError,
    enumerate_homs,
    hom_kernel,
    localize,
)
from finsite.site import (
    cover_family,
    covers,
    intrinsic_order_check,
    lambda_X,
    principal_open_props_check,
    principal_sections_iso,
    sheaf_axiom_check,
    structure_sheaf_sections,
    theorem_A_check,
)
from finsite.spectra import prime_spectrum
from finsite.locales import spatiality_check

from oracles import (are_isomorphic, mask_order, open_subscheme,
                     oracle_site_descent, pushout, trivial)


def test_cover_criterion_on_examples():
    BB = boolean_pair()
    assert covers(cover_family(BB, [BB.index("(1,0)"), BB.index("(0,1)")]))
    Z6 = zmod(6)
    assert not covers(cover_family(Z6, [2]))
    assert covers(cover_family(Z6, [2, 3]))
    for name, R in catalog():
        assert covers(cover_family(R, [R.one])), name
    # no member at all covers only an empty spectrum
    assert covers(cover_family(trivial(), []))
    assert not covers(cover_family(Z6, []))


def test_cover_members_are_their_localizations():
    Z6 = zmod(6)
    assert cover_family(Z6, [2, 3]).members == (localize(Z6, 2),
                                                localize(Z6, 3))


def test_identity_cover_always_satisfies_the_sheaf_condition():
    for name, R in catalog():
        for yname, Y in catalog():
            ok, wit = sheaf_axiom_check(cover_family(R, [R.one]), Y)
            assert ok, (name, yname, wit)


def test_split_cover_of_the_pair_semiring():
    BB = boolean_pair()
    fam = cover_family(BB, [BB.index("(1,0)"), BB.index("(0,1)")])
    ok, wit = sheaf_axiom_check(fam, boolean())
    assert ok
    ok, wit = sheaf_axiom_check(fam, BB)
    assert ok


def test_empty_extent_family_breaks_the_sheaf_condition():
    B = boolean()
    BB = boolean_pair()
    fam = cover_family(B, [B.zero])
    ok, wit = sheaf_axiom_check(fam, BB)
    assert not ok
    # two distinct homs BxB -> B restrict to the same (unique) tuple over
    # the trivial localization
    assert wit[0] == "not injective"
    assert wit[1] != wit[2]


def test_cover_criterion_matches_bounded_sheaf_scan():
    """Families of up to two principal opens: covering the spectrum is
    exactly passing the sheaf check against every bench semiring."""
    for name, R in catalog():
        for r in (1, 2):
            for els in itertools.combinations(range(R.n), r):
                fam = cover_family(R, els)
                sheafy = all(sheaf_axiom_check(fam, Y)[0]
                             for _, Y in catalog())
                assert covers(fam) == sheafy, (name, els)


def test_sheaf_check_witnesses_match_the_oracle():
    """The whole verdict, witness included, for every family of at most
    three principal opens of each catalog semiring against every catalog
    test object."""
    verdicts = collections.Counter()
    for name, R in catalog():
        for r in (1, 2, 3):
            for els in itertools.combinations(range(R.n), r):
                fam = cover_family(R, els)
                for yname, Y in catalog():
                    got = sheaf_axiom_check(fam, Y)
                    assert got == oracle_site_descent(R, els, Y), (
                        name, els, yname)
                    verdicts[got[1] and got[1][0]] += 1
    assert verdicts == {None: 725, "not injective": 20,
                        "not surjective": 79}


def test_lambda_frames():
    frame, subs = lambda_X(boolean())
    assert frame.n == 2
    frame6, subs6 = lambda_X(zmod(6))
    assert frame6.n == 4  # Boolean lattice of a 2-point discrete space
    frameN, subsN = lambda_X(truncated_naturals(2))
    assert frameN.n == 3  # chain: nested primes {0} in {0,T}
    leq = mask_order(frameN.masks)
    assert all(leq[a][b] for a in range(3) for b in range(3) if a <= b)
    for name, R in catalog():
        assert spatiality_check(lambda_X(R)[0]), name


def test_basic_opens_refuse_elements_out_of_range():
    # U_h is defined for elements h of R alone, as R[1/h] is: an index
    # outside range(R.n) names no element, so it has no basic open
    R = zmod(6)
    spec = prime_spectrum(R)
    for h in (-1, R.n, 99):
        with pytest.raises(TableError, match="element index out of range"):
            spec.basic_open(h)
    with pytest.raises(TableError, match="element index out of range"):
        open_subscheme(R, [99])
    assert open_subscheme(R, [2]).extent == spec.basic_open(2)


def test_lambda_elements_carry_generators():
    Z6 = zmod(6)
    spec = prime_spectrum(Z6)
    frame, subs = lambda_X(Z6)
    for sub in subs:
        got = frozenset()
        for h in sub.generators:
            got |= spec.basic_open(h)
        assert got == sub.extent
    full = subs[-1]
    assert full.extent == frozenset(range(2))
    assert 1 in full.generators  # the unit generates everything


def test_intrinsic_order_examples():
    Z6 = zmod(6)
    assert intrinsic_order_check(Z6, 2, 2)
    assert intrinsic_order_check(Z6, 2, 4)
    assert not intrinsic_order_check(Z6, 1, 2)
    N2 = truncated_naturals(2)
    assert intrinsic_order_check(N2, 2, 1)
    assert not intrinsic_order_check(N2, 1, 2)


def test_intrinsic_order_agreement_across_catalog():
    for name, R in catalog():
        for g in range(R.n):
            for h in range(R.n):
                intrinsic_order_check(R, g, h)  # raises on mismatch


def test_theorem_A_on_catalog():
    for name, R in list(catalog()) + [("trivial", trivial())]:
        ok, pairs = theorem_A_check(R)
        assert ok, (name, pairs)


def test_theorem_A_pairs_for_zmod6():
    ok, pairs = theorem_A_check(zmod(6))
    assert ok
    assert [p for p, _ in pairs] == ["{0,3}", "{0,2,4}"]


def test_sections_over_empty_subscheme_are_trivial():
    B = boolean()
    T, proj = structure_sheaf_sections(B, open_subscheme(B, []))
    assert T.n == 1
    assert proj == ()


def test_sections_over_unit_recover_the_semiring():
    for name, R in catalog():
        u = open_subscheme(R, [R.one])
        S, proj = structure_sheaf_sections(R, u)
        assert are_isomorphic(S, R), name


def test_sections_on_split_cover_recover_the_pair():
    BB = boolean_pair()
    u = open_subscheme(BB, [BB.index("(1,0)"), BB.index("(0,1)")])
    S, proj = structure_sheaf_sections(BB, u)
    assert are_isomorphic(S, BB)
    assert len(proj) == 2
    for p in proj:
        assert p.is_surjective()


def test_sections_glue_along_overlaps():
    # sections over U_2 v U_3 in Spec Z/6 are pairs with no extra relation
    # because the overlap U_6 = U_0 is empty; the glued result is Z/6
    Z6 = zmod(6)
    u = open_subscheme(Z6, [2, 3])
    S, proj = structure_sheaf_sections(Z6, u)
    assert are_isomorphic(S, Z6)
    left = localize(Z6, 2).semiring
    right = localize(Z6, 3).semiring
    assert S.n == left.n * right.n


def test_principal_sections_iso_across_catalog():
    for name, R in catalog():
        for h in range(R.n):
            iso = principal_sections_iso(R, h)
            assert iso.is_bijective(), (name, h)


def test_principal_open_props_small_bench():
    entries = catalog()
    report = principal_open_props_check(entries)
    assert report["all_pass"]
    assert [row["semiring"] for row in report["P1"]] == \
        [name for name, _ in entries]
    assert all(row["pass"] for row in report["P2"])
    assert all(row["pass"] for row in report["P3"])


def test_principal_open_props_name_their_first_failure(monkeypatch):
    # with every pair failing, P2 names its first (g, h) and P3 its first h
    monkeypatch.setattr(finsite.semiring._Map, "is_bijective",
                        lambda self: False)
    monkeypatch.setattr(finsite.site, "_pushout_kernel", lambda s, f: None)
    entries = [("z6", zmod(6)), ("b", boolean())]
    report = principal_open_props_check(entries)
    assert not report["all_pass"]
    assert [row["witness"] for row in report["P2"]] == [["0", "0"]] * 2
    assert report["P3"] and all(
        not row["pass"] and row["witness"] == "0" for row in report["P3"])


def test_p3_congruence_is_the_kernel_of_the_pushout_leg():
    # P3 reads the pushout of R[1/h] <- R -> T off one congruence of T
    entries = catalog()
    for (name, R), (name2, T) in itertools.product(entries, repeat=2):
        for f in enumerate_homs(R, T):
            for h in range(R.n):
                s = localize(R, h).to_local
                assert finsite.site._pushout_kernel(s, f) == \
                    hom_kernel(pushout(s, f).cocones[2]), \
                    (name, name2, f.images, R.elements[h])


def test_iterated_localization_collapses_z6():
    # inverting 2 then 3 inverts 6 = 0, so the composite is trivial
    Z6 = zmod(6)
    l2 = localize(Z6, 2)
    l23 = localize(l2.semiring, l2.to_local(3))
    assert l23.semiring.n == 1
    assert localize(Z6, 0).semiring.n == 1


def test_base_change_example_collapses():
    # pushing U_3 of Z/6 along Z/6 -> Z/3 localizes Z/3 at 0
    Z6, Z3 = zmod(6), zmod(3)
    f = enumerate_homs(Z6, Z3)[0]
    assert f(3) == 0
    assert localize(Z3, f(3)).semiring.n == 1

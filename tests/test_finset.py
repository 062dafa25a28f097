"""Tests for the finite-set site: simplices, complexes, set-level gluing,
and the covering/sheaf correspondence."""

import collections
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finsite.finset
from finsite.catalog import chain
from finsite.finset import (
    FinSetError,
    asc,
    asc_presentation,
    face_injection,
    face_label,
    face_space,
    finset,
    finset_glue_space,
    finset_path_limit,
    finset_presentation,
    injection,
    is_jointly_surjective,
    monodromy_wedge_counterexample,
    sheaf_axiom_check,
    simplex_space,
    subcanonicity_sweep,
    _subset_orbit_reps,
)
from finsite.locales import is_sober, sobrification_unit
from finsite.records import BudgetExceeded
from finsite.spectra import congruence_spectrum

from oracles import (all_injection_families, contains_bijection,
                     identity_injection, oracle_betti_mod2, oracle_descent,
                     oracle_order_chains, oracle_t0_classes)


def letters(n):
    return finset(tuple("abcd"[:n]))


def oracle_matching_families(family, Y):
    """Every tuple of maps that agree wherever two members hit one target
    element, in product order.  A prefix of a matching tuple matches, so
    the product is filtered one member at a time."""
    out = [()]
    for i, fi in enumerate(family):
        out = [combo + (g,) for combo in out
               for g in itertools.product(range(Y.n), repeat=fi.source.n)
               if all(combo[j][c] == g[b]
                      for j, fj in enumerate(family[:i])
                      for b in range(fi.source.n)
                      for c in range(fj.source.n) if fi(b) == fj(c))]
    return out


def oracle_sheaf(family, Y, target):
    """Independent verdict and witness: restriction from maps target -> Y,
    in product order, onto the matching families."""
    base = [(h, tuple(tuple(h[f(b)] for b in range(f.source.n))
                      for f in family))
            for h in itertools.product(range(Y.n), repeat=target.n)]
    return oracle_descent(base, oracle_matching_families(family, Y))


def test_finset_and_injection_validation():
    A = letters(2)
    with pytest.raises(FinSetError):
        finset(("a", "a"))
    with pytest.raises(FinSetError):
        injection(A, A, (0,))
    with pytest.raises(FinSetError):
        injection(A, A, (0, 2))
    with pytest.raises(FinSetError):
        injection(A, A, (0, 0))
    empty = finset(())
    e = injection(empty, A, ())
    assert e.images == () and not e.is_bijective()
    assert injection(empty, empty, ()).is_bijective()
    assert identity_injection(A).is_bijective()
    assert identity_injection(A)(1) == 1


def test_joint_surjectivity_and_bijection_flags():
    A = letters(2)
    singles = [face_injection(A, [0]), face_injection(A, [1])]
    assert is_jointly_surjective(singles)
    assert not contains_bijection(singles)
    assert not is_jointly_surjective([face_injection(A, [0])])
    assert contains_bijection([face_injection(A, [0, 1])])
    assert not contains_bijection([])
    assert not is_jointly_surjective([], A)
    assert is_jointly_surjective([], finset(()))
    with pytest.raises(FinSetError):
        is_jointly_surjective([])
    with pytest.raises(FinSetError):
        is_jointly_surjective([face_injection(A, [0]),
                               face_injection(letters(3), [0])])


def test_simplex_sizes_and_unique_closed_top_face():
    for n in range(4):
        A = finset(tuple(f"v{i}" for i in range(n + 1)))
        X = simplex_space(A)
        assert X.n == 2 ** (n + 1) - 1
        closed_points = [p for p in range(X.n)
                         if X.is_closed(frozenset([p]))]
        assert closed_points == [X.n - 1]
        assert X.points[-1] == face_label(A, range(A.n))
        for i in range(A.n):
            assert X.is_open(frozenset([X.points.index(face_label(A, [i]))]))
        assert oracle_t0_classes(X) == list(range(X.n))
        assert is_sober(X)[0]


def test_simplex_on_two_vertices_matches_its_locale_points():
    X = simplex_space(letters(2))
    assert X.points == ("{a}", "{b}", "{a,b}")
    assert len(X.opens) == 5
    unit = sobrification_unit(X)
    assert unit.is_homeomorphism()


def test_simplex_needs_a_vertex():
    with pytest.raises(FinSetError):
        simplex_space(finset(()))


def test_face_lists_stop_at_the_element_budget():
    # 2^13 - 1 = 8191 faces fit the budget of 10,000 and 2^14 - 1 do not:
    # those are refused before any face is listed
    A, B = (finset(tuple(f"v{i}" for i in range(n))) for n in (13, 14))
    assert len(finsite.finset._subsets(A)) == 8191
    assert len(asc(A.labels, [A.labels]).faces) == 8191
    with pytest.raises(BudgetExceeded, match="a simplex of dimension 13 "):
        simplex_space(B)
    with pytest.raises(BudgetExceeded, match="a face on 14 vertices "):
        asc(B.labels, [B.labels])


def test_asc_closure_and_validation():
    K = asc("abc", ["ab", "bc", "ca"])
    assert K.face_labels() == ("{a}", "{b}", "{c}",
                               "{a,b}", "{a,c}", "{b,c}")
    K2 = asc("abcd", ["abc", "bcd"])
    sizes = [len(f) for f in K2.faces]
    assert len(K2.faces) == 11
    assert sizes.count(1) == 4 and sizes.count(2) == 5 and sizes.count(3) == 2
    with pytest.raises(FinSetError):
        asc("ab", ["a"])
    with pytest.raises(FinSetError):
        asc("ab", ["ac"])
    with pytest.raises(FinSetError):
        asc("aa", ["aa"])


def test_face_space_of_hollow_triangle():
    K = asc("abc", ["ab", "bc", "ca"])
    X = face_space(K)
    assert X.n == 6
    closed_points = sorted(X.points[p] for p in range(X.n)
                           if X.is_closed(frozenset([p])))
    assert closed_points == ["{a,b}", "{a,c}", "{b,c}"]
    for v in ("{a}", "{b}", "{c}"):
        assert X.is_open(frozenset([X.index(v)]))
    assert oracle_t0_classes(X) == list(range(X.n)) and is_sober(X)[0]


def test_asc_presentation_shape():
    K = asc("abc", ["ab", "bc", "ca"])
    P = asc_presentation(K)
    assert P.names == K.face_labels()
    assert [A.n for A in P.charts] == [1, 1, 1, 2, 2, 2]
    assert len(P.arrows) == 6
    for si, di, f in P.arrows:
        assert P.charts[si].n < P.charts[di].n
        assert f.source == P.charts[si] and f.target == P.charts[di]


def test_glued_space_equals_face_poset():
    for vertices, gens in [("abc", ["ab", "bc", "ca"]),
                           ("abcd", ["abc", "bcd"]),
                           ("abcd", ["abcd"]),
                           ("abc", ["ab", "c"])]:
        K = asc(vertices, gens)
        G = finset_glue_space(asc_presentation(K))
        F = face_space(K)
        assert G.space.points == tuple(f"{l}:{l}" for l in K.face_labels())
        assert G.space.above == F.above
        assert G.space.opens == F.opens


def space_betti(X):
    return oracle_betti_mod2(oracle_order_chains(X.above))


def complex_betti(K):
    dims = max(map(len, K.faces))
    return oracle_betti_mod2([[tuple(sorted(f)) for f in K.faces
                               if len(f) == k + 1] for k in range(dims)])


@st.composite
def complexes(draw, max_vertices=4):
    """An abstract simplicial complex on at most max_vertices vertices,
    from random generating faces, each vertex also a face of its own."""
    n = draw(st.integers(1, max_vertices))
    vertices = "abcd"[:n]
    faces = draw(st.lists(st.sets(st.sampled_from(vertices), min_size=1),
                          max_size=5))
    return asc(vertices, [sorted(f) for f in faces] + list(vertices))


@settings(max_examples=60, deadline=None)
@given(complexes())
def test_face_posets_have_the_homology_of_their_complex(K):
    # the face poset and the glued face charts are finite models of K: an
    # independent chain count gives them K's mod-2 Betti numbers
    expected = complex_betti(K)
    assert space_betti(face_space(K)) == expected
    assert space_betti(finset_glue_space(asc_presentation(K)).space) == \
        expected


def test_homology_of_simplices_and_weak_chain_spectra():
    hollow = asc("abc", ["ab", "bc", "ca"])
    assert complex_betti(hollow) == (1, 1)
    assert space_betti(face_space(hollow)) == (1, 1)
    for n in range(4):
        betti = space_betti(simplex_space(letters(n + 1)))
        assert betti == (1,) + (0,) * n, n
    for k in range(2, 6):
        weak, _ = congruence_spectrum(chain(k), "weak")
        betti = space_betti(weak)
        assert betti[0] == 1 and not any(betti[1:]), k


def test_glue_builds_each_chart_simplex_once(monkeypatch):
    K = asc("abcd", ["abc", "bcd"])
    P = asc_presentation(K)
    builds = collections.Counter()
    real = finsite.finset.simplex_space

    def counted(A):
        builds[A] += 1
        return real(A)

    monkeypatch.setattr(finsite.finset, "simplex_space", counted)
    finset_glue_space(P)
    # the arrows' face maps reuse the chart spaces instead of rebuilding
    # their source and target simplices
    assert builds == collections.Counter(P.charts)
    assert sum(builds.values()) == len(P.charts) < len(P.arrows)


def test_glued_charts_are_open_embeddings():
    K = asc("abcd", ["abc", "bcd"])
    G = finset_glue_space(asc_presentation(K))
    for chart in G.charts:
        assert chart.is_open_embedding()


def test_presentation_without_arrows_glues_discrete():
    pt = finset(("p",))
    P = finset_presentation([("P0", pt), ("P1", pt), ("P2", pt)], [])
    G = finset_glue_space(P)
    assert G.space.n == 3
    assert len(G.space.opens) == 8
    assert G.space.points == ("P0:{p}", "P1:{p}", "P2:{p}")


def test_presentation_validation():
    pt = finset(("p",))
    two = letters(2)
    with pytest.raises(FinSetError):
        finset_presentation([("P", pt), ("P", pt)], [])
    with pytest.raises(FinSetError):
        finset_presentation([("P", pt)], [("P", "Q", identity_injection(pt))])
    with pytest.raises(FinSetError):
        finset_presentation([("P", pt), ("Q", two)],
                            [("P", "Q", identity_injection(two))])


def test_path_limits_open_and_closed():
    K = asc("abc", ["ab", "ac"])
    P = asc_presentation(K)
    a_ab = next(i for i, (si, di, _) in enumerate(P.arrows)
                if P.names[si] == "{a}" and P.names[di] == "{a,b}")
    a_ac = next(i for i, (si, di, _) in enumerate(P.arrows)
                if P.names[si] == "{a}" and P.names[di] == "{a,c}")
    span = ((a_ab, False), (a_ac, True))
    opened = finset_path_limit(P, P.node("{a,b}"), span, "opened")
    assert opened.labels == ("(a,a,a)",)
    with pytest.raises(FinSetError):
        finset_path_limit(P, P.node("{a,b}"), span, "closed")
    loop = ((a_ab, False), (a_ab, True))
    closed = finset_path_limit(P, P.node("{a,b}"), loop, "closed")
    assert closed.n == 1
    assert closed.n == finset_path_limit(P, P.node("{a,b}"), loop,
                                         "opened").n
    start_only = finset_path_limit(P, P.node("{a,b}"), (), "closed")
    assert start_only.n == 2
    with pytest.raises(ValueError):
        finset_path_limit(P, 0, (), "sideways")
    with pytest.raises(FinSetError):
        finset_path_limit(P, P.node("{a,b}"), ((a_ab, True),), "opened")


def test_node_names_the_unknown_chart():
    P = asc_presentation(asc("abc", ["ab", "ac"]))
    assert [P.node(name) for name in P.names] == list(range(len(P.names)))
    with pytest.raises(FinSetError, match="^no chart named 'B'$"):
        P.node("B")


def test_path_limit_labels_in_product_order_and_self_arrows():
    X = finset(("x", "y", "z"))
    U = finset(("p", "q"))
    P = finset_presentation([("X", X), ("U", U)], [
        ("U", "X", injection(U, X, (0, 1))),
        ("U", "X", injection(U, X, (0, 2))),
        ("X", "X", injection(X, X, (1, 0, 2))),
        ("X", "X", injection(X, X, (0, 1, 2)))])
    span = ((0, False), (1, True))
    assert finset_path_limit(P, 0, span, "opened").labels == (
        "(x,p,x)", "(y,q,z)")
    assert finset_path_limit(P, 0, span, "closed").labels == ("(x,p)",)
    swap = ((2, True),)
    assert finset_path_limit(P, 0, swap, "opened").labels == (
        "(x,y)", "(y,x)", "(z,z)")
    # a one-step closed walk along a self-arrow keeps the fixed points
    for step in (swap, ((2, False),)):
        assert finset_path_limit(P, 0, step, "closed").labels == ("(z)",)
    assert finset_path_limit(P, 0, swap * 2, "closed").labels == (
        "(x,y)", "(y,x)", "(z,z)")
    assert finset_path_limit(P, 0, ((3, True),), "closed").labels == (
        "(x)", "(y)", "(z)")


def test_path_limit_refuses_unknown_charts_and_arrows():
    X = finset(("x",))
    P = finset_presentation([("X", X)], [("X", "X", injection(X, X, (0,)))])
    assert finset_path_limit(P, 0, ((0, True),), "closed").labels == ("(x)",)
    for start, steps in ((5, ()), (-1, ()), (0, ((3, True),)),
                         (0, ((-1, True),))):
        with pytest.raises(FinSetError):
            finset_path_limit(P, start, steps)


def test_wedge_counterexample():
    report = monodromy_wedge_counterexample()
    assert report.closed_limit.n == 0
    assert report.opened_limit.n == 1
    assert report.opened_limit.labels == ("(x,x,y)",)
    assert not report.free
    assert report.witness == "V <- U -> V"


def test_glue_refuses_a_chart_whose_elements_the_arrows_identify():
    # the wedge of monodromy_wedge_counterexample: two arrows U -> V send
    # U's one element to both of V's, so V cannot embed in the glued set
    U, V = finset(("x",)), finset(("x", "y"))
    wedge = finset_presentation([("V", V), ("U", U)],
                                [("U", "V", injection(U, V, (0,))),
                                 ("U", "V", injection(U, V, (1,)))])
    with pytest.raises(FinSetError,
                       match=r"^monodromy: .* x and y in chart V$"):
        finset_glue_space(wedge)
    two = letters(2)
    swap = finset_presentation([("S", two)],
                               [("S", "S", injection(two, two, (1, 0)))])
    with pytest.raises(FinSetError,
                       match=r"^monodromy: .* a and b in chart S$"):
        finset_glue_space(swap)
    loop = finset_presentation([("S", two)],
                               [("S", "S", identity_injection(two))])
    assert finset_glue_space(loop).space.n == 3


def test_sheaf_check_against_bruteforce_oracle():
    """The whole verdict, witness included, for every injection family
    into a set of at most three elements against every test set of at
    most three elements."""
    verdicts = collections.Counter()
    for size in (1, 2, 3):
        A = letters(size)
        for family in all_injection_families(A):
            for ysize in range(4):
                Y = finset(tuple(f"y{j}" for j in range(ysize)))
                got = sheaf_axiom_check(family, Y, A)
                assert got == oracle_sheaf(family, Y, A), (family, ysize)
                verdicts[got[1] and got[1][0]] += 1
    assert verdicts == {None: 1003, "not injective": 86, "not surjective": 3}
    # members out of canonical order, where the first witness moves
    B = letters(3)
    spot = [
        [face_injection(B, [1, 2]), face_injection(B, [0, 1])],
        [face_injection(B, [0]), face_injection(B, [1, 2]),
         face_injection(B, [])],
        [face_injection(B, [0, 1, 2]), face_injection(B, [2])],
    ]
    Y = letters(2)
    for family in spot:
        assert sheaf_axiom_check(family, Y, B) == oracle_sheaf(family, Y, B)


def test_sheaf_condition_tracks_joint_surjectivity_small():
    tests = [finset(tuple(f"y{j}" for j in range(y))) for y in range(4)]
    for size in (1, 2, 3):
        A = letters(size)
        for family in all_injection_families(A):
            sheafy = all(sheaf_axiom_check(family, Y, A)[0] for Y in tests)
            assert sheafy == is_jointly_surjective(family, A)


def test_bijection_pretopology_is_strictly_coarser():
    for size in (2, 3, 4):
        A = letters(size)
        singles = [face_injection(A, [i]) for i in range(size)]
        assert is_jointly_surjective(singles, A)
        assert not contains_bijection(singles)
    A = letters(1)
    for family in all_injection_families(A):
        if is_jointly_surjective(family, A):
            assert contains_bijection(family)


def test_orbit_reduction_is_sound():
    for size in (1, 2, 3):
        m = 1 << size
        perms = list(itertools.permutations(range(size)))

        def act(perm, fam):
            moved = 0
            for s in range(m):
                if fam & (1 << s):
                    t = sum(1 << perm[i] for i in range(size)
                            if s & (1 << i))
                    moved |= 1 << t
            return moved

        canon = {fam: min(act(p, fam) for p in perms)
                 for fam in range(1 << m)}
        reps = _subset_orbit_reps(size)
        assert len(reps) == len(set(canon.values()))
        assert {canon[r] for r in reps} == set(canon.values())


def test_subcanonicity_sweep_small():
    report = subcanonicity_sweep(3, 3)
    assert report["agree"]
    assert report["families"] == 96
    assert report["disagreements"] == []


def test_subcanonicity_sweep_refuses_sets_past_its_tables():
    with pytest.raises(ValueError, match="at most 4"):
        subcanonicity_sweep(5, 0)

"""Chart presentations, monodromy checks, and gluing."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finsite.glue
import finsite.records
import finsite.spectra
from finsite.catalog import boolean, boolean_pair, catalog, zmod
from finsite.glue import (
    VISUALIZATIONS,
    DiagramPath,
    GlueError,
    SPresentation,
    affine_glue_check,
    glue_space,
    glued_chain,
    MonodromyReport,
    is_monodromy_free,
    presentation,
)
from finsite.records import DEFAULT_BUDGET
from finsite.semiring import (BudgetExceeded, SemiringHom, enumerate_homs,
                              find_isomorphism, is_finite_localization,
                              localize, validate_semiring)
from finsite.site import cover_family, covers
from finsite.spectra import (CHAIN_LEVELS, prime_spectrum,
                             visualization_chain, visualization_map,
                             visualization_space)

from census import census_upto
from oracles import (arrow_names, atlas, closed_walks, disjoint_union,
                     loop_comparison, path_limit, quotient_space, trivial)


def oracle_homeomorphic(X, Y):
    if X.n != Y.n or len(X.opens) != len(Y.opens):
        return False
    for perm in itertools.permutations(range(Y.n)):
        if {frozenset(perm[x] for x in u) for u in X.opens} == set(Y.opens):
            return True
    return False


def oracle_glued_space(P, vis):
    """Glue the slow way: materialize the disjoint union of the chart
    spaces and take the quotient by the arrow identifications."""
    spaces = [visualization_space(R, vis) for R in P.charts]
    union, embeddings = disjoint_union(spaces, prefixes=P.names)
    pairs = []
    for (si, di, h) in P.arrows:
        m = visualization_map(h, vis)
        for x in range(spaces[si].n):
            pairs.append((embeddings[si](x), embeddings[di](m(x))))
    return quotient_space(union, pairs)[0]


def swap_presentation():
    BB = boolean_pair()
    images = []
    for e in BB.elements:
        a, b = e[1:-1].split(",")
        images.append(BB.elements.index(f"({b},{a})"))
    swap = SemiringHom(BB, BB, tuple(images))
    return presentation([("X", BB)], [("X", "X", swap)])


def wedge_presentation():
    BB = boolean_pair()
    B = boolean()
    first = SemiringHom(BB, B, tuple(int(e[1]) for e in BB.elements))
    second = SemiringHom(BB, B, tuple(int(e[3]) for e in BB.elements))
    return presentation([("X", BB), ("U", B)],
                        [("U", "X", first), ("U", "X", second)])


def doubled_point_presentation():
    Z6 = zmod(6)
    loc = localize(Z6, 2)
    return presentation(
        [("A", Z6), ("B", Z6), ("O", loc.semiring)],
        [("O", "A", loc.to_local), ("O", "B", loc.to_local)])


def cycle_presentation(k):
    """k copies of Z6 in a ring, neighbours glued along Z6[1/2]."""
    Z6 = zmod(6)
    loc = localize(Z6, 2)
    return presentation(
        [(f"A{i}", Z6) for i in range(k)]
        + [(f"O{i}", loc.semiring) for i in range(k)],
        [(f"O{i}", f"A{(i + d) % k}", loc.to_local)
         for i in range(k) for d in (0, 1)])


COVERING_FAMILIES = [
    ("B unit", boolean(), [1]),
    ("BxB split", boolean_pair(), [2, 1]),
    ("BxB unit", boolean_pair(), [3]),
    ("Z6 two", zmod(6), [2, 3]),
    ("Z6 three", zmod(6), [1, 2, 3]),
    ("Z6 redundant", zmod(6), [2, 3, 4]),
]


def test_presentation_validation():
    Z6 = zmod(6)
    B = boolean()
    BB = boolean_pair()
    loc = localize(Z6, 2)
    with pytest.raises(GlueError, match="duplicate"):
        presentation([("X", Z6), ("X", Z6)], [])
    with pytest.raises(GlueError, match="not a chart"):
        presentation([("X", Z6)], [("X", "Y", loc.to_local)])
    # hom endpoints must run head algebra -> tail algebra
    with pytest.raises(GlueError, match="head chart"):
        presentation([("X", Z6), ("U", B)], [("U", "X", loc.to_local)])
    # the diagonal B -> BxB is injective, never a localization
    diag = SemiringHom(B, BB, (0, 3))
    with pytest.raises(GlueError, match="not a finite localization"):
        presentation([("X", B), ("U", BB)], [("U", "X", diag)])


def test_atlas_shapes():
    Z6 = zmod(6)
    P = atlas(cover_family(Z6, [2, 3]))
    assert P.names == ("U0", "U1", "U0_1")
    assert [R.n for R in P.charts] == [3, 2, 1]
    assert arrow_names(P) == (("U0_1", "U0"), ("U0_1", "U1"))

    BB = boolean_pair()
    split = atlas(cover_family(
        BB, [BB.elements.index("(1,0)"), BB.elements.index("(0,1)")]))
    assert [R.n for R in split.charts] == [2, 2, 1]

    single = atlas(cover_family(Z6, [1]))
    assert single.names == ("U0",)
    assert single.arrows == ()


def test_equal_charts_share_one_object():
    # Z6[1/2], Z6[1/4] and their overlap Z6[1/8] are one semiring
    P = atlas(cover_family(zmod(6), (2, 4)))
    assert len(P.charts) == 3
    assert len({id(R) for R in P.charts}) == 1
    assert all(h.source is h.target is P.charts[0] for _, _, h in P.arrows)
    Q = doubled_point_presentation()
    assert Q.charts[0] is Q.charts[1]


def _fresh(R):
    return validate_semiring(R.elements, R.add, R.mul, R.zero, R.one)


def unshared(P):
    """P with one fresh semiring per node, built without `presentation`, so
    no two nodes share derived data."""
    copies = tuple(_fresh(R) for R in P.charts)
    return SPresentation(P.names, copies, tuple(
        (si, di, SemiringHom(copies[di], copies[si], h.images))
        for si, di, h in P.arrows))


@st.composite
def shared_presentations(draw):
    """Atlases of catalog families, and doubled points: two equal charts
    glued along one localization."""
    R = draw(st.sampled_from([R for _, R in catalog()]))
    elements = draw(st.lists(st.integers(0, R.n - 1), min_size=1,
                             max_size=3))
    if draw(st.booleans()):
        return atlas(cover_family(R, elements))
    loc = localize(R, elements[0])
    return presentation(
        [("A", R), ("B", _fresh(R)), ("O", loc.semiring)],
        [("O", "A", loc.to_local), ("O", "B", loc.to_local)])


def glued_listing(P, vis):
    try:
        G = glue_space(P, vis)
    except GlueError as e:
        return str(e)
    return (G.point_table(), G.space.sorted_opens(),
            G.space.specialization_edges(), G.monodromy.verdict())


@settings(max_examples=60, deadline=None)
@given(shared_presentations())
def test_shared_charts_glue_as_unshared_copies(P):
    assert len({id(R) for R in P.charts}) == len(set(P.charts))
    Q = unshared(P)
    for vis in VISUALIZATIONS:
        assert glued_listing(P, vis) == glued_listing(Q, vis), vis


def test_walk_validation_and_description():
    P = doubled_point_presentation()
    walk = DiagramPath(P, P.node("A"), ((0, False), (1, True)))
    assert walk.describe() == "A <- O -> B"
    assert not walk.is_closed
    loop = DiagramPath(P, P.node("O"), ((0, True), (0, False)))
    assert loop.describe() == "O -> A <- O"
    assert loop.is_closed
    with pytest.raises(GlueError, match="does not start"):
        DiagramPath(P, P.node("A"), ((0, True),)).nodes_visited()


def test_node_names_the_unknown_chart():
    P = doubled_point_presentation()
    assert [P.node(name) for name in P.names] == list(range(len(P.names)))
    with pytest.raises(GlueError, match="^no chart named 'C'$"):
        P.node("C")


def test_walks_refuse_unknown_starts_and_arrows():
    P = atlas(cover_family(zmod(6), [2, 3]))
    for start, steps, match in ((-1, (), "unknown chart"),
                                (len(P.names), (), "unknown chart"),
                                (0, ((99, True),), "unknown arrow"),
                                (0, ((-1, True),), "unknown arrow")):
        walk = DiagramPath(P, start, steps)
        with pytest.raises(GlueError, match=match):
            walk.nodes_visited()
        with pytest.raises(GlueError, match=match):
            path_limit(walk)


def test_closed_walk_census():
    Z6 = zmod(6)
    P = atlas(cover_family(Z6, [1, 2, 3]))
    walks = closed_walks(P, 8)
    # one doubling per arrow plus the six-cycle through all charts
    assert len(walks) == 7
    assert sorted(len(w.steps) for w in walks) == [2, 2, 2, 2, 2, 2, 6]
    assert [w.describe() for w in closed_walks(P, 8)] == \
        [w.describe() for w in walks]

    assert len(closed_walks(swap_presentation(), 8)) == 2
    # wedge: two doublings plus the two-arrow cycle
    assert len(closed_walks(wedge_presentation(), 8)) == 3


def test_path_limit_single_node():
    Z6 = zmod(6)
    P = presentation([("X", Z6)], [])
    lim = path_limit(DiagramPath(P, 0, ()), "closed")
    assert find_isomorphism(lim, Z6) is not None


def test_path_limit_cospan_is_product_localization():
    Z6 = zmod(6)
    l2, l4 = localize(Z6, 2), localize(Z6, 4)
    P = presentation(
        [("X", Z6), ("U2", l2.semiring), ("U4", l4.semiring)],
        [("U2", "X", l2.to_local), ("U4", "X", l4.to_local)])
    walk = DiagramPath(P, P.node("U2"), ((0, True), (1, False)))
    opened = path_limit(walk, "opened")
    both = localize(Z6, Z6.mul[2][4]).semiring
    assert find_isomorphism(opened, both) is not None
    with pytest.raises(GlueError, match="identify the endpoints"):
        path_limit(walk, "closed")
    with pytest.raises(ValueError, match="unknown walk mode"):
        path_limit(walk, "sideways")


def test_single_arrow_doublings_always_pass():
    presentations = [swap_presentation(), wedge_presentation(),
                     doubled_point_presentation()]
    presentations += [atlas(cover_family(R, els))
                      for _, R, els in COVERING_FAMILIES]
    for P in presentations:
        for ai in range(len(P.arrows)):
            start = P.arrows[ai][0]
            doubling = DiagramPath(P, start, ((ai, True), (ai, False)))
            assert loop_comparison(doubling).is_bijective()


def there_and_back(p):
    return len(p.steps) == 2 and p.steps[0] == (p.steps[1][0],
                                                not p.steps[1][1])


def assert_monodromy_matches_oracle(P, bound=8):
    """Each walk cut at each of its visits, its own start first, with the
    comparison map of the cut's two colimits: the first cut where that map
    is no bijection is the walk's failing cut, and the whole report is
    built from those cuts."""
    walks, truncated = finsite.glue._closed_walks(P, bound)
    witness = None
    for p in walks:
        seq = p.nodes_visited()
        failing = [cut for cut in (
            DiagramPath(P, seq[t], p.steps[t:] + p.steps[:t])
            for t in range(len(p.steps)))
            if not loop_comparison(cut).is_bijective()]
        assert not (failing and there_and_back(p)), p.describe()
        first = failing[0] if failing else None
        assert finsite.glue._failing_cut(p, DEFAULT_BUDGET) == first, \
            p.describe()
        if witness is None:
            witness = first
    want = MonodromyReport(witness is None, witness,
                           witness is not None or not truncated, len(walks))
    assert is_monodromy_free(P, bound) == want


def catalog_atlases():
    """The atlas of every covering family of at most two elements of each
    catalog semiring, plus the three-element families above."""
    out = []
    for _, R in catalog():
        for size in (1, 2):
            for els in itertools.combinations(range(R.n), size):
                S = cover_family(R, els)
                if covers(S):
                    out.append(atlas(S))
    return out + [atlas(cover_family(R, els))
                  for _, R, els in COVERING_FAMILIES]


def glue_test_presentations():
    return [doubled_point_presentation(), swap_presentation(),
            wedge_presentation(), cycle_presentation(2),
            cycle_presentation(3)] + catalog_atlases()


def test_monodromy_matches_two_colimit_oracle():
    for P in glue_test_presentations():
        assert_monodromy_matches_oracle(P)
    assert_monodromy_matches_oracle(atlas(cover_family(zmod(6), [1, 2, 3])),
                                    bound=5)


def reversed_nodes(P):
    """P with its node lines in the opposite order."""
    return presentation(list(zip(P.names, P.charts))[::-1],
                        [(P.names[si], P.names[di], h)
                         for si, di, h in P.arrows])


def test_monodromy_verdict_ignores_node_order():
    # the wedge listed U first used to pass: its one cycle was cut at U
    verdicts = []
    for P in glue_test_presentations():
        Q = reversed_nodes(P)
        assert Q.names == P.names[::-1]
        verdicts.append(is_monodromy_free(P).free)
        assert is_monodromy_free(Q).free == verdicts[-1], P.names
    assert not all(verdicts)
    wedge = reversed_nodes(wedge_presentation())
    assert is_monodromy_free(wedge).witness.describe() == "X <- U -> X"


@st.composite
def mapped_presentations(draw):
    """Charts drawn from a catalog semiring and its localizations, joined by
    arrows whose maps are drawn from every finite localization between the
    two charts, automorphisms and self-loops included.  Half the draws are
    over BxB, the one catalog semiring with a nontrivial automorphism."""
    R = draw(st.one_of(st.just(boolean_pair()),
                       st.sampled_from([R for _, R in catalog()])))
    pool = [R] + [localize(R, x).semiring for x in range(R.n)]
    charts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    names = [f"C{i}" for i in range(len(charts))]
    arrows = []
    for _ in range(draw(st.integers(0, 4))):
        si = draw(st.integers(0, len(charts) - 1))
        di = draw(st.integers(0, len(charts) - 1))
        maps = [h for h in enumerate_homs(charts[di], charts[si])
                if is_finite_localization(h) is not None]
        if maps:
            arrows.append((names[si], names[di], draw(st.sampled_from(maps))))
    return presentation(list(zip(names, charts)), arrows)


@settings(max_examples=60, deadline=None)
@given(mapped_presentations())
def test_monodromy_matches_oracle_on_mapped_presentations(P):
    assert_monodromy_matches_oracle(P)


def census_presentations(R):
    """Over R and its localizations: a self-loop at one chart, two arrows
    from one chart into another, and a triangle of three charts, with every
    choice of finite localizations for the arrows."""
    pool = list(dict.fromkeys(
        [R] + [localize(R, x).semiring for x in range(R.n)]))

    def maps(tail, head):
        return [h for h in enumerate_homs(head, tail)
                if is_finite_localization(h) is not None]

    for A in pool:
        for h in maps(A, A):
            yield presentation([("X", A)], [("X", "X", h)])
    for A, B in itertools.product(pool, repeat=2):
        for h1, h2 in itertools.combinations_with_replacement(maps(A, B), 2):
            yield presentation([("U", A), ("X", B)],
                               [("U", "X", h1), ("U", "X", h2)])
    for A, B, C in itertools.product(pool, repeat=3):
        for huv, hvw, huw in itertools.product(maps(A, B), maps(B, C),
                                               maps(A, C)):
            yield presentation(
                [("U", A), ("V", B), ("W", C)],
                [("U", "V", huv), ("V", "W", hvw), ("U", "W", huw)])


def test_monodromy_matches_oracle_over_the_census():
    # most census semirings of order at most 4 are no rings, where a union
    # of congruences could part from their join if a map failed to be onto
    obstructed = 0
    for R in census_upto(4):
        for P in census_presentations(R):
            assert_monodromy_matches_oracle(P)
            obstructed += not is_monodromy_free(P).free
    assert obstructed > 0


def test_there_and_back_walks_keep_the_budget_order():
    # the first walk is a there-and-back doubling: it raises the same
    # budget error, naming the largest chart, as its two colimits would
    P = doubled_point_presentation()
    first = closed_walks(P)[0]
    assert there_and_back(first)
    for budget in (2, 4, 5):
        with pytest.raises(BudgetExceeded) as want:
            loop_comparison(first, budget)
        with pytest.raises(BudgetExceeded) as got:
            is_monodromy_free(P, budget=budget)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("table size: ")
    assert is_monodromy_free(P, budget=6).free


def test_there_and_back_along_a_non_surjection_takes_the_colimit():
    # the diagonal B -> BxB is no localization, so only a presentation
    # built by hand carries it; its doubling needs a coproduct, as at the
    # colimit of the cut-open walk
    B, BB = boolean(), boolean_pair()
    P = SPresentation(("X", "U"), (BB, B),
                      ((0, 1, SemiringHom(B, BB, (0, 3))),))
    with pytest.raises(ValueError, match="coproduct"):
        loop_comparison(closed_walks(P)[0])
    with pytest.raises(ValueError, match="coproduct"):
        is_monodromy_free(P)


def test_atlases_are_monodromy_free():
    for name, R, els in COVERING_FAMILIES:
        report = is_monodromy_free(atlas(cover_family(R, els)))
        assert report.free and report.exhaustive, name


def test_swap_loop_fails_monodromy():
    report = is_monodromy_free(swap_presentation())
    assert not report.free
    assert report.witness.describe() == "X -> X"
    with pytest.raises(GlueError, match="X -> X"):
        glue_space(swap_presentation())


def test_wedge_fails_monodromy():
    report = is_monodromy_free(wedge_presentation())
    assert not report.free
    assert report.witness.describe() == "X <- U -> X"
    # closed limit collapses to the trivial algebra, cut open it is a point
    assert path_limit(report.witness, "closed").n == 1
    assert path_limit(report.witness, "opened").n == 2


def test_tight_bound_reports_inconclusive():
    Z6 = zmod(6)
    P = atlas(cover_family(Z6, [1, 2, 3]))
    report = is_monodromy_free(P, bound=5)
    assert report.free and not report.exhaustive
    assert "inconclusive beyond bound" in report.verdict()
    wide = is_monodromy_free(P, bound=8)
    assert wide.free and wide.exhaustive


def test_single_node_glue_is_identity():
    Z6 = zmod(6)
    P = presentation([("X", Z6)], [])
    report = is_monodromy_free(P)
    assert report.free and report.walks_checked == 0
    glued = glue_space(P, "prime")
    assert glued.charts[0].is_homeomorphism()
    assert oracle_homeomorphic(glued.space, prime_spectrum(Z6).space)


def test_doubled_point_glue():
    P = doubled_point_presentation()
    glued = glue_space(P, "prime")
    assert glued.space.n == 3
    assert len(glued.space.opens) == 8  # discrete on three points
    shared = [ps for ps in glued.provenance if len(ps) > 1]
    assert shared == [(("A", "{0,3}"), ("B", "{0,3}"), ("O", "{0}"))]
    assert all(c.is_open_embedding() for c in glued.charts)


def test_glue_matches_quotient_oracle():
    cases = [(doubled_point_presentation(), "prime"),
             (doubled_point_presentation(), "weak"),
             (doubled_point_presentation(), "k"),
             (atlas(cover_family(zmod(6), [2, 3])), "prime"),
             (atlas(cover_family(zmod(6), [2, 3])), "twisted"),
             (atlas(cover_family(boolean_pair(), [2, 1])), "strong"),
             (atlas(cover_family(zmod(6), [1, 2, 3])), "prime")]
    for P, vis in cases:
        glued = glue_space(P, vis)
        assert oracle_homeomorphic(glued.space, oracle_glued_space(P, vis))


def test_glue_rejects_unknown_visualization():
    with pytest.raises(ValueError, match="unknown visualization"):
        glue_space(doubled_point_presentation(), "mild")


def test_chart_embeddings_into_glued_space():
    for name, R, els in COVERING_FAMILIES:
        glued = glue_space(atlas(cover_family(R, els)), "prime")
        assert all(c.is_open_embedding() for c in glued.charts), name


def test_affine_gluing_reproduces_base_spectrum():
    for name, R, els in COVERING_FAMILIES:
        S = cover_family(R, els)
        assert covers(S), name
        ok, comparison = affine_glue_check(S)
        assert ok, name
        assert comparison.is_homeomorphism()


def test_affine_gluing_detects_non_covers():
    Z6 = zmod(6)
    S = cover_family(Z6, [2])
    assert not covers(S)
    ok, comparison = affine_glue_check(S)
    assert not ok
    # the comparison lands inside the basic open, missing (2)
    assert not comparison.is_surjective()


def test_doubled_point_chain():
    chain = glued_chain(doubled_point_presentation())
    assert chain.names == ("twisted", "strong", "weak", "k", "prime")
    assert [lvl.space.n for lvl in chain.levels] == [3, 3, 3, 3, 3]
    assert all(m.is_bijective() for m in chain.maps)
    assert chain.kernel_map_surjective


def test_identity_cover_chain_is_affine_chain():
    Z6 = zmod(6)
    P = atlas(cover_family(Z6, [1]))
    chain = glued_chain(P)
    affine = visualization_chain(P.charts[0])
    for lvl, space in zip(chain.levels, affine.spaces):
        assert oracle_homeomorphic(lvl.space, space)
    for glued_map, affine_map in zip(chain.maps, affine.maps):
        assert glued_map.images == affine_map.images
    assert chain.kernel_map_surjective == affine.kernel_map_surjective


def test_glued_chain_on_split_cover():
    BB = boolean_pair()
    P = atlas(cover_family(
        BB, [BB.elements.index("(1,0)"), BB.elements.index("(0,1)")]))
    chain = glued_chain(P)
    affine = visualization_chain(BB)
    assert [lvl.space.n for lvl in chain.levels] == \
        [s.n for s in affine.spaces]
    assert chain.kernel_map_surjective


def test_glued_point_table_provenance():
    glued = glue_space(atlas(cover_family(zmod(6), [2, 3])), "prime")
    table = glued.point_table()
    assert [row[0] for row in table] == ["U0:{0}", "U1:{0}"]
    assert all(len(row[1]) == 1 for row in table)


def test_gluing_never_builds_a_coproduct():
    # every presentation arrow is a surjective localization, so the
    # colimit fold only quotients and never refuses a walk
    for P in (doubled_point_presentation(),
              atlas(cover_family(zmod(6), [1, 2, 3])),
              cycle_presentation(2), cycle_presentation(3)):
        report = is_monodromy_free(P)
        assert report.free and report.exhaustive
        assert glue_space(P, "prime").monodromy == report


def test_monodromy_runs_once_per_chain(monkeypatch):
    calls = []
    real = finsite.glue._closed_walks

    def counted(P, bound):
        calls.append(P)
        return real(P, bound)

    monkeypatch.setattr(finsite.glue, "_closed_walks", counted)
    glued_chain(doubled_point_presentation())
    assert len(calls) == 1


def test_chain_and_gluing_share_one_space_per_visualization():
    for name, R in catalog():
        chain = visualization_chain(R)
        for space, vis in zip(chain.spaces, CHAIN_LEVELS):
            assert space is visualization_space(R, vis), (name, vis)


def test_k_gluing_builds_one_subspace_per_chart_object(monkeypatch):
    builds = []
    real = finsite.spectra._build_space

    def counted(R, vis):
        builds.append((id(R), vis))
        return real(R, vis)

    monkeypatch.setattr(finsite.spectra, "_build_space", counted)
    P = atlas(cover_family(zmod(6), [1, 2, 3]))
    glue_space(P, "k")
    glue_space(P, "k")
    # the k-space once per chart, built from its order without the prime
    # spectrum it sits in
    charts = set(map(id, P.charts))
    assert sorted(builds) == sorted((i, "k") for i in charts)
    # the glued chain compares the levels, so it builds all five
    builds.clear()
    P = atlas(cover_family(zmod(6), [1, 2, 3]))
    glued_chain(P)
    assert sorted(builds) == sorted((i, vis) for i in set(map(id, P.charts))
                                    for vis in CHAIN_LEVELS)


def test_glued_chain_builds_each_level_map_once(monkeypatch):
    builds = []
    real = finsite.spectra._build_map

    def counted(h, vis):
        builds.append((h, vis))
        return real(h, vis)

    monkeypatch.setattr(finsite.spectra, "_build_map", counted)
    for members in ([1], [2, 3], [1, 2, 3]):
        glued_chain(atlas(cover_family(zmod(6), members)))
    # five levels of the 2 arrows of the [2, 3] atlas and the 6 of [1, 2, 3]
    assert len(builds) == 40


def test_glued_chain_composes_only_along_shared_spaces(monkeypatch):
    real = finsite.records._Map.compose

    def checked(self, other):
        assert other.target is self.source
        return real(self, other)

    monkeypatch.setattr(finsite.records._Map, "compose", checked)
    for members in ([1], [2, 3], [1, 2, 3]):
        glued_chain(atlas(cover_family(zmod(6), members)))

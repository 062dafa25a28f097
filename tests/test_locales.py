"""Frames, Stone duality, sobriety, spatiality."""

import re
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finsite.catalog import catalog, zmod
from finsite.finset import asc, face_space, finset, simplex_space
from finsite.locales import (
    FiniteFrame,
    FrameError,
    frame_from_covers,
    frame_of_opens,
    finite_frame,
    is_sober,
    sobrification_unit,
    spatiality_check,
    stone_dual,
)
from finsite.site import lambda_X, theorem_A_check
from finsite.spectra import prime_spectrum
from finsite.topology import (
    FiniteTopSpace,
    continuous_map,
    from_preorder,
    set_label,
    validate_topology,
)

from census import census_upto
from oracles import (
    disjoint_union,
    frame_morphism,
    kolmogorov_quotient,
    mask_order,
    opens_pullback,
    oracle_bound,
    oracle_cover_pairs,
    oracle_distributivity_failures,
    oracle_frame,
    oracle_is_spatial,
    oracle_join_primes,
    oracle_reflexive_transitive,
    order_rows,
    stone_map,
)


def sierpinski():
    return validate_topology(("g", "c"), [set(), {0}, {0, 1}])


def point_space():
    return validate_topology(("*",), [set(), {0}])


def chain_frame(k):
    leq = [[a <= b for b in range(k)] for a in range(k)]
    return finite_frame(tuple(f"l{i}" for i in range(k)), order_rows(leq))


def diamond():
    leq = [[True] * 4,
           [False, True, False, True],
           [False, False, True, True],
           [False, False, False, True]]
    return finite_frame(("0", "a", "b", "1"), order_rows(leq))


def oracle_completely_prime_filters(L):
    """Direct subset scan against the filter axioms, with meets and joins
    read off the masks as & and |."""
    out = []
    n = L.n
    leq = mask_order(L.masks)
    element = {m: a for a, m in enumerate(L.masks)}
    meet = [[element[m & k] for k in L.masks] for m in L.masks]
    join = [[element[m | k] for k in L.masks] for m in L.masks]
    bottom, top = element[0], element[max(L.masks)]
    for r in range(1, n + 1):
        for sub in combinations(range(n), r):
            F = frozenset(sub)
            if top not in F or bottom in F:
                continue
            if any(leq[a][b] and a in F and b not in F
                   for a in range(n) for b in range(n)):
                continue
            if any(meet[a][b] not in F for a in F for b in F):
                continue
            if any(join[a][b] in F and a not in F and b not in F
                   for a in range(n) for b in range(n)):
                continue
            out.append(F)
    return sorted(out, key=lambda F: (len(F), sorted(F)))


def oracle_two_valued_morphisms(L):
    """All frame maps into the 2-element lattice."""
    two = chain_frame(2)
    found = []
    for images in product(range(2), repeat=L.n):
        try:
            frame_morphism(L, two, images)
        except FrameError:
            continue
        found.append(images)
    return found


def oracle_homeomorphic(X, Y):
    from itertools import permutations
    if X.n != Y.n or len(X.opens) != len(Y.opens):
        return False
    for perm in permutations(range(Y.n)):
        if {frozenset(perm[x] for x in u) for u in X.opens} == set(Y.opens):
            return True
    return False


def test_frame_validation_rejects_bad_orders():
    with pytest.raises(FrameError):  # not reflexive
        finite_frame(("a", "b"), order_rows([[False, True], [False, True]]))
    with pytest.raises(FrameError):  # not antisymmetric
        finite_frame(("a", "b"), order_rows([[True, True], [True, True]]))
    # pentagon-free check: M3 has meets/joins but is not distributive
    n = 5
    leq = [[a == b for b in range(n)] for a in range(n)]
    for x in range(n):
        leq[0][x] = True
        leq[x][4] = True
    with pytest.raises(FrameError) as err:
        finite_frame(("0", "x", "y", "z", "1"), order_rows(leq))
    assert "distribute" in str(err.value)
    assert_witness_fails(("0", "x", "y", "z", "1"), leq, err.value)


def test_frame_refuses_rows_that_do_not_fit():
    with pytest.raises(FrameError, match="order rows do not fit 2 elements"):
        finite_frame(("0", "1"), [0b11])  # one row for two elements
    with pytest.raises(FrameError, match="order rows do not fit 2 elements"):
        finite_frame(("0", "1"), [0b11, 0b110])  # bit 2 of a 2-element order
    # labels are checked first, as before
    with pytest.raises(FrameError, match="duplicate element labels"):
        finite_frame(("0", "0"), [0b11])


def assert_witness_fails(elements, leq, error):
    """The triple a distributivity error names must fail a ^ (b v c) =
    (a ^ b) v (a ^ c) in the search-built tables."""
    found = re.fullmatch(r"meet does not distribute over join at "
                         r"\((.+), (.+), (.+)\)", str(error))
    assert found, str(error)
    a, b, c = (elements.index(x) for x in found.groups())
    n = len(elements)
    meet, join = ([[oracle_bound(leq, x, y, below) for y in range(n)]
                   for x in range(n)] for below in (True, False))
    assert (a, b, c) in oracle_distributivity_failures(meet, join)


def test_frame_rejects_posets_without_meets():
    # two maximal elements: no top, no join
    leq = [[True, True, True], [False, True, False], [False, False, True]]
    with pytest.raises(FrameError):
        finite_frame(("0", "a", "b"), order_rows(leq))


def test_frame_of_opens_examples():
    L1 = frame_of_opens(point_space())
    assert L1.n == 2
    assert L1.elements == ("{}", "{*}")
    L3 = frame_of_opens(sierpinski())
    assert L3.n == 3
    leq = mask_order(L3.masks)
    assert all(leq[a][b] for a in range(3) for b in range(3) if a <= b)
    LE = frame_of_opens(validate_topology((), [set()]))
    # one element, bottom and top at once: with no join-primes its mask is
    # both the empty and the full one
    assert LE.n == 1 and LE.masks == (0,) and LE.primes == ()


def test_stone_dual_points_match_filter_oracle():
    frames = [chain_frame(2), chain_frame(3), chain_frame(4), diamond(),
              frame_of_opens(prime_spectrum(zmod(6)).space)]
    for L in frames:
        space, filters = stone_dual(L)
        assert sorted(filters, key=lambda F: (len(F), sorted(F))) == \
            oracle_completely_prime_filters(L)


def test_stone_dual_points_match_two_valued_morphisms():
    for L in [chain_frame(2), chain_frame(3), diamond()]:
        space, _ = stone_dual(L)
        assert space.n == len(oracle_two_valued_morphisms(L))


def test_stone_dual_examples():
    d, _ = stone_dual(chain_frame(2))
    assert d.n == 1
    d3, _ = stone_dual(chain_frame(3))
    assert oracle_homeomorphic(d3, sierpinski())
    dm, _ = stone_dual(diamond())
    assert dm.n == 2 and len(dm.opens) == 4  # discrete


def test_duality_round_trip_on_t0_spaces():
    spaces = [point_space(), sierpinski(),
              prime_spectrum(zmod(6)).space,
              disjoint_union([sierpinski(), point_space()])[0]]
    for X in spaces:
        unit = sobrification_unit(X)
        assert unit.is_homeomorphism()


def test_dual_of_non_t0_space_is_its_kolmogorov_quotient():
    X = from_preorder(("a", "b", "c"),
                      order_rows([[True, True, False], [True, True, False],
                                  [False, False, True]]))
    assert not X.is_t0()
    dual, _ = stone_dual(frame_of_opens(X))
    K, _ = kolmogorov_quotient(X)
    assert oracle_homeomorphic(dual, K)
    unit = sobrification_unit(X)
    assert unit.is_continuous() and not unit.is_injective()


def test_sober_iff_t0_on_finite_spaces():
    batch = [point_space(), sierpinski(),
             validate_topology((), [set()]),
             from_preorder(("a", "b"), order_rows([[True, True], [True, True]])),
             prime_spectrum(zmod(6)).space]
    for name, R in catalog():
        batch.append(prime_spectrum(R).space)
    for X in batch:
        flag, witness = is_sober(X)
        assert flag == X.is_t0()
        if not flag:
            closed, gens = witness
            assert len(gens) != 1
            assert X.closure(closed) == frozenset(closed)


def test_sober_witness_for_indiscrete_pair():
    I = from_preorder(("a", "b"), order_rows([[True, True], [True, True]]))
    flag, (closed, gens) = is_sober(I)
    assert not flag
    assert closed == frozenset({0, 1})
    assert set(gens) == {"a", "b"}


def test_spatiality_of_catalog_frames():
    for name, R in catalog():
        L = frame_of_opens(prime_spectrum(R).space)
        assert spatiality_check(L), name
    assert spatiality_check(chain_frame(2))
    assert spatiality_check(chain_frame(3))
    assert spatiality_check(diamond())


def test_spatiality_canonical_map_reconstructs_the_frame():
    for L in [chain_frame(3), diamond(),
              frame_of_opens(prime_spectrum(zmod(6)).space)]:
        dual, _ = stone_dual(L)
        L2 = frame_of_opens(dual)
        assert L2.n == L.n
        # order isomorphism through the canonical point sets
        gens = L.join_primes()
        point_sets = [frozenset(i for i, m in enumerate(gens)
                                if L.masks[u] >> m & 1) for u in range(L.n)]
        order = sorted(range(L.n),
                       key=lambda u: (len(point_sets[u]),
                                      sorted(point_sets[u])))
        leq, leq2 = mask_order(L.masks), mask_order(L2.masks)
        for a in range(L.n):
            for b in range(L.n):
                assert leq[order[a]][order[b]] == leq2[a][b]


def test_frame_morphism_validation():
    two = chain_frame(2)
    three = chain_frame(3)
    frame_morphism(three, two, (0, 1, 1))
    frame_morphism(three, two, (0, 0, 1))
    with pytest.raises(FrameError):
        frame_morphism(three, two, (0, 1, 0))  # top not preserved... order
    with pytest.raises(FrameError):
        frame_morphism(three, two, (1, 1, 1))  # bottom not preserved


def test_opens_pullback_is_contravariant():
    S = sierpinski()
    P = point_space()
    f = continuous_map(S, P, (0, 0))
    g = continuous_map(P, S, (1,))
    pf = opens_pullback(f)
    pg = opens_pullback(g)
    pgf = opens_pullback(f.compose(g))
    assert pgf.images == pg.compose(pf).images


def test_stone_map_commutes_with_units():
    S = sierpinski()
    P = point_space()
    for f in [continuous_map(S, P, (0, 0)),
              continuous_map(P, S, (1,)),
              continuous_map(S, S, (0, 1))]:
        g = stone_map(opens_pullback(f))
        u_src = sobrification_unit(f.source)
        u_tgt = sobrification_unit(f.target)
        for x in range(f.source.n):
            assert g(u_src(x)) == u_tgt(f(x))


def test_covers_round_trip():
    for L in [chain_frame(4), diamond(),
              frame_of_opens(prime_spectrum(zmod(6)).space)]:
        assert frame_from_covers(L.elements, L.covers()) == L


def test_covers_of_a_chain_are_consecutive():
    L = chain_frame(4)
    assert L.covers() == [(0, 1), (1, 2), (2, 3)]


@st.composite
def orders(draw, kinds=("raw", "reflexive", "poset", "bounded"), max_n=7):
    """Labels and an order matrix on at most max_n elements: a random
    relation, a random reflexive one, a random poset, or a random poset
    with a bottom and a top added, its elements shuffled."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(0, max_n))
    if kind in ("raw", "reflexive"):
        bits = draw(st.integers(0, 2 ** (n * n) - 1))
        leq = [[bool(bits >> (n * a + b) & 1)
                or (kind == "reflexive" and a == b) for b in range(n)]
               for a in range(n)]
    else:
        index = st.integers(0, max(n - 1, 0))
        # upward edges only, so the closure is antisymmetric
        pairs = [(a, b) for a, b in draw(st.lists(st.tuples(index, index),
                                                  max_size=2 * n)) if a < b]
        if kind == "bounded" and n:
            pairs += [(0, x) for x in range(n)]
            pairs += [(x, n - 1) for x in range(n)]
        closed = oracle_reflexive_transitive(n, pairs)
        perm = draw(st.permutations(range(n)))
        leq = [[closed[perm[a]][perm[b]] for b in range(n)]
               for a in range(n)]
    return tuple(f"e{i}" for i in range(n)), leq


@settings(max_examples=400, deadline=None)
@given(orders())
def test_finite_frame_accepts_what_the_search_oracle_accepts(order):
    elements, leq = order
    expected = oracle_frame(elements, leq)
    try:
        finite_frame(elements, order_rows(leq))
    except FrameError as err:
        assert isinstance(expected, str), str(err)
        if not expected.startswith("meet does not distribute"):
            assert str(err) == expected
        else:
            assert str(err).startswith(expected)
        return
    assert not isinstance(expected, str), expected


@settings(max_examples=200, deadline=None)
@given(orders(kinds=("bounded",)))
def test_frame_operations_match_the_search_oracle(order):
    elements, leq = order
    expected = oracle_frame(elements, leq)
    assume(not isinstance(expected, str))
    assert_frame_matches_oracle(finite_frame(elements, order_rows(leq)), leq,
                                expected)


def assert_frame_matches_oracle(L, leq, expected, note=None):
    """L's mask order, meets and joins (& and |), bottom and top (the
    empty and full masks), join-primes, covers and spatiality against the
    search-built tables `oracle_frame` returned for leq."""
    meet, join, bottom, top = expected
    masks = L.masks
    assert mask_order(masks) == leq, note
    for a in range(L.n):
        assert [masks[c] for c in meet[a]] == [masks[a] & m for m in masks], \
            note
        assert [masks[c] for c in join[a]] == [masks[a] | m for m in masks], \
            note
    assert (masks[bottom], masks[top]) == (0, max(masks)), note
    assert masks[top] == sum(1 << m for m in L.primes), note
    primes = oracle_join_primes(leq, join, bottom)
    assert L.join_primes() == primes, note
    assert L.covers() == oracle_cover_pairs(leq), note
    assert spatiality_check(L) == oracle_is_spatial(leq, primes), note


@settings(max_examples=200, deadline=None)
@given(orders(kinds=("bounded",)))
def test_spatiality_check_matches_the_oracle_on_any_lattice(order):
    # finite_frame admits only distributive lattices, which are all
    # spatial; a lattice built past it, with its join-primes, must be
    # found spatial exactly when the oracle says so
    elements, leq = order
    expected = oracle_frame(elements, leq)
    assume(not isinstance(expected, str)
           or expected == "meet does not distribute over join")
    n = len(elements)
    join = [[oracle_bound(leq, a, b, False) for b in range(n)]
            for a in range(n)]
    bottom = next(a for a in range(n) if all(leq[a]))
    primes = oracle_join_primes(leq, join, bottom)
    masks = tuple(sum(1 << m for m in primes if leq[m][a]) for a in range(n))
    L = FiniteFrame(elements, masks, tuple(primes))
    assert spatiality_check(L) == oracle_is_spatial(leq, primes)


@settings(max_examples=150, deadline=None)
@given(orders(kinds=("bounded",)))
def test_stone_dual_built_from_join_primes_has_the_opens_o_u(order):
    # the dual is built from L's order on its join-primes; its opens must
    # be exactly the O_u = join-primes below u, one per element u
    elements, leq = order
    assume(not isinstance(oracle_frame(elements, leq), str))
    L = finite_frame(elements, order_rows(leq))
    dual, _ = stone_dual(L)
    gens = L.join_primes()
    opens = {frozenset(i for i, m in enumerate(gens) if L.masks[u] >> m & 1)
             for u in range(L.n)}
    assert dual == validate_topology(dual.points, opens)


@settings(max_examples=150, deadline=None)
@given(orders(kinds=("bounded",)))
def test_distributivity_error_names_a_failing_triple(order):
    elements, leq = order
    expected = oracle_frame(elements, leq)
    assume(isinstance(expected, str) and "distribute" in expected)
    with pytest.raises(FrameError) as err:
        finite_frame(elements, order_rows(leq))
    assert_witness_fails(elements, leq, err.value)


@settings(max_examples=150, deadline=None)
@given(orders(kinds=("bounded",)))
def test_covers_round_trip_on_random_frames(order):
    elements, leq = order
    assume(not isinstance(oracle_frame(elements, leq), str))
    L = finite_frame(elements, order_rows(leq))
    assert frame_from_covers(L.elements, L.covers()) == L


def assert_join_primes_are_least_opens(X):
    # the paper's a-posteriori recovery: the points of X come back as the
    # join-primes of its frame of opens, each the least open around one
    # point
    L = frame_of_opens(X)
    opens = X.sorted_opens()
    primes = [opens[m] for m in L.join_primes()]
    assert len(primes) == X.n
    assert set(primes) == {X.min_open(x) for x in range(X.n)}


def test_join_primes_of_the_3_simplex_are_its_least_opens():
    X = simplex_space(finset(tuple("abcd")))
    assert len(X.opens) == 167
    assert_join_primes_are_least_opens(X)


# up to four faces on at most four vertices, each vertex a face too
face_complexes = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.frozensets(st.integers(0, n - 1), min_size=1),
                         max_size=4)))


def face_space_of(complex_spec):
    n, faces = complex_spec
    vertices = tuple("abcd"[:n])
    faces = [[vertices[v] for v in f] for f in faces]
    faces += [[v] for v in vertices]
    return face_space(asc(vertices, faces))


@settings(max_examples=40, deadline=None)
@given(face_complexes)
def test_join_primes_of_face_spaces_are_least_opens(complex_spec):
    assert_join_primes_are_least_opens(face_space_of(complex_spec))


def assert_frame_of_opens_is_the_validated_frame(X, note=None):
    # frame_of_opens reads the masks off X's least opens and checks
    # nothing; the validator of parsed lattices, given the inclusion order
    # of the same opens, must return the same frame
    opens = X.sorted_opens()
    labels = [set_label(X.points, u) for u in opens]
    rows = order_rows([[u <= v for v in opens] for u in opens])
    assert frame_of_opens(X) == finite_frame(labels, rows), note


@settings(max_examples=40, deadline=None)
@given(face_complexes)
def test_frame_of_opens_of_face_spaces_matches_the_validator(complex_spec):
    assert_frame_of_opens_is_the_validated_frame(face_space_of(complex_spec))


def test_frame_of_opens_of_census_spectra_matches_the_validator():
    for R in census_upto(5):
        assert_frame_of_opens_is_the_validated_frame(
            prime_spectrum(R).space, (R.elements, R.add, R.mul))


def test_theorem_A_spatiality_and_the_unit_build_one_frame(frame_builds):
    # a space keeps its validated frame of opens, so lambda_X and the unit
    # read the frame that Theorem A built
    for name, R in catalog():
        frame_builds.clear()
        X = prime_spectrum(R).space
        assert theorem_A_check(R)[0], name
        assert spatiality_check(lambda_X(R)[0]), name
        sobrification_unit(X)
        assert sum(frame_builds.values()) == 1, name


def test_a_kept_frame_and_dual_change_no_value():
    X = prime_spectrum(zmod(6)).space
    L = frame_of_opens(X)
    assert frame_of_opens(X) is L
    assert stone_dual(L) is stone_dual(L)
    for filled in (X, L):
        bare = type(filled)(*(getattr(filled, f) for f in filled._fields))
        assert filled._derived and "_derived" not in vars(bare)
        assert filled == bare and bare == filled
        assert hash(filled) == hash(bare)
        assert repr(filled) == repr(bare)
    assert frame_of_opens(FiniteTopSpace(X.points, X.above)) == L


def test_theorem_A_and_spatiality_over_the_census():
    for R in census_upto(5):
        tables = (R.elements, R.add, R.mul)
        assert theorem_A_check(R)[0], tables
        assert spatiality_check(lambda_X(R)[0]), tables
        X = prime_spectrum(R).space
        opens = X.sorted_opens()
        leq = [[u <= v for v in opens] for u in opens]
        L = frame_of_opens(X)
        assert_frame_matches_oracle(L, leq, oracle_frame(L.elements, leq),
                                    tables)

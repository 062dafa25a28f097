"""Ideals, primality flavors, the spectra, and the comparison chain."""

import functools
import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finsite.spectra
from finsite.catalog import (
    boolean,
    catalog,
    chain,
    truncated_naturals,
    zmod,
)
from finsite.finset import finset, simplex_space
from finsite.records import VISUALIZATIONS, _partition
from finsite.semiring import (
    Congruence,
    SemiringError,
    SemiringHom,
    diagonal_congruence,
    enumerate_congruences,
    enumerate_homs,
    localize,
    product_semiring,
    validate_semiring,
)
from finsite.spectra import (
    FLAVORS,
    congruence_pullback,
    congruence_spectrum,
    enumerate_ideals,
    is_k_ideal,
    is_prime_ideal,
    k_spectrum,
    kernel_ideal,
    localization_spectrum_map,
    primality,
    prime_spectrum,
    spectrum_report,
    visualization_chain,
    visualization_map,
)
from finsite.topology import from_preorder, validate_topology

from census import census, census_upto
from oracles import (full_primality, is_ideal, oracle_congruences,
                     oracle_generated_opens, oracle_ideals, oracle_is_k_ideal,
                     oracle_is_prime_congruence, oracle_is_prime_ideal,
                     oracle_order_isomorphism, oracle_primes, order_matrix,
                     order_rows, prime_congruences, quotient, subspace,
                     total_congruence, trivial)

# (name, ideal count, k-ideal count, chain sizes (t, s, w, k, prime), opens)
FROZEN_TABLE = [
    ("B", 2, 2, (1, 1, 1, 1, 1), 2),
    ("BxB", 4, 4, (2, 2, 2, 2, 2), 4),
    ("Z2", 2, 2, (1, 1, 1, 1, 1), 2),
    ("Z3", 2, 2, (1, 1, 1, 1, 1), 2),
    ("Z6", 4, 4, (2, 2, 2, 2, 2), 4),
    ("N2", 3, 2, (1, 1, 2, 1, 2), 3),
    ("N3", 4, 2, (1, 1, 3, 1, 2), 3),
    ("chain4", 4, 4, (3, 3, 7, 3, 3), 4),
]


def test_ideal_enumeration_matches_subset_oracle():
    for name, R in catalog() + list(enumerate(census_upto(5))):
        assert enumerate_ideals(R) == oracle_ideals(R), name


def test_ideal_predicates_match_oracles():
    for name, R in catalog():
        for I in enumerate_ideals(R):
            assert is_ideal(R, I)
            assert is_k_ideal(R, I) == oracle_is_k_ideal(R, I), (name, I)
            assert is_prime_ideal(R, I) == oracle_is_prime_ideal(R, I)


def test_ideal_closure_is_smallest_ideal():
    def smallest(R, gens):
        # the ideal closure of gens is the first listed ideal holding it:
        # ideals meet in ideals, and the list runs by size
        return next(I for I in enumerate_ideals(R) if I >= set(gens))

    Z6 = zmod(6)
    assert smallest(Z6, [2]) == {0, 2, 4}
    assert smallest(Z6, [1]) == frozenset(range(6))
    assert smallest(Z6, []) == {0}
    N2 = truncated_naturals(2)
    assert smallest(N2, [N2.index("T")]) == {0, 2}  # the top absorbs


def _product_ideals(R, S):
    """The I x J over the ideals of R and S, as sets of product indices."""
    return {frozenset(i * S.n + j for i in I for j in J)
            for I in enumerate_ideals(R) for J in enumerate_ideals(S)}


def test_ideals_of_a_product_are_the_products_of_ideals():
    # ROADMAP item 14: checked on every catalog pair up to 24 elements, and
    # on the powers of B up to B^6, past the subset oracle's reach
    pairs = 0
    for (_, R), (_, S) in itertools.product(catalog(), repeat=2):
        if R.n * S.n <= 24:
            P = product_semiring(R, S)
            assert set(enumerate_ideals(P)) == _product_ideals(R, S), P
            pairs += 1
    assert pairs == 63
    B = power = boolean()
    for k in range(2, 7):
        P = product_semiring(power, B)
        assert set(enumerate_ideals(P)) == _product_ideals(power, B), k
        power = P
    assert len(enumerate_ideals(power)) == 64


def test_frozen_counts_across_catalog():
    table = {name: R for name, R in catalog()}
    for name, n_ideals, n_k, sizes, n_opens in FROZEN_TABLE:
        R = table[name]
        ideals = enumerate_ideals(R)
        assert len(ideals) == n_ideals, name
        assert sum(1 for I in ideals if is_k_ideal(R, I)) == n_k, name
        ch = visualization_chain(R)
        assert tuple(s.n for s in ch.spaces) == sizes, name
        assert len(prime_spectrum(R).space.opens) == n_opens, name
        assert ch.kernel_map_surjective, name
        assert ch.unreached_k_points == ()


def test_boolean_spectrum_is_a_point():
    spec = prime_spectrum(boolean())
    assert spec.space.points == ("{0}",)
    assert spec.primes == (frozenset({0}),)


def test_zmod6_spectrum_is_two_discrete_points():
    spec = prime_spectrum(zmod(6))
    assert spec.space.points == ("{0,3}", "{0,2,4}")
    assert len(spec.space.opens) == 4  # discrete
    assert spec.basic_open(2) == {0}   # 2 lies outside (3) only
    assert spec.basic_open(3) == {1}


def test_truncated_naturals_has_a_non_k_prime():
    N2 = truncated_naturals(2)
    spec = prime_spectrum(N2)
    assert frozenset({0, 2}) in spec.primes  # {0, T}
    assert not is_k_ideal(N2, {0, 2})
    k_space, incl = k_spectrum(N2)
    assert k_space.points == ("{0}",)
    assert incl.is_injective()


def test_trivial_semiring_has_empty_spectra():
    T = trivial()
    assert enumerate_ideals(T) == [frozenset({0})]
    spec = prime_spectrum(T)
    assert spec.space.n == 0
    ch = visualization_chain(T)
    assert all(s.n == 0 for s in ch.spaces)
    for flavor in FLAVORS:
        assert prime_congruences(T, flavor) == []


def test_basic_open_laws():
    for name, R in catalog():
        spec = prime_spectrum(R)
        full = frozenset(range(len(spec.primes)))
        assert spec.basic_open(R.one) == full
        assert spec.basic_open(R.zero) == frozenset()
        for g in range(R.n):
            for h in range(R.n):
                assert (spec.basic_open(g) & spec.basic_open(h)
                        == spec.basic_open(R.mul[g][h])), (name, g, h)


def test_specialization_order_is_prime_containment():
    for name, R in catalog():
        spec = prime_spectrum(R)
        leq = order_matrix(spec.space.above)
        k = len(spec.primes)
        for i in range(k):
            for j in range(k):
                assert leq[i][j] == (spec.primes[i] <= spec.primes[j]), name


def test_spectrum_dot_output():
    dot = prime_spectrum(chain(4)).space.specialization_dot()
    assert '"{c0,c1}" -> "{c0}";' in dot
    assert '"{c0,c1,c2}" -> "{c0,c1}";' in dot
    assert '"{c0,c1,c2}" -> "{c0}";' not in dot
    discrete = prime_spectrum(zmod(6)).space.specialization_dot()
    assert "->" not in discrete


def test_k_spectrum_of_a_ring_is_everything():
    Z6 = zmod(6)
    spec = prime_spectrum(Z6)
    k_space, incl = k_spectrum(Z6)
    assert k_space.n == spec.space.n
    assert incl.is_bijective()


def test_flavor_containment_on_all_congruences():
    for name, R in catalog():
        for c in enumerate_congruences(R):
            t, s, w = (primality(c, f) for f in ("twisted", "strong",
                                                 "weak"))
            assert (not t or s) and (not s or w), (name, c.blocks)


def _assert_primality_matches_oracle(R):
    for c in enumerate_congruences(R):
        for flavor in FLAVORS:
            assert primality(c, flavor) == \
                oracle_is_prime_congruence(R, c.blocks, flavor), \
                (R.elements, c.blocks, flavor)


def test_primality_matches_definition_oracle():
    bench = ([R for _, R in catalog()]
             + [chain(k) for k in range(2, 6)]
             + [zmod(m) for m in range(2, 13)]
             + [truncated_naturals(top) for top in range(1, 6)])
    for R in bench:
        _assert_primality_matches_oracle(R)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from([R for _, R in catalog()]), min_size=2,
                max_size=3)
       .filter(lambda fs: math.prod(R.n for R in fs) <= 12))
def test_primality_matches_oracle_on_products(factors):
    _assert_primality_matches_oracle(functools.reduce(product_semiring,
                                                      factors))


def _assert_primes_match_idempotent_oracle(R):
    primes = prime_spectrum(R).primes
    assert len(set(primes)) == len(primes)
    assert set(primes) == oracle_primes(R), R


def test_primes_match_idempotent_oracle():
    bench = ([R for _, R in catalog()]
             + [zmod(m) for m in range(2, 21)]
             + [chain(k) for k in range(1, 7)]
             + [truncated_naturals(top) for top in range(1, 8)])
    for R in bench:
        _assert_primes_match_idempotent_oracle(R)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([R for _, R in catalog()]), min_size=2,
                max_size=4)
       .filter(lambda fs: math.prod(R.n for R in fs) <= 16))
def test_primes_of_products_match_idempotent_oracle(factors):
    _assert_primes_match_idempotent_oracle(
        functools.reduce(product_semiring, factors))


@st.composite
def generated_semirings(draw):
    """A quotient of a catalog entry, or the product of two such, with at
    most 12 elements."""
    def factor():
        _, R = draw(st.sampled_from(catalog()))
        return quotient(R, draw(st.sampled_from(enumerate_congruences(R))))[0]

    R = factor()
    if draw(st.booleans()):
        S = factor()
        if R.n * S.n <= 12:
            return product_semiring(R, S)
    return R


@settings(max_examples=40, deadline=None)
@given(generated_semirings())
def test_block_primality_matches_full_quantifier(R):
    for c in enumerate_congruences(R):
        for flavor in FLAVORS:
            assert primality(c, flavor) == full_primality(c, flavor), \
                (R.elements, c.blocks, flavor)


def _assert_spaces_are_generated_by_their_basic_opens(R):
    # each spectrum is built from its order; the space its basic opens
    # generate, closed by the oracle, must be the same space
    spec = prime_spectrum(R)
    basis = [spec.basic_open(h) for h in range(R.n)]
    assert spec.space == validate_topology(
        spec.space.points, oracle_generated_opens(spec.space.n, basis))
    for flavor in FLAVORS:
        space, _ = congruence_spectrum(R, flavor)
        points = prime_congruences(R, flavor)
        basis = [frozenset(i for i, c in enumerate(points)
                           if not c.related(a, b))
                 for a in range(R.n) for b in range(R.n)]
        assert space == validate_topology(
            space.points, oracle_generated_opens(space.n, basis)), flavor


def test_order_built_spectra_equal_their_subbasis_spaces():
    bench = ([R for _, R in catalog()]
             + [chain(k) for k in range(2, 6)]
             + [zmod(m) for m in range(2, 13)]
             + [truncated_naturals(top) for top in range(1, 6)])
    for R in bench:
        _assert_spaces_are_generated_by_their_basic_opens(R)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from([R for _, R in catalog()]), min_size=2,
                max_size=3)
       .filter(lambda fs: math.prod(R.n for R in fs) <= 12))
def test_order_built_spectra_equal_their_subbasis_spaces_on_products(
        factors):
    _assert_spaces_are_generated_by_their_basic_opens(
        functools.reduce(product_semiring, factors))


@pytest.mark.parametrize("k, points, opens", [
    (2, 1, 2), (3, 3, 5), (4, 7, 19), (5, 15, 167)])
def test_weak_spectrum_of_a_chain_is_the_opposite_simplex(k, points, opens):
    # the scale ladder's two families are one poset: weak Spec chain(k),
    # ordered by refinement, is the face poset of the simplex on k - 1
    # vertices turned upside down
    weak, _ = congruence_spectrum(chain(k), "weak")
    simplex = simplex_space(finset([f"v{i}" for i in range(k - 1)]))
    assert (weak.n, len(weak.opens)) == (points, opens)
    assert (simplex.n, len(simplex.opens)) == (points, opens)
    leq = order_matrix(simplex.above)
    opposite = [[leq[y][x] for y in range(simplex.n)]
                for x in range(simplex.n)]
    assert oracle_order_isomorphism(order_matrix(weak.above),
                                    opposite) is not None


def test_primality_witness_cases():
    Z6 = zmod(6)
    assert not primality(diagonal_congruence(Z6), "weak")  # 2*3 = 0
    B = boolean()
    assert primality(diagonal_congruence(B), "twisted")
    for name, R in catalog():
        for flavor in FLAVORS:
            assert not primality(total_congruence(R), flavor), name
    with pytest.raises(ValueError):
        primality(diagonal_congruence(B), "mild")


def test_kernel_ideal_obeys_the_lemma():
    for name, R in catalog():
        for c in prime_congruences(R, "weak"):
            I = kernel_ideal(c)
            assert oracle_is_prime_ideal(R, I), name
            assert oracle_is_k_ideal(R, I), name


def test_kernel_ideal_rejects_non_weak_prime():
    Z6 = zmod(6)
    with pytest.raises(SemiringError):
        kernel_ideal(diagonal_congruence(Z6))
    with pytest.raises(SemiringError):
        kernel_ideal(total_congruence(boolean()))


def test_congruence_spectrum_maps_down_continuously():
    for name, R in catalog():
        spec = prime_spectrum(R)
        for flavor in FLAVORS:
            space, down = congruence_spectrum(R, flavor)
            assert down.is_continuous()
            assert down.target == spec.space


def test_zmod6_weak_congruences_match_the_primes():
    Z6 = zmod(6)
    space, down = congruence_spectrum(Z6, "weak")
    assert space.points == ("{0,2,4}{1,3,5}", "{0,3}{1,4}{2,5}")
    spec = prime_spectrum(Z6)
    # the congruence mod 2 has kernel (2), the one mod 3 kernel (3)
    assert spec.primes[down(0)] == frozenset({0, 2, 4})
    assert spec.primes[down(1)] == frozenset({0, 3})
    assert down.is_bijective()


def test_strong_and_twisted_spaces_carry_subspace_topology():
    # the k, strong and twisted spaces are built from their own orders;
    # each must be the subspace of the next level on the points that pass,
    # and its chain map that subspace's inclusion
    compared = 0
    for R in [R for _, R in catalog()] + census_upto(5):
        chain = visualization_chain(R)
        for vis, below, hook in (("k", "prime", chain.maps[3]),
                                 ("strong", "weak", chain.maps[1]),
                                 ("twisted", "strong", chain.maps[0])):
            own_space = finsite.spectra.visualization_space(R, vis)
            if vis == "k":
                keep = [i for i, p in enumerate(prime_spectrum(R).primes)
                        if is_k_ideal(R, p)]
            else:
                keep = [i for i, c in enumerate(prime_congruences(R, below))
                        if primality(c, vis)]
            traced, incl = subspace(
                finsite.spectra.visualization_space(R, below), keep)
            assert own_space.points == traced.points, (R, vis)
            assert own_space.above == traced.above, (R, vis)
            assert own_space.opens == traced.opens, (R, vis)
            assert hook.images == incl.images, (R, vis)
            assert hook.source is own_space, (R, vis)
            compared += 1
    assert compared == 3 * (8 + 273)


def test_strong_and_twisted_spaces_build_no_weak_space(monkeypatch):
    builds = []
    real = finsite.spectra._build_space

    def counted(R, vis):
        builds.append(vis)
        return real(R, vis)

    monkeypatch.setattr(finsite.spectra, "_build_space", counted)
    R = chain(6)
    strong = finsite.spectra.visualization_space(R, "strong")
    twisted = finsite.spectra.visualization_space(R, "twisted")
    assert builds == ["strong", "twisted"]
    assert (strong.n, twisted.n) == (5, 5)


def assert_flavor_records_match_oracle(R, name):
    """Each flavor's points are the brute-force congruences that pass the
    brute-force test, in order, and its space is their refinement order.
    The kernel map sends each point to the prime of its 0-block, and the
    strong and twisted hooks include their points in the next level's."""
    congruences = oracle_congruences(R)
    primes = prime_spectrum(R).primes
    expected = {}
    for flavor in FLAVORS:
        expected[flavor] = [b for b in congruences
                            if oracle_is_prime_congruence(R, b, flavor)]
        points = expected[flavor]
        assert [c.blocks for c in prime_congruences(R, flavor)] == \
            points, (name, flavor)
        refines = [[all(q[a] == q[b] for a in range(R.n) for b in range(R.n)
                        if p[a] == p[b]) for q in points] for p in points]
        space, down = congruence_spectrum(R, flavor)
        assert space == from_preorder(space.points, order_rows(refines)), \
            (name, flavor)
        assert [primes[down(i)] for i in range(space.n)] == [
            frozenset(a for a in range(R.n) if b[a] == b[R.zero])
            for b in points], (name, flavor)
    twisted_to_strong, strong_to_weak = visualization_chain(R).maps[:2]
    for hook, here, there in ((twisted_to_strong, "twisted", "strong"),
                              (strong_to_weak, "strong", "weak")):
        assert [expected[there][j] for j in hook.images] == \
            expected[here], (name, here)


def test_flavor_records_match_oracle_on_the_catalog():
    for name, R in catalog():
        assert_flavor_records_match_oracle(R, name)


def test_flavor_records_match_oracle_on_the_census():
    for i, R in enumerate(census_upto(5)):
        assert_flavor_records_match_oracle(R, f"census {R.n}/{i}")


def test_visualization_chain_maps_compose():
    for name, R in catalog():
        ch = visualization_chain(R)
        t_s, s_w, w_k, k_p = ch.maps
        assert t_s.is_injective() and s_w.is_injective()
        assert k_p.is_injective()
        full = k_p.compose(w_k).compose(s_w).compose(t_s)
        assert full.is_continuous()
        # a twisted point's kernel is reached the same way both ways
        for i in range(ch.spaces[0].n):
            assert full(i) == k_p(w_k(s_w(t_s(i))))


def test_spectrum_pullback_is_contravariantly_functorial():
    Z6 = zmod(6)
    homs = enumerate_homs(Z6, Z6)
    spec = prime_spectrum(Z6)
    for f in homs:
        m = visualization_map(f, "prime")
        for i, q in enumerate(spec.primes):
            pre = frozenset(a for a in range(Z6.n) if f(a) in q)
            assert oracle_is_prime_ideal(Z6, pre)
            assert spec.primes[m(i)] == pre
        for g in homs:
            gf = g.compose(f)
            left = visualization_map(f, "prime").compose(
                visualization_map(g, "prime"))
            right = visualization_map(gf, "prime")
            assert left.images == right.images


def test_congruence_pullback_preserves_flavors():
    N2 = truncated_naturals(2)
    B = boolean()
    for f in enumerate_homs(N2, B):
        for flavor in FLAVORS:
            for c in prime_congruences(B, flavor):
                back = congruence_pullback(f, c)
                assert primality(back, flavor)
    m = visualization_map(enumerate_homs(N2, B)[0], "weak")
    assert m.is_continuous()


def level_points(R, vis):
    """A level's points as the brute-force pullbacks below compare them:
    ideals, or congruences by their blocks."""
    if vis == "prime":
        return list(prime_spectrum(R).primes)
    if vis == "k":
        return [prime_spectrum(R).primes[i] for i in k_spectrum(R)[1].images]
    return [c.blocks for c in prime_congruences(R, vis)]


def oracle_pullback(f, point):
    """The preimage of an ideal, or the blocks of the congruence relating
    a and b when f(a) and f(b) are related, numbered by first occurrence."""
    if isinstance(point, frozenset):
        return frozenset(a for a in range(f.source.n) if f(a) in point)
    first = {}
    return tuple(first.setdefault(point[f(a)], len(first))
                 for a in range(f.source.n))


def catalog_homs():
    """Every hom between two catalog semirings, localizations or not."""
    semirings = [R for _, R in catalog()]
    return [f for R in semirings for S in semirings
            for f in enumerate_homs(R, S)]


def test_every_level_map_pulls_back_by_brute_force():
    for f in catalog_homs():
        for vis in VISUALIZATIONS:
            m = visualization_map(f, vis)
            source = level_points(f.source, vis)
            for i, q in enumerate(level_points(f.target, vis)):
                assert source[m(i)] == oracle_pullback(f, q), (f, vis, i)


def test_level_maps_are_contravariantly_functorial():
    homs = catalog_homs()
    pairs = [(f, g) for f in homs for g in homs if g.source is f.target]
    assert len(pairs) == 502
    for f, g in pairs:
        gf = g.compose(f)
        for vis in VISUALIZATIONS:
            assert visualization_map(gf, vis) == visualization_map(
                f, vis).compose(visualization_map(g, vis)), (f, g, vis)


def test_points_build_no_space(monkeypatch):
    builds = []
    for builder in ("_build_space", "_build_level"):
        real = getattr(finsite.spectra, builder)

        def counted(R, vis, real=real):
            builds.append(vis)
            return real(R, vis)

        monkeypatch.setattr(finsite.spectra, builder, counted)
    R = chain(6)
    strong = prime_congruences(R, "strong")
    twisted = prime_congruences(R, "twisted")
    assert set(twisted) <= set(strong) <= set(prime_congruences(R, "weak"))
    assert builds == []


def test_localization_spectrum_is_an_open_embedding():
    for name, R in catalog():
        spec = prime_spectrum(R)
        for h in range(R.n):
            loc = localize(R, h)
            m, image = localization_spectrum_map(loc)
            assert image == spec.basic_open(h), (name, h)
            assert m.is_open_embedding()


def test_localization_maps_are_open_embeddings_onto_u_h():
    # at the prime, k, strong and twisted levels R -> R[1/h] maps its
    # space onto U_h, the points avoiding h (for congruences the points
    # where h is not ~ 0), as an open embedding; the weak level is pinned
    # by the next test
    pairs = 0
    for R in [R for _, R in catalog()] + census_upto(5):
        primes = prime_spectrum(R).primes
        points = {"prime": primes,
                  "k": [p for p in primes if is_k_ideal(R, p)]}
        points.update((flavor, prime_congruences(R, flavor))
                      for flavor in ("strong", "twisted"))
        for h in range(R.n):
            f = localize(R, h).to_local
            for vis, here in points.items():
                m = visualization_map(f, vis)
                u_h = {i for i, p in enumerate(here) if
                       (h not in p if vis in ("prime", "k")
                        else not p.related(h, R.zero))}
                assert set(m.images) == u_h, (R, h, vis)
                assert m.is_open_embedding(), (R, h, vis)
            pairs += 1
    assert pairs == 1335


def test_weak_localization_image_is_where_the_idempotent_power_is_one():
    # R[1/h] is the corner eR, e the idempotent power of h, so the weak
    # points it reaches are those with e ~ 1: not always U_{h,0}, the
    # points where h is not ~ 0, and not always an open set.  Gluing weak spaces glues
    # along these closed embeddings.
    pairs = differ = 0
    for R in [R for _, R in catalog()] + census_upto(5):
        weak = prime_congruences(R, "weak")
        for h in range(R.n):
            e = R.idempotent_power(h)
            image = set(visualization_map(localize(R, h).to_local,
                                          "weak").images)
            assert image == {i for i, c in enumerate(weak)
                             if c.related(e, R.one)}, (R, h)
            pairs += 1
            differ += image != {i for i, c in enumerate(weak)
                                if not c.related(h, R.zero)}
    assert (pairs, differ) == (1335, 545)
    # the smallest case: N2 at T reaches one weak point, a closed one
    N2 = truncated_naturals(2)
    X = finsite.spectra.visualization_space(N2, "weak")
    image = set(visualization_map(localize(N2, N2.index("T")).to_local,
                                  "weak").images)
    assert len(image) == 1 and X.is_closed(frozenset(image))
    assert frozenset(image) not in X.opens


def test_product_spectrum_is_the_disjoint_union_of_the_factors():
    # ROADMAP item 14: in every visualization the projections R x S -> R
    # and R x S -> S induce open embeddings of the factors' spaces whose
    # images are disjoint and cover the product's space
    checks = 0
    for (_, R), (_, S) in itertools.product(catalog(), repeat=2):
        if R.n * S.n > 12:
            continue
        P = product_semiring(R, S)
        projections = (SemiringHom(P, R, tuple(i // S.n for i in range(P.n))),
                       SemiringHom(P, S, tuple(i % S.n for i in range(P.n))))
        for vis in VISUALIZATIONS:
            left, right = (visualization_map(p, vis) for p in projections)
            assert left.is_open_embedding(), (P, vis)
            assert right.is_open_embedding(), (P, vis)
            assert not set(left.images) & set(right.images), (P, vis)
            assert set(left.images) | set(right.images) \
                == set(range(left.target.n)), (P, vis)
            checks += 1
    assert checks == 220


def _components(R, vis) -> int:
    """How many connected components the space of R in visualization vis
    has: classes of the points its specialization order joins."""
    X = finsite.spectra.visualization_space(R, vis)
    return len(set(_partition(X.n, [(x, y) for x in range(X.n)
                                     for y in range(X.n)
                                     if X.above[x] >> y & 1])))


def _idempotent_atoms(R) -> list[int]:
    """The atoms of the Boolean algebra of complemented idempotents of R:
    the e != 0 with e*e == e and some f with e + f == 1 and e*f == 0,
    above no other such element but 0 (d <= e iff d*e == d)."""
    complemented = [e for e in range(R.n) if R.mul[e][e] == e and any(
        R.add[e][f] == R.one and R.mul[e][f] == R.zero for f in range(R.n))]
    return [e for e in complemented if e != R.zero and all(
        d in (R.zero, e) for d in complemented if R.mul[d][e] == d)]


def test_prime_spectrum_components_are_the_idempotent_atoms():
    # ROADMAP item 14, Pierce decomposition: R is the product of the
    # corners eR at the atoms e, and Spec R their disjoint union
    B5 = functools.reduce(product_semiring, [boolean()] * 5)
    for R in [R for R in census_upto(5) if R.n > 1] + [
            zmod(30), zmod(36), zmod(60), B5]:
        assert _components(R, "prime") == len(_idempotent_atoms(R)), R
    assert len(_idempotent_atoms(B5)) == 5
    # the k and weak spaces split where the prime spectrum does not
    split = [i for i, R in enumerate(census(5))
             if _components(R, "prime") == 1
             and _components(R, "k") == _components(R, "weak") == 2]
    assert split == [37, 67, 132, 165]



def test_quotient_points_pull_back_to_the_points_above_the_congruence():
    # ROADMAP item 14, quotients: pulling back along R -> R/c is a bijection
    # from the flavor-prime congruences of R/c onto those of R containing c
    cases = 0
    for R in census_upto(5):
        for c in enumerate_congruences(R):
            Q, proj = quotient(R, c)
            for flavor in FLAVORS:
                pulled = [congruence_pullback(proj, q).blocks
                          for q in prime_congruences(Q, flavor)]
                above = [p.blocks for p in prime_congruences(R, flavor)
                         if c <= p]
                assert len(set(pulled)) == len(pulled), (R, c, flavor)
                assert set(pulled) == set(above), (R, c, flavor)
                cases += 1
    assert cases == 5691

def test_spectrum_report_enumerates_congruences_once(enumerations):
    for name, R in catalog():
        spectrum_report(R)
        assert enumerations[R] == 1, name


def test_derived_record_is_invisible():
    R = zmod(6)
    before = repr(R)
    spectrum_report(R)
    localize(R, 2)
    fresh = validate_semiring(R.elements, R.add, R.mul, R.zero, R.one)
    assert R == fresh and hash(R) == hash(fresh)
    assert repr(R) == before == repr(fresh)
    assert prime_spectrum(R) is prime_spectrum(R)
    assert localize(R, 2) is localize(R, 2)
    for listing in (enumerate_congruences, enumerate_ideals,
                    lambda S: prime_congruences(S, "weak")):
        got = listing(R)
        expected = list(got)
        got.append(got.pop(0))
        got.append(None)
        assert listing(R) == expected


def test_spectrum_report_is_deterministic():
    a = json.dumps(spectrum_report(zmod(6)), sort_keys=False)
    b = json.dumps(spectrum_report(zmod(6)), sort_keys=False)
    assert a == b
    rep = spectrum_report(truncated_naturals(2))
    assert rep["prime_count"] == 2
    assert rep["k_prime_count"] == 1
    assert rep["kernel_map_surjective"] is True
    assert list(rep)[:4] == ["elements", "ideal_count", "k_ideal_count",
                             "prime_count"]

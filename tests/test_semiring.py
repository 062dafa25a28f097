"""Core semiring machinery against independent brute-force oracles."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite.catalog import (boolean, boolean_pair, catalog, chain,
                             truncated_naturals, zmod)
import finsite.semiring
from finsite.semiring import (AxiomError, Congruence, InvariantError,
                              SemiringError, SemiringHom, TableError,
                              congruence_closure, diagonal_congruence,
                              enumerate_congruences, enumerate_homs,
                              find_isomorphism, hom_kernel, hom_violation,
                              is_finite_localization, localize,
                              product_semiring, validate_semiring)

from oracles import (all_partitions, are_isomorphic, identity_hom,
                     oracle_congruences, oracle_extend,
                     oracle_finite_localization, oracle_homs,
                     oracle_is_semiring, oracle_isomorphic,
                     oracle_localization, oracle_stable_partition, quotient,
                     search_finite_localization, total_congruence, trivial)

CATALOG = catalog()


# ---------------------------------------------------------------------------
# Validation


def test_catalog_validates():
    for name, R in CATALOG:
        assert validate_semiring(R.elements, R.add, R.mul, R.zero, R.one) == R


def test_trivial_semiring_is_legal():
    T = trivial()
    assert T.n == 1 and T.zero == T.one


def test_b_with_twisted_addition_is_the_two_element_field():
    # Perturbing B's 1+1 entry to 0 yields exactly Z/2: a valid semiring.
    # The independent oracle agrees, so the validator must accept it.
    tables = (("0", "1"), ((0, 1), (1, 0)), ((0, 0), (0, 1)), 0, 1)
    assert oracle_is_semiring(*tables)
    R = validate_semiring(*tables)
    assert are_isomorphic(R, zmod(2))


def test_named_axiom_failures():
    # break annihilation/identity: 0*1 = 1
    with pytest.raises(AxiomError) as err:
        validate_semiring(("0", "1"), ((0, 1), (1, 1)), ((0, 1), (1, 1)), 0, 1)
    assert err.value.axiom in ("annihilation", "multiplicative-identity")
    assert err.value.witness
    # break additive identity: 0+1 = 0
    with pytest.raises(AxiomError) as err:
        validate_semiring(("0", "1"), ((0, 0), (1, 1)), ((0, 0), (0, 1)), 0, 1)
    assert err.value.axiom in ("additive-identity", "additive-commutativity")
    # break distributivity in N2 by editing T*T to 1
    N2 = truncated_naturals(2)
    mul = [list(r) for r in N2.mul]
    mul[2][2] = 1
    with pytest.raises(AxiomError) as err:
        validate_semiring(N2.elements, N2.add, mul, 0, 1)
    assert not oracle_is_semiring(N2.elements, N2.add,
                                  tuple(tuple(r) for r in mul), 0, 1)


def test_malformed_tables():
    with pytest.raises(TableError):
        validate_semiring(("0", "1"), ((0, 1),), ((0, 0), (0, 1)), 0, 1)
    with pytest.raises(TableError):
        validate_semiring(("0", "0"), ((0, 1), (1, 1)), ((0, 0), (0, 1)), 0, 1)
    with pytest.raises(TableError):
        validate_semiring(("0", "1"), ((0, 1), (1, 2)), ((0, 0), (0, 1)), 0, 1)


def test_validator_agrees_with_oracle_on_all_two_element_tables():
    # the full space of 2-element tables: 2^4 * 2^4 * 2 * 2 candidates
    labels = ("0", "1")
    cells = list(itertools.product((0, 1), repeat=4))
    for add_c in cells:
        add = ((add_c[0], add_c[1]), (add_c[2], add_c[3]))
        for mul_c in cells:
            mul = ((mul_c[0], mul_c[1]), (mul_c[2], mul_c[3]))
            for zero in (0, 1):
                for one in (0, 1):
                    expected = oracle_is_semiring(labels, add, mul, zero, one)
                    try:
                        validate_semiring(labels, add, mul, zero, one)
                        got = True
                    except AxiomError:
                        got = False
                    assert got == expected, (add, mul, zero, one)


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 4), st.data())
def test_validator_agrees_with_oracle_on_random_tables(n, data):
    labels = tuple(str(i) for i in range(n))
    add = tuple(tuple(data.draw(st.integers(0, n - 1)) for _ in range(n))
                for _ in range(n))
    mul = tuple(tuple(data.draw(st.integers(0, n - 1)) for _ in range(n))
                for _ in range(n))
    expected = oracle_is_semiring(labels, add, mul, 0, 1)
    try:
        validate_semiring(labels, add, mul, 0, 1)
        got = True
    except AxiomError:
        got = False
    assert got == expected


# ---------------------------------------------------------------------------
# Homs


def test_hom_enumeration_matches_oracle_on_catalog_pairs():
    small = [(n, R) for n, R in CATALOG if R.n <= 4] + [("trivial", trivial())]
    for (_, A), (_, B) in itertools.product(small, repeat=2):
        got = [h.images for h in enumerate_homs(A, B)]
        assert got == sorted(oracle_homs(A, B))
        assert len(set(got)) == len(got)
        for h in enumerate_homs(A, B):
            assert hom_violation(h) is None


def test_frozen_hom_counts():
    assert len(enumerate_homs(boolean(), zmod(6))) == 0
    assert len(enumerate_homs(boolean(), boolean())) == 1
    assert len(enumerate_homs(boolean_pair(), boolean())) == 2
    assert len(enumerate_homs(truncated_naturals(3), truncated_naturals(2)))== 1
    assert len(enumerate_homs(truncated_naturals(2), truncated_naturals(3)))== 0
    assert len(enumerate_homs(boolean(), trivial())) == 1
    assert len(enumerate_homs(trivial(), boolean())) == 0


def test_homs_out_of_z6():
    # Z/6 is Z/2 x Z/3, so it retracts onto both factors
    Z6 = zmod(6)
    assert len(enumerate_homs(Z6, zmod(2))) == 1
    assert len(enumerate_homs(Z6, zmod(3))) == 1
    assert len(enumerate_homs(Z6, Z6)) == len(oracle_homs(Z6, Z6))


def test_iso_search_agrees_with_permutation_oracle():
    reps = [R for _, R in CATALOG if R.n <= 4] + [trivial()]
    for A in reps:
        for B in reps:
            assert are_isomorphic(A, B) == oracle_isomorphic(A, B)


def test_product_projections_are_homs():
    P = boolean_pair()
    B = boolean()
    pr1 = SemiringHom(P, B, tuple(i // 2 for i in range(4)))
    pr2 = SemiringHom(P, B, tuple(i % 2 for i in range(4)))
    assert hom_violation(pr1) is None and hom_violation(pr2) is None


# ---------------------------------------------------------------------------
# Congruences and quotients


def test_congruence_enumeration_matches_partition_filter():
    for name, R in CATALOG:
        got = [c.blocks for c in enumerate_congruences(R)]
        expected = sorted(oracle_congruences(R))
        assert got == expected, name


def test_frozen_congruence_counts():
    counts = {name: len(enumerate_congruences(R)) for name, R in CATALOG}
    assert counts == {"B": 2, "BxB": 4, "Z2": 2, "Z3": 2, "Z6": 4,
                      "N2": 3, "N3": 4, "chain4": 8}


def test_congruence_closure_is_smallest():
    for name, R in CATALOG:
        if R.n > 4:
            continue
        all_congs = [c for c in all_partitions(R.n)
                     if oracle_stable_partition(R, c)]
        for a in range(R.n):
            for b in range(a + 1, R.n):
                got = congruence_closure(R, [(a, b)]).blocks
                best = [c for c in all_congs if c[a] == c[b]]
                smallest = min(best, key=lambda c: -len(set(c)))
                assert len(set(got)) == len(set(smallest))
                assert got in all_congs and got[a] == got[b]


def test_quotient_z6_by_mod3_blocks_is_z3():
    Z6 = zmod(6)
    c = congruence_closure(Z6, [(0, 3)])
    assert c.blocks == (0, 1, 2, 0, 1, 2)
    Q, proj = quotient(Z6, c)
    assert Q.n == 3
    assert oracle_isomorphic(Q, zmod(3))
    assert hom_violation(proj) is None and proj.is_surjective()


def test_quotient_rejects_unstable_partition():
    Z6 = zmod(6)
    bad = Congruence(Z6, (0, 0, 1, 2, 3, 4))
    with pytest.raises(AxiomError) as err:
        quotient(Z6, bad)
    assert err.value.axiom == "congruence-stability"


def test_quotient_then_hom_factorization():
    # any hom whose kernel refines c factors uniquely through R/c
    for name, R in CATALOG:
        if R.n > 4:
            continue
        for c in enumerate_congruences(R):
            Q, proj = quotient(R, c)
            for _, T in CATALOG:
                if T.n > 4:
                    continue
                for h in enumerate_homs(R, T):
                    if all(h(a) == h(b) for a, b in c.pairs()):
                        lifts = [g for g in enumerate_homs(Q, T)
                                 if g.compose(proj).images == h.images]
                        assert len(lifts) == 1, (name, c.blocks)


def test_hom_kernel_is_congruence():
    for _, A in CATALOG:
        if A.n > 4:
            continue
        for _, B in CATALOG:
            if B.n > 4:
                continue
            for h in enumerate_homs(A, B):
                k = hom_kernel(h)
                assert oracle_stable_partition(A, k.blocks)


# ---------------------------------------------------------------------------
# Localization


def test_localize_at_one_is_isomorphism():
    for name, R in CATALOG:
        loc = localize(R, R.one)
        assert loc.to_local.is_bijective(), name
        assert hom_violation(loc.to_local) is None


def test_localize_at_zero_is_trivial():
    for name, R in CATALOG:
        loc = localize(R, R.zero)
        assert loc.semiring.n == 1, name


def test_localize_z6_at_two_is_z3():
    Z6 = zmod(6)
    loc = localize(Z6, 2)
    assert loc.semiring.n == 3
    assert oracle_isomorphic(loc.semiring, zmod(3))
    lam = loc.to_local
    # 2 maps to a unit
    assert loc.semiring.inverse_of(lam(2)) is not None
    # kernel blocks are the mod-3 classes
    assert hom_kernel(lam).blocks == (0, 1, 2, 0, 1, 2)


def test_localize_pair_class_law():
    # the pair (a, p) ~ (b, q) iff r*q*a == r*p*b for some power r;
    # spot-check the oracle's classes on Z/6 at 2, then the corner e*Z/6
    # (e == 4) the package puts behind them
    Z6 = zmod(6)
    pairs = oracle_localization(Z6, 2).class_of
    assert sorted({p for _, p in pairs}) == [1, 2, 4]
    assert pairs[(1, 2)] == pairs[(2, 1)]   # 1/2 == 2 since 2*2 == 1 mod 3
    assert pairs[(3, 1)] == pairs[(0, 1)]   # 3 dies
    assert pairs[(1, 1)] != pairs[(2, 1)]
    assert localize(Z6, 2).corner == (0, 4, 2)


def localization_pool():
    """The catalog, small families, products and quotients.  Z/m with a
    long cycle of units (m = 19, 21..23, 25..29) is left out: the pair-class
    oracle alone takes about 35 s on those."""
    cat = [R for _, R in CATALOG]
    pool = cat + [zmod(m) for m in (*range(2, 19), 20, 24, 30)]
    pool += [chain(k) for k in range(2, 9)]
    pool += [truncated_naturals(t) for t in range(1, 8)]
    pool += [product_semiring(A, B) for A, B in [
        (boolean(), zmod(3)), (zmod(2), zmod(3)), (chain(3), zmod(2)),
        (truncated_naturals(2), boolean()), (zmod(4), chain(2)),
        (zmod(3), zmod(3))]]
    for R in cat + [zmod(12), zmod(8), chain(4), truncated_naturals(4)]:
        pool += [quotient(R, c)[0] for c in enumerate_congruences(R)]
    return pool


def assert_localizations_match_oracle(R):
    for h in range(R.n):
        loc, want = localize(R, h), oracle_localization(R, h)
        L = loc.semiring
        assert (L.elements, L.add, L.mul, L.zero, L.one) == (
            want.elements, want.add, want.mul, want.zero, want.one), (R, h)
        assert loc.to_local.images == want.to_local, (R, h)


def outcome(extension):
    """The images `extension()` returns, or the class of its error."""
    try:
        return extension()
    except SemiringError as e:
        return type(e)


def assert_extensions_match_oracle(R, targets):
    for T in targets:
        for g in enumerate_homs(R, T):
            assert is_finite_localization(g) == oracle_finite_localization(g)
            for x in range(R.n):
                loc, want = localize(R, x), oracle_localization(R, x)
                assert outcome(lambda: loc.extend(g).images) == outcome(
                    lambda: oracle_extend(want, g)), (R, x, g)


def test_localize_matches_pair_class_oracle():
    for R in localization_pool():
        assert_localizations_match_oracle(R)


def test_extend_matches_pair_class_oracle():
    targets = [R for _, R in CATALOG]
    for R in localization_pool():
        if R.n <= 6:
            assert_extensions_match_oracle(R, targets)


@st.composite
def catalog_built(draw):
    """A quotient of a catalog entry, or the product of two such."""
    def factor():
        _, R = draw(st.sampled_from(CATALOG))
        return quotient(R, draw(st.sampled_from(enumerate_congruences(R))))[0]

    R = factor()
    return product_semiring(R, factor()) if draw(st.booleans()) else R


@settings(max_examples=30, deadline=None)
@given(catalog_built(), st.sampled_from(CATALOG))
def test_localization_of_built_semirings_matches_oracle(R, target):
    assert_localizations_match_oracle(R)
    assert_extensions_match_oracle(R, [target[1]])


def test_localization_self_checks_are_invariants(monkeypatch):
    # to_local is a hom by construction, so a failed check is a bug
    monkeypatch.setattr(finsite.semiring, "hom_violation",
                        lambda h: ("add", (0, 0)))
    with pytest.raises(InvariantError):
        finsite.semiring._localization(zmod(6), 2)


def test_localize_iterated_equals_direct():
    # (R[1/g])[1/g] is R[1/g] again, via the image of g
    for name, R in CATALOG:
        for g in range(R.n):
            loc = localize(R, g)
            again = localize(loc.semiring, loc.to_local(g))
            assert again.to_local.is_bijective(), (name, g)


def test_localization_universal_property():
    Z6 = zmod(6)
    loc = localize(Z6, 2)
    # Z/6 -> Z/3 sending 1 to 1 makes 2 invertible, so it factors
    g = enumerate_homs(Z6, zmod(3))[0]
    induced = loc.extend(g)
    assert induced.compose(loc.to_local).images == g.images
    assert induced.is_bijective()


def test_finite_localization_kernel_test_matches_search():
    bench = ([R for _, R in CATALOG] + [zmod(m) for m in (4, 8, 10, 12)]
             + [chain(3), truncated_naturals(4)])
    homs = [g for A in bench for B in bench for g in enumerate_homs(A, B)]
    assert len(homs) > 50
    for g in homs:
        assert is_finite_localization(g) == search_finite_localization(g), g


def test_is_finite_localization_flags():
    Z6 = zmod(6)
    loc = localize(Z6, 2)
    assert is_finite_localization(loc.to_local) is not None
    # the quotient Z/6 -> Z/2 is a localization at 3 (3 becomes 1 there)
    h = enumerate_homs(Z6, zmod(2))[0]
    assert is_finite_localization(h) is not None
    # B -> trivial is localization at 0
    t = enumerate_homs(boolean(), trivial())[0]
    assert is_finite_localization(t) == 0
    # the inclusion-like hom Z/2 -> Z/2 is a localization at 1
    assert is_finite_localization(identity_hom(zmod(2))) == 1


def test_localization_labels_readable():
    loc = localize(zmod(6), 2)
    assert set(loc.semiring.elements) == {"0", "1", "2"}

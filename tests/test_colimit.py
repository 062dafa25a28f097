import ast
import itertools
from pathlib import Path

import pytest

import finsite
from finsite.catalog import (boolean, boolean_pair, catalog, chain,
                             truncated_naturals, zmod)
from finsite.colimit import colimit as set_colimit
from finsite.semiring import (BudgetExceeded, TableError, congruence_closure,
                              enumerate_homs, find_isomorphism, hom_violation,
                              localize, product_semiring)
from oracles import (SemiringDiagram, colimit, identity_hom, oracle_pushout,
                     pushout, quotient, tensor, trivial)


def small_bench():
    return [("B", boolean()), ("Z2", zmod(2)), ("Z3", zmod(3)),
            ("N2", truncated_naturals(2)), ("chain3", chain(3)),
            ("triv", trivial()), ("BxB", boolean_pair()), ("Z6", zmod(6))]


def test_coproduct_satisfies_universal_property_by_hom_count():
    # Hom(A (+) B, C) must biject with Hom(A, C) x Hom(B, C); counting both
    # sides with the independently tested hom enumerator checks the object
    # without trusting the construction
    targets = [boolean(), zmod(6), truncated_naturals(2), boolean_pair()]
    for (an, A), (bn, B) in itertools.product(small_bench(), repeat=2):
        T, inj_a, inj_b = tensor(A, B)
        for C in targets:
            lhs = len(enumerate_homs(T, C))
            rhs = len(enumerate_homs(A, C)) * len(enumerate_homs(B, C))
            assert lhs == rhs, (an, bn, C.elements)


def test_coproduct_injections_are_homs_and_commute_with_labels():
    for (_, A), (_, B) in itertools.product(small_bench(), repeat=2):
        T, inj_a, inj_b = tensor(A, B)
        assert hom_violation(inj_a) is None
        assert hom_violation(inj_b) is None
        assert inj_a(A.zero) == T.zero and inj_a(A.one) == T.one
        assert inj_b(B.zero) == T.zero and inj_b(B.one) == T.one


def test_coproduct_sizes_frozen():
    expected = {
        ("B", "B"): 2,
        ("B", "BxB"): 4,
        ("B", "N2"): 2,
        ("B", "chain3"): 3,
        ("B", "Z2"): 1,
        ("BxB", "BxB"): 16,
        ("BxB", "chain3"): 9,
        ("N2", "N2"): 3,
        ("N2", "chain3"): 3,
        ("Z2", "Z2"): 2,
        ("Z2", "Z3"): 1,
        ("Z2", "Z6"): 2,
        ("Z3", "Z6"): 3,
        ("Z6", "Z6"): 6,
        ("chain3", "chain3"): 6,
        ("triv", "Z6"): 1,
    }
    bench = dict(small_bench())
    for (an, bn), size in expected.items():
        T, _, _ = tensor(bench[an], bench[bn])
        assert T.n == size, (an, bn)


def test_coproduct_is_symmetric_in_size():
    bench = small_bench()
    for (an, A), (bn, B) in itertools.product(bench, repeat=2):
        assert tensor(A, B)[0].n == tensor(B, A)[0].n


def test_coproduct_of_rings_collapses_additive_inverses():
    T, _, _ = tensor(zmod(6), zmod(6))
    assert find_isomorphism(T, zmod(6)) is not None
    T, _, _ = tensor(zmod(2), zmod(3))
    assert T.n == 1
    T, _, _ = tensor(zmod(2), zmod(6))
    assert find_isomorphism(T, zmod(2)) is not None


def test_coproduct_with_boolean_forces_idempotent_addition():
    T, _, _ = tensor(boolean(), truncated_naturals(2))
    assert find_isomorphism(T, boolean()) is not None
    T, _, _ = tensor(boolean(), chain(3))
    assert find_isomorphism(T, chain(3)) is not None


def test_coproduct_is_deterministic():
    a = tensor(truncated_naturals(3), chain(4))
    b = tensor(truncated_naturals(3), chain(4))
    assert a[0] == b[0]
    assert a[1].images == b[1].images
    assert a[2].images == b[2].images


def test_span_of_localizations_is_localization_at_product():
    # R[g^-1] <- R -> R[h^-1] has the same pushout as inverting g*h at once
    for name, R in catalog():
        for g, h in itertools.combinations_with_replacement(range(R.n), 2):
            lg, lh = localize(R, g), localize(R, h)
            res = pushout(lg.to_local, lh.to_local)
            direct = localize(R, R.mul[g][h])
            assert find_isomorphism(res.semiring, direct.semiring) is not None, \
                (name, R.elements[g], R.elements[h])
            # the quotient steps agree with the coproduct route they replace
            expected = oracle_pushout(lg.to_local, lh.to_local)
            assert find_isomorphism(res.semiring, expected) is not None, \
                (name, R.elements[g], R.elements[h])


def test_pushout_of_quotient_along_localization_is_localized_quotient():
    Z6 = zmod(6)
    c = congruence_closure(Z6, [(Z6.index("0"), Z6.index("3"))])
    Q, proj = quotient(Z6, c)
    l2 = localize(Z6, Z6.index("2"))
    res = pushout(proj, l2.to_local)
    lq = localize(Q, proj(Z6.index("2")))
    to_target = lq.to_local.compose(proj)
    legs = (to_target, lq.to_local, l2.extend(to_target))
    ind = res.induced_hom(legs, lq.semiring)
    assert ind.is_bijective()


def test_coequalizer_of_identity_pair_is_identity():
    B = boolean()
    d = SemiringDiagram.build((B, B), ((0, 1, identity_hom(B)),
                                       (0, 1, identity_hom(B))))
    r = colimit(d)
    assert r.semiring.n == 2
    assert all(c.is_bijective() for c in r.cocones)


def test_coequalizer_of_the_two_projections_collapses():
    BB, B = boolean_pair(), boolean()
    p1, p2 = enumerate_homs(BB, B)
    d = SemiringDiagram.build((BB, B), ((0, 1, p1), (0, 1, p2)))
    r = colimit(d)
    assert r.semiring.n == 1
    # universal property: maps out of the coequalizer are maps equalizing both
    for C in (boolean(), zmod(6), truncated_naturals(2)):
        lhs = len(enumerate_homs(r.semiring, C))
        rhs = sum(1 for h in enumerate_homs(B, C)
                  if h.compose(p1).images == h.compose(p2).images)
        assert lhs == rhs


def test_single_node_colimit_is_the_node():
    r = colimit(SemiringDiagram.build((zmod(6),), ()))
    assert r.cocones[0].is_bijective()


def test_disconnected_diagram_is_coproduct_of_components():
    # that coproduct is not built: the fold only takes quotients
    for nodes in ((zmod(2), zmod(3)), (boolean(), boolean())):
        with pytest.raises(ValueError, match="disconnected diagram"):
            colimit(SemiringDiagram.build(nodes, ()))


def test_empty_diagram_is_rejected():
    with pytest.raises(ValueError):
        colimit(SemiringDiagram.build((), ()))


def test_budget_stops_runaway_closure():
    with pytest.raises(BudgetExceeded, match="coproduct closure"):
        tensor(zmod(6), zmod(6), budget=10)


def test_diagram_build_rejects_mismatched_arrows():
    B, Z2 = boolean(), zmod(2)
    with pytest.raises(TableError):
        SemiringDiagram.build((B,), ((0, 1, identity_hom(B)),))
    with pytest.raises(TableError):
        SemiringDiagram.build((B, Z2), ((0, 1, identity_hom(B)),))


def test_induced_hom_accepts_cocones_and_rejects_clashes():
    C4, B = chain(4), boolean()
    homs = enumerate_homs(C4, B)
    assert len(homs) == 3
    d = SemiringDiagram.build((C4, C4), ((0, 1, identity_hom(C4)),
                                         (0, 1, identity_hom(C4))))
    r = colimit(d)
    ind = r.induced_hom((homs[0], homs[0]), B)
    assert hom_violation(ind) is None
    # the coequalizer of two identities forces equal legs
    with pytest.raises(TableError):
        r.induced_hom((homs[0], homs[2]), B)


def test_colimit_cocones_commute_with_arrows():
    Z6 = zmod(6)
    l2 = localize(Z6, Z6.index("2"))
    l3 = localize(Z6, Z6.index("3"))
    d = SemiringDiagram.build((Z6, l2.semiring, l3.semiring),
                              ((0, 1, l2.to_local), (0, 2, l3.to_local)))
    r = colimit(d)
    for src, dst, h in d.arrows:
        assert r.cocones[dst].compose(h).images == r.cocones[src].images
    assert r.semiring.n == 1


def test_localizations_are_surjective():
    # the quotient step of the colimit fold rests on this
    for name, R in catalog():
        for s in range(R.n):
            assert localize(R, s).to_local.is_surjective(), \
                (name, R.elements[s])


def test_set_colimit_of_a_zigzag_of_localizations_is_the_fold():
    # R[g^-1] <- R -> R[h^-1] <- R: the union-find puts two laid-out
    # elements in one class exactly when the fold's cocones agree on them
    for name, R in catalog():
        for g, h in itertools.product(range(R.n), repeat=2):
            lg, lh = localize(R, g).to_local, localize(R, h).to_local
            nodes = [lg.target, R, lh.target, R]
            arrows = [(1, 0, lg), (1, 2, lh), (3, 2, lh)]
            offsets, of = set_colimit(nodes, arrows)
            res = colimit(SemiringDiagram.build(nodes, arrows))
            legs = [(offsets[i] + x, c(x)) for i, c in enumerate(res.cocones)
                    for x in range(c.source.n)]
            assert {(a, b) for a, u in legs for b, v in legs
                    if of[a] == of[b]} == \
                {(a, b) for a, u in legs for b, v in legs if u == v}, \
                (name, R.elements[g], R.elements[h])


def test_non_surjective_arrow_takes_the_coproduct_step():
    # B^2 (+)_B B^2 is B^4: neither the diagonal nor the leg it meets is
    # surjective, so the pushout needs a coproduct, which is refused
    B, BB = boolean(), boolean_pair()
    diag, = enumerate_homs(B, BB)
    assert not diag.is_surjective()
    with pytest.raises(ValueError, match="needs a coproduct"):
        pushout(diag, diag)
    expected = oracle_pushout(diag, diag)
    assert find_isomorphism(expected, product_semiring(BB, BB)) is not None


def test_base_change_of_a_localization_matches_the_coproduct_route():
    # a localization is surjective, so its pushout along any hom f folds by
    # quotients alone, dividing f's target when f is not surjective
    entries = catalog()
    non_surjective = 0
    for (name, R), (name2, R2) in itertools.product(entries, repeat=2):
        for f in enumerate_homs(R, R2):
            non_surjective += not f.is_surjective()
            for h in range(R.n):
                to_local = localize(R, h).to_local
                res = pushout(to_local, f)
                expected = oracle_pushout(to_local, f)
                assert find_isomorphism(res.semiring, expected) is not None, \
                    (name, name2, f.images, R.elements[h])
    assert non_surjective > 0


def test_budget_counts_node_tables():
    Z6 = zmod(6)
    l2 = localize(Z6, Z6.index("2"))
    with pytest.raises(BudgetExceeded, match="table size"):
        pushout(l2.to_local, l2.to_local, budget=5)
    assert pushout(l2.to_local, l2.to_local, budget=6).semiring.n == \
        l2.semiring.n


def test_glue_and_colimit_state_invariants_without_assert():
    # `python -O` strips assert statements; every module raises instead
    pkg = Path(finsite.__file__).parent
    modules = sorted(pkg.glob("*.py"))
    assert {"glue.py", "colimit.py"} <= {path.name for path in modules}
    for path in modules:
        tree = ast.parse(path.read_text())
        asserts = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Assert)]
        assert asserts == [], (path.name, asserts)


def test_no_parameter_threads_derived_data():
    # spectra and localizations are read from each semiring's own record;
    # optional parameters carrying them by hand let callers redo the work
    banned = {"Spectrum | None", "Localization | None"}
    pkg = Path(finsite.__file__).parent
    threaded = []
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.arg) and node.annotation is not None
                    and ast.unparse(node.annotation) in banned):
                threaded.append((path.name, node.lineno, node.arg))
    assert threaded == []

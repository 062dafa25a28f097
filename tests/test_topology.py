"""Finite spaces: validation, specialization order, maps, quotients."""

import ast
import re
from collections import defaultdict
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import finsite.colimit
import finsite.locales
import finsite.topology
from finsite.catalog import zmod
from finsite.colimit import descent_verdict, matching_tuples
from finsite.finset import (FinSetError, finset, finset_path_limit,
                            finset_presentation, injection)
from finsite.glue import DiagramPath, GlueError, presentation
from finsite.records import BudgetExceeded, InvariantError
from finsite.semiring import localize
from finsite.topology import (
    ContinuousMap,
    FiniteTopSpace,
    TopologyError,
    continuous_map,
    cover_pairs,
    from_preorder,
    validate_topology,
)

from oracles import (
    disjoint_union,
    kolmogorov_quotient,
    oracle_closure,
    oracle_cover_pairs,
    oracle_discontinuities,
    oracle_disjoint_union_opens,
    oracle_generated_opens,
    oracle_interior,
    oracle_is_open_embedding,
    oracle_matching_tuples,
    oracle_min_open,
    oracle_preimage,
    oracle_reflexive_transitive,
    oracle_subspace_opens,
    oracle_t0_classes,
    order_matrix,
    order_rows,
    quotient_space,
    subspace,
)


def sierpinski():
    # generic point g is open, c is the closed point
    return validate_topology(("g", "c"), [set(), {0}, {0, 1}])


def space_from_opens(points, opens):
    """The space a family of opens generates, through the closure oracle."""
    return validate_topology(points,
                             oracle_generated_opens(len(points), opens))


def chain_space(n):
    leq = [[j == i + 1 for j in range(n)] for i in range(n)]
    return from_preorder(tuple(f"x{i}" for i in range(n)), order_rows(leq))


def discrete(labels):
    k = len(labels)
    return from_preorder(tuple(labels), [0] * k)


def oracle_quotient_opens(X, proj, k):
    """All subsets of the quotient whose preimage is open."""
    out = set()
    for r in range(k + 1):
        for u in combinations(range(k), r):
            pre = frozenset(x for x in range(X.n) if proj[x] in u)
            if pre in X.opens:
                out.add(frozenset(u))
    return out


def oracle_homeomorphic(X, Y):
    """Search for a relabeling that matches the open families."""
    if X.n != Y.n or len(X.opens) != len(Y.opens):
        return False
    for perm in permutations(range(Y.n)):
        if {frozenset(perm[x] for x in u) for u in X.opens} == set(Y.opens):
            return True
    return False


def test_validation_rejects_bad_families():
    with pytest.raises(TopologyError):
        validate_topology(("a", "b"), [{0}, {0, 1}])  # no empty set
    with pytest.raises(TopologyError):
        validate_topology(("a", "b"), [set(), {0}])  # no full set
    with pytest.raises(TopologyError):
        validate_topology(("a", "b", "c"),
                          [set(), {0}, {1}, {0, 1, 2}])  # missing union
    # the witness is the first failing pair in sorted_opens order, which
    # is not the order of the masks in a set
    with pytest.raises(TopologyError, match=re.escape(
            "opens not closed under union: [1] | [3]")):
        validate_topology("abcd", [{0, 1, 2, 3}, {3}, {1}, set()])
    with pytest.raises(TopologyError, match=re.escape(
            "opens not closed under intersection: [0, 2] & [0, 1, 3]")):
        validate_topology("abcd", [{0, 1, 2, 3}, {0, 1, 3}, {0, 2}, set()])
    with pytest.raises(TopologyError):
        validate_topology(("a", "a"), [set(), {0, 1}])  # duplicate label
    with pytest.raises(TopologyError):
        validate_topology(("a",), [set(), {0, 5}])  # unknown point


def test_space_from_opens_closes_the_family():
    X = space_from_opens(("a", "b", "c"), [{0}, {1}])
    assert X.is_open({0, 1})
    assert X.is_open(set())
    assert X.is_open({0, 1, 2})
    assert not X.is_open({2})


def test_sierpinski_specialization_and_closure():
    S = sierpinski()
    assert oracle_t0_classes(S) == [0, 1]
    leq = order_matrix(S.above)
    assert leq[0][1] and not leq[1][0]
    assert oracle_closure(S, {0}) == {0, 1}
    assert oracle_closure(S, {1}) == {1}
    assert S.interior({1}) == frozenset()
    assert S.min_open(1) == {0, 1}


def test_from_preorder_round_trips_specialization():
    for X in [sierpinski(), chain_space(3), discrete("abc")]:
        Y = from_preorder(X.points, X.above)
        assert Y.opens == X.opens


def test_from_preorder_refuses_rows_that_do_not_fit():
    with pytest.raises(TopologyError, match="order rows do not fit 2 points"):
        from_preorder(("a", "b"), [0b11])  # one row for two points
    with pytest.raises(TopologyError, match="order rows do not fit 2 points"):
        from_preorder(("a", "b"), [0b01, 0b110])  # bit 2 of a 2-point order


def test_order_cache_is_invisible():
    C = chain_space(3)
    fresh = validate_topology(C.points, C.opens)
    before = repr(C)
    assert oracle_closure(C, {1}) == {1, 2}  # lists, and so keeps, C's opens
    assert C == fresh
    assert hash(C) == hash(fresh)
    assert repr(C) == before


def test_preorder_cycle_collapses_to_indiscrete_cluster():
    I = from_preorder(("a", "b"), order_rows([[True, True], [True, True]]))
    assert I.opens == {frozenset(), frozenset({0, 1})}
    assert oracle_t0_classes(I) == [0, 0]
    K, pi = kolmogorov_quotient(I)
    assert K.n == 1
    assert pi.images == (0, 0)


def test_chain_irreducibles_and_generic_points():
    C = chain_space(3)
    assert C.sorted_opens() == [frozenset(), frozenset({0}),
                                frozenset({0, 1}), frozenset({0, 1, 2})]
    assert C.irreducible_closed_sets() == [frozenset({2}), frozenset({1, 2}),
                                           frozenset({0, 1, 2})]
    assert C.generic_points({0, 1, 2}) == [0]
    assert C.generic_points({1, 2}) == [1]


def test_discrete_space_has_all_subsets_open():
    D = discrete("abcd")
    assert len(D.opens) == 16
    assert oracle_t0_classes(D) == [0, 1, 2, 3]
    assert D.irreducible_closed_sets() == [frozenset({0}), frozenset({1}),
                                           frozenset({2}), frozenset({3})]


def test_opens_listing_stops_past_the_element_budget():
    # 13 incomparable points have 8,192 down-sets, 14 have 16,384
    def antichain(n):
        return FiniteTopSpace(tuple(f"p{i}" for i in range(n)),
                              tuple(1 << i for i in range(n)))
    assert len(antichain(13).open_masks) == 8192
    with pytest.raises(BudgetExceeded) as e:
        antichain(14).open_masks
    assert str(e.value) == ("opens listing: a space of 14 points has at "
                            "least 16384 opens, over the element budget "
                            "10000")


def test_specialization_dot_lists_covers_only():
    dot = chain_space(3).specialization_dot()
    assert '"x1" -> "x0";' in dot
    assert '"x2" -> "x1";' in dot
    assert '"x2" -> "x0";' not in dot  # not a covering pair


def test_continuous_map_rejects_discontinuity():
    S = sierpinski()
    continuous_map(S, S, (0, 1))
    with pytest.raises(TopologyError):
        continuous_map(S, S, (1, 0))


def test_constant_maps_are_continuous():
    S = sierpinski()
    assert continuous_map(chain_space(3), S, (1, 1, 1)).is_continuous()
    assert continuous_map(chain_space(3), S, (0, 0, 0)).is_continuous()
    # sending the generic point closed and the closed point generic breaks
    with pytest.raises(TopologyError):
        continuous_map(chain_space(2), S, (1, 0))


def test_homeomorphism_detection_matches_permutation_oracle():
    S = sierpinski()
    flipped = validate_topology(("c", "g"), [set(), {1}, {0, 1}])
    assert oracle_homeomorphic(S, flipped)
    m = continuous_map(S, flipped, (1, 0))
    assert m.is_homeomorphism()
    assert not oracle_homeomorphic(S, discrete("xy"))


def test_subspace_opens_are_traces():
    C = chain_space(3)
    Sub, incl = subspace(C, {0, 2})
    assert Sub.opens == {frozenset(), frozenset({0}), frozenset({0, 1})}
    assert incl.is_continuous()
    assert incl.is_injective()
    assert not incl.is_open_embedding()  # {0,2} is not open in the chain
    Op, incl2 = subspace(C, {0, 1})
    assert incl2.is_open_embedding()


def test_disjoint_union_embeds_both_pieces():
    S = sierpinski()
    X, (i0, i1) = disjoint_union([S, S], prefixes=["L", "R"])
    assert X.points == ("L:g", "L:c", "R:g", "R:c")
    assert len(X.opens) == 9
    assert i0.is_open_embedding()
    assert i1.is_open_embedding()


def test_wedge_of_sierpinskis_keeps_generics_open():
    S = sierpinski()
    X, _ = disjoint_union([S, S])
    Q, pi = quotient_space(X, [(1, 3)])
    assert Q.n == 3
    assert Q.is_open({pi(0)})
    assert Q.is_open({pi(2)})
    assert not Q.is_open({pi(1)})


def test_quotient_labels_must_name_every_class():
    X = discrete("xy")
    for labels in (("a",), ("a", "b", "c")):
        with pytest.raises(TopologyError, match="labels for 2 classes"):
            quotient_space(X, [], labels)
    Q, pi = quotient_space(X, [(0, 1)], ("a",))
    assert Q.points == ("a",) and pi.images == (0, 0)


def test_kolmogorov_quotient_is_t0_and_idempotent():
    I = from_preorder(("a", "b", "c"),
                      order_rows([[True, True, False], [True, True, False],
                                  [False, False, False]]))
    K, pi = kolmogorov_quotient(I)
    assert oracle_t0_classes(K) == [0, 1]
    K2, pi2 = kolmogorov_quotient(K)
    assert K2.n == K.n
    assert pi2.is_homeomorphism()


def test_compose_and_identity():
    C = chain_space(3)
    S = sierpinski()
    f = continuous_map(C, S, (0, 0, 1))
    ident = continuous_map(C, C, (0, 1, 2))
    assert f.compose(ident).images == f.images
    assert ident.is_homeomorphism()


def subsets(n):
    return st.frozensets(st.integers(0, n - 1)) if n else st.just(frozenset())


@st.composite
def spaces_and_opens(draw, max_points=6):
    """A space on at most max_points points, from a random relation or a
    random subbasis, with its opens found without it: the down-sets of the
    relation's closure by scanning every subset, or the family the
    subbasis generates."""
    n = draw(st.integers(1, max_points))
    labels = tuple(f"p{i}" for i in range(n))
    if draw(st.booleans()):
        edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              max_size=2 * n))
        leq = oracle_reflexive_transitive(n, edges)
        opens = {frozenset(u) for r in range(n + 1)
                 for u in combinations(range(n), r)
                 if all(x in u for y in u for x in range(n) if leq[x][y])}
        return from_preorder(labels, order_rows(
            [[(x, y) in edges for y in range(n)] for x in range(n)])), opens
    opens = oracle_generated_opens(n, draw(st.lists(subsets(n), max_size=6)))
    return validate_topology(labels, opens), opens


def spaces(max_points=6):
    return spaces_and_opens(max_points).map(lambda pair: pair[0])


@settings(max_examples=150, deadline=None)
@given(spaces_and_opens(), spaces(max_points=3), st.data())
def test_order_operations_match_open_set_oracles(space, Y, data):
    X, opens = space
    assert X.opens == opens
    assert len(X.opens) == len(opens)
    assert X.sorted_opens() == sorted(opens,
                                      key=lambda u: (len(u), sorted(u)))
    subset = data.draw(subsets(X.n))
    assert X.is_open(subset) == (subset in opens)
    assert X.is_closed(subset) == (frozenset(range(X.n)) - subset in opens)
    assert not X.is_open(subset | {X.n}) and not X.is_open({-1})
    assert X.interior(subset) == oracle_interior(X, subset)
    for x in range(X.n):
        assert X.min_open(x) == oracle_min_open(X, x)
        assert order_matrix(X.above)[x] == [
            y in oracle_closure(X, {x}) for y in range(X.n)]
    assert X.irreducible_closed_sets() == sorted(
        {oracle_closure(X, {x}) for x in range(X.n)},
        key=lambda c: (len(c), sorted(c)))
    K, pi = kolmogorov_quotient(X)
    assert list(pi.images) == oracle_t0_classes(X)

    S, incl = subspace(X, subset)
    assert S.opens == oracle_subspace_opens(X, subset)
    assert incl.is_open_embedding() == oracle_is_open_embedding(incl)

    # equality and hash follow the points and the open family
    assert (X == Y) == (X.points == Y.points and X.opens == Y.opens)
    same = validate_topology(X.points, opens)
    assert same == X and hash(same) == hash(X)


@st.composite
def quotient_problems(draw):
    """A space and pairs of its points to identify."""
    X = draw(spaces())
    point = st.integers(0, X.n - 1)
    return X, draw(st.lists(st.tuples(point, point), max_size=X.n))


TWO_SIERPINSKIS = disjoint_union([sierpinski(), sierpinski()])[0]


@settings(max_examples=150, deadline=None)
@given(quotient_problems())
@example((chain_space(3), [(0, 2)]))
@example((chain_space(3), [(0, 1)]))
@example((TWO_SIERPINSKIS, [(1, 3)]))
@example((TWO_SIERPINSKIS, [(1, 3), (0, 2)]))
@example((TWO_SIERPINSKIS, [(0, 3)]))
def test_quotient_matches_preimage_oracle(problem):
    X, pairs = problem
    Q, pi = quotient_space(X, pairs)
    assert pi.is_continuous()
    assert pi.is_surjective()
    same = oracle_reflexive_transitive(
        X.n, pairs + [(b, a) for a, b in pairs])
    assert [[pi(x) == pi(y) for y in range(X.n)] for x in range(X.n)] == same
    assert Q.opens == oracle_quotient_opens(X, pi.images, Q.n)


@settings(max_examples=150, deadline=None)
@given(spaces(), spaces(), st.data())
def test_continuity_matches_preimage_oracle(X, Y, data):
    images = data.draw(st.lists(st.integers(0, Y.n - 1),
                                min_size=X.n, max_size=X.n))
    f = ContinuousMap(X, Y, tuple(images))
    bad = f.continuity_violation()
    assert (bad is None) == (not oracle_discontinuities(f))
    if bad is not None:
        assert bad in Y.opens
        assert oracle_preimage(f, bad) not in X.opens
    assert f.is_open_embedding() == oracle_is_open_embedding(f)


@settings(max_examples=60, deadline=None)
@given(spaces(max_points=4), spaces(max_points=3))
def test_disjoint_union_matches_product_oracle(X, Y):
    U, incls = disjoint_union([X, Y])
    assert U.opens == oracle_disjoint_union_opens([X, Y])
    assert all(i.is_open_embedding() for i in incls)


def test_operations_read_the_specialization_order():
    # a finite space is its specialization order: only the listing of its
    # down-sets and the construction check that runs over that listing read
    # opens, and nothing closes a family of opens under a fixpoint loop
    listing = {"opens", "_opens_listed", "open_masks"}
    allowed = {"_opens_listed", "opens", "sorted_opens", "_space_of_order"}
    tree = ast.parse(Path(finsite.topology.__file__).read_text())
    readers = set()
    fixpoints = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and node.attr in listing:
                readers.add(fn.name)
            if isinstance(node, ast.While) and \
                    ast.unparse(node.test) == "changed":
                fixpoints.append(fn.name)
    assert readers <= allowed, sorted(readers - allowed)
    assert fixpoints == []


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                   st.integers(0, max(n - 1, 0))),
                         max_size=2 * n))))
def test_cover_pairs_match_the_between_scan(relation):
    # random preorders: cycles in the relation make them non-T0
    n, pairs = relation
    leq = oracle_reflexive_transitive(n, pairs)
    assert cover_pairs(order_rows(leq)) == oracle_cover_pairs(leq)


def loop_depth(node) -> int:
    """How deep for-loops and comprehension generators nest in node."""
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                         ast.DictComp)):
        # each generator of a comprehension nests inside the one before
        parts = [node.elt] if hasattr(node, "elt") else [node.key, node.value]
        for gen in node.generators:
            parts += [gen.iter, *gen.ifs]
        return len(node.generators) + max(map(loop_depth, parts))
    inner = max(map(loop_depth, ast.iter_child_nodes(node)), default=0)
    return inner + isinstance(node, ast.For)


def test_order_jobs_have_one_routine_each():
    # covering pairs and reflexive-transitive closures are built only in
    # topology's cover_pairs and order_closure; locales reads frames off
    # bitmask up- and down-sets, with no fixpoint loop and no triple scan
    tree = ast.parse(Path(finsite.locales.__file__).read_text())
    assert not any(isinstance(node, ast.While) for node in ast.walk(tree))
    functions = [fn for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef)]
    assert [fn.name for fn in functions if loop_depth(fn) >= 3] == []

    tree = ast.parse(Path(finsite.topology.__file__).read_text())
    functions = {fn.name: fn for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef)}
    # a Warshall step ORs one row into another
    warshall = {name for name, fn in functions.items()
                for node in ast.walk(fn)
                if isinstance(node, ast.AugAssign)
                and isinstance(node.op, ast.BitOr)
                and isinstance(node.target, ast.Subscript)
                and isinstance(node.value, ast.Subscript)}
    assert warshall == {"order_closure"}
    # a between scan nests three loops; glue_along_maps' three loops, in
    # colimit, copy each chart's order into the glued one and close nothing
    assert [name for name, fn in functions.items() if loop_depth(fn) >= 3] \
        == []
    tree = ast.parse(Path(finsite.colimit.__file__).read_text())
    assert {fn.name for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and loop_depth(fn) >= 3} \
        == {"glue_along_maps"}
    calls = {name: {node.func.id for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)}
             for name, fn in functions.items()}
    assert "cover_pairs" in calls["specialization_edges"]
    assert "order_closure" in calls["from_preorder"]


def test_every_space_is_built_from_its_order():
    # one checked construction path: every space in src/finsite comes from
    # its order through _space_of_order, which checks its listed down-sets
    # with _check_family, the check validate_topology runs on the families
    # tests write by hand; these two alone build a FiniteTopSpace, and no
    # module of src/finsite calls or imports validate_topology
    defined, importers = set(), set()
    callers = defaultdict(set)
    for path in Path(finsite.topology.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ImportFrom) and any(
                    alias.name == "validate_topology" for alias in node.names):
                importers.add(path.stem)
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "id", None) or \
                        getattr(node.func, "attr", None)
                    callers[callee].add((path.stem, fn.name))
    assert not defined & {"space_from_opens", "_least_opens"}
    builders = {("topology", "validate_topology"),
                ("topology", "_space_of_order")}
    assert callers["FiniteTopSpace"] == builders
    assert callers["_check_family"] == builders
    assert ("topology", "from_preorder") in callers["_space_of_order"]
    assert callers["validate_topology"] == set()
    assert importers == set()


KEYS = (lambda x: x, lambda x: x % 2, lambda x: x // 2, lambda x: 0,
        lambda x: x * x % 3)


@st.composite
def linked_candidates(draw):
    """Up to four candidate lists, any of them empty, and links between
    any two slots, a slot and itself included."""
    k = draw(st.integers(0, 4))
    candidates = [draw(st.lists(st.integers(0, 4), max_size=4))
                  for _ in range(k)]
    if not k:
        return candidates, []
    slot, key = st.integers(0, k - 1), st.sampled_from(KEYS)
    pairs = draw(st.lists(st.tuples(slot, slot, key, key), max_size=6))
    return candidates, [(min(a, b), max(a, b), ka, kb)
                        for a, b, ka, kb in pairs]


@settings(max_examples=400, deadline=None)
@given(linked_candidates())
def test_matching_tuples_filter_the_product_in_order(problem):
    candidates, links = problem
    assert matching_tuples(candidates, links) == \
        oracle_matching_tuples(candidates, links)


def test_matching_tuples_refuse_backward_links():
    with pytest.raises(InvariantError):
        matching_tuples([[0], [0]], [(1, 0, KEYS[0], KEYS[0])])


def test_descent_verdict_names_the_first_failure():
    families = [("p",), ("q",), ("r",)]
    assert descent_verdict([("a", ("q",)), ("b", ("p",)), ("c", ("r",))],
                           families) == (True, None)
    assert descent_verdict([("a", ("q",)), ("b", ("r",)), ("c", ("q",))],
                           families) == (False, ("not injective", "a", "c"))
    assert descent_verdict([("a", ("r",))], families) == (
        False, ("not surjective", ("p",)))
    with pytest.raises(InvariantError):
        descent_verdict([("a", ("s",))], families)


def _glue_site():
    Z6 = zmod(6)
    loc = localize(Z6, 2)
    P = presentation([("X", Z6), ("U", loc.semiring)],
                     [("U", "X", loc.to_local)])
    return P, GlueError, lambda start, steps: DiagramPath(
        P, start, steps).nodes_visited()


def _finset_site():
    X, U = finset(("x", "y")), finset(("x",))
    P = finset_presentation([("X", X), ("U", U)],
                            [("U", "X", injection(U, X, (0,)))])
    return P, FinSetError, lambda start, steps: finset_path_limit(
        P, start, steps, "opened")


@pytest.mark.parametrize("site", [_glue_site, _finset_site],
                         ids=["glue", "finset"])
def test_both_sites_name_charts_and_refuse_walks_alike(site):
    # each site's presentation is the shared record, and its own walker
    # (a diagram path's visits, a walk limit) refuses through `walk`
    P, error, walk = site()
    assert isinstance(P, finsite.topology._Presentation)
    assert [P.node(name) for name in P.names] == [0, 1]
    with pytest.raises(error, match="^no chart named 'C'$"):
        P.node("C")
    assert P.walk(1, ((0, True),)) == (1, 0)
    assert P.walk(0, ((0, False), (0, True))) == (0, 1, 0)
    walk(1, ((0, True), (0, False)))
    for start, steps, message in (
            (-1, (), "walk starts at unknown chart -1"),
            (2, (), "walk starts at unknown chart 2"),
            (0, ((99, True),), "walk steps along unknown arrow 99"),
            (0, ((-1, True),), "walk steps along unknown arrow -1"),
            (0, ((0, True),), "walk step does not start where the walk "
                              "stands")):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            walk(start, steps)

"""End-to-end acceptance sweep.

Each test covers one numbered criterion, prints a single pass or fail
line for it, and enforces the stated time budget where one applies.
Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import finsite
from finsite.catalog import boolean, boolean_pair, catalog, zmod
from finsite.checks import bundled_catalog_dir
from finsite.finset import (
    asc,
    face_injection,
    face_label,
    face_space,
    finset,
    is_jointly_surjective,
    monodromy_wedge_counterexample,
    simplex_space,
    subcanonicity_sweep,
)
from finsite.finset import sheaf_axiom_check as finset_sheaf_check
from finsite.formats import parse_semiring, read_semiring, render_semiring
from finsite.glue import (
    GlueError,
    affine_glue_check,
    glue_space,
    glued_chain,
    is_monodromy_free,
    presentation,
)
from finsite.locales import is_sober, spatiality_check
from finsite.semiring import (
    AxiomError,
    FiniteSemiring,
    SemiringHom,
    hom_violation,
    localize,
)
from finsite.site import (
    cover_family,
    covers,
    intrinsic_order_check,
    lambda_X,
    principal_sections_iso,
    sheaf_axiom_check,
    structure_sheaf_sections,
    theorem_A_check,
)
from finsite.spectra import (
    k_spectrum,
    kernel_ideal,
    prime_spectrum,
    visualization_chain,
)

from oracles import contains_bijection, open_subscheme, prime_congruences


@contextmanager
def criterion(num, limit=None):
    """Time a criterion body and print its one-line verdict."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL")
        raise
    took = time.perf_counter() - start
    if limit is not None and took >= limit:
        print(f"criterion {num}: FAIL (took {took:.2f}s, limit {limit:g}s)")
        raise AssertionError(
            f"criterion {num} exceeded its {limit:g}s budget: {took:.2f}s")
    print(f"criterion {num}: PASS ({took:.2f}s)")


COVERING_FAMILIES = [
    ("B unit", boolean(), [1]),
    ("BxB split", boolean_pair(), [2, 1]),
    ("BxB unit", boolean_pair(), [3]),
    ("Z6 two", zmod(6), [2, 3]),
    ("Z6 three", zmod(6), [1, 2, 3]),
    ("Z6 redundant", zmod(6), [2, 3, 4]),
]


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


def one_cell_mutants(wanted):
    """Perturb a single table cell of a catalog table file at a time,
    skipping the rare perturbation that lands on another valid semiring,
    until the requested number of broken files is collected."""
    spots = []
    for name, R in catalog():
        for attr in ("add", "mul"):
            for i in range(R.n):
                for j in range(R.n):
                    spots.append((R, attr, i, j))
    rng = random.Random(11)
    rng.shuffle(spots)
    out = []
    for R, attr, i, j in spots:
        add = [list(row) for row in R.add]
        mul = [list(row) for row in R.mul]
        table = add if attr == "add" else mul
        table[i][j] = (table[i][j] + 1) % R.n
        mutated = FiniteSemiring(
            R.elements,
            tuple(tuple(row) for row in add),
            tuple(tuple(row) for row in mul),
            R.zero, R.one)
        text = render_semiring(mutated)
        try:
            parse_semiring(text)
        except AxiomError as e:
            out.append((text, e.axiom))
        if len(out) == wanted:
            break
    return out


def test_criterion_01_catalog_files_and_mutants():
    with criterion(1, limit=1.0):
        files = sorted(p for p in bundled_catalog_dir().iterdir()
                       if p.suffix == ".sr")
        assert len(files) == len(catalog())
        for path in files:
            R = read_semiring(path)
            assert R.n >= 1
        mutants = one_cell_mutants(20)
        assert len(mutants) == 20
        for text, axiom in mutants:
            assert isinstance(axiom, str) and axiom


def test_criterion_02_flavor_nesting_and_prime_kernels():
    from finsite.spectra import is_k_ideal, is_prime_ideal

    with criterion(2, limit=10.0):
        for name, R in catalog():
            weak = prime_congruences(R, "weak")
            strong = prime_congruences(R, "strong")
            twisted = prime_congruences(R, "twisted")
            assert set(twisted) <= set(strong) <= set(weak), name
            for c in weak:
                k = kernel_ideal(c)
                assert is_prime_ideal(R, k), name
                assert is_k_ideal(R, k), name


def test_criterion_03_stone_duality_and_sobriety():
    with criterion(3, limit=5.0):
        for name, R in catalog():
            spec = prime_spectrum(R)
            ok, pairs = theorem_A_check(R)
            assert ok, (name, pairs)
            assert len(pairs) == spec.space.n
            sober, witness = is_sober(spec.space)
            assert sober, (name, witness)
            frame, _ = lambda_X(R)
            assert spatiality_check(frame), name


def test_criterion_04_sections_localize_and_glue():
    with criterion(4, limit=10.0):
        for name, R in catalog():
            for h in range(R.n):
                iso = principal_sections_iso(R, h)
                assert iso.is_bijective(), (name, h)
                assert iso.source.n == localize(R, h).semiring.n
            # the full generator set recovers the semiring itself
            full, _ = structure_sheaf_sections(
                R, open_subscheme(R, range(R.n)))
            locs = [localize(R, h) for h in range(R.n)]
            images = []
            for r in range(R.n):
                label = "(" + ",".join(
                    locs[h].semiring.elements[locs[h].to_local(r)]
                    for h in range(R.n)) + ")"
                images.append(full.index(label))
            canonical = SemiringHom(R, full, tuple(images))
            assert hom_violation(canonical) is None, name
            assert canonical.is_bijective(), name
            # two-generator opens: sections are exactly the agreeing pairs
            for g in range(R.n):
                for h in range(g + 1, R.n):
                    two, proj = structure_sheaf_sections(
                        R, open_subscheme(R, (g, h)))
                    lg, lh = localize(R, g), localize(R, h)
                    lgh = localize(R, R.mul[g][h])
                    rg = lg.extend(lgh.to_local)
                    rh = lh.extend(lgh.to_local)
                    agree = {(a, b)
                             for a in range(lg.semiring.n)
                             for b in range(lh.semiring.n)
                             if rg(a) == rh(b)}
                    assert two.n == len(agree), (name, g, h)
                    assert {(proj[0](s), proj[1](s))
                            for s in range(two.n)} == agree, (name, g, h)


def test_criterion_05_basic_open_laws():
    with criterion(5):
        for name, R in catalog():
            spec = prime_spectrum(R)
            for g in range(R.n):
                for h in range(R.n):
                    meet = spec.basic_open(g) & spec.basic_open(h)
                    assert meet == spec.basic_open(R.mul[g][h]), (name, g, h)
                    below = intrinsic_order_check(R, g, h)
                    assert below == (spec.basic_open(g)
                                     <= spec.basic_open(h)), (name, g, h)


def test_criterion_06_descent_for_covering_families():
    with criterion(6):
        entries = catalog()
        for fam_name, R, els in COVERING_FAMILIES:
            S = cover_family(R, els)
            assert covers(S), fam_name
            for yname, Y in entries:
                ok, witness = sheaf_axiom_check(S, Y)
                assert ok, (fam_name, yname, witness)
        empty_extent = cover_family(boolean(), [0])
        assert not covers(empty_extent)
        ok, witness = sheaf_axiom_check(empty_extent, boolean_pair())
        assert not ok
        assert witness is not None


def test_criterion_07_gluing_and_monodromy():
    with criterion(7, limit=10.0):
        for fam_name, R, els in COVERING_FAMILIES:
            ok, comparison = affine_glue_check(cover_family(R, els))
            assert ok, fam_name
        doubled = doubled_point_presentation()
        assert is_monodromy_free(doubled).free
        G = glue_space(doubled)
        assert G.space.n == 3
        assert len(G.space.opens) == 8
        provenances = sorted(len(prov) for _, prov in G.point_table())
        assert provenances == [1, 1, 3]
        shared = next(prov for _, prov in G.point_table()
                      if len(prov) == 3)
        assert [chart for chart, _ in shared] == ["A", "B", "O"]
        chain = glued_chain(doubled)
        assert chain.kernel_map_surjective
        assert [lvl.space.n for lvl in chain.levels] == [3, 3, 3, 3, 3]
        wedge = wedge_presentation()
        report = is_monodromy_free(wedge)
        assert not report.free
        assert report.witness.describe() == "X <- U -> X"
        with pytest.raises(GlueError, match="monodromy"):
            glue_space(wedge)
        fin = monodromy_wedge_counterexample()
        assert not fin.free
        assert fin.closed_limit.n == 0
        assert fin.opened_limit.n == 1


def test_criterion_08_comparison_chain_per_entry():
    with criterion(8):
        for name, R in catalog():
            chain = visualization_chain(R)
            for hook in (chain.maps[0], chain.maps[1], chain.maps[3]):
                assert hook.is_injective(), name
            for m in chain.maps:
                for u in m.target.opens:
                    pre = frozenset(x for x in range(m.source.n)
                                    if m(x) in u)
                    assert pre in m.source.opens, name
            # recompute the reach of the kernel map from scratch
            spec = prime_spectrum(R)
            k_space, k_incl = k_spectrum(R)
            kernels = {kernel_ideal(c)
                       for c in prime_congruences(R, "weak")}
            missing = tuple(
                k_space.points[j] for j in range(k_space.n)
                if spec.primes[k_incl(j)] not in kernels)
            assert chain.kernel_map_surjective == (not missing), name
            assert chain.unreached_k_points == missing, name


def test_criterion_09_simplex_sites():
    with criterion(9, limit=30.0):
        for n in range(4):
            A = finset(tuple(f"v{i}" for i in range(n + 1)))
            X = simplex_space(A)
            assert X.n == 2 ** (n + 1) - 1
            closed = [p for p in range(X.n)
                      if frozenset(range(X.n)) - {p} in X.opens]
            assert closed == [X.points.index(face_label(A, range(n + 1)))]
        hollow = asc(("a", "b", "c"), [("a", "b"), ("a", "c"), ("b", "c")])
        assert face_space(hollow).n == 6
        # a cover with no one-member bijection that still satisfies descent
        for m in range(2, 5):
            A = finset(tuple(f"v{i}" for i in range(m)))
            family = [face_injection(A, [i for i in range(m) if i != drop])
                      for drop in range(m)]
            assert is_jointly_surjective(family, A)
            assert not contains_bijection(family)
            for y in range(4):
                Y = finset(tuple(f"y{j}" for j in range(y)))
                ok, witness = finset_sheaf_check(family, Y, A)
                assert ok, (m, y, witness)
        report = subcanonicity_sweep(4, 3)
        assert report["agree"]
        assert report["disagreements"] == []


def test_criterion_10_reports_are_deterministic(tmp_path):
    with criterion(10):
        cmd = [sys.executable, "-m", "finsite",
               "verify", "--format", "structured"]
        # The child runs in tmp_path, so that verify must find the bundled
        # catalog through package resources. A relative PYTHONPATH does not
        # resolve from there: hand the child the directory this finsite was
        # imported from, and a different hash seed per run, so that report
        # order cannot hang on set or dict hashing.
        src = str(Path(finsite.__file__).resolve().parents[1])
        path = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))

        def run(hash_seed):
            env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
            return subprocess.run(cmd, capture_output=True, cwd=tmp_path,
                                  env=env)

        first = run("1")
        second = run("2")
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0, second.stderr
        assert first.stdout
        assert first.stdout == second.stdout

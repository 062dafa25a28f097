"""The `verify` and `claims` commands: the checks of each `*.sr` file of a
directory, and the paper's claims over the catalog semirings.  Only these
two commands load this module, and only `claims` reaches `glue`,
`colimit`, `finset` and `catalog`.
"""

from __future__ import annotations

from pathlib import Path

from . import formats
from .records import FLAVORS, InvariantError
from .semiring import (SemiringError, SemiringHom, enumerate_congruences,
                       localize)
from .site import (cover_family, covers, intrinsic_order_check,
                   principal_open_props_check, principal_sections_iso,
                   theorem_A_check)
from .spectra import (is_k_ideal, is_prime_ideal, primality, prime_spectrum,
                      visualization_chain)


def _containment_rows(R):
    """Nesting of the three congruence classes plus primality and
    k-closedness of every weak kernel."""
    # filtered from all congruences, so the nesting is tested, not assumed
    congruences = enumerate_congruences(R)
    weak, strong, twisted = ([c for c in congruences if primality(c, f)]
                             for f in FLAVORS)
    if not set(twisted) <= set(strong) <= set(weak):
        return False, "congruence classes fail to nest"
    for c in weak:
        ker = frozenset(a for a in range(R.n) if c.related(a, R.zero))
        if not is_prime_ideal(R, ker) or not is_k_ideal(R, ker):
            return False, ("kernel not a prime k-ideal: "
                           + "{" + ",".join(R.elements[x]
                                            for x in sorted(ker)) + "}")
    return True, ""


def _basis_law(R):
    spec = prime_spectrum(R)
    for g in range(R.n):
        for h in range(R.n):
            meet = spec.basic_open(g) & spec.basic_open(h)
            if meet != spec.basic_open(R.mul[g][h]):
                return False, (f"basic opens break at "
                               f"{R.elements[g]},{R.elements[h]}")
            intrinsic_order_check(R, g, h)
    return True, ""


def _chain_row(R):
    chain = visualization_chain(R)
    for m, name in zip(chain.maps, ("twisted-strong", "strong-weak",
                                    "weak-k", "k-prime")):
        if not m.is_continuous():
            return False, f"{name} map not continuous"
    for i, name in ((0, "twisted-strong"), (1, "strong-weak"),
                    (3, "k-prime")):
        if not chain.maps[i].is_injective():
            return False, f"{name} hook not injective"
    if chain.kernel_map_surjective:
        return True, "kernel map onto k-points"
    return True, ("kernel map misses: "
                  + " ".join(chain.unreached_k_points))


def bundled_catalog_dir() -> Path:
    from importlib import resources

    return Path(str(resources.files("finsite") / "data" / "catalog"))


def _theorem_A_row(R):
    ok, info = theorem_A_check(R)
    return ok, "" if ok else str(info)


def _cmd_verify(ns):
    """The `verify` command, run by `cli.main`: its exit code, report lines
    and structured data over the `*.sr` files of `ns.directory`, the
    bundled catalog when it is None."""
    base = Path(ns.directory) if ns.directory else bundled_catalog_dir()
    if not base.is_dir():
        raise formats.FormatError(f"{base} is not a directory")
    rows = []
    for path in sorted(p for p in base.iterdir()
                       if p.is_file() and p.suffix == ".sr"):
        try:
            R = formats.read_semiring(str(path))
        except (formats.FormatError, SemiringError) as e:
            rows.append((path.name, "axioms", False, str(e)))
            continue
        rows.append((path.name, "axioms", True, ""))
        for check, run in (("theorem-A", _theorem_A_row),
                           ("containments", _containment_rows),
                           ("basis-law", _basis_law),
                           ("chain", _chain_row)):
            try:
                ok, note = run(R)
            except SemiringError as e:      # a failed check, not a failed run
                ok, note = False, str(e)
            rows.append((path.name, check, ok, note))
    failures = sum(1 for row in rows if not row[2])
    lines = []
    for name, check, ok, note in rows:
        verdict = "pass" if ok else "fail"
        if note:
            verdict += f" ({note})"
        lines.append(f"{name} {check}: {verdict}")
    lines.append(f"{len(rows)} checks, {failures} failures")
    data = {"rows": [{"semiring": name, "check": check,
                      "result": "pass" if ok else "fail", "witness": note}
                     for name, check, ok, note in rows],
            "failures": failures}
    return (1 if failures else 0), lines, data


def _props_row(rows, unit):
    """One of P1-P3 from its rows: their count, or the first failure."""
    bad = [row for row in rows if not row["pass"]]
    if not bad:
        return True, f"{len(rows)} {unit}"
    return False, " ".join(
        f"{key} {','.join(value) if isinstance(value, list) else value}"
        for key, value in bad[0].items() if key != "pass")


def _sections_row(entries):
    pairs = 0
    for name, R in entries:
        for h in range(R.n):
            pairs += 1
            try:
                principal_sections_iso(R, h)
            except SemiringError:
                return False, f"{name} at {R.elements[h]}"
    return True, f"{pairs} pairs"


def _atlas_row(entries):
    """Every covering family of at most two elements of each entry."""
    from itertools import combinations

    from .glue import affine_glue_check

    families = 0
    for name, R in entries:
        for size in (1, 2):
            for els in combinations(range(R.n), size):
                S = cover_family(R, els)
                if not covers(S):
                    continue
                families += 1
                if not affine_glue_check(S)[0]:
                    return False, f"{name} at " + " ".join(
                        R.elements[h] for h in els)
    return True, f"{families} covering families"


def _chain_claim_row(Z6):
    """The glued chain of the README's doubled point of Z6."""
    from .glue import glued_chain, presentation

    loc = localize(Z6, 2)
    chain = glued_chain(presentation(
        [("A", Z6), ("B", Z6), ("O", loc.semiring)],
        [("O", "A", loc.to_local), ("O", "B", loc.to_local)]))
    return True, ", ".join(f"{name} {G.space.n}" for name, G
                           in zip(chain.names, chain.levels)) + " points"


def _descent_row():
    from .finset import subcanonicity_sweep

    sweep = subcanonicity_sweep(3, 3)
    if sweep["agree"]:
        return True, f"{sweep['families']} families"
    return False, "disagree at " + " ".join(
        f"{a}:{mask}" for a, mask in sweep["disagreements"])


def _face_row():
    from .finset import asc, asc_presentation, face_space, finset_glue_space

    complexes = (("abc", ("ab", "bc", "ca")), ("abcd", ("abc", "bcd")),
                 ("abcd", ("abcd",)), ("abc", ("ab", "c")))
    for vertices, faces in complexes:
        K = asc(vertices, faces)
        if finset_glue_space(asc_presentation(K)).space.above \
                != face_space(K).above:
            return False, "faces " + " ".join(faces)
    return True, f"{len(complexes)} complexes"


def _finset_wedge_row():
    from .finset import monodromy_wedge_counterexample

    wedge = monodromy_wedge_counterexample()
    return not wedge.free, (f"{wedge.witness}: limits of "
                            f"{wedge.closed_limit.n} and "
                            f"{wedge.opened_limit.n} elements")


def _semiring_wedge_row(B, BB):
    """The two projections of BxB onto B as two arrows of U into X."""
    from .glue import is_monodromy_free, presentation

    report = is_monodromy_free(presentation(
        [("X", BB), ("U", B)],
        [("U", "X", SemiringHom(BB, B, (0, 0, 1, 1))),
         ("U", "X", SemiringHom(BB, B, (0, 1, 0, 1)))]))
    return not report.free, report.verdict()


def _cmd_claims(ns):
    """The `claims` command, run by `cli.main`: its exit code, report lines
    and structured data."""
    from .catalog import catalog
    from .finset import FinSetError
    from .glue import GlueError

    entries = catalog()
    named = dict(entries)
    props = principal_open_props_check(entries)
    claims = (
        ("P1 localizing at 1 is an isomorphism",
         lambda: _props_row(props["P1"], "semirings")),
        ("P2 localizing twice is localizing at the product",
         lambda: _props_row(props["P2"], "semirings")),
        ("P3 base change of a principal open is principal",
         lambda: _props_row(props["P3"], "homs")),
        ("sections over U_h are R[1/h]", lambda: _sections_row(entries)),
        ("affine atlases glue back to Spec R", lambda: _atlas_row(entries)),
        ("glued comparison chain of the doubled Z6",
         lambda: _chain_claim_row(named["Z6"])),
        ("finite-set descent is joint surjectivity", _descent_row),
        ("face charts glue to the face poset", _face_row),
        ("wedge refused at the finite-set site", _finset_wedge_row),
        ("wedge refused at the semiring site",
         lambda: _semiring_wedge_row(named["B"], named["BxB"])),
    )
    rows = []
    for claim, run in claims:
        try:
            ok, note = run()
        except (SemiringError, InvariantError, GlueError, FinSetError) as e:
            ok, note = False, str(e)        # a failed claim, not a failed run
        rows.append((claim, ok, note))
    failures = sum(1 for _, ok, _ in rows if not ok)
    lines = [f"{claim}: " + ("pass" if ok else "fail") + f" ({note})"
             for claim, ok, note in rows]
    lines.append(f"{len(rows)} claims, {failures} failures")
    data = {"rows": [{"claim": claim, "result": "pass" if ok else "fail",
                      "note": note} for claim, ok, note in rows],
            "failures": failures}
    return (1 if failures else 0), lines, data

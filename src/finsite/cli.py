"""Command-line surface: parse input files, dispatch the library, and
emit deterministic reports.

Exit codes: 0 success, 1 check failure, 2 parse or IO error, 3 budget
exceeded.  With `--format structured` every command prints one JSON
document with stable key order; reports are byte-identical across runs
on identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from . import formats
from .catalog import catalog
from .colimit import DEFAULT_BUDGET, BudgetExceeded
from .finset import FinSetError, face_space, finset, simplex_space
from .glue import (VISUALIZATIONS, GlueError, _glue_checked,
                   is_monodromy_free)
from .locales import FrameError, is_sober, spatiality_check, stone_dual
from .semiring import AxiomError, SemiringError, localize
from .site import (
    covers,
    intrinsic_order_check,
    lambda_X,
    sheaf_axiom_check,
    theorem_A_check,
)
from .spectra import (
    congruence_spectrum,
    is_k_ideal,
    is_prime_ideal,
    k_spectrum,
    kernel_ideal,
    prime_congruences,
    prime_spectrum,
    spectrum_report,
    visualization_chain,
)
from .topology import set_label


def _space_lines(space) -> list[str]:
    lines = [f"point {p}" for p in space.points]
    lines += [f"open {set_label(space.points, u)}"
              for u in space.sorted_opens()]
    lines += [f"edge {a} -> {b}" for a, b in space.specialization_edges()]
    return lines


def _space_data(space) -> dict:
    return {
        "points": list(space.points),
        "opens": [sorted(space.points[x] for x in u)
                  for u in space.sorted_opens()],
        "specialization_edges": [[a, b]
                                 for a, b in space.specialization_edges()],
    }


def _count(n: int, word: str = "point") -> str:
    return f"{n} {word}" + ("" if n == 1 else "s")


def cmd_check(ns):
    try:
        R = formats.read_semiring(ns.file)
    except AxiomError as e:
        lines = [f"invalid: {e.axiom} axiom fails",
                 f"witness: {e.witness}"]
        return 1, lines, {"valid": False, "axiom": e.axiom,
                          "witness": list(e.witness)}
    return 0, [f"valid, {R.n} elements"], {"valid": True, "elements": R.n}


def cmd_spectrum(ns):
    R = formats.read_semiring(ns.file)
    spec = prime_spectrum(R)
    basic = None
    if ns.flavor == "prime":
        space = spec.space
        basic = {R.elements[h]: sorted(space.points[i]
                                       for i in spec.basic_open(h))
                 for h in range(R.n)}
    elif ns.flavor == "k":
        space, incl = k_spectrum(R, spec)
        basic = {R.elements[h]: sorted(space.points[i]
                                       for i in range(space.n)
                                       if incl(i) in spec.basic_open(h))
                 for h in range(R.n)}
    else:
        space, _ = congruence_spectrum(R, ns.flavor, spec)
    discrete = len(space.opens) == 2 ** space.n
    head = _count(space.n) + (", discrete" if discrete else "")
    lines = [f"flavor: {ns.flavor}", head] + _space_lines(space)
    if basic is not None:
        lines += [f"basic open {e}: " + "{" + ",".join(pts) + "}"
                  for e, pts in basic.items()]
    data = {"flavor": ns.flavor, "discrete": discrete}
    data.update(_space_data(space))
    if basic is not None:
        data["basic_opens"] = basic
    if ns.dot:
        formats.write_text(ns.dot, space.specialization_dot())
    return 0, lines, data


def cmd_congruences(ns):
    R = formats.read_semiring(ns.file)
    report = spectrum_report(R)
    lines = [
        f"elements: {len(report['elements'])}",
        f"ideals: {report['ideal_count']}",
        f"k-ideals: {report['k_ideal_count']}",
        f"prime ideals: {report['prime_count']}",
        "primes: " + " ".join("{" + ",".join(p) + "}"
                              for p in report["primes"]),
        f"prime k-points: {report['k_prime_count']}",
        f"weak congruence points: {report['weak_count']}",
        f"strong congruence points: {report['strong_count']}",
        f"twisted congruence points: {report['twisted_count']}",
        "kernel map surjective: "
        + ("yes" if report["kernel_map_surjective"] else "no"),
        "unreached k-points: "
        + (" ".join(report["unreached_k_points"])
           if report["unreached_k_points"] else "none"),
        f"open sets: {report['open_set_count']}",
    ]
    for name, table in report["chain_maps"].items():
        for src, dst in table:
            lines.append(f"{name}: {src} -> {dst}")
    return 0, lines, report


def cmd_locale(ns):
    R = formats.read_semiring(ns.file)
    frame, _ = lambda_X(R)
    dump = formats.render_lattice(frame)
    lines = [f"frame of spectrum opens: {_count(frame.n, 'element')}",
             f"join-primes: {len(frame.join_primes())}",
             "spatial: " + ("yes" if spatiality_check(frame) else "no")]
    lines += dump.splitlines()
    data = {"elements": list(frame.elements),
            "covers": [[frame.elements[a], frame.elements[b]]
                       for a, b in frame.covers()],
            "spatial": spatiality_check(frame)}
    if ns.dot:
        formats.write_text(ns.dot, dump)
    return 0, lines, data


def cmd_stone(ns):
    frame = formats.read_lattice(ns.file)
    space, _ = stone_dual(frame)
    sober = is_sober(space)[0]
    lines = [f"dual space: {_count(space.n)}"] + _space_lines(space)
    lines += ["sober: " + ("yes" if sober else "no"),
              "spatial: " + ("yes" if spatiality_check(frame) else "no")]
    data = {"sober": sober, "spatial": spatiality_check(frame)}
    data.update(_space_data(space))
    if ns.dot:
        formats.write_text(ns.dot, space.specialization_dot())
    return 0, lines, data


def cmd_localize(ns):
    R = formats.read_semiring(ns.file)
    try:
        h = R.index(ns.element)
    except SemiringError as e:
        raise formats.FormatError(str(e)) from None
    loc = localize(R, h)
    T = loc.semiring
    text = formats.render_semiring(T)
    data = {"element": ns.element, "size": T.n,
            "elements": list(T.elements),
            "zero": T.elements[T.zero], "one": T.elements[T.one],
            "add": [[T.elements[v] for v in row] for row in T.add],
            "mul": [[T.elements[v] for v in row] for row in T.mul]}
    return 0, text.splitlines(), data


def cmd_sheaf_check(ns):
    S = formats.read_cover(ns.file)
    rows = [("covers spectrum", covers(S), "")]
    for name, Y in catalog():
        ok, witness = sheaf_axiom_check(S, Y)
        rows.append((f"descent vs {name}", ok, "" if ok else str(witness)))
    failures = sum(1 for _, ok, _ in rows if not ok)
    lines = [f"{label}: " + ("pass" if ok else f"fail {note}".rstrip())
             for label, ok, note in rows]
    lines.append(f"{len(rows)} checks, {failures} failures")
    data = {"rows": [{"check": label, "result": "pass" if ok else "fail",
                      "witness": note} for label, ok, note in rows],
            "failures": failures}
    return (1 if failures else 0), lines, data


def _containment_rows(R):
    """Nesting of the three congruence classes plus primality and
    k-closedness of every weak kernel."""
    weak = prime_congruences(R, "weak")
    strong = {c.blocks for c in prime_congruences(R, "strong")}
    twisted = {c.blocks for c in prime_congruences(R, "twisted")}
    weak_set = {c.blocks for c in weak}
    if not (twisted <= strong <= weak_set):
        return False, "congruence classes fail to nest"
    for c in weak:
        ker = kernel_ideal(c)
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
            try:
                intrinsic_order_check(R, g, h, spec)
            except SemiringError as e:
                return False, str(e)
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
    return Path(str(resources.files("finsite") / "data" / "catalog"))


def cmd_verify(ns):
    base = Path(ns.directory) if ns.directory else bundled_catalog_dir()
    if not base.is_dir():
        raise formats.FormatError(f"{base} is not a directory")
    rows = []
    for path in sorted(p for p in base.iterdir() if p.is_file()):
        try:
            R = formats.read_semiring(str(path))
        except (formats.FormatError, SemiringError) as e:
            rows.append((path.name, "axioms", False, str(e)))
            continue
        rows.append((path.name, "axioms", True, ""))
        ok, info = theorem_A_check(R)
        rows.append((path.name, "theorem-A", ok, "" if ok else str(info)))
        ok, note = _containment_rows(R)
        rows.append((path.name, "containments", ok, note))
        ok, note = _basis_law(R)
        rows.append((path.name, "basis-law", ok, note))
        ok, note = _chain_row(R)
        rows.append((path.name, "chain", ok, note))
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


def cmd_glue(ns):
    P = formats.read_presentation(ns.file)
    report = is_monodromy_free(P, bound=ns.path_bound, budget=ns.budget)
    lines = ["monodromy: " + report.verdict()]
    data = {"monodromy": report.verdict(), "free": report.free,
            "exhaustive": report.exhaustive,
            "walks_checked": report.walks_checked}
    if not report.free:
        lines.insert(0, "refusing to glue")
        data["refused"] = True
        return 1, lines, data
    G = _glue_checked(P, ns.vis, report)
    lines.append(f"glued space ({ns.vis}): {_count(G.space.n)}")
    for label, prov in G.point_table():
        lines.append(f"point {label} = "
                     + " ".join(f"{c}:{p}" for c, p in prov))
    lines += [f"open {set_label(G.space.points, u)}"
              for u in G.space.sorted_opens()]
    lines += [f"edge {a} -> {b}" for a, b in G.space.specialization_edges()]
    data["vis"] = ns.vis
    data["point_table"] = [{"label": label,
                            "charts": [[c, p] for c, p in prov]}
                           for label, prov in G.point_table()]
    space_data = _space_data(G.space)
    data["opens"] = space_data["opens"]
    data["specialization_edges"] = space_data["specialization_edges"]
    if ns.dot:
        formats.write_text(ns.dot, G.space.specialization_dot())
    return 0, lines, data


def cmd_simplex(ns):
    if ns.n is not None:
        if ns.n < 0:
            raise formats.FormatError("the dimension must be at least 0")
        A = finset(tuple(f"v{i}" for i in range(ns.n + 1)))
        space = simplex_space(A)
        head = f"simplex of dimension {ns.n}: {_count(space.n)}"
    else:
        K = formats.read_asc(ns.file)
        space = face_space(K)
        head = (f"complex with {len(K.faces)} faces: "
                f"{_count(space.n)}")
    closed = [space.points[p] for p in range(space.n)
              if space.is_closed(frozenset([p]))]
    lines = [head] + _space_lines(space)
    lines.append("closed points: " + " ".join(closed))
    data = {"closed_points": closed}
    data.update(_space_data(space))
    if ns.dot:
        formats.write_text(ns.dot, space.specialization_dot())
    return 0, lines, data


HANDLERS = {
    "check": cmd_check,
    "spectrum": cmd_spectrum,
    "congruences": cmd_congruences,
    "locale": cmd_locale,
    "stone": cmd_stone,
    "localize": cmd_localize,
    "sheaf-check": cmd_sheaf_check,
    "verify": cmd_verify,
    "glue": cmd_glue,
    "simplex": cmd_simplex,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="finsite",
        description="finite semiring spectra, locales, and gluing")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, text):
        p = sub.add_parser(name, help=text, description=text)
        p.add_argument("--format", choices=("human", "structured"),
                       default="human",
                       help="report style (default human)")
        return p

    p = add("check", "validate a semiring file against the axioms")
    p.add_argument("file")
    p = add("spectrum", "points, opens, and specialization of a spectrum")
    p.add_argument("file")
    p.add_argument("--flavor", default="prime", choices=VISUALIZATIONS)
    p.add_argument("--dot", metavar="PATH",
                   help="write the specialization graph here")
    p = add("congruences", "ideal, congruence, and chain-map summary")
    p.add_argument("file")
    p = add("locale", "frame of spectrum opens as a lattice dump")
    p.add_argument("file")
    p.add_argument("--dot", metavar="PATH",
                   help="write the lattice dump here")
    p = add("stone", "dual space of a lattice dump")
    p.add_argument("file")
    p.add_argument("--dot", metavar="PATH",
                   help="write the specialization graph here")
    p = add("localize", "invert an element; prints the semiring file")
    p.add_argument("file")
    p.add_argument("element")
    p = add("sheaf-check", "descent along a cover family, all test objects")
    p.add_argument("file")
    p = add("verify", "run every check over a directory of semiring files")
    p.add_argument("directory", nargs="?",
                   help="defaults to the bundled catalog")
    p = add("glue", "monodromy check, then the glued space of a presentation")
    p.add_argument("file")
    p.add_argument("--vis", default="prime", choices=VISUALIZATIONS)
    p.add_argument("--path-bound", type=int, default=8)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--dot", metavar="PATH",
                   help="write the specialization graph here")
    p = add("simplex", "face poset of a simplex or a complex file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="dimension of a full simplex")
    group.add_argument("file", nargs="?")
    p.add_argument("--dot", metavar="PATH",
                   help="write the specialization graph here")
    return ap


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        code, lines, data = HANDLERS[ns.command](ns)
    except formats.FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (GlueError, FrameError, FinSetError, SemiringError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if ns.format == "structured":
        print(json.dumps(data, indent=2))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    raise SystemExit(main())

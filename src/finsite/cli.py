"""Command-line surface: parse input files, dispatch the library, and
emit deterministic reports.

Exit codes: 0 success, 1 check failure, 2 parse or IO error, 3 budget
exceeded.  With `--format structured` every command prints one JSON
document with stable key order; reports are byte-identical across runs
on identical inputs.

Each command imports the modules it calls when it runs: `check` and
`localize` load only `formats` and `semiring`, only `glue` and `claims`
load `colimit`, and none loads `dataclasses`, `inspect` or `pkgutil`.
The `glue` command loads neither `site` nor `locales`; its monodromy
check runs one union-find per closed walk, the walk's colimit of sets.  The
reports of `verify` and `claims` are built in `checks`, which no other
command loads; `claims` runs the paper's checks over the catalog
semirings and so also reaches `site`, `glue`, `colimit` and `finset`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import formats
from .semiring import (DEFAULT_BUDGET, VISUALIZATIONS, AxiomError,
                       SemiringError, localize)


def _space_listing(space, dot=None) -> tuple[list[str], dict]:
    """Report lines and structured data of a space, from one listing of its
    opens and covering edges; writes the `--dot` file when `dot` is set."""
    from .topology import set_label

    opens = space.sorted_opens()
    edges = space.specialization_edges()
    if dot:
        formats.write_text(dot, space.specialization_dot(edges))
    lines = [f"point {p}" for p in space.points]
    lines += [f"open {set_label(space.points, u)}" for u in opens]
    lines += [f"edge {a} -> {b}" for a, b in edges]
    return lines, {
        "points": list(space.points),
        "opens": [sorted(space.points[x] for x in u) for u in opens],
        "specialization_edges": [[a, b] for a, b in edges],
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
    lines = [f"valid, {_count(R.n, 'element')}"]
    return 0, lines, {"valid": True, "elements": R.n}


def cmd_spectrum(ns):
    from .spectra import k_spectrum, prime_spectrum, visualization_space

    R = formats.read_semiring(ns.file)
    spec = prime_spectrum(R)
    space = visualization_space(R, ns.flavor)
    basic = None
    if ns.flavor in ("prime", "k"):
        under = k_spectrum(R)[1].images if ns.flavor == "k" else range(space.n)
        basic = {R.elements[h]: sorted(space.points[i]
                                       for i, p in enumerate(under)
                                       if p in spec.basic_open(h))
                 for h in range(R.n)}
    discrete = len(space.open_masks) == 2 ** space.n
    head = _count(space.n) + (", discrete" if discrete else "")
    listing, space_data = _space_listing(space, ns.dot)
    lines = [f"flavor: {ns.flavor}", head] + listing
    if basic is not None:
        lines += [f"basic open {e}: " + "{" + ",".join(pts) + "}"
                  for e, pts in basic.items()]
    data = {"flavor": ns.flavor, "discrete": discrete}
    data.update(space_data)
    if basic is not None:
        data["basic_opens"] = basic
    return 0, lines, data


def cmd_congruences(ns):
    from .spectra import spectrum_report

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
    from .locales import spatiality_check
    from .site import lambda_X

    R = formats.read_semiring(ns.file)
    frame, _ = lambda_X(R)
    dump = formats.render_lattice(frame)
    data = {"elements": list(frame.elements),
            "covers": [[frame.elements[a], frame.elements[b]]
                       for a, b in frame.covers()],
            "spatial": spatiality_check(frame)}
    lines = [f"frame of spectrum opens: {_count(frame.n, 'element')}",
             f"join-primes: {len(frame.join_primes())}",
             "spatial: " + ("yes" if data["spatial"] else "no")]
    lines += dump.splitlines()
    if ns.dot:
        formats.write_text(ns.dot, dump)
    return 0, lines, data


def cmd_stone(ns):
    from .locales import is_sober, spatiality_check, stone_dual

    frame = formats.read_lattice(ns.file)
    space, _ = stone_dual(frame)
    sober = is_sober(space)[0]
    data = {"sober": sober, "spatial": spatiality_check(frame)}
    listing, space_data = _space_listing(space, ns.dot)
    lines = [f"dual space: {_count(space.n)}"] + listing
    lines += ["sober: " + ("yes" if sober else "no"),
              "spatial: " + ("yes" if data["spatial"] else "no")]
    data.update(space_data)
    return 0, lines, data


def cmd_localize(ns):
    R = formats.read_semiring(ns.file)
    # labels are UTF-8, as in files, but argv was decoded by the locale
    try:
        element = os.fsencode(ns.element).decode("utf-8")
    except UnicodeError:
        element = ns.element
    try:
        h = R.index(element)
    except SemiringError as e:
        raise formats.FormatError(str(e)) from None
    loc = localize(R, h)
    T = loc.semiring
    text = formats.render_semiring(T)
    data = {"element": element, "size": T.n,
            "elements": list(T.elements),
            "zero": T.elements[T.zero], "one": T.elements[T.one],
            "add": [[T.elements[v] for v in row] for row in T.add],
            "mul": [[T.elements[v] for v in row] for row in T.mul]}
    return 0, text.splitlines(), data


def cmd_sheaf_check(ns):
    from .catalog import catalog
    from .site import covers, sheaf_axiom_check

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


def cmd_verify(ns):
    from .checks import verify_report

    return verify_report(ns.directory)


def cmd_glue(ns):
    from .glue import _glue_checked, is_monodromy_free

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
    table = G.point_table()
    for label, prov in table:
        lines.append(f"point {label} = "
                     + " ".join(f"{c}:{p}" for c, p in prov))
    # the point table replaces the listing's own point lines
    listing, space_data = _space_listing(G.space, ns.dot)
    lines += listing[G.space.n:]
    data["vis"] = ns.vis
    data["point_table"] = [{"label": label,
                            "charts": [[c, p] for c, p in prov]}
                           for label, prov in table]
    data["opens"] = space_data["opens"]
    data["specialization_edges"] = space_data["specialization_edges"]
    return 0, lines, data


def cmd_simplex(ns):
    from .finset import face_space, finset, simplex_space

    if ns.n is not None:
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
    listing, space_data = _space_listing(space, ns.dot)
    lines = [head] + listing
    lines.append("closed points: " + " ".join(closed))
    data = {"closed_points": closed}
    data.update(space_data)
    return 0, lines, data


def cmd_claims(ns):
    from .checks import claims_report

    return claims_report()


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
    "claims": cmd_claims,
}


def _natural(text: str) -> int:
    """Argument type of the integer options, none of which may be
    negative: a negative value is a usage error, exit 2, before any
    command runs."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


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
    p = add("verify", "run every check over the *.sr files of a directory")
    p.add_argument("directory", nargs="?",
                   help="defaults to the bundled catalog")
    p = add("glue", "monodromy check, then the glued space of a presentation")
    p.add_argument("file")
    p.add_argument("--vis", default="prime", choices=VISUALIZATIONS)
    p.add_argument("--path-bound", type=_natural, default=8)
    p.add_argument("--budget", type=_natural, default=DEFAULT_BUDGET)
    p.add_argument("--dot", metavar="PATH",
                   help="write the specialization graph here")
    p = add("simplex", "face poset of a simplex or a complex file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=_natural,
                       help="dimension of a full simplex")
    group.add_argument("file", nargs="?")
    p.add_argument("--dot", metavar="PATH",
                   help="write the specialization graph here")
    add("claims", "check the paper's claims over the catalog semirings")
    return ap


# exit code of each expected failure, keyed by "module.class": an error is
# classified by the names on its class's MRO, so classifying it loads no
# module that the command did not
EXIT_CODES = {"finsite.formats.FormatError": 2,
              "finsite.finset.FinSetError": 1,
              "finsite.glue.GlueError": 1,
              "finsite.locales.FrameError": 1,
              "finsite.semiring.BudgetExceeded": 3,
              "finsite.semiring.SemiringError": 1}


def _exit_code(e: Exception) -> int | None:
    """Exit code of an expected failure, None for any other exception."""
    for cls in type(e).__mro__:
        code = EXIT_CODES.get(f"{cls.__module__}.{cls.__qualname__}")
        if code is not None:
            return code
    return None


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        code, lines, data = HANDLERS[ns.command](ns)
    except Exception as e:
        code = _exit_code(e)
        if code is None:
            raise
        print(f"error: {e}", file=sys.stderr)
        return code
    try:
        # labels are UTF-8 text in every locale, as the input files are
        if hasattr(sys.stdout, "reconfigure"):
            sys.stdout.reconfigure(encoding="utf-8", errors=sys.stdout.errors)
        if ns.format == "structured":
            print(json.dumps(data, indent=2))
        else:
            print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early; the interpreter flushes stdout once more
        # on exit, so point it where that flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())

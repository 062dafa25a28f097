"""Flat-file formats: semiring tables, cover families, chart
presentations, lattice dumps, and simplicial complex descriptions.

Every reader is whitespace-tolerant (blank lines are skipped, any run of
whitespace separates tokens) and every writer emits the same format it
reads, so localized tables and lattice dumps can be fed back in.

Each reader loads the module it builds values of when it is called: the
package binds `semiring` here without running it, and the readers import
the others, so a command loads just the modules it uses, and `stone` and
`simplex` load no `semiring`.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from . import semiring

if TYPE_CHECKING:
    from .finset import AbstractSimplicialComplex
    from .glue import SPresentation
    from .locales import FiniteFrame
    from .semiring import FiniteSemiring
    from .site import CoverFamily


class FormatError(Exception):
    pass


def _logical_lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        tokens = raw.split()
        if tokens:
            out.append(tokens)
    return out


def _keyword(line: list[str], word: str) -> list[str]:
    if line[0] == word + ":":
        return line[1:]
    if line[0] == word and len(line) > 1 and line[1] == ":":
        return line[2:]
    raise FormatError(f"expected a {word!r} line, got {' '.join(line)!r}")


def parse_semiring(text: str) -> FiniteSemiring:
    """Text format: `elements:`, `zero:`, `one:`, then `add:` and `mul:`
    each followed by n rows of n element labels."""
    lines = _logical_lines(text)
    if len(lines) < 5:
        raise FormatError("semiring file is incomplete")
    elements = tuple(_keyword(lines[0], "elements"))
    if not elements:
        raise FormatError("a semiring needs at least one element")
    if len(set(elements)) != len(elements):
        raise FormatError("duplicate element label")
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)

    def lookup(token):
        if token not in index:
            raise FormatError(f"unknown element label {token!r}")
        return index[token]

    def single(line, word):
        tokens = _keyword(line, word)
        if len(tokens) != 1:
            raise FormatError(f"the {word} line names exactly one element")
        return lookup(tokens[0])

    zero = single(lines[1], "zero")
    one = single(lines[2], "one")

    rest = lines[3:]
    if len(rest) != 2 * (n + 1):
        raise FormatError(f"expected add and mul tables of {n} rows each")

    def table(block, word):
        if _keyword(block[0], word):
            raise FormatError(f"unexpected tokens after {word}:")
        rows = []
        for row in block[1:]:
            if len(row) != n:
                raise FormatError(f"{word} row needs {n} entries, "
                                  f"got {len(row)}")
            rows.append(tuple(lookup(t) for t in row))
        return tuple(rows)

    add = table(rest[:n + 1], "add")
    mul = table(rest[n + 1:], "mul")
    return semiring.validate_semiring(elements, add, mul, zero, one)


def render_semiring(R: FiniteSemiring) -> str:
    width = max(len(e) for e in R.elements)

    def row(entries):
        return "  " + " ".join(R.elements[i].ljust(width)
                               for i in entries).rstrip()

    lines = ["elements: " + " ".join(R.elements),
             "zero: " + R.elements[R.zero],
             "one: " + R.elements[R.one],
             "add:"]
    lines.extend(row(r) for r in R.add)
    lines.append("mul:")
    lines.extend(row(r) for r in R.mul)
    return "\n".join(lines) + "\n"


def _read_text(path: str) -> str:
    """The file's text as UTF-8; an unopenable, unreadable or undecodable
    file is a FormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise FormatError(f"cannot read {path}: not UTF-8 text "
                          f"(byte {e.start})") from None
    except ValueError as e:  # open() refuses a path holding a NUL byte
        raise FormatError(f"cannot read {path!r}: {e}") from None


def read_semiring(path: str) -> FiniteSemiring:
    return parse_semiring(_read_text(path))


def read_cover(path: str) -> CoverFamily:
    """Cover file: a `semiring: <path>` reference (relative to the cover
    file) plus a `cover: h1 h2 ...` line of element labels."""
    from .site import cover_family

    lines = _logical_lines(_read_text(path))
    if len(lines) != 2:
        raise FormatError("cover file needs a semiring line and a cover line")
    ref = _keyword(lines[0], "semiring")
    if len(ref) != 1:
        raise FormatError("the semiring line names exactly one file")
    R = read_semiring(os.path.join(os.path.dirname(path) or ".", ref[0]))
    labels = _keyword(lines[1], "cover")
    try:
        return cover_family(R, tuple(R.index(t) for t in labels))
    except semiring.SemiringError as e:
        raise FormatError(str(e)) from None


def _label(R: FiniteSemiring, token: str) -> int:
    if token not in R.elements:
        raise FormatError(f"unknown element label {token!r}")
    return R.elements.index(token)


def read_presentation(path: str) -> SPresentation:
    """Presentation file: `node <name> <semiring-file>` lines, then
    `arrow <src> <dst> localize-at <element>` or
    `arrow <src> <dst> map <label-list>` lines.  An arrow src -> dst
    carries the algebra map of its head chart into its tail chart.  Each
    file is read once, and nodes with equal semirings share one object."""
    from .glue import presentation

    lines = _logical_lines(_read_text(path))
    base = os.path.dirname(path) or "."
    files: dict[str, FiniteSemiring] = {}
    canon: dict[FiniteSemiring, FiniteSemiring] = {}
    table: dict[str, FiniteSemiring] = {}
    arrows = []
    for line in lines:
        if line[0] == "node":
            if len(line) != 3:
                raise FormatError("node lines read: node <name> <file>")
            name, ref = line[1], os.path.join(base, line[2])
            if name in table:
                raise FormatError(f"duplicate node name {name!r}")
            if ref not in files:
                R = read_semiring(ref)
                files[ref] = canon.setdefault(R, R)
            table[name] = files[ref]
        elif line[0] == "arrow":
            if len(line) < 4:
                raise FormatError("arrow lines read: arrow <src> <dst> ...")
            src, dst, kind = line[1], line[2], line[3]
            if src not in table or dst not in table:
                raise FormatError(f"arrow endpoint {src!r} or {dst!r} "
                                  "is not a declared node")
            if kind == "localize-at":
                if len(line) != 5:
                    raise FormatError("localize-at takes one element label")
                loc = semiring.localize(table[dst],
                                        _label(table[dst], line[4]))
                h = loc.to_local
                if loc.semiring != table[src]:
                    iso = semiring.find_isomorphism(loc.semiring, table[src])
                    if iso is None:
                        raise FormatError(
                            f"node {src!r} does not carry the localization "
                            f"of {dst!r} at {line[4]!r}")
                    h = iso.compose(h)
            elif kind == "map":
                images = line[4:]
                if len(images) != table[dst].n:
                    raise FormatError(
                        f"map needs {table[dst].n} image labels")
                h = semiring.SemiringHom(
                    table[dst], table[src],
                    tuple(_label(table[src], t) for t in images))
                if semiring.hom_violation(h) is not None:
                    raise FormatError(
                        f"arrow {src} -> {dst} map does not preserve "
                        "the operations")
            else:
                raise FormatError(f"unknown arrow kind {kind!r}")
            arrows.append((src, dst, h))
        else:
            raise FormatError(f"unknown directive {line[0]!r}")
    return presentation(table, arrows)


def render_lattice(L: FiniteFrame) -> str:
    """Hasse edge list, one `a < b` covering pair per line; a one-element
    frame has no pairs, so its lone label makes the one line."""
    lines = [f"{L.elements[a]} < {L.elements[b]}" for a, b in L.covers()]
    return "\n".join(lines or L.elements) + "\n"


def parse_lattice(text: str) -> FiniteFrame:
    from .locales import FrameError, frame_from_covers

    lines = _logical_lines(text)
    order: list[str] = []
    seen = set()
    pairs = []
    for line in lines:
        if len(line) == 3 and line[1] == "<":
            if line[0] == line[2]:
                raise FormatError(f"cover pair repeats label {line[0]!r}")
            pairs.append((line[0], line[2]))
        elif len(line) != 1:
            raise FormatError(f"lattice lines read: a < b or a lone label, "
                              f"got {' '.join(line)!r}")
        # the labels: a pair's two ends, or the lone label
        for label in line[::2]:
            if label not in seen:
                seen.add(label)
                order.append(label)
    if not order:
        raise FormatError("empty lattice dump")
    index = {e: i for i, e in enumerate(order)}
    try:
        return frame_from_covers(tuple(order),
                                 [(index[a], index[b]) for a, b in pairs])
    except FrameError as e:
        raise FormatError(str(e)) from None


def read_lattice(path: str) -> FiniteFrame:
    return parse_lattice(_read_text(path))


def read_asc(path: str) -> AbstractSimplicialComplex:
    """ASC file: a `vertices: a b c` line, then `face: a b` lines; the
    subset closure is computed automatically."""
    from .finset import FinSetError, asc

    lines = _logical_lines(_read_text(path))
    if not lines:
        raise FormatError("empty complex file")
    vertices = _keyword(lines[0], "vertices")
    faces = []
    for line in lines[1:]:
        faces.append(_keyword(line, "face"))
    try:
        return asc(vertices, faces)
    except FinSetError as e:
        raise FormatError(str(e)) from None


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise FormatError(f"cannot write {path}: {e.strerror}") from None

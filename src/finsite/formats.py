"""Flat files: the tokenizer every format shares, reading and writing
text, and the semiring table format.  Each other format is parsed in the
module whose records it builds (covers in `site`, presentations in
`glue`, lattice dumps in `locales`, complexes in `finset`); its reader
here hands that module the file's text, so a command compiles its own
format and no other.  The package binds `semiring` here without running
it, so `stone` and `simplex` load no `semiring`.

Every reader is whitespace-tolerant (blank lines are skipped, any run of
whitespace separates tokens) and every writer emits the same format it
reads, so localized tables and lattice dumps can be fed back in.
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
    """Cover file, parsed by `site._parse_cover`."""
    from .site import _parse_cover

    return _parse_cover(_read_text(path), os.path.dirname(path) or ".")


def read_presentation(path: str) -> SPresentation:
    """Presentation file, parsed by `glue._parse_presentation`."""
    from .glue import _parse_presentation

    return _parse_presentation(_read_text(path), os.path.dirname(path) or ".")


def read_lattice(path: str) -> FiniteFrame:
    """Lattice dump, parsed by `locales._parse_lattice`."""
    text = _read_text(path)  # a file that cannot be read loads no locales
    from .locales import _parse_lattice

    return _parse_lattice(text)


def read_asc(path: str) -> AbstractSimplicialComplex:
    """Complex file, parsed by `finset._parse_asc`."""
    from .finset import _parse_asc

    return _parse_asc(_read_text(path))


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise FormatError(f"cannot write {path}: {e.strerror}") from None

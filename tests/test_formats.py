"""Round trips and error paths for the flat-file formats."""

import contextlib
import io
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finsite.finset
import finsite.locales
import finsite.site
from finsite.catalog import catalog, zmod
from finsite.cli import main
from finsite.formats import (
    FormatError,
    parse_semiring,
    read_asc,
    read_cover,
    read_lattice,
    read_presentation,
    read_semiring,
    render_semiring,
)
from finsite.locales import _parse_lattice, _render_lattice, frame_of_opens
from finsite.records import InvariantError
from finsite.semiring import AxiomError, localize
from finsite.site import lambda_X
from finsite.spectra import prime_spectrum


def test_semiring_round_trip_whole_catalog():
    for name, R in catalog():
        assert parse_semiring(render_semiring(R)) == R, name


def test_semiring_parsing_is_whitespace_tolerant():
    text = ("\n  elements:   0   1\n\nzero: 0\n one: 1\n"
            "add:\n0 1\n\n  1   1\nmul:\n0 0\n0 1\n\n")
    R = parse_semiring(text)
    assert R.n == 2 and R.elements == ("0", "1")


def test_semiring_parse_errors():
    with pytest.raises(FormatError):
        parse_semiring("elements: 0 1\nzero: 0\n")
    with pytest.raises(FormatError):
        parse_semiring("elements: 0 0\nzero: 0\none: 0\n"
                       "add:\n0 0\n0 0\nmul:\n0 0\n0 0\n")
    with pytest.raises(FormatError):
        parse_semiring("elements: 0 1\nzero: 2\none: 1\n"
                       "add:\n0 1\n1 1\nmul:\n0 0\n0 1\n")
    with pytest.raises(FormatError):
        parse_semiring("elements: 0 1\nzero: 0\none: 1\n"
                       "add:\n0 1\n1\nmul:\n0 0\n0 1\n")


def test_semiring_axiom_failure_is_not_a_parse_error():
    with pytest.raises(AxiomError):
        parse_semiring("elements: 0 1\nzero: 0\none: 1\n"
                       "add:\n0 1\n1 0\nmul:\n0 0\n0 0\n")


def test_cover_file(tmp_path):
    (tmp_path / "z6.sr").write_text(render_semiring(zmod(6)))
    cov = tmp_path / "cov.txt"
    cov.write_text("semiring: z6.sr\ncover: 2 3\n")
    S = read_cover(str(cov))
    assert S.base == zmod(6)
    assert [u.h for u in S.members] == [2, 3]
    cov.write_text("semiring: z6.sr\ncover: 2 9\n")
    with pytest.raises(FormatError):
        read_cover(str(cov))
    cov.write_text("cover: 2 3\n")
    with pytest.raises(FormatError):
        read_cover(str(cov))


def test_presentation_file_localize_at(tmp_path):
    (tmp_path / "z6.sr").write_text(render_semiring(zmod(6)))
    loc = localize(zmod(6), 2)
    (tmp_path / "o.sr").write_text(render_semiring(loc.semiring))
    pres = tmp_path / "p.pres"
    pres.write_text("node A z6.sr\nnode O o.sr\narrow O A localize-at 2\n")
    P = read_presentation(str(pres))
    assert P.names == ("A", "O")
    assert len(P.arrows) == 1
    si, di, h = P.arrows[0]
    assert P.names[si] == "O" and P.names[di] == "A"
    assert h.images == loc.to_local.images


def test_presentation_file_rejects_wrong_localization(tmp_path):
    (tmp_path / "z6.sr").write_text(render_semiring(zmod(6)))
    (tmp_path / "o.sr").write_text(
        render_semiring(localize(zmod(6), 2).semiring))
    pres = tmp_path / "p.pres"
    pres.write_text("node A z6.sr\nnode O o.sr\narrow O A localize-at 5\n")
    with pytest.raises(FormatError):
        read_presentation(str(pres))
    pres.write_text("node A z6.sr\narrow A B localize-at 2\n")
    with pytest.raises(FormatError):
        read_presentation(str(pres))
    pres.write_text("node A z6.sr\nwhatever A\n")
    with pytest.raises(FormatError):
        read_presentation(str(pres))


def test_presentation_file_map_arrow(tmp_path):
    (tmp_path / "z3.sr").write_text(render_semiring(zmod(3)))
    pres = tmp_path / "p.pres"
    pres.write_text("node A z3.sr\nnode B z3.sr\narrow A B map 0 1 2\n")
    P = read_presentation(str(pres))
    si, di, h = P.arrows[0]
    assert h.images == (0, 1, 2)
    pres.write_text("node A z3.sr\nnode B z3.sr\narrow A B map 0 2 1\n")
    with pytest.raises(FormatError):
        read_presentation(str(pres))


def test_lattice_round_trip():
    for R in (zmod(6), zmod(2)):
        frame, _ = lambda_X(R)
        dump = _render_lattice(frame)
        back = _parse_lattice(dump)
        assert sorted(back.elements) == sorted(frame.elements)
        assert len(back.covers()) == len(frame.covers())
        assert _render_lattice(back) == dump


def test_lattice_of_opens_round_trip():
    space = prime_spectrum(zmod(6)).space
    frame = frame_of_opens(space)
    back = _parse_lattice(_render_lattice(frame))
    assert back.n == frame.n


def test_lattice_parse_errors():
    with pytest.raises(FormatError):
        _parse_lattice("")
    with pytest.raises(FormatError):
        _parse_lattice("a <\n")


def test_asc_file(tmp_path):
    f = tmp_path / "k.asc"
    f.write_text("vertices: a b c d\nface: a b c\nface: b c d\n")
    K = read_asc(str(f))
    assert len(K.faces) == 11
    f.write_text("vertices: a b\nface: a\n")
    with pytest.raises(FormatError):
        read_asc(str(f))
    f.write_text("face: a b\n")
    with pytest.raises(FormatError):
        read_asc(str(f))


def test_missing_files_raise_format_errors(tmp_path):
    for reader in (read_semiring, read_cover, read_presentation, read_asc):
        with pytest.raises(FormatError):
            reader(str(tmp_path / "absent.file"))


@pytest.mark.parametrize("module, name, reader, text", [
    (finsite.site, "cover_family", read_cover, "semiring: z6.sr\ncover: 2\n"),
    (finsite.locales, "frame_from_covers", read_lattice, "a < b\n"),
    (finsite.finset, "asc", read_asc, "vertices: a\nface: a\n"),
], ids=["cover", "lattice", "complex"])
def test_invariant_errors_are_not_format_errors(tmp_path, monkeypatch, module,
                                                name, reader, text):
    """Each reader turns only its callee's input errors into FormatError;
    a broken invariant inside the callee propagates as itself."""
    (tmp_path / "z6.sr").write_text(render_semiring(zmod(6)))
    (tmp_path / "input").write_text(text)

    def broken(*args):
        raise InvariantError("broken invariant")

    monkeypatch.setattr(module, name, broken)
    with pytest.raises(InvariantError, match="broken invariant"):
        reader(str(tmp_path / "input"))


# The mutation test below edits the bundled catalog files and the README's
# example files, then runs the command that reads each format on the mutant.
REPO = Path(__file__).resolve().parents[1]
CATALOG = REPO / "src" / "finsite" / "data" / "catalog"
# tokens and characters that are no format's: a NUL byte, a label outside
# ASCII, numbers out of range, a lone keyword colon
ODD_TOKENS = ("", "\0", "é", "-1", "99", ":", "<", "#")
ODD_CHARS = ("\0", "é", ":", "#", "\t")


def _readme_examples() -> dict[str, str]:
    """The files the README shows with `$ cat NAME`, by name."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    return {name: body + "\n" for name, body in
            re.findall(r"^\$ cat (\S+)\n(.*?)\n\n", text, re.M | re.S)}


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    """A directory holding the files the seeds name, and the seed texts of
    each format with the commands that read it; the lattice dump is the
    README's `locale z6.sr --dot z6.lat`."""
    home = tmp_path_factory.mktemp("mutants")
    for f in CATALOG.glob("*.sr"):
        (home / f.name).write_bytes(f.read_bytes())
    (home / "o.sr").write_text(render_semiring(localize(zmod(6), 2).semiring),
                               encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["locale", str(home / "z6.sr"),
                     "--dot", str(home / "z6.lat")]) == 0
    readme = _readme_examples()
    formats = {
        "semiring": ([f.read_text(encoding="utf-8")
                      for f in sorted(CATALOG.glob("*.sr"))],
                     [["check"], ["spectrum"], ["spectrum", "--flavor", "weak"],
                      ["congruences"], ["locale"], ["localize", "1"]]),
        "cover": ([readme["cover.txt"]], [["sheaf-check"]]),
        "presentation": ([readme["doubled.pres"]],
                         [["glue"], ["glue", "--vis", "twisted"]]),
        "lattice": ([(home / "z6.lat").read_text(encoding="utf-8")],
                    [["stone"]]),
        "complex": ([readme["hollow.cx"]], [["simplex"]]),
    }
    tokens = {t for texts, _ in formats.values() for text in texts
              for t in text.split()}
    return home, formats, sorted(tokens) + list(ODD_TOKENS)


def _mutant(draw, text: str, tokens: list[str]) -> bytes:
    """One to three line, token or character edits of text, or a truncation
    of its UTF-8 bytes, which may split a character."""
    raw = text.encode("utf-8")
    if draw(st.integers(0, 3)) == 0:
        return raw[:draw(st.integers(0, len(raw) - 1))]
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        lines = lines or [""]
        i = draw(st.integers(0, len(lines) - 1))
        scope = draw(st.sampled_from(("line", "token", "character")))
        if scope == "line":
            j = draw(st.integers(0, len(lines) - 1))
            edit = draw(st.sampled_from(("delete", "repeat", "swap")))
            if edit == "delete":
                del lines[i]
            elif edit == "repeat":
                lines.insert(i, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
        elif scope == "token":
            words = lines[i].split(" ")
            k = draw(st.integers(0, len(words) - 1))
            edit = draw(st.sampled_from(("delete", "insert", "replace")))
            if edit != "insert":
                del words[k]
            if edit != "delete":
                words.insert(k, draw(st.sampled_from(tokens)))
            lines[i] = " ".join(words)
        else:
            j = draw(st.integers(0, len(lines[i])))
            lines[i] = (lines[i][:j] + draw(st.sampled_from(ODD_CHARS))
                        + lines[i][j:])
    return "".join(line + "\n" for line in lines).encode("utf-8")


@pytest.mark.parametrize("fmt", ["semiring", "cover", "presentation",
                                 "lattice", "complex"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_input_never_raises(seeds, fmt, data):
    """Every command on a damaged file gives a report, a failed check or an
    error line, with an exit code from 0 to 3 and no exception."""
    home, formats, tokens = seeds
    texts, commands = formats[fmt]
    text = data.draw(st.sampled_from(texts), label="seed")
    command = data.draw(st.sampled_from(commands), label="command")
    mutant = home / "mutant"
    mutant.write_bytes(_mutant(data.draw, text, tokens))
    argv = command[:1] + [str(mutant)] + command[1:]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv

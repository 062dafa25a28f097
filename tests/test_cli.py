"""End-to-end tests of the command-line interface."""

import argparse
import collections
import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import finsite
import finsite.checks
import finsite.cli
import finsite.finset
import finsite.formats
import finsite.glue
import finsite.locales
import finsite.semiring
import finsite.site
import finsite.spectra
from finsite.catalog import (boolean, boolean_pair, chain,
                             truncated_naturals, zmod)
from finsite.cli import main
from finsite.formats import (parse_semiring, read_lattice, read_presentation,
                             render_semiring)
from finsite.glue import VISUALIZATIONS, glue_space
from finsite.semiring import localize, validate_semiring

from census import census_upto
from oracles import are_isomorphic


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "z6.sr").write_text(render_semiring(zmod(6)))
    (tmp_path / "b.sr").write_text(render_semiring(boolean()))
    (tmp_path / "bxb.sr").write_text(render_semiring(boolean_pair()))
    (tmp_path / "o.sr").write_text(
        render_semiring(localize(zmod(6), 2).semiring))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_valid(workdir, capsys):
    code, out, _ = run(capsys, "check", str(workdir / "b.sr"))
    assert code == 0
    assert out == "valid, 2 elements\n"


def test_check_counts_one_element_in_the_singular(workdir, capsys):
    zero = workdir / "zero.sr"
    zero.write_text("elements: z\nzero: z\none: z\nadd:\n z\nmul:\n z\n")
    assert run(capsys, "check", str(zero)) == (0, "valid, 1 element\n", "")
    code, out, _ = run(capsys, "check", str(zero), "--format", "structured")
    assert (code, json.loads(out)) == (0, {"valid": True, "elements": 1})


def test_check_invalid_names_axiom(workdir, capsys):
    bad = workdir / "bad.sr"
    bad.write_text("elements: 0 1\nzero: 0\none: 1\n"
                   "add:\n 0 1\n 1 0\nmul:\n 0 0\n 0 0\n")
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 1
    assert out.startswith("invalid: multiplicative-identity")
    assert "witness:" in out


def test_check_missing_file(workdir, capsys):
    code, _, err = run(capsys, "check", str(workdir / "absent.sr"))
    assert code == 2
    assert "cannot read" in err


def test_check_malformed_file(workdir, capsys):
    bad = workdir / "short.sr"
    bad.write_text("elements: 0 1\nzero: 0\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2


def test_spectrum_prime_flavor(workdir, capsys):
    code, out, _ = run(capsys, "spectrum", str(workdir / "z6.sr"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "flavor: prime"
    assert lines[1] == "2 points, discrete"
    code, out, _ = run(capsys, "spectrum", str(workdir / "b.sr"))
    assert out.splitlines()[1] == "1 point, discrete"


def test_spectrum_k_flavor_drops_points(workdir, capsys):
    n2 = workdir / "n2.sr"
    n2.write_text("elements: 0 1 T\nzero: 0\none: 1\n"
                  "add:\n 0 1 T\n 1 T T\n T T T\n"
                  "mul:\n 0 0 0\n 0 1 T\n 0 T T\n")
    _, prime_out, _ = run(capsys, "spectrum", str(n2), "--flavor", "prime")
    _, k_out, _ = run(capsys, "spectrum", str(n2), "--flavor", "k")
    assert prime_out.splitlines()[1] == "2 points"
    assert k_out.splitlines()[1] == "1 point, discrete"


def test_spectrum_dot_output(workdir, capsys):
    target = workdir / "graph.dot"
    code, _, _ = run(capsys, "spectrum", str(workdir / "z6.sr"),
                     "--dot", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("digraph specialization {")


def test_spectrum_congruence_flavors(workdir, capsys):
    for flavor in ("weak", "strong", "twisted"):
        code, out, _ = run(capsys, "spectrum", str(workdir / "z6.sr"),
                           "--flavor", flavor)
        assert code == 0
        assert out.splitlines()[0] == f"flavor: {flavor}"
        assert out.splitlines()[1] == "2 points, discrete"


def test_congruences_structured(workdir, capsys):
    code, out, _ = run(capsys, "congruences", str(workdir / "z6.sr"),
                       "--format", "structured")
    assert code == 0
    data = json.loads(out)
    assert data["ideal_count"] == 4
    assert data["prime_count"] == 2
    assert data["weak_count"] == 2
    assert data["kernel_map_surjective"] is True
    assert list(data["chain_maps"]) == ["twisted_to_strong",
                                        "strong_to_weak", "weak_to_k",
                                        "k_to_prime"]


def test_locale_stone_pipeline(workdir, capsys):
    dump = workdir / "z6.lattice"
    code, out, _ = run(capsys, "locale", str(workdir / "z6.sr"),
                       "--dot", str(dump))
    assert code == 0
    assert out.splitlines()[0] == "frame of spectrum opens: 4 elements"
    assert "spatial: yes" in out.splitlines()
    assert len(dump.read_text().splitlines()) == 4
    code, out, _ = run(capsys, "stone", str(dump))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dual space: 2 points"
    assert "sober: yes" in lines
    assert "spatial: yes" in lines


def test_one_element_frame_round_trips(workdir, capsys):
    # zero = one: the spectrum is empty and its frame has one element and
    # no covering pairs
    triv = workdir / "triv.sr"
    triv.write_text("elements: 0\nzero: 0\none: 0\nadd:\n  0\nmul:\n  0\n")
    dump = workdir / "t.lat"
    code, out, _ = run(capsys, "locale", str(triv), "--dot", str(dump))
    assert code == 0
    assert out.splitlines()[0] == "frame of spectrum opens: 1 element"
    assert dump.read_text() == "{}\n"
    assert read_lattice(str(dump)).elements == ("{}",)
    code, out, _ = run(capsys, "stone", str(dump))
    assert code == 0
    assert out.splitlines()[0] == "dual space: 0 points"


def test_localize_output_parses_back(workdir, capsys):
    code, out, _ = run(capsys, "localize", str(workdir / "z6.sr"), "2")
    assert code == 0
    T = parse_semiring(out)
    assert are_isomorphic(T, zmod(3))
    code, _, err = run(capsys, "localize", str(workdir / "z6.sr"), "7")
    assert code == 2


def test_sheaf_check_cover(workdir, capsys):
    cov = workdir / "cov.txt"
    cov.write_text("semiring: z6.sr\ncover: 2 3\n")
    code, out, _ = run(capsys, "sheaf-check", str(cov))
    assert code == 0
    assert out.splitlines()[0] == "covers spectrum: pass"
    assert out.splitlines()[-1] == "9 checks, 0 failures"


def test_sheaf_check_empty_extent_family_fails(workdir, capsys):
    cov = workdir / "zero.txt"
    cov.write_text("semiring: b.sr\ncover: 0\n")
    code, out, _ = run(capsys, "sheaf-check", str(cov))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "covers spectrum: fail"
    assert "descent vs B: pass" in lines
    assert any(line.startswith("descent vs BxB: fail") for line in lines)


def test_verify_bundled_catalog(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.splitlines()[-1] == "40 checks, 0 failures"
    assert all(": pass" in line for line in out.splitlines()[:-1])


def test_verify_enumerates_congruences_once(enumerations, capsys):
    code, _, _ = run(capsys, "verify")
    assert code == 0
    assert len(enumerations) == 8
    assert set(enumerations.values()) == {1}, enumerations


def test_containments_report_a_kernel_that_is_no_k_ideal(monkeypatch):
    # the row tests the 0-class itself, so a failure is a fail row of
    # `verify` rather than an error out of `kernel_ideal`
    monkeypatch.setattr(finsite.checks, "is_k_ideal", lambda R, members:
                        False)
    assert finsite.checks._containment_rows(zmod(6)) == (
        False, "kernel not a prime k-ideal: {0,2,4}")


def test_non_utf8_file_is_a_format_error(workdir, capsys):
    bad = workdir / "bad.bin"
    bad.write_bytes(b"\x00\xff")
    for argv in (["check"], ["spectrum"], ["congruences"], ["locale"],
                 ["stone"], ["localize", "0"], ["sheaf-check"], ["glue"],
                 ["simplex"]):
        code, out, err = run(capsys, argv[0], str(bad), *argv[1:])
        assert code == 2, argv
        assert out == "", argv
        assert err.startswith("error: cannot read") and "UTF-8" in err, argv
        assert "Traceback" not in err, argv


@pytest.mark.parametrize("command, name, text", [
    ("sheaf-check", "nul.cover", "semiring: z6\0.sr\ncover: 2 3\n"),
    ("glue", "nul.pres", "node A z6.sr\nnode B z\0.sr\n"),
])
def test_path_with_a_nul_byte_exits_2(workdir, command, name, text):
    # open() refuses such a path with a ValueError, not an OSError
    (workdir / name).write_text(text, encoding="utf-8")
    code, out, err = _run_posix(workdir, command, name,
                                locale=UTF8_LOCALE)
    assert "Traceback" not in err
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read ") and err.endswith(
        ": embedded null byte\n")


def test_verify_reports_non_utf8_file(workdir, capsys):
    cat = workdir / "cat"
    cat.mkdir()
    (cat / "b.sr").write_text(render_semiring(boolean()))
    (cat / "bad.sr").write_bytes(b"\x00\xff")
    code, out, _ = run(capsys, "verify", str(cat))
    assert code == 1
    failed = [line for line in out.splitlines() if ": fail" in line]
    assert len(failed) == 1
    assert failed[0].startswith("bad.sr axioms: fail (cannot read")
    assert out.splitlines()[-1] == "6 checks, 1 failures"


def test_verify_reports_broken_file(workdir, capsys):
    cat = workdir / "cat"
    cat.mkdir()
    (cat / "b.sr").write_text(render_semiring(boolean()))
    (cat / "broken.sr").write_text(
        "elements: 0 1\nzero: 0\none: 1\n"
        "add:\n 0 1\n 1 0\nmul:\n 0 0\n 0 0\n")
    code, out, _ = run(capsys, "verify", str(cat))
    assert code == 1
    lines = out.splitlines()
    assert any(line.startswith("broken.sr axioms: fail") for line in lines)
    assert sum(1 for line in lines if ": fail" in line) == 1
    assert lines[-1] == "6 checks, 1 failures"


# B x B with element labels holding commas: check accepts it, but both
# primes print as {s,m,s}
COMMA_LABELS = """elements: s,m s m,s 1
zero: s
one: 1
add:
  s,m s,m 1 1
  s,m s m,s 1
  1 m,s m,s 1
  1 1 1 1
mul:
  s,m s s s,m
  s s s s
  s s m,s m,s
  s,m s m,s 1
"""


def test_repeated_point_labels_are_errors(workdir, capsys):
    commas = workdir / "commas"
    commas.mkdir()
    (commas / "bxb.sr").write_text(COMMA_LABELS)
    (commas / "b.sr").write_text(render_semiring(boolean()))
    assert run(capsys, "check", str(commas / "bxb.sr"))[0] == 0
    code, _, err = run(capsys, "spectrum", str(commas / "bxb.sr"))
    assert code == 1
    assert err.startswith("error: ") and "{s,m,s}" in err
    assert "Traceback" not in err
    # verify reports the error as a failed check and keeps going
    code, out, err = run(capsys, "verify", str(commas))
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert all(line.startswith("b.sr") and ": pass" in line
               for line in lines[:5])
    failed = [line for line in lines if ": fail" in line]
    assert failed == [f"bxb.sr {check}: fail (two spectrum points are "
                      "labeled {s,m,s})"
                      for check in ("theorem-A", "basis-law", "chain")]
    assert lines[-1] == "10 checks, 3 failures"


def test_verify_checks_only_semiring_files(workdir, capsys):
    # a presentation, a lattice dump and a subdirectory sit beside the
    # semiring files and get no rows
    (workdir / "doubled.pres").write_text("node A z6.sr\n")
    (workdir / "z6.lat").write_text("{} < {p}\n")
    (workdir / "more.sr").mkdir()
    code, out, _ = run(capsys, "verify", str(workdir))
    lines = out.splitlines()
    assert code == 0
    assert sorted({line.split()[0] for line in lines[:-1]}) == [
        "b.sr", "bxb.sr", "o.sr", "z6.sr"]
    assert lines[-1] == "20 checks, 0 failures"


def test_verify_empty_directory(workdir, capsys):
    empty = workdir / "empty"
    empty.mkdir()
    code, out, _ = run(capsys, "verify", str(empty))
    assert code == 0
    assert out == "0 checks, 0 failures\n"


def test_verify_structured_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--format", "structured")
    code2, out2, _ = run(capsys, "verify", "--format", "structured")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["failures"] == 0
    assert len(data["rows"]) == 40


def test_glue_doubled_point(workdir, capsys):
    pres = workdir / "doubled.pres"
    pres.write_text("node A z6.sr\nnode B z6.sr\nnode O o.sr\n"
                    "arrow O A localize-at 2\narrow O B localize-at 2\n")
    code, out, _ = run(capsys, "glue", str(pres))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "monodromy: monodromy free (2 loops checked)"
    assert lines[1] == "glued space (prime): 3 points"
    assert "point A:{0,3} = A:{0,3} B:{0,3} O:{0}" in lines
    assert sum(1 for line in lines if line.startswith("open ")) == 8
    code, out, _ = run(capsys, "glue", str(pres), "--vis", "weak")
    assert code == 0
    assert "glued space (weak): 3 points" in out.splitlines()


def test_glue_wedge_refused(workdir, capsys):
    pres = workdir / "wedge.pres"
    pres.write_text("node X bxb.sr\nnode U b.sr\n"
                    "arrow U X map 0 0 1 1\narrow U X map 0 1 0 1\n")
    code, out, _ = run(capsys, "glue", str(pres))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "refusing to glue"
    assert lines[1] == "monodromy: monodromy obstruction along X <- U -> X"


def test_glue_wedge_refused_in_either_node_order(workdir, capsys):
    pres = workdir / "wedge_u_first.pres"
    pres.write_text("node U b.sr\nnode X bxb.sr\n"
                    "arrow U X map 0 0 1 1\narrow U X map 0 1 0 1\n")
    code, out, _ = run(capsys, "glue", str(pres))
    assert code == 1
    assert out.splitlines()[0] == "refusing to glue"


def test_glue_single_node_passthrough(workdir, capsys):
    pres = workdir / "single.pres"
    pres.write_text("node A z6.sr\n")
    code, out, _ = run(capsys, "glue", str(pres))
    assert code == 0
    assert "glued space (prime): 2 points" in out.splitlines()


def test_glue_enumerates_each_chart_congruences_once(workdir, enumerations):
    pres = workdir / "doubled.pres"
    pres.write_text("node A z6.sr\nnode B z6.sr\nnode O o.sr\n"
                    "arrow O A localize-at 2\narrow O B localize-at 2\n")
    P = read_presentation(str(pres))
    for vis in VISUALIZATIONS:
        glue_space(P, vis)
    # A and B share one chart object: one enumeration per distinct chart
    assert P.charts[0] is P.charts[1]
    assert enumerations == collections.Counter(set(P.charts))


def test_glue_builds_each_congruence_space_once(workdir, monkeypatch):
    pres = workdir / "doubled.pres"
    pres.write_text("node A z6.sr\nnode B z6.sr\nnode O o.sr\n"
                    "arrow O A localize-at 2\narrow O B localize-at 2\n")
    builds = collections.Counter()
    real = finsite.spectra._build_space

    def counted(R, vis):
        builds[id(R), vis] += 1
        return real(R, vis)

    monkeypatch.setattr(finsite.spectra, "_build_space", counted)
    P = read_presentation(str(pres))
    for vis in ("weak", "strong", "twisted", "k"):
        builds.clear()
        glue_space(P, vis)
        glue_space(P, vis)
        # that level's space once per distinct chart object, and no space
        # of the levels below it
        assert builds == collections.Counter(
            (i, vis) for i in set(map(id, P.charts))), vis


def test_equal_chart_files_share_one_object(workdir):
    (workdir / "z6copy.sr").write_text(render_semiring(zmod(6)))
    pres = workdir / "copies.pres"
    pres.write_text("node A z6.sr\nnode B z6copy.sr\nnode O o.sr\n"
                    "arrow O A localize-at 2\narrow O B localize-at 2\n")
    P = read_presentation(str(pres))
    A, B, O = P.charts
    assert A is B and A is not O
    for si, di, h in P.arrows:
        assert h.source is P.charts[di] and h.target is P.charts[si]


def test_presentation_reads_each_file_once(workdir, monkeypatch):
    reads = collections.Counter()
    parsed = []
    real_read = finsite.formats._read_text
    real_parse = finsite.formats.parse_semiring

    def counted_read(path):
        reads[Path(path).name] += 1
        return real_read(path)

    def counted_parse(text):
        R = real_parse(text)
        parsed.append(R.elements)
        return R

    monkeypatch.setattr(finsite.formats, "_read_text", counted_read)
    monkeypatch.setattr(finsite.formats, "parse_semiring", counted_parse)
    pres = workdir / "doubled.pres"
    pres.write_text("node A z6.sr\nnode B z6.sr\nnode C z6.sr\nnode O o.sr\n"
                    "arrow O A localize-at 2\narrow O B localize-at 2\n")
    P = read_presentation(str(pres))
    assert reads == {"doubled.pres": 1, "z6.sr": 1, "o.sr": 1}
    assert parsed == [zmod(6).elements,
                      localize(zmod(6), 2).semiring.elements]
    assert len({id(R) for R in P.charts}) == 2


def test_glue_budget_exceeded(workdir, capsys):
    pres = workdir / "doubled.pres"
    pres.write_text("node A z6.sr\nnode B z6.sr\nnode O o.sr\n"
                    "arrow O A localize-at 2\narrow O B localize-at 2\n")
    code, _, err = run(capsys, "glue", str(pres), "--budget", "2")
    assert code == 3
    assert "budget" in err


def test_glue_checks_monodromy_once(workdir, capsys, monkeypatch):
    pres = workdir / "doubled.pres"
    pres.write_text("node A z6.sr\nnode B z6.sr\nnode O o.sr\n"
                    "arrow O A localize-at 2\narrow O B localize-at 2\n")
    calls = []
    real = finsite.glue._closed_walks

    def counted(P, bound):
        calls.append(P)
        return real(P, bound)

    monkeypatch.setattr(finsite.glue, "_closed_walks", counted)
    code, out, _ = run(capsys, "glue", str(pres))
    assert code == 0
    assert out.startswith("monodromy: monodromy free")
    assert len(calls) == 1


def test_glue_rejects_non_localization_arrow(workdir, capsys):
    # a map that is no hom is a malformed file; a hom that is no
    # localization is a well-formed presentation glue refuses
    pres = workdir / "diag.pres"
    pres.write_text("node X bxb.sr\nnode U b.sr\n"
                    "arrow U X map 0 1 1 1\n")
    code, _, err = run(capsys, "glue", str(pres))
    assert code == 2
    assert "does not preserve the operations" in err
    pres.write_text("node X bxb.sr\nnode U b.sr\n"
                    "arrow X U map (0,0) (1,1)\n")
    code, _, err = run(capsys, "glue", str(pres))
    assert code == 1
    assert err == "error: arrow X -> U is not a finite localization\n"


@pytest.mark.parametrize("text, message", [
    ("node A z6.sr\nnode O o.sr\narrow O A localize-at 7\n",
     "unknown element label '7'"),
    ("node X bxb.sr\nnode U b.sr\narrow U X map 0 0 1 7\n",
     "unknown element label '7'"),
    ("node A z6.sr\nnode A z6.sr\n", "duplicate node name 'A'"),
])
def test_glue_presentation_mistakes_are_format_errors(workdir, capsys, text,
                                                      message):
    pres = workdir / "bad.pres"
    pres.write_text(text)
    code, out, err = run(capsys, "glue", str(pres))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_simplex_dimension_flag(workdir, capsys):
    code, out, _ = run(capsys, "simplex", "--n", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "simplex of dimension 1: 3 points"
    assert lines[-1] == "closed points: {v0,v1}"
    code, out, _ = run(capsys, "simplex", "--n", "0")
    assert out.splitlines()[0] == "simplex of dimension 0: 1 point"


def test_simplex_complex_file(workdir, capsys):
    hollow = workdir / "hollow.asc"
    hollow.write_text("vertices: a b c\nface: a b\nface: b c\nface: c a\n")
    code, out, _ = run(capsys, "simplex", str(hollow))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "complex with 6 faces: 6 points"
    assert lines[-1] == "closed points: {a,b} {a,c} {b,c}"


def test_claims_pass_over_the_catalog(capsys):
    code, out, _ = run(capsys, "claims")
    lines = out.splitlines()
    assert code == 0
    assert lines[-1] == "10 claims, 0 failures"
    assert [line.partition(": ")[2] for line in lines[:3]] == [
        "pass (8 semirings)", "pass (8 semirings)", "pass (47 homs)"]
    assert lines[3:8] == [
        "sections over U_h are R[1/h]: pass (28 pairs)",
        "affine atlases glue back to Spec R: pass (38 covering families)",
        "glued comparison chain of the doubled Z6: pass (twisted 3, "
        "strong 3, weak 3, k 3, prime 3 points)",
        "finite-set descent is joint surjectivity: pass (96 families)",
        "face charts glue to the face poset: pass (4 complexes)"]
    assert lines[8:10] == [
        "wedge refused at the finite-set site: pass (V <- U -> V: limits "
        "of 0 and 1 elements)",
        "wedge refused at the semiring site: pass (monodromy obstruction "
        "along X <- U -> X)"]
    code, out, _ = run(capsys, "claims", "--format", "structured")
    data = json.loads(out)
    assert (code, data["failures"]) == (0, 0)
    assert [row["result"] for row in data["rows"]] == ["pass"] * 10


def test_claims_name_a_failing_row(capsys, monkeypatch):
    real = finsite.checks.principal_sections_iso

    def broken(R, h):
        if R.n == 6 and h == 2:
            raise finsite.semiring.SemiringError("no isomorphism")
        return real(R, h)

    monkeypatch.setattr(finsite.checks, "principal_sections_iso", broken)
    code, out, _ = run(capsys, "claims")
    lines = out.splitlines()
    assert code == 1
    assert [line for line in lines if ": fail" in line] == [
        "sections over U_h are R[1/h]: fail (Z6 at 2)"]
    assert lines[-1] == "10 claims, 1 failures"


def test_file_commands_on_every_census_semiring(tmp_path):
    # every semiring of order at most 5, written out and read back by
    # `check`, `congruences`, `locale`, `localize` at each element and
    # `spectrum` in each visualization: each run is a report or a failed
    # check, never an uncaught error; every spectrum is a report, and the
    # `stone` dual of every `locale --dot` dump is sober and spatial
    codes = collections.Counter()
    for i, R in enumerate(census_upto(5)):
        path = str(tmp_path / f"c{i}.sr")
        dump = str(tmp_path / f"c{i}.lat")
        (tmp_path / f"c{i}.sr").write_text(render_semiring(R),
                                           encoding="utf-8")
        runs = [("check", {}), ("congruences", {}), ("locale", {"dot": dump})]
        runs += [("localize", {"element": e}) for e in R.elements]
        runs += [("spectrum", {"flavor": vis, "dot": None})
                 for vis in VISUALIZATIONS]
        for command, options in runs:
            code, _, _ = finsite.cli._handler(command)(
                argparse.Namespace(file=path, **options))
            codes[code] += 1
            assert code == 0 or command != "spectrum", (i, options)
        code, _, data = finsite.cli._handler("stone")(
            argparse.Namespace(file=dump, dot=None))
        assert (code, data["sober"], data["spatial"]) == (0, True, True), i
        codes[code] += 1
    assert set(codes) <= {0, 1}
    assert sum(codes.values()) == 3 * 273 + 1307 + 5 * 273 + 273


def test_simplex_refuses_faces_labeled_alike(workdir, capsys):
    # the face {a,b} and the vertex named "a,b" print alike
    clash = workdir / "clash.asc"
    clash.write_text("vertices: a b a,b\nface: a b\nface: a,b\n")
    code, out, err = run(capsys, "simplex", str(clash))
    assert (code, out, err) == (1, "", "error: two faces are labeled {a,b}\n")


def test_simplex_requires_one_input(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simplex", "--n", "1", str(workdir / "hollow.asc")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simplex"])
    assert exc.value.code == 2
    capsys.readouterr()


# Past the element budget, the faces of a simplex or of a complex are
# refused before any is listed: exit 3, with the phase and the count.  The
# child runs under a 1 GiB address-space limit, so code that lists them
# ends in a MemoryError rather than taking the machine's memory.
@pytest.mark.parametrize("argv, text, message", [
    (("simplex", "--n", "30"), None,
     "a simplex of dimension 30 has 2^31 - 1 faces, over"),
    (("simplex", "big.cx"),
     "vertices: " + " ".join(f"v{i}" for i in range(30)) + "\nface: "
     + " ".join(f"v{i}" for i in range(30)) + "\n",
     "a face on 30 vertices has 2^30 - 1 faces, over"),
    (("simplex", "two.cx"),
     "vertices: " + " ".join(f"v{i}" for i in range(26)) + "\nface: "
     + " ".join(f"v{i}" for i in range(13)) + "\nface: "
     + " ".join(f"v{i}" for i in range(13, 26)) + "\n",
     "the complex has at least 16382 faces, over"),
], ids=["simplex", "one-face", "two-faces"])
def test_face_posets_past_the_budget_exit_3(workdir, argv, text, message):
    if text is not None:
        (workdir / argv[1]).write_text(text)
    code = ("import resource, sys, types\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from finsite.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "print(*sorted(n for n, m in list(sys.modules.items())\n"
            "              if n.partition('.')[0] == 'finsite'\n"
            "              and type(m) is types.ModuleType))\n"
            "sys.exit(status)\n")
    r = subprocess.run([sys.executable, "-c", code, *argv], cwd=workdir,
                       env=_child_env(), capture_output=True, text=True,
                       timeout=60)
    assert (r.returncode, r.stderr) == (
        3, f"error: face count: {message} the element budget 10000\n")
    # the budget error is a `records` class: no `semiring` is loaded
    assert "finsite.semiring" not in r.stdout.split()


@pytest.mark.parametrize("argv", [
    ("glue", "doubled.pres", "--path-bound", "-1"),
    ("glue", "doubled.pres", "--budget", "-5"),
    ("simplex", "--n", "-1"),
])
def test_negative_counts_are_usage_errors(workdir, capsys, argv):
    (workdir / "doubled.pres").write_text(
        "node A z6.sr\nnode O o.sr\narrow O A localize-at 2\n")
    with pytest.raises(SystemExit) as exc:
        main([str(workdir / a) if a.endswith(".pres") else a for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{argv[-2]}: must be at least 0, got {argv[-1]}" in captured.err


# `main` builds a parser of the one command argv names; it must read every
# command line as the parser of all eleven does.  The command lines are
# the README's and those of the benchmark's cli-session workload.
README_ARGV = [
    command.split()[1:]
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines() if line.startswith("$ finsite ")
    for command in line[2:].split("&&")]
CLI_SESSION_ARGV = [argv.split() for argv in (
    "check z6.sr", "spectrum z6.sr", "localize z6.sr 2", "verify",
    "locale z6.sr --dot z6.lat", "stone z6.lat", "glue doubled.pres",
    "sheaf-check cover.txt", "simplex --n 1", "simplex hollow.cx",
    "check bad.sr", "congruences z12.sr", "congruences n7.sr",
    "spectrum z6.sr --flavor k", "spectrum chain5.sr --flavor weak "
    "--dot c5.dot", "spectrum n7.sr --flavor twisted", "localize z12.sr 3",
    "locale bxb.sr", "stone cube.lat --dot cube.dot",
    "sheaf-check cover3.txt", "verify DIR",
    "glue cycle2.pres --vis twisted", "glue doubled.pres --vis weak "
    "--dot g.dot", "glue wedge.pres", "simplex --n 3", "simplex big.cx")]


def _parsed(parser, argv, capsys):
    """What parsing argv gives: the namespace, or the exit status and the
    bytes printed when argparse exits."""
    try:
        return parser.parse_args(argv)
    except SystemExit as e:
        captured = capsys.readouterr()
        return e.code, captured.out, captured.err


@pytest.mark.parametrize("argv", README_ARGV + CLI_SESSION_ARGV,
                         ids=" ".join)
def test_one_command_parser_reads_as_the_full_one(argv, capsys):
    one = _parsed(finsite.cli.build_parser(argv[0]), argv, capsys)
    assert isinstance(one, argparse.Namespace)
    assert one == _parsed(finsite.cli.build_parser(), argv, capsys)


# `CMD --bogus` fails in the command's parser when it lacks a required
# argument and in the top-level one otherwise, which names every command
@pytest.mark.parametrize("argv", [
    [name, flag] for flag in ("--help", "--bogus")
    for name in finsite.cli.COMMANDS] + [
    ["spectrum", "--flavor", "bogus"], ["glue", "--budget", "-1"],
    ["check", "z6.sr", "extra"]], ids=" ".join)
def test_one_command_parser_prints_as_the_full_one(argv, capsys):
    one = _parsed(finsite.cli.build_parser(argv[0]), argv, capsys)
    assert one[0] == (0 if argv[1] == "--help" else 2)
    assert one == _parsed(finsite.cli.build_parser(), argv, capsys)


def test_help_lists_every_command(capsys):
    status, out, _ = _parsed(finsite.cli.build_parser(), ["--help"], capsys)
    assert status == 0
    # each command's line is indented by four spaces, its help by more
    listed = [line.split()[0] for line in out.splitlines()
              if line.startswith("    ") and not line.startswith("     ")]
    assert listed == list(finsite.cli.COMMANDS)
    assert len(listed) == 11


@pytest.mark.parametrize("argv, error", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
    (["--format", "human"], "argument command: invalid choice: 'human'"),
], ids=["missing", "unknown", "option-first"])
def test_a_run_naming_no_command_gets_the_full_usage(argv, error, capsys):
    with pytest.raises(SystemExit) as e:
        finsite.cli.main(argv)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: finsite [-h]\n               {check,")
    assert err.splitlines()[-1].startswith(f"finsite: error: {error}")


# `main` reads a plain command line straight from `cli.COMMANDS` and
# hands any other line to argparse; what it reads must be what argparse
# reads.  Every README and cli-session line is plain.
@pytest.mark.parametrize("argv", [
    argv + fmt for argv in README_ARGV + CLI_SESSION_ARGV
    for fmt in ([], ["--format", "structured"])], ids=" ".join)
def test_the_matcher_reads_every_plain_line_as_argparse(argv, capsys):
    matched = finsite.cli._match(argv)
    assert matched is not None
    parsed = _parsed(finsite.cli.build_parser(), argv, capsys)
    assert vars(matched) == vars(parsed)


def _argparse_reads(argv):
    """What the full parser makes of argv: its namespace's dict, or the
    exit status when it refuses the line."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(finsite.cli.build_parser().parse_args(argv))
        except SystemExit as e:
            return e.code


# words drawn for the lines below: the table's own, and hostile ones that
# argparse reads differently from their spelling or refuses
_ARGUMENTS = {name: row[2] for name, row in finsite.cli.COMMANDS.items()}
_WORDS = ["z6.sr", "DIR", "2", "x.cx", ""]
_HOSTILE_FLAGS = ["--fla", "--flavor=weak", "-h", "--help", "--"]
_HOSTILE = _HOSTILE_FLAGS + ["-1", " -1", "²", "٣", "+3", "--bogus",
                             "extra.sr"]


def _values(keywords):
    """Values that fit an option: its choices, counts, or any words."""
    if "choices" in keywords:
        return list(keywords["choices"])
    return ["0", "1", "8", "007"] if "type" in keywords else _WORDS


@st.composite
def _command_lines(draw):
    """A command, about as many positionals as it takes, then `--name
    value` pairs, mostly of its own options with fitting values, each
    option often given twice, and sometimes a hostile word anywhere."""
    command = draw(st.sampled_from(list(_ARGUMENTS)))
    options = dict(a for a in [finsite.cli._FORMAT, *_ARGUMENTS[command]]
                   if a[0].startswith("-"))
    required = sum(not a[0].startswith("-") and "nargs" not in a[1]
                   for a in _ARGUMENTS[command])
    line = [command] + [draw(st.sampled_from(_WORDS)) for _ in range(
        draw(st.sampled_from([required] * 3 + [0, 1, 2])))]
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from([*options] * 4 + _HOSTILE_FLAGS))
        fitting = _values(options.get(flag, {}))
        line += [flag, draw(st.sampled_from(fitting * 4 + _HOSTILE))]
    if draw(st.integers(0, 3)) == 0:
        line.insert(draw(st.integers(1, len(line))),
                    draw(st.sampled_from(_HOSTILE + _WORDS)))
    return line


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_command_lines())
@example(["simplex", "--n", "1", "x.cx"])
@example(["spectrum", "z6.sr", "--flavor", "k", "--flavor", "weak"])
@example(["glue", "x.pres", "--budget", " -1"])
def test_the_matcher_declines_or_reads_as_argparse(argv):
    matched = finsite.cli._match(argv)
    if matched is not None:
        assert vars(matched) == _argparse_reads(argv)


def _session_inputs(workdir):
    """The input files that the cli-session command lines name."""
    _command_inputs(workdir)
    for name, R in (("z12.sr", zmod(12)), ("n7.sr", truncated_naturals(7)),
                    ("chain5.sr", chain(5))):
        (workdir / name).write_text(render_semiring(R))
    (workdir / "bad.sr").write_text(
        "elements: 0 1\nzero: 0\none: 1\nadd:\n 0 1\n 1 0\nmul:\n 0 0\n"
        " 0 0\n")
    (workdir / "DIR").mkdir()
    (workdir / "DIR" / "z6.sr").write_text(render_semiring(zmod(6)))
    (workdir / "cube.lat").write_text(
        "{} < {a}\n{} < {b}\n{a} < {a,b}\n{b} < {a,b}\n")
    (workdir / "cycle2.pres").write_text(
        "node A0 z6.sr\nnode A1 z6.sr\nnode O0 o.sr\nnode O1 o.sr\n"
        "arrow O0 A0 localize-at 2\narrow O0 A1 localize-at 2\n"
        "arrow O1 A1 localize-at 2\narrow O1 A0 localize-at 2\n")
    (workdir / "wedge.pres").write_text(
        "node X bxb.sr\nnode U b.sr\narrow U X map 0 0 1 1\n"
        "arrow U X map 0 1 0 1\n")
    (workdir / "cover.txt").write_text("semiring: z6.sr\ncover: 2 3\n")
    (workdir / "cover3.txt").write_text("semiring: z6.sr\ncover: 1 2 3\n")
    for name in ("hollow.cx", "big.cx"):
        (workdir / name).write_text(
            "vertices: a b c\nface: a b\nface: a c\nface: b c\n")


def test_plain_lines_load_no_argparse_and_human_ones_no_json(workdir):
    # every cli-session line in one interpreter, the human reports first:
    # each prints its exit status and which of argparse and json are loaded
    _session_inputs(workdir)
    code = ("import contextlib, io, sys\n"
            "from finsite.cli import main\n"
            "for line in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        status = main(line.split())\n"
            "    print(status, *[name for name in ('argparse', 'json')\n"
            "                    if name in sys.modules])\n")
    lines = [" ".join(argv) for argv in CLI_SESSION_ARGV]
    rows = _fresh(code, workdir, *lines,
                  *[line + " --format structured" for line in lines])
    refused = {"check bad.sr", "glue wedge.pres"}
    assert rows.splitlines() == (
        [str(int(line in refused)) for line in lines]
        + [f"{int(line in refused)} json" for line in lines])


# exit 2 for a format error, 3 for a budget error and 1 for a glue error
# are covered by real commands above; these errors no input file reaches
@pytest.mark.parametrize("error", [
    finsite.locales.FrameError("no frame"),
    finsite.finset.FinSetError("no injection"),
    finsite.semiring.SemiringError("no semiring"),
])
def test_error_exit_codes(workdir, capsys, monkeypatch, error):
    def fail(ns):
        raise error

    monkeypatch.setattr(finsite.semiring, "_cmd_check", fail)
    assert main(["check", str(workdir / "b.sr")]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"


def test_unexpected_error_propagates(workdir, monkeypatch):
    def fail(ns):
        raise KeyError("bug")

    monkeypatch.setattr(finsite.semiring, "_cmd_check", fail)
    with pytest.raises(KeyError):
        main(["check", str(workdir / "b.sr")])


# A fresh interpreter per command, importing finsite from this checkout by
# an absolute path, as criterion 10 does.
SRC = str(Path(finsite.__file__).resolve().parents[1])
CHECK_MODULES = {"finsite", "finsite.cli", "finsite.formats",
                 "finsite.records", "finsite.semiring"}


def _child_env(**extra):
    """This environment with the code under test first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def _fresh(code, cwd, *argv):
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd,
                          env=_child_env(), capture_output=True, text=True,
                          check=True).stdout


def test_closed_stdout_ends_quietly(workdir):
    # the child waits on stdin until its stdout pipe is closed
    code = ("import sys\n"
            "sys.stdin.read()\n"
            "from finsite.cli import main\n"
            "raise SystemExit(main(sys.argv[1:]))\n")
    child = subprocess.Popen(
        [sys.executable, "-c", code, "localize", "z6.sr", "5"], cwd=workdir,
        env=_child_env(), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    child.stdout.close()
    _, err = child.communicate("", timeout=60)
    assert "Traceback" not in err
    assert (child.returncode, err) == (0, "")


def _greek_pair():
    """B x B with its elements labelled 0 α β 1."""
    BB = boolean_pair()
    return validate_semiring(("0", "α", "β", "1"), BB.add, BB.mul, BB.zero,
                             BB.one)


POSIX_LOCALE = {"LC_ALL": "POSIX", "PYTHONUTF8": "0",
                "PYTHONCOERCECLOCALE": "0"}
UTF8_LOCALE = {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"}


def _run_posix(cwd, *argv, locale=POSIX_LOCALE):
    """`python -m finsite` in the POSIX locale, whose encoding is ASCII, or
    in the given locale settings; stdout and stderr come back decoded as
    UTF-8."""
    env = _child_env(**locale)
    env.pop("PYTHONIOENCODING", None)
    child = subprocess.run([sys.executable, "-m", "finsite", *argv],
                           cwd=cwd, env=env, capture_output=True, timeout=60)
    return (child.returncode, child.stdout.decode("utf-8"),
            child.stderr.decode("utf-8"))


@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_reports_and_dot_files_are_utf8_in_a_posix_locale(tmp_path, capsys,
                                                           fmt):
    (tmp_path / "ab.sr").write_text(render_semiring(_greek_pair()),
                                    encoding="utf-8")
    code, out, err = _run_posix(tmp_path, "spectrum", "ab.sr",
                                "--dot", "ab.dot", "--format", fmt)
    assert (code, err) == (0, "")
    here = run(capsys, "spectrum", str(tmp_path / "ab.sr"),
               "--dot", str(tmp_path / "here.dot"), "--format", fmt)
    assert (code, out) == here[:2]
    dot = (tmp_path / "ab.dot").read_bytes()
    assert dot == (tmp_path / "here.dot").read_bytes()
    assert '"{0,α}";'.encode("utf-8") in dot


@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_command_line_labels_are_utf8_in_every_locale(tmp_path, fmt):
    (tmp_path / "ab.sr").write_text(render_semiring(_greek_pair()),
                                    encoding="utf-8")
    # the label goes out as UTF-8 bytes, whatever this process's locale
    argv = ("localize", "ab.sr", "α".encode("utf-8"), "--format", fmt)
    posix = _run_posix(tmp_path, *argv)
    utf8 = _run_posix(tmp_path, *argv, locale=UTF8_LOCALE)
    assert posix == utf8
    code, out, err = posix
    assert (code, err) == (0, "")
    assert ("α" if fmt == "human" else "\\u03b1") in out


def test_locale_dump_reads_back_with_stone_in_a_posix_locale(tmp_path):
    (tmp_path / "ab.sr").write_text(render_semiring(_greek_pair()),
                                    encoding="utf-8")
    code, out, err = _run_posix(tmp_path, "locale", "ab.sr", "--dot", "ab.lat")
    assert (code, err) == (0, "")
    dump = (tmp_path / "ab.lat").read_text(encoding="utf-8")
    assert "{{0,α}} < {{0,α},{0,β}}" in dump.splitlines()
    assert dump.splitlines() == out.splitlines()[3:]
    code, out, err = _run_posix(tmp_path, "stone", "ab.lat")
    assert (code, err) == (0, "")
    assert out.splitlines()[:3] == ["dual space: 2 points",
                                    "point {{0,α}}", "point {{0,β}}"]


@pytest.mark.parametrize("argv, text, message", [
    (("sheaf-check", "cov.txt"), "semiring: z6.sr\ncover: 2 9\n",
     "unknown element label '9'"),
    (("stone", "cyc.lat"), "a < b\nb < a\n",
     "order not antisymmetric on a, b"),
    (("stone", "m3.lat"), "0 < a\n0 < b\n0 < c\na < 1\nb < 1\nc < 1\n",
     "meet does not distribute over join at (c, a, b)"),
    (("stone", "vee.lat"), "a < b\na < c\n", "no join for b, c"),
    (("simplex", "lone.asc"), "vertices: a b\nface: a\n",
     "every vertex must lie in some face"),
    (("simplex", "unknown.asc"), "vertices: a b\nface: a c\n",
     "face uses unknown vertex 'c'"),
    (("simplex", "twice.asc"), "vertices: a a\nface: a\n",
     "duplicate vertex label"),
    (("stone", "loop.lat"), "a < a\n", "cover pair repeats label 'a'"),
])
def test_malformed_cover_lattice_and_complex_files_exit_2(workdir, capsys,
                                                          argv, text, message):
    (workdir / argv[1]).write_text(text)
    code, out, err = run(capsys, argv[0], str(workdir / argv[1]))
    assert (code, out, err) == (2, "", f"error: {message}\n")


# Every finsite submodule sits in sys.modules from `import finsite` on; one
# whose body has not run yet is still of a ModuleType subclass.
EXECUTED = ("print(*sorted(n for n, m in list(sys.modules.items())\n"
            "              if n.partition('.')[0] == 'finsite'\n"
            "              and type(m) is types.ModuleType))\n")


# standard-library modules whose import would cost every command more than
# its own work: `dataclasses` and `pkgutil` both import `inspect`
HEAVY = ("dataclasses", "inspect", "pkgutil")


def loaded_modules(cwd, *argv):
    """Exit code of one command run through `main` in a fresh interpreter,
    the finsite modules executed by then, and which of HEAVY are loaded."""
    code = ("import contextlib, io, sys, types\n"
            "from finsite.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        status = main(sys.argv[1:])\n"
            "    except SystemExit as e:\n"
            "        status = e.code\n"
            "print(status)\n" + EXECUTED +
            f"print(*[n for n in {HEAVY!r} if n in sys.modules])\n")
    status, modules, heavy = _fresh(code, cwd, *argv).split("\n")[:3]
    return int(status), set(modules.split()), set(heavy.split())


@pytest.mark.parametrize("argv", [("check", "z6.sr"),
                                  ("localize", "z6.sr", "2")])
def test_light_commands_load_only_formats_and_semiring(workdir, argv):
    assert loaded_modules(workdir, *argv)[:2] == (0, CHECK_MODULES)


def test_help_loads_no_more_than_check(workdir):
    status, modules, _ = loaded_modules(workdir, "--help")
    assert status == 0
    assert modules <= CHECK_MODULES


def test_a_failing_light_command_loads_nothing_more(workdir):
    (workdir / "bad.sr").write_text("elements: 0 1\n")
    status, modules, _ = loaded_modules(workdir, "check", "bad.sr")
    assert status == 2
    assert modules == CHECK_MODULES


def _command_inputs(workdir):
    (workdir / "chain.lat").write_text("0 < a\na < 1\n")
    (workdir / "hollow.cx").write_text(
        "vertices: a b c\nface: a b\nface: a c\nface: b c\n")
    (workdir / "cov.txt").write_text("semiring: z6.sr\ncover: 2 3\n")
    (workdir / "doubled.pres").write_text(
        "node A z6.sr\nnode B z6.sr\nnode O o.sr\n"
        "arrow O A localize-at 2\narrow O B localize-at 2\n")


@pytest.mark.parametrize("argv, absent", [
    (("simplex", "--n", "1"), {"semiring", "spectra", "site", "glue",
                               "colimit", "checks"}),
    (("spectrum", "z6.sr"), {"glue", "colimit", "checks"}),
    (("congruences", "z6.sr"), {"glue", "colimit", "checks"}),
    (("stone", "chain.lat"), {"semiring", "glue", "colimit", "checks"}),
    (("locale", "z6.sr"), {"site", "glue", "colimit", "checks"}),
    (("sheaf-check", "cov.txt"), {"glue", "locales", "checks"}),
    (("verify",), {"glue", "colimit"}),
    (("claims",), set()),
    (("glue", "doubled.pres"), {"site", "locales", "finset", "checks"}),
])
def test_commands_load_only_what_they_call(workdir, argv, absent):
    _command_inputs(workdir)
    status, modules, _ = loaded_modules(workdir, *argv)
    assert status == 0
    assert not modules & {f"finsite.{name}" for name in absent}


@pytest.mark.parametrize("argv", [
    ("check", "z6.sr"), ("--help",), ("simplex", "--n", "1"),
    ("spectrum", "z6.sr"), ("congruences", "z6.sr"), ("stone", "chain.lat"),
    ("locale", "z6.sr"), ("sheaf-check", "cov.txt"), ("verify",),
    ("glue", "doubled.pres"), ("claims",)], ids=lambda argv: argv[0])
def test_no_command_loads_dataclasses_inspect_or_pkgutil(workdir, argv):
    _command_inputs(workdir)
    status, modules, heavy = loaded_modules(workdir, *argv)
    assert status == 0
    assert heavy == set()
    assert ("finsite.colimit" in modules) == (
        argv[0] in ("glue", "sheaf-check", "claims"))


# Each command's handler lives in the module of the layer it drives and
# each file format's parser in the module whose records it builds; moving
# one there must not make a command run any module it did not run before.
@pytest.mark.parametrize("argv, layers", [
    (("check", "z6.sr"), "formats semiring"),
    (("spectrum", "z6.sr"), "formats semiring spectra topology"),
    (("congruences", "z6.sr"), "formats semiring spectra topology"),
    (("locale", "z6.sr"), "formats locales semiring spectra topology"),
    (("stone", "chain.lat"), "formats locales topology"),
    (("localize", "z6.sr", "2"), "formats semiring"),
    (("sheaf-check", "cov.txt"),
     "catalog colimit formats semiring site spectra topology"),
    (("verify",), "checks formats locales semiring site spectra topology"),
    (("glue", "doubled.pres"),
     "colimit formats glue semiring spectra topology"),
    (("simplex", "--n", "3"), "finset topology"),
    (("simplex", "hollow.cx"), "finset formats topology"),
    (("claims",),
     "catalog checks colimit finset glue semiring site spectra topology"),
], ids=["check", "spectrum", "congruences", "locale", "stone", "localize",
        "sheaf-check", "verify", "glue", "simplex", "simplex-file", "claims"])
def test_commands_execute_exactly_their_layers(workdir, argv, layers):
    # beside the package, `cli` and the `records` every layer derives from
    _command_inputs(workdir)
    status, modules, _ = loaded_modules(workdir, *argv)
    assert status == 0
    assert modules == {"finsite", "finsite.cli", "finsite.records"} | {
        f"finsite.{name}" for name in layers.split()}


def test_every_submodule_is_an_attribute_of_the_package(tmp_path):
    code = ("import pkgutil, sys, types\n"
            "import finsite\n" + EXECUTED +
            "for m in pkgutil.iter_modules(finsite.__path__):\n"
            "    if m.name != '__main__':\n"
            "        mod = getattr(finsite, m.name)\n"
            "        assert mod is sys.modules['finsite.' + m.name], m.name\n"
            "        assert mod.__doc__, m.name\n"
            "        print(m.name, type(mod) is types.ModuleType)\n"
            "assert not hasattr(finsite, 'nonexistent')\n")
    executed, *rows = _fresh(code, tmp_path).splitlines()
    assert executed == "finsite"
    assert all(row.endswith(" True") for row in rows)
    assert {"cli", "glue", "spectra"} <= {row.split()[0] for row in rows}


def test_exit_codes_name_real_error_classes():
    for key in finsite.cli.EXIT_CODES:
        module, _, name = key.rpartition(".")
        assert issubclass(getattr(importlib.import_module(module), name),
                          Exception), key


def test_structured_reports_parse(workdir, capsys):
    _, out, _ = run(capsys, "spectrum", str(workdir / "z6.sr"),
                    "--format", "structured")
    data = json.loads(out)
    assert data["discrete"] is True
    assert len(data["points"]) == 2
    _, out, _ = run(capsys, "simplex", "--n", "2",
                    "--format", "structured")
    data = json.loads(out)
    assert len(data["points"]) == 7
    assert data["closed_points"] == ["{v0,v1,v2}"]


def _golden_outputs(workdir, capsys):
    """Structured stdout of every command over the bundled catalog, the
    README examples and the simplices, plus the --dot files, by name."""
    from finsite.checks import bundled_catalog_dir
    outputs = {}

    def record(name, *argv):
        code, out, _ = run(capsys, *argv, "--format", "structured")
        outputs[name] = f"{code}\n{out}"

    for path in sorted(bundled_catalog_dir().glob("*.sr")):
        f = str(path)
        for cmd in ("check", "congruences", "locale"):
            record(f"{cmd} {path.name}", cmd, f)
        for flavor in ("prime", "k", "weak", "strong", "twisted"):
            record(f"spectrum {path.name} {flavor}",
                   "spectrum", f, "--flavor", flavor)
        for element in parse_semiring(path.read_text()).elements:
            record(f"localize {path.name} {element}", "localize", f, element)
    dump = workdir / "z6.lattice"
    run(capsys, "locale", str(workdir / "z6.sr"), "--dot", str(dump))
    record("stone z6.lattice", "stone", str(dump))
    cov = workdir / "cov.txt"
    cov.write_text("semiring: z6.sr\ncover: 2 3\n")
    record("sheaf-check cov.txt", "sheaf-check", str(cov))
    record("verify", "verify")
    pres = workdir / "doubled.pres"
    pres.write_text("node A z6.sr\nnode B z6.sr\nnode O o.sr\n"
                    "arrow O A localize-at 2\narrow O B localize-at 2\n")
    for vis in ("prime", "k", "weak", "strong", "twisted"):
        record(f"glue doubled.pres {vis}", "glue", str(pres), "--vis", vis)
    for n in range(4):
        record(f"simplex {n}", "simplex", "--n", str(n))
    hollow = workdir / "hollow.asc"
    hollow.write_text("vertices: a b c\nface: a b\nface: b c\nface: c a\n")
    record("simplex hollow.asc", "simplex", str(hollow))
    for name, argv in (("spectrum", ("spectrum", str(workdir / "z6.sr"))),
                       ("glue", ("glue", str(pres))),
                       ("simplex", ("simplex", "--n", "3"))):
        target = workdir / f"{name}.dot"
        run(capsys, *argv, "--dot", str(target))
        outputs[f"{name} --dot"] = target.read_text()
    return outputs


# sha256 of each output of _golden_outputs, recorded before gluing moved
# into finsite.topology; the reports must stay byte-identical
GOLDEN_DIGESTS = {
    "check b.sr":
        "29cfc82fd210d15d8622c05e35dd82f0dfcc3ffe02ec7111422b7098f3f2c01c",
    "congruences b.sr":
        "bdce530ab76479ad07e3a02cd82f1fd44bd8f102ebe29bf507853cd0d54d3411",
    "locale b.sr":
        "80d45c50c28fa90592db364ed536b132ff76c29e8b1fa8962df5440079266a2d",
    "spectrum b.sr prime":
        "bb5464439f4e2b00551a3f53d25a5c802b9ec23057068da42770e68de9267d1a",
    "spectrum b.sr k":
        "28dce0c1c589cba3d395513c51d5eb6924ae27ebaf6a416484c726ddffb4e361",
    "spectrum b.sr weak":
        "79f1f801666082d2e772f68ab90a3de43a358d5abdf3ffb14e025dfdb42bc0a7",
    "spectrum b.sr strong":
        "68586365fc23d61831b1961f72a32ea76136aa97c03166e07586be700f963c00",
    "spectrum b.sr twisted":
        "1dbacfbdb503de4aaeafc9fccd37865de6fc26d02d0a218706db2cc535dbb3ad",
    "localize b.sr 0":
        "dc2dfa26695e13b24c4842c89581a3753b03c0743ff10bd430918d4b551ca398",
    "localize b.sr 1":
        "8f40b6316bb7bd772845b11cfc4afcaf779f6fd5df672e3653cefbe317f9064f",
    "check bxb.sr":
        "b5c83c7412c2e50cb92abede9e720e23a5ba0b959932279360338a1cac36cdd6",
    "congruences bxb.sr":
        "9fdd871b8310f9fa52a849008014fab7030020842b2a947deb2c3b8435e0c5b5",
    "locale bxb.sr":
        "e7e6f0c5cf6912833bb2b1b535296a408f72a0f0eb947232702d624eb48b2cb9",
    "spectrum bxb.sr prime":
        "86f14f84d561d8080042d39747ed55ded647e6a14be797f411cce1b74a3b3d7f",
    "spectrum bxb.sr k":
        "5c27cc0cac3b611bd88891c5413236e10650993fc878e651e35b5a0f0d802e51",
    "spectrum bxb.sr weak":
        "b582b8b46201d4c9679f075b253af63aabcb94e48813bdc82f8fb627a76b6fc5",
    "spectrum bxb.sr strong":
        "a01f6970f05980b8af97fbd78b2d3684e838357fe7abe08e7f32a229f1f5ffba",
    "spectrum bxb.sr twisted":
        "5a05902823d7c529fdbf02c0300b53119de74c05f27f5a23e1e45c8ad46b112f",
    "localize bxb.sr (0,0)":
        "d03582f276717dbdb7fcfe23a6b1ebd0313f39dab1039976cbdd096dfa426dfd",
    "localize bxb.sr (0,1)":
        "bbf40853d9a5602f5487af4626bcd6c8a9bc3c70b93f91134d8a8e01125f7907",
    "localize bxb.sr (1,0)":
        "8c85253c9bacdc8f4232f18e9575f797a63d677347455a9af8b82592912cfe6b",
    "localize bxb.sr (1,1)":
        "fd72f070ffaedd2fdb40b075fd14bab1f8cf578e9a3f0cacf4f493b5f4b411d7",
    "check chain4.sr":
        "b5c83c7412c2e50cb92abede9e720e23a5ba0b959932279360338a1cac36cdd6",
    "congruences chain4.sr":
        "2b58efa986e2907a55b8cb43f080c8a0c4920f3ff58a6ceef70f53c91f197563",
    "locale chain4.sr":
        "a5e3dbb3758e5fe57871897eb3f93e2a9b46c749d534bc5a6dbe8973130d9316",
    "spectrum chain4.sr prime":
        "9639c938ac1ae7de67c40b8dc3630918abb355ec20c112ceaec0842d7fdaab0c",
    "spectrum chain4.sr k":
        "fda078b7c218e0857c87eebdf62a760c332d07c19ce6e730587610e6235703eb",
    "spectrum chain4.sr weak":
        "77c76c7a012e58d5efb89e8f9124adb142c053409e31f6f5e5b9415dadcdad49",
    "spectrum chain4.sr strong":
        "86ad29dd2b631102527fc7efdd53d3c6d951fc9c303b2b8b9bc416a2b14bb673",
    "spectrum chain4.sr twisted":
        "2dc443a1af1a4172e34d5175b74c8dcbc51711f3bafab43162889203e460ab3e",
    "localize chain4.sr c0":
        "5fcbfdd9b8446bdeff4a2de0b4727a5046d41288b0f59669510559abb2d0fff6",
    "localize chain4.sr c1":
        "bbbc5b955caa4506b7d70cadb065ab0de8484cbcf709c2120f6973a52b57e506",
    "localize chain4.sr c2":
        "657bf0af6a746349ea9ee3bc1416d4283e29e9bb0656bfdc3e4e2f0081564e25",
    "localize chain4.sr c3":
        "0ccf1b632ea6e5f7e8e71f6711d0f880a834926fb70d62030870e5e90bab7f3d",
    "check n2.sr":
        "6bcf89d80b5aa3833c8b6c285aee3d7e1f6ce019f14a6e016798821b77651cfc",
    "congruences n2.sr":
        "156e48d5100df91c25e5fa8eec480e6cc184f58a06006336a286ea5526885ff2",
    "locale n2.sr":
        "7378f08c6621d38bf471a2848791a8ead4acb0798f1943040a4d6d8beb55ae2a",
    "spectrum n2.sr prime":
        "b586244dd6689a55f0b457b65feb0a51a2e50f67474a9ae29cf875c3e9eaf4c1",
    "spectrum n2.sr k":
        "699f42d983b99539a6332d2e69a504275ea588a4a73ad67af666fdb610652a75",
    "spectrum n2.sr weak":
        "f8b38861dd69773d1a3b38f545accb2c48eacf5e86f580824a98c561fc083cc6",
    "spectrum n2.sr strong":
        "3fc0c561987e886e4a5738d8ed4e76b97c03ed191152fecf52bf37bb7c26eaf3",
    "spectrum n2.sr twisted":
        "8fd22432906d1ea0462bc3173ab51ccb8f9ca60afa43bcf735b3c9790dc8a67d",
    "localize n2.sr 0":
        "dc2dfa26695e13b24c4842c89581a3753b03c0743ff10bd430918d4b551ca398",
    "localize n2.sr 1":
        "bf13a74093d7e5548b89d8120f75fc297f50aa4db7d1cf3b9377d443f1451c23",
    "localize n2.sr T":
        "1533434ec03f526730e726fd45f71cf49ed174a879d05bfaa4d695283b49c8a4",
    "check n3.sr":
        "b5c83c7412c2e50cb92abede9e720e23a5ba0b959932279360338a1cac36cdd6",
    "congruences n3.sr":
        "6e4b3758852d864c837a81ac883ad3529fd3de333d08eda5fd492b57bc2eeca3",
    "locale n3.sr":
        "096cb0c50fe67b305f14282e3de97a731976c466e888c04423343cbc99fef035",
    "spectrum n3.sr prime":
        "2f341dc08717a1a54d10ac95fd1e81ea9151ab1eba82086c0cf0eebe93ac1d85",
    "spectrum n3.sr k":
        "5f92862e05516a0eff29d00af6c9233e9cbfce8137dd89b697f708a03534e9b1",
    "spectrum n3.sr weak":
        "92c75d8aa3228e9ce3160b7f8e871c17d377429fa5843c4f631dd0d77b773d43",
    "spectrum n3.sr strong":
        "f63787f5cc1c883b3155a4a132fbdd33719c470e515d960b4a5e87ac3f7b70ae",
    "spectrum n3.sr twisted":
        "7fa2d1311f64a8a2ff440409534308acd1bf967ba266b0d24e3bb0c5e7524c36",
    "localize n3.sr 0":
        "dc2dfa26695e13b24c4842c89581a3753b03c0743ff10bd430918d4b551ca398",
    "localize n3.sr 1":
        "000703745d1d40c3a920409e0db47b80c6ed090a6836b8faa3205f2ac36851d9",
    "localize n3.sr 2":
        "cb0e12a11c20fc2570212e0530292b499497f276250c8bf816470128175e5357",
    "localize n3.sr T":
        "1533434ec03f526730e726fd45f71cf49ed174a879d05bfaa4d695283b49c8a4",
    "check z2.sr":
        "29cfc82fd210d15d8622c05e35dd82f0dfcc3ffe02ec7111422b7098f3f2c01c",
    "congruences z2.sr":
        "bdce530ab76479ad07e3a02cd82f1fd44bd8f102ebe29bf507853cd0d54d3411",
    "locale z2.sr":
        "80d45c50c28fa90592db364ed536b132ff76c29e8b1fa8962df5440079266a2d",
    "spectrum z2.sr prime":
        "bb5464439f4e2b00551a3f53d25a5c802b9ec23057068da42770e68de9267d1a",
    "spectrum z2.sr k":
        "28dce0c1c589cba3d395513c51d5eb6924ae27ebaf6a416484c726ddffb4e361",
    "spectrum z2.sr weak":
        "79f1f801666082d2e772f68ab90a3de43a358d5abdf3ffb14e025dfdb42bc0a7",
    "spectrum z2.sr strong":
        "68586365fc23d61831b1961f72a32ea76136aa97c03166e07586be700f963c00",
    "spectrum z2.sr twisted":
        "1dbacfbdb503de4aaeafc9fccd37865de6fc26d02d0a218706db2cc535dbb3ad",
    "localize z2.sr 0":
        "dc2dfa26695e13b24c4842c89581a3753b03c0743ff10bd430918d4b551ca398",
    "localize z2.sr 1":
        "fcf7ec1d19ef957a0b657ea54375b3399a4cf6cd72c6a969b8765576c3ce0a1f",
    "check z3.sr":
        "6bcf89d80b5aa3833c8b6c285aee3d7e1f6ce019f14a6e016798821b77651cfc",
    "congruences z3.sr":
        "af535d95db94b35fb8fc2e57d93854b5956413efd785c906a6f3ced20748ad01",
    "locale z3.sr":
        "80d45c50c28fa90592db364ed536b132ff76c29e8b1fa8962df5440079266a2d",
    "spectrum z3.sr prime":
        "4d3d1c8b747a1e73ccd367003111b58c5808b0dd789443e5c15ac2ae27415d0d",
    "spectrum z3.sr k":
        "1a0043916aa4984e3d18d17b089647ef8f7b0f92b8f8e8c1ab3efc46fe9f0008",
    "spectrum z3.sr weak":
        "e4a3038c85d74650d94424cb4e360f074d338ea003e5a50818f737d7b9208a92",
    "spectrum z3.sr strong":
        "1a338e4e3adcb96c8be8016162e78f9a99ff38e13b6a13f8d46ca0bfde95e01e",
    "spectrum z3.sr twisted":
        "4aa89d63d29314ee65e9b47e8de3d2218e35cc688747e0e677c3c2900351aac0",
    "localize z3.sr 0":
        "dc2dfa26695e13b24c4842c89581a3753b03c0743ff10bd430918d4b551ca398",
    "localize z3.sr 1":
        "da92673d45a7f4da7a75997b76673b9ab936e3d3cce081ba145ab532980772d0",
    "localize z3.sr 2":
        "10f3b2944fc0aa72eb6d0febe8daff9459ce618119b6ad285db0ec702d5f9b5e",
    "check z6.sr":
        "ef5fff0d08a9d77a8729d7bca635fd867006f61a13054fd4513636e397cd3888",
    "congruences z6.sr":
        "777eb8f033523009d3c373ee45d85458d87e7a9a28899f24151a6ba41cc66c06",
    "locale z6.sr":
        "cfdfdf470ccfb1ac326e7c5306873376fa40d877ab9e35268ad4e64a42e94740",
    "spectrum z6.sr prime":
        "a95ef40b8d7688475f25aead7192196162c0a6c3ab0fabc19737b9533ef976d1",
    "spectrum z6.sr k":
        "61ce3173cc2efe2fcf6c937ef881fddfeaa8f23a8a3b9972948fded399c4a050",
    "spectrum z6.sr weak":
        "5f7642bbadd5e3d0d6cd93e71be9121b72433ac93346cab280c5813fb7c71563",
    "spectrum z6.sr strong":
        "b161637a059446f02e4e575ab305422afb1e7eaee99bb513f62c394bc59d3ae4",
    "spectrum z6.sr twisted":
        "8e21e89c59fd2231d5b0383102cfbfa94162d6024aad81cc1961e42d7fe35c1d",
    "localize z6.sr 0":
        "dc2dfa26695e13b24c4842c89581a3753b03c0743ff10bd430918d4b551ca398",
    "localize z6.sr 1":
        "c18b043e6a142fa8989dc2ec1b334d5fa8c72bf7715d866ec9b33d1ebd419492",
    "localize z6.sr 2":
        "10f3b2944fc0aa72eb6d0febe8daff9459ce618119b6ad285db0ec702d5f9b5e",
    "localize z6.sr 3":
        "dcddc36800d04d2af7fd36ae7e05d1207aa704c2b3c0c1f0f7df38a98ccf03b5",
    "localize z6.sr 4":
        "e7bf4813cc92c305171bbbe589c0fc47ecab24a6ad75ace87b2504e94cf0fc18",
    "localize z6.sr 5":
        "c615eb6af50a8c9e39ed33074bdadc421879c1c5098537be36dc5a6632a5a517",
    "stone z6.lattice":
        "b57410badcbc9cc8343c6fd07362354a6b52eba1134edd2cad4ac42a37598780",
    "sheaf-check cov.txt":
        "14e494742edb7fa4f13983e76cd35567b7642569cc74b11faf5eb952e2e5087d",
    "verify":
        "ac124abbbdcaa2de59f723f91e98ab6f8c1eb7efd64da2e8a332543142cd51d8",
    "glue doubled.pres prime":
        "45367114ed836be6303d980ca09da561e822d0b6ca64fe3442b66eb7082b7626",
    "glue doubled.pres k":
        "f5d78a74ba0da7f0848e09267a4ca9115785e7d79dcd0b97dbd08ca58e175f11",
    "glue doubled.pres weak":
        "de2412783787beafba387d21f9cda1889a37baca782f9ad8411c353ceecaffaa",
    "glue doubled.pres strong":
        "44a7b104b544dde28cc6c3734783349658056a9cf8af0cc3df89a4513f6bd4db",
    "glue doubled.pres twisted":
        "1830e3ba2718df6dd7a9437ff3795b555d15e06c770c06697cca0196d34a9078",
    "simplex 0":
        "20dc336691a9de51309260f6ebc7dda6b3e9b6863cc35353c4afb6878ec3665f",
    "simplex 1":
        "4c41f3a69fb0982499ffdb75835cdf2e829164522c703947ad602116a807a522",
    "simplex 2":
        "603cc3277e9f802bae8f2e597acd391424cfb90ca7a59109e729d82c59715fad",
    "simplex 3":
        "7b8437db4cbf2a25c474951fe6d7436038db32a724c46a9c4e78473723a4d291",
    "simplex hollow.asc":
        "9732969cdc3837e62eeccc2e430cc391ba324e4c4b166a66b4ed8f0e8ef6e00b",
    "spectrum --dot":
        "009875411e89da7f938f7d4b81d9cf3592437153a682ab46b262aa924a4918e3",
    "glue --dot":
        "9dd54abe7fb22da4f70c27abf673a55c5f7c83b9763b5dc836ec11287691743c",
    "simplex --dot":
        "957f6718a331bfe5e862d4222c77c4a2126eeceb120bf3ba1e36c9be2f298094",
}


def test_reports_match_golden_digests(workdir, capsys):
    outputs = _golden_outputs(workdir, capsys)
    digests = {name: hashlib.sha256(text.encode()).hexdigest()
               for name, text in outputs.items()}
    changed = sorted(name for name in GOLDEN_DIGESTS
                     if digests.get(name) != GOLDEN_DIGESTS[name])
    assert changed == []
    assert sorted(digests) == sorted(GOLDEN_DIGESTS)

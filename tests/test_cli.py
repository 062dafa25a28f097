"""End-to-end tests of the command-line interface."""

import json

import pytest

import finsite.glue
from finsite.catalog import boolean, boolean_pair, zmod
from finsite.cli import main
from finsite.formats import parse_semiring, render_semiring
from finsite.semiring import are_isomorphic, localize


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


def test_glue_single_node_passthrough(workdir, capsys):
    pres = workdir / "single.pres"
    pres.write_text("node A z6.sr\n")
    code, out, _ = run(capsys, "glue", str(pres))
    assert code == 0
    assert "glued space (prime): 2 points" in out.splitlines()


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
    pres = workdir / "diag.pres"
    pres.write_text("node X bxb.sr\nnode U b.sr\n"
                    "arrow U X map 0 1 1 1\n")
    code, _, err = run(capsys, "glue", str(pres))
    assert code in (1, 2)


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


def test_simplex_requires_one_input(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simplex", "--n", "1", str(workdir / "hollow.asc")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simplex"])
    assert exc.value.code == 2
    capsys.readouterr()


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

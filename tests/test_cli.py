"""End-to-end tests of the command-line interface."""

import hashlib
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


def _golden_outputs(workdir, capsys):
    """Structured stdout of every command over the bundled catalog, the
    README examples and the simplices, plus the --dot files, by name."""
    from finsite.cli import bundled_catalog_dir
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

"""Tests of the benchmark itself, not of finsite.

    python3 -m pytest perfbench/check_bench.py

They import finsite from the checkout's src directory and take about ten
seconds together.
"""

import json
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import cases  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def make_run(workload: str, tmp_path: Path) -> run.Run:
    r = run.Run(run.parse(["--workload", workload, "--seed", "1",
                           "--seconds", "1"]), ROOT)
    r.work = tmp_path / "work"
    r.setup()
    return r


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic(workload, tmp_path):
    ids = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        inputs = gen.Inputs(workload, seed, tmp_path / name)
        ids[name] = [c.id for c in inputs.cases(0) + inputs.cases(1)]
    assert tree(tmp_path / "a") == tree(tmp_path / "b")
    assert ids["a"] == ids["b"]
    # another seed: other bytes and order, the same cases
    assert tree(tmp_path / "a") != tree(tmp_path / "c")
    assert sorted(ids["a"]) == sorted(ids["c"])


def test_spectra_passes_relabel_but_digest_alike(tmp_path):
    inputs = gen.Inputs("spectra-sweep", 1, tmp_path)
    first = sorted(inputs.cases(0), key=lambda c: c.id)
    second = sorted(inputs.cases(1), key=lambda c: c.id)
    assert Path(first[0].args[0]).read_text() != \
        Path(second[0].args[0]).read_text()
    kinds = cases.Kinds(run.fresh_import(ROOT / "src"))
    for case, twin in list(zip(first, second))[:12]:
        assert cases.digest(cases.run_in_process(kinds, case, 30).summary) == \
            cases.digest(cases.run_in_process(kinds, twin, 30).summary)


def test_traced_and_untraced_digests_agree(tmp_path):
    picked = []
    for workload in ("spectra-sweep", "glue-atlas", "face-posets"):
        inputs = gen.Inputs(workload, 1, tmp_path / workload)
        picked += sorted((c for c in inputs.cases(0) if c.cls != "ladder"),
                         key=lambda c: c.id)[::9]
    refs = {}
    for ref in json.loads((BENCH / "reference.json").read_text())[
            "digests"].values():
        refs.update(ref)

    def digests(kinds, tracer=None):
        out = {}
        for no, case in enumerate(picked):
            if tracer is not None:
                tracer.begin_case(no)
            outcome = cases.run_in_process(kinds, case, 30)
            assert outcome.status == "done", case.id
            out[case.id] = cases.digest(outcome.summary)
        return out

    plain = digests(cases.Kinds(run.fresh_import(ROOT / "src")))
    tracer = spans.Tracer()
    fs = run.fresh_import(ROOT / "src", tracer)
    tracer.install()
    try:
        traced = digests(cases.Kinds(fs), tracer)
    finally:
        tracer.uninstall()
    assert plain == traced == {c.id: refs[c.id] for c in picked}
    metrics = spans.metrics(tracer.raw())
    assert metrics["formats.files_read"] > 0
    assert all(metrics[f"{layer}.self_s"] > 0 for layer in spans.LAYERS)
    assert any(p >= 0 for p in tracer.parent)


def test_forced_timeout_is_undecided_and_the_pass_goes_on(tmp_path):
    r = make_run("face-posets", tmp_path)
    by_id = {c.id: c for c in r.first}
    rows = r.run_pass([by_id["ladder/simplex-4"], by_id["simplex/2"]], 0.2)
    assert [v for _, _, v in rows] == ["undecided", "decided"]
    assert rows[0][1].status == "timeout" and rows[0][1].norm == 0.2


def test_brute_force_agrees_on_small_semirings(tmp_path):
    assert make_run("spectra-sweep", tmp_path).oracle_failures() == []


def test_quantile_estimates():
    values = list(range(1000))
    assert abs(run.quantile(values, 0.5) - 499.5) < 0.5
    assert abs(run.quantile(values, 0.9) - 899.5) < 1.5
    # a gap between two clusters: the estimate moves smoothly across it
    gap = [1.0] * 89 + [2.0] * 11
    assert 1.0 < run.quantile(gap, 0.9) < 2.0


def test_oracle_counts_match_closed_forms():
    for n in range(5):
        faces = [frozenset(c) for k in range(1, n + 2)
                 for c in combinations(range(n + 1), k)]
        assert (len(faces), oracle.face_poset_opens(faces)) == \
            oracle.simplex_counts(n)
    assert [oracle.simplex_counts(n)[1] for n in range(5)] == \
        [2, 5, 19, 167, 7580]


def test_refuses_to_run_without_the_program(tmp_path):
    p = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                        "glue-atlas", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       timeout=120)
    assert p.returncode != 0
    assert p.stdout == b""

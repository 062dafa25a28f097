"""Capture the reference digests the benchmark checks every result against.

    python3 perfbench/capture.py

Run from the root of a checkout at the commit whose results are the
reference.  Every case of every workload runs once, without a time limit
worth the name, and perfbench/reference.json is rewritten.  Ladder rungs
get no digest: they are checked against counts made without finsite.
"""

import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import cases  # noqa: E402
import gen  # noqa: E402
from run import fresh_import  # noqa: E402

LIMIT_S = 300.0


def main() -> int:
    root = Path.cwd()
    src = root / "src"
    work = root / ".perfbench" / "capture"
    env = dict(os.environ, PYTHONPATH=str(src))
    kinds = cases.Kinds(fresh_import(src))
    digests = {}
    try:
        for workload in gen.WORKLOADS:
            inputs = gen.Inputs(workload, 0, work / workload)
            digests[workload] = {}
            for case in sorted(inputs.cases(0), key=lambda c: c.id):
                if case.cls == "ladder":
                    continue
                if case.kind == "cli":
                    tmp = work / "tmp"
                    tmp.mkdir(parents=True, exist_ok=True)
                    outcome = cases.run_child(
                        [sys.executable, "-m", "finsite", *case.args,
                         "--format", "structured"], tmp, env, LIMIT_S)
                    shutil.rmtree(tmp)
                else:
                    outcome = cases.run_in_process(kinds, case, LIMIT_S)
                wrong = case.expect is not None and outcome.status == "done" \
                    and cases.counts(outcome.summary) != list(case.expect)
                if outcome.status != "done" or wrong:
                    print(f"{case.id}: {outcome.status} {outcome.summary}",
                          file=sys.stderr)
                    return 1
                digests[workload][case.id] = cases.digest(outcome.summary)
                print(f"{workload} {case.id} {outcome.seconds:.3f}s",
                      file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "reference.json").write_text(
        json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark of finsite: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports finsite from ./src and
writes only under ./.perfbench.  With --trace 0 it repeats whole passes
over the workload's cases until S seconds have passed and at least
MIN_SAMPLES cases were timed, then prints the end-to-end metrics.  With
--trace 1 it makes an untraced pass, a traced pass and another untraced
pass, and prints the per-layer metrics.  The last line of stdout is the
result; a short account of the run goes to stderr.  README.md defines every metric.

The machine this was written on changes speed by a quarter within
minutes, for a fixed loop as much as for finsite.  So every end-to-end
time is calibrated: a yardstick is timed before each case, and a case's
seconds are scaled by the yardstick's reference time over its median time
in the pass.  The yardstick is a fixed pure-Python loop for the
in-process workloads and the start of a bare interpreter for cli-session,
whose cases are fresh processes.  The times read as seconds on a machine
where the yardsticks take CAL_REF_S and START_REF_S; stderr also shows
them uncalibrated.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import cases  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

LIMIT_S = 3.0            # per-case limit of a timed pass
TRACE_LIMIT_FACTOR = 4   # the traced pass allows this many times more
MIN_SAMPLES = 100        # cases timed per run, so p90 has ten beyond it
SETUP_REPEATS = 5        # setup_s is the median of this many set-ups
PROBE_REPEATS = 7        # start and import probes of an in-process run
STOP_AFTER_S = 140.0     # no case starts later than this into the run
ORACLE_MAX_N = 8         # brute-force cross-check up to this many elements
CAL_ITERS = 20_000       # iterations of the calibration loop
CAL_REF_S = 0.0017       # its median time on the machine the bounds fit
START_REF_S = 0.05       # median start of a bare interpreter there

CLOCK = time.perf_counter
T0 = CLOCK()

UNITS = {"_s": "s", "_ms": "ms", "_frac": "frac", "_pct": "%", "_mb": "MB"}


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the machine's current speed."""
    start = CLOCK()
    acc = 0
    for i in range(CAL_ITERS):
        acc += i * i % 7
    return CLOCK() - start


def calibrated(rows, ref: float) -> None:
    """Set each outcome's calibrated seconds from the median yardstick time
    of its pass.  A case that timed out or failed keeps the limit
    uncalibrated: the limit is a wall-clock charge, not work done."""
    if not rows:
        return
    scale = ref / statistics.median(o.cal for _, o, _ in rows)
    for _, o, _ in rows:
        o.norm = o.seconds * scale if o.status == "done" else o.seconds


def fresh_import(src: Path, tracer=None):
    """Import finsite from src anew, dropping any earlier copy."""
    for name in [n for n in sys.modules
                 if n == "finsite" or n.startswith("finsite.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    if tracer is None:
        importlib.import_module("finsite.cli")
    else:
        with tracer.imports():
            importlib.import_module("finsite.cli")
    return sys.modules["finsite"]


def quantile(values, p: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density.  A single
    order statistic jumps when it sits at a gap between case costs; this
    average over the ranks around it does not."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    h = 1 / (n * steps)
    logs = [(a - 1) * math.log((j + 0.5) * h)
            + (b - 1) * math.log1p(-(j + 0.5) * h) for j in range(n * steps)]
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [sum(dens[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def time_metrics(passes, attr: str) -> dict:
    lat = [getattr(o, attr) for p in passes for _, o, _ in p]
    return {"wall_s": statistics.median(sum(getattr(o, attr) for _, o, _ in p)
                                        for p in passes),
            "case_p50_ms": 1000 * quantile(lat, 0.5),
            "case_p90_ms": 1000 * quantile(lat, 0.9)}


class Run:
    def __init__(self, ns, root: Path):
        self.ns = ns
        self.src = root / "src"
        self.work = root / ".perfbench" / \
            f"{ns.workload}-{ns.seed}-{os.getpid()}"
        self.out = root / ".perfbench" / "out"
        self.cli = ns.workload == "cli-session"
        self.env = dict(os.environ, PYTHONPATH=str(self.src))

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """Generate the inputs, load the references and import finsite,
        SETUP_REPEATS times into fresh directories; keep the last."""
        times = []
        for i in range(SETUP_REPEATS):
            scale = CAL_REF_S / calibrate()
            start = CLOCK()
            here = self.work / f"setup{i}"
            self.inputs = gen.Inputs(self.ns.workload, self.ns.seed, here)
            self.first = self.inputs.cases(0)
            ref = json.loads((BENCH / "reference.json").read_text())
            self.refs = ref["digests"][self.ns.workload]
            self.fs = fresh_import(self.src)
            times.append((CLOCK() - start) * scale)
            if i + 1 < SETUP_REPEATS:
                shutil.rmtree(here)
        self.kinds = cases.Kinds(self.fs)
        return statistics.median(times)

    # -- one case, one pass --------------------------------------------------

    def run_case(self, case, limit: float, tracer=None, case_no=0):
        if not self.cli:
            if tracer is not None:
                tracer.begin_case(case_no)
            return cases.run_in_process(self.kinds, case, limit)
        tmp = self.work / "tmp" / str(case_no)
        tmp.mkdir(parents=True)
        try:
            if tracer is None:
                argv = [sys.executable, "-m", "finsite", *case.args]
            else:
                argv = [sys.executable, str(BENCH / "child.py"),
                        str(tmp / "raw.json"), str(tmp / "spans.tsv"),
                        *case.args]
            outcome = cases.run_child([*argv, "--format", "structured"],
                                      tmp, self.env, limit)
            if tracer is not None and (tmp / "raw.json").exists():
                outcome.raw = json.loads((tmp / "raw.json").read_text())
                lines = (tmp / "spans.tsv").read_text().splitlines()[1:]
                with open(self.trace_file, "a") as fh:
                    fh.writelines(f"{line}\t{case.id}\n" for line in lines)
            return outcome
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def verdict(self, case, outcome) -> str:
        """decided, undecided (timed out) or failed (an unexpected error
        or a result that differs from the reference)."""
        if outcome.status == "timeout":
            return "undecided"
        if outcome.status == "error":
            return "failed"
        if case.expect is not None and \
                cases.counts(outcome.summary) != list(case.expect):
            return "failed"
        if case.cls == "ladder":
            return "decided"
        digest = cases.digest(outcome.summary)
        return "decided" if self.refs.get(case.id) == digest else "failed"

    def run_pass(self, case_list, limit: float, tracer=None, before=None):
        rows = []
        for no, case in enumerate(case_list):
            if CLOCK() - T0 > STOP_AFTER_S:
                log(f"stopping early, {len(case_list) - no} cases not run")
                break
            if before is not None:
                before()
            cal = self.spawn("pass") if self.cli else calibrate()
            outcome = self.run_case(case, limit, tracer, no)
            outcome.cal = cal
            rows.append((case, outcome, self.verdict(case, outcome)))
        calibrated(rows, START_REF_S if self.cli else CAL_REF_S)
        return rows

    # -- the two kinds of run ----------------------------------------------

    def timed(self) -> tuple[dict, list]:
        passes = []
        start = CLOCK()
        while True:
            case_list = self.first if not passes else \
                self.inputs.cases(len(passes))
            gc.collect()
            passes.append(self.run_pass(case_list, LIMIT_S))
            timed = sum(len(p) for p in passes)
            if CLOCK() - start >= self.ns.seconds and timed >= MIN_SAMPLES:
                break
            if CLOCK() - T0 > STOP_AFTER_S:
                break
        who = resource.RUSAGE_CHILDREN if self.cli else resource.RUSAGE_SELF
        peak_mb = resource.getrusage(who).ru_maxrss / 1024
        rows = [row for p in passes for row in p]
        verdicts = [v for _, _, v in rows]
        out = {**time_metrics(passes, "norm"),
               "decided_frac": verdicts.count("decided") / len(verdicts),
               "peak_rss_mb": peak_mb}
        log(f"{len(passes)} passes, {len(rows)} cases timed; uncalibrated "
            + ", ".join(f"{k} {v:.4f}"
                        for k, v in time_metrics(passes, "seconds").items()))
        self.cal = statistics.median(o.cal for _, o, _ in rows)
        return out, rows

    def traced(self) -> tuple[dict, list]:
        # an untraced pass first: the baseline of the overhead and of the
        # cli timings; in cli-session each command follows its own probes,
        # so that machine drift between probe and command stays small
        probes = []
        gc.collect()
        plain = self.run_pass(self.first, LIMIT_S, before=(
            (lambda: probes.append(self.probe())) if self.cli else None))
        if not self.cli:
            probes = [self.probe() for _ in range(PROBE_REPEATS)]
        tracer = spans.Tracer()
        self.out.mkdir(parents=True, exist_ok=True)
        self.trace_file = \
            self.out / f"trace-{self.ns.workload}-{self.ns.seed}.tsv"
        if self.cli:
            self.trace_file.write_text("name\tstart\tend\tparent\tcase\n")
        else:
            self.fs = fresh_import(self.src, tracer)
            tracer.install()
            self.kinds = cases.Kinds(self.fs)
        gc.collect()
        try:
            traced = self.run_pass(self.first, LIMIT_S * TRACE_LIMIT_FACTOR,
                                   tracer)
        finally:
            tracer.uninstall()
        # a second untraced pass, so the overhead compares the traced pass
        # with untraced passes on both sides of it
        gc.collect()
        after = self.run_pass(self.first, LIMIT_S)
        skip = [no for no, (_, _, v) in enumerate(traced) if v != "decided"]
        if self.cli:
            raw = {}
            for _, o, _ in traced:
                for k, v in (o.raw or {}).items():
                    raw[k] = raw.get(k, 0) + v
        else:
            raw = tracer.raw(skip)
            tracer.write(self.trace_file, [c.id for c, _, _ in traced])
        log(f"spans written to {self.trace_file}")
        metrics = spans.metrics(raw)
        startup = statistics.median(s for s, _ in probes)
        imported = statistics.median(i for _, i in probes)
        if self.cli:
            command = statistics.median(o.seconds - i for (_, o, _), (_, i)
                                        in zip(plain, probes))
        else:
            command = statistics.median(o.seconds for _, o, _ in plain)
        metrics["cli.startup_ms"] = 1000 * startup
        metrics["cli.import_ms"] = 1000 * (imported - startup)
        metrics["cli.command_ms"] = 1000 * command
        times = [(a.norm, b.norm, c.norm)
                 for (_, a, va), (_, b, vb), (_, c, vc)
                 in zip(plain, traced, after) if va == vb == vc == "decided"]
        untraced = sum(a + c for a, _, c in times) / 2
        metrics["trace.overhead_pct"] = 100 * (
            sum(b for _, b, _ in times) / untraced - 1)
        rows = plain + traced + after
        self.cal = statistics.median(o.cal for _, o, _ in rows)
        return metrics, rows

    def spawn(self, code: str) -> float:
        """Seconds for a fresh interpreter that runs code and exits."""
        tmp = self.work / "probe"
        tmp.mkdir(parents=True, exist_ok=True)
        start = CLOCK()
        subprocess.run([sys.executable, "-c", code], cwd=tmp, env=self.env,
                       check=True)
        return CLOCK() - start

    def probe(self) -> tuple[float, float]:
        """Seconds for a bare interpreter and for one that imports
        finsite.cli."""
        return self.spawn("pass"), self.spawn("import finsite.cli")

    # -- independent cross-check -------------------------------------------

    def oracle_failures(self) -> list[str]:
        """Ideals, congruences and prime ideals of every spectra-sweep
        semiring of at most ORACLE_MAX_N elements against brute force."""
        if self.ns.workload != "spectra-sweep":
            return []
        fs, bad = self.fs, []
        for case in self.first:
            R = fs.formats.read_semiring(case.args[0])
            if R.n > ORACLE_MAX_N:
                continue
            ideals = set(oracle.ideals(R))
            primes = {I for I in ideals if oracle.is_prime_ideal(R, I)}
            congruences = [c.blocks
                           for c in fs.semiring.enumerate_congruences(R)]
            if set(fs.spectra.enumerate_ideals(R)) != ideals \
                    or set(fs.spectra.prime_spectrum(R).primes) != primes \
                    or congruences != sorted(oracle.congruences(R)):
                bad.append(case.id)
        return bad


def parse(argv):
    ap = argparse.ArgumentParser(description="finsite benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    ns = parse(argv)
    root = Path.cwd()
    if not (root / "src" / "finsite" / "__init__.py").is_file():
        log("no finsite sources under ./src; run from the root of a checkout")
        return 2
    run = Run(ns, root)
    try:
        setup_s = run.setup()
        if ns.trace:
            metrics, rows = run.traced()
        else:
            metrics, rows = run.timed()
            metrics = {"setup_s": setup_s, **metrics}
        bad = run.oracle_failures()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    failed = sum(1 for _, _, v in rows if v == "failed") + len(bad)
    for case, o, v in rows:
        if v == "failed":
            why = o.summary if o.status == "error" else "wrong result"
            log(f"failed: {case.id}: {why}")
    for case_id in bad:
        log(f"failed the brute-force cross-check: {case_id}")
    log(f"python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"seed {ns.seed}, median yardstick {run.cal:.6f} s "
        f"({'interpreter start' if run.cli else 'calibration loop'})")
    result = {
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit_of(metric: str) -> str:
    """The unit a metric's name ends in; a bare name is a count."""
    return next((unit for suffix, unit in UNITS.items()
                 if metric.endswith(suffix)), "count")


if __name__ == "__main__":
    raise SystemExit(main())

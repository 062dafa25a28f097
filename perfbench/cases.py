"""Run one benchmark case against finsite and digest its result.

Each case kind reads its generated files back through `finsite.formats`,
calls the public finsite functions a user would call, and returns a plain
summary of what came back.  Spaces are summarised as the CLI lists them:
points, every open from `sorted_opens`, and `specialization_dot`.  The
summary is built inside the timed region because listing is part of the
work; turning it into a digest happens outside.
"""

from __future__ import annotations

import hashlib
import json
import re
import signal
import subprocess
import time
from dataclasses import dataclass

from gen import PREFIX_RE


class CaseTimeout(BaseException):
    """Raised by the per-case alarm.  A BaseException, so the `except
    Exception` blocks inside finsite cannot swallow it."""


def _alarm(signum, frame):
    raise CaseTimeout()


@dataclass
class Outcome:
    status: str          # "done", "timeout" or "error"
    seconds: float       # latency; a timeout or error counts at the limit
    summary: object      # plain data for "done", the error text otherwise
    raw: dict | None = None   # per-layer values of a traced child
    cal: float = 0.0          # yardstick seconds just before the case
    norm: float = 0.0         # calibrated seconds, see run.calibrated


def _space(X) -> dict:
    opens = [sorted(X.points[x] for x in u) for u in X.sorted_opens()]
    return {"points": list(X.points), "opens": opens,
            "dot": X.specialization_dot()}


class Kinds:
    """One method per case kind; `fs` is the imported finsite package."""

    def __init__(self, fs):
        self.fs = fs

    def analyse(self, path):
        fs = self.fs
        R = fs.formats.read_semiring(path)
        report = fs.spectra.spectrum_report(R)
        theorem_a = fs.site.theorem_A_check(R)
        spec = fs.spectra.prime_spectrum(R)
        sober, witness = fs.locales.is_sober(spec.space)
        spatial = fs.locales.spatiality_check(fs.site.lambda_X(R)[0])
        return {"report": report, "theorem_A": theorem_a,
                "sober": [sober, witness], "spatial": spatial}

    def monodromy(self, pres):
        P = self.fs.formats.read_presentation(pres)
        r = self.fs.glue.is_monodromy_free(P)
        return {"verdict": r.verdict(), "free": r.free,
                "exhaustive": r.exhaustive, "walks": r.walks_checked}

    def glue(self, pres, vis):
        fs = self.fs
        P = fs.formats.read_presentation(pres)
        try:
            G = fs.glue.glue_space(P, vis)
        except fs.glue.GlueError as e:
            return {"refused": str(e)}
        return {"points": G.point_table(), "space": _space(G.space)}

    def affine(self, cover):
        S = self.fs.formats.read_cover(cover)
        ok, m = self.fs.glue.affine_glue_check(S)
        return {"homeomorphism": ok, "points": list(m.source.points),
                "images": list(m.images)}

    def descent(self, cover):
        fs = self.fs
        S = fs.formats.read_cover(cover)
        rows = [[name, *fs.site.sheaf_axiom_check(S, Y)]
                for name, Y in fs.catalog.catalog()]
        return {"covers": fs.site.covers(S), "rows": rows}

    def simplex(self, n):
        fs = self.fs
        A = fs.finset.finset(tuple(f"v{i}" for i in range(n + 1)))
        return _space(fs.finset.simplex_space(A))

    def complex(self, cx):
        return _space(self.fs.finset.face_space(self.fs.formats.read_asc(cx)))

    def finset_glue(self, cx):
        fs = self.fs
        K = fs.formats.read_asc(cx)
        G = fs.finset.finset_glue_space(fs.finset.asc_presentation(K))
        return {"space": _space(G.space), "provenance": G.provenance}

    def frame(self, cx):
        fs = self.fs
        X = fs.finset.face_space(fs.formats.read_asc(cx))
        L = fs.locales.frame_of_opens(X)
        dual, _ = fs.locales.stone_dual(L)
        unit = fs.locales.sobrification_unit(X)
        return {"frame": L.n, "join_primes": L.join_primes(),
                "dual": _space(dual), "unit": list(unit.images),
                "homeomorphism": unit.is_homeomorphism()}

    def face_cover(self, m, y):
        fs = self.fs
        A = fs.finset.finset(tuple(f"v{i}" for i in range(m)))
        family = [fs.finset.face_injection(A, [i for i in range(m) if i != d])
                  for d in range(m)]
        Y = fs.finset.finset(tuple(f"y{j}" for j in range(y)))
        return list(fs.finset.sheaf_axiom_check(family, Y, A))

    def sweep(self, a, y):
        return self.fs.finset.subcanonicity_sweep(a, y)

    def congruence_spectrum(self, path, flavor):
        fs = self.fs
        X, down = fs.spectra.congruence_spectrum(
            fs.formats.read_semiring(path), flavor)
        return {"space": _space(X), "down": list(down.images)}


def run_in_process(kinds: Kinds, case, limit: float) -> Outcome:
    """Run one case under a SIGALRM limit in this process."""
    fn = getattr(kinds, case.kind.replace("-", "_"))
    signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            summary = fn(*case.args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CaseTimeout:
        return Outcome("timeout", limit, None)
    except Exception as e:  # a case that raises is a failed case, not a crash
        return Outcome("error", limit, f"{type(e).__name__}: {e}")
    return Outcome("done", time.perf_counter() - start, summary)


def run_child(argv, cwd, env, limit: float) -> Outcome:
    """Run one command in a fresh process; the summary is its exit code
    and the exact bytes of its stdout."""
    start = time.perf_counter()
    try:
        p = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                           timeout=limit)
    except subprocess.TimeoutExpired:
        return Outcome("timeout", limit, None)
    took = time.perf_counter() - start
    if p.returncode not in (0, 1):
        return Outcome("error", limit, p.stderr.decode(errors="replace"))
    return Outcome("done", took, {"code": p.returncode,
                                  "stdout": p.stdout.decode()})


def _plain(obj):
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(summary) -> str:
    """sha256 of the canonical JSON of a summary, with the spectra-sweep
    pass prefix stripped from every label."""
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"),
                      default=_plain)
    return hashlib.sha256(re.sub(PREFIX_RE, "", text).encode()).hexdigest()


def counts(summary) -> list[int]:
    """(points, opens) of a space summary, for the closed-form checks."""
    space = summary.get("space", summary)
    return [len(space["points"]), len(space["opens"])]

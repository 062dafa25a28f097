"""Spans around the public functions of the finsite modules.

`Tracer.install` wraps every public module-level function and every public
method of a class defined in a `finsite.*` module, then rebinds each
wrapped function in every `finsite.*` namespace that imported it, so nested
calls produce spans with a parent.  `Tracer.imports` records the execution
of each module body the same way.  A span records its name, start, end,
parent and case id; spans stay in memory and are written out at the end.

Methods in LEAVES are left unwrapped: each is a constant-time lookup called
inside the O(n^2)-O(n^4) loops of its callers, and a span per call would
cost more than the call.  Their time counts as the caller's self time.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "finsite"

LEAVES = {"Congruence.related", "FiniteSemiring.add_of",
          "FiniteSemiring.mul_of", "FiniteSemiring.index",
          "FiniteFrame.leq_of", "FiniteFrame.index", "FiniteTopSpace.index"}


def _len(args, result):
    return len(result)


def _first(args, result):
    return args[0]


def _first_two(args, result):
    return args[0], args[1]


# per span name: (counter, hook); the hook turns (args, result) into the
# value the counter sums, or into the key of a distinct-argument ratio
VALUES = {
    "semiring.enumerate_congruences": ("semiring.congruences", _len),
    "semiring.enumerate_homs": ("semiring.homs", _len),
    "spectra.primality": ("spectra.primality_passes", lambda a, r: int(r)),
    "topology.validate_topology": ("topology.opens_built",
                                   lambda a, r: len(r.opens)),
    "locales.finite_frame": ("locales.frame_elements", lambda a, r: r.n),
    "colimit.tensor": ("colimit.tensor_elements", lambda a, r: r[0].n),
    "glue.is_monodromy_free": ("glue.walks_checked",
                               lambda a, r: r.walks_checked),
}
KEYS = {
    "semiring.localize": ("semiring.localize_distinct_frac", _first_two),
    "spectra.prime_spectrum": ("spectra.prime_spectrum_distinct_frac", _first),
    "glue.is_monodromy_free": ("glue.monodromy_distinct_frac", _first),
}
# counters that count calls of the listed span names
CALLS = {
    "semiring.localize_calls": ("semiring.localize",),
    "spectra.primality_calls": ("spectra.primality",),
    "spectra.prime_spectrum_calls": ("spectra.prime_spectrum",),
    "topology.spaces_built": ("topology.validate_topology",),
    "topology.continuity_checks":
        ("topology.ContinuousMap.continuity_violation",),
    "locales.frames_built": ("locales.finite_frame",),
    "site.sheaf_checks": ("site.sheaf_axiom_check",),
    "colimit.tensor_calls": ("colimit.tensor",),
    "colimit.colimit_calls": ("colimit.colimit",),
    "glue.monodromy_calls": ("glue.is_monodromy_free",),
    "finset.sheaf_checks": ("finset.sheaf_axiom_check",),
    "finset.spaces_built": ("finset.simplex_space", "finset.face_space",
                            "finset.finset_glue_space"),
    "formats.files_read": ("formats.read_semiring", "formats.read_cover",
                           "formats.read_presentation", "formats.read_lattice",
                           "formats.read_asc"),
}
LAYERS = ("semiring", "spectra", "topology", "locales", "site", "colimit",
          "glue", "finset", "formats")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.case = array("i")
        self.extra: dict[int, object] = {}
        self.stack: list[int] = []
        self.current_case = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.case.append(self.current_case)
        self.end.append(-1.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        if self.stack and self.stack[-1] == i:
            self.stack.pop()

    def begin_case(self, case_no: int) -> None:
        # a limit alarm can land between two bookkeeping steps; a fresh
        # stack per case keeps one interrupted case from adopting the next
        self.stack.clear()
        self.current_case = case_no

    def wrap(self, fn, name: str):
        nid = self._id(name)
        value = VALUES.get(name, (None, None))[1]
        key = KEYS.get(name, (None, None))[1]
        extra = self.extra

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if value or key:
                extra[i] = (value(args, result) if value else None,
                            key(args, result) if key else None)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def imports(self):
        """Context manager: record a span for every finsite module body
        executed while it is active."""
        return _ImportSpans(self)

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if n == PACKAGE or n.startswith(PACKAGE + ".")]
        replaced: dict[int, object] = {}
        for mod in mods:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, replaced[id(obj)])

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            if attr.startswith("_") or qual in LEAVES:
                continue
            name = f"{layer}.{qual}"
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(self.wrap(raw.__func__, name))
            elif inspect.isfunction(raw):
                new = self.wrap(raw, name)
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def raw(self, skip_cases=()) -> dict:
        """Self seconds per layer over every span, and the counters over
        the spans of cases not in skip_cases (an interrupted case stops at
        a time-dependent point, so its counts would not repeat).  Raw
        values add up across processes; `metrics` turns them into ratios."""
        n = len(self.start)
        closed = [self.end[i] >= 0 for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if closed[i] and p >= 0 and closed[p]:
                child[p] += self.end[i] - self.start[i]
        out = defaultdict(float)
        keys = defaultdict(lambda: defaultdict(set))
        skip = set(skip_cases)
        for i in range(n):
            if not closed[i]:
                continue
            name = self.names[self.name[i]]
            layer = layer_of(name)
            out[f"{layer}.self_s"] += self.end[i] - self.start[i] - child[i]
            if self.case[i] in skip or name.endswith("<import>"):
                continue
            out[f"{layer}.calls"] += 1
            out[f"calls:{name}"] += 1
            value, key = self.extra.get(i, (None, None))
            if value is not None:
                out[VALUES[name][0]] += value
            if key is not None:
                keys[KEYS[name][0]][self.case[i]].add(key)
        for counter, per_case in keys.items():
            out[f"distinct:{counter}"] = sum(len(s) for s in per_case.values())
        return dict(out)

    def write(self, path, case_names) -> None:
        """Write every span as one tab-separated line: name, start, end,
        parent index and case id."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tcase\n")
            for i in range(len(self.start)):
                c = self.case[i]
                case = case_names[c] if 0 <= c < len(case_names) else "-"
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{case}\n")


class _ImportSpans(importlib.abc.MetaPathFinder):
    """Delegates finding to the path finder and wraps the loader so that
    executing a finsite module body is a span of that module's layer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self):
        sys.meta_path.insert(0, self)
        return self

    def __exit__(self, *exc):
        sys.meta_path.remove(self)

    def find_spec(self, fullname, path=None, target=None):
        if fullname != PACKAGE and not fullname.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        loader, tracer = spec.loader, self.tracer
        nid = tracer._id(f"{fullname.rsplit('.', 1)[-1]}.<import>")
        original = loader.exec_module

        def exec_module(module):
            i = tracer._open(nid)
            try:
                original(module)
            finally:
                tracer._close(i)

        loader.exec_module = exec_module
        return spec


def metrics(raw: dict) -> dict:
    """The per-layer metrics from summed raw values.  A ratio whose base is
    zero reads 0."""
    def get(k):
        return raw.get(k, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {f"{layer}.self_s": float(get(f"{layer}.self_s"))
           for layer in LAYERS}
    out["semiring.calls"] = int(get("semiring.calls"))
    for counter, names in CALLS.items():
        out[counter] = int(sum(get(f"calls:{nm}") for nm in names))
    for counter, _ in VALUES.values():
        out[counter] = int(get(counter))
    for name, (counter, _) in KEYS.items():
        out[counter] = ratio(get(f"distinct:{counter}"), get(f"calls:{name}"))
    out["spectra.primality_pass_frac"] = ratio(
        out.pop("spectra.primality_passes"), out["spectra.primality_calls"])
    return out

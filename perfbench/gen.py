"""Seeded inputs for the finsite benchmark.

The generator builds every input with its own table arithmetic and never
imports finsite, so a change to the program cannot change what it is fed.
Run it alone to write one workload's files:

    python3 perfbench/gen.py --workload glue-atlas --seed 3 --out DIR

The seed varies the byte layout of every file (separator runs, tabs, blank
lines, `key:` or `key :` spelling) and the order of the cases in each
pass.  It never varies the mathematical content: the cost of a pass stays
the same for every seed, so the spread between runs measures the program
and the machine rather than the mix, and one stored digest per case checks
every seed.  The same seed gives byte-identical files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from oracle import face_poset_opens, simplex_counts, weak_spectrum_counts

WORKLOADS = {
    "spectra-sweep": (
        "About a hundred distinct small semirings, each analysed once by "
        "spectrum_report, theorem_A_check, is_sober and spatiality_check. "
        "semiring and spectra do most of the work on small spaces with no "
        "colimits; every pass relabels its semirings, so nothing repeats "
        "within a process and a per-semiring cache can only add memory or "
        "set-up cost."),
    "glue-atlas": (
        "Presentations over a small fixed pool of charts, read from files "
        "and checked for monodromy, glued in all five visualizations, "
        "compared with the affine spectrum and checked for descent. The "
        "colimit engine and glue do most of the work and the same charts "
        "are re-derived many times."),
    "face-posets": (
        "Large finite spaces: simplices, face posets of complexes, finite-"
        "set gluing and descent, congruence spectra of chain(5), Stone "
        "duals of open-set frames, and a scale ladder cut off at the "
        "per-case limit. topology, locales and finset do most of the work, "
        "every open is listed, and nothing touches colimits."),
    "cli-session": (
        "The README session plus heavier generated inputs, one fresh "
        "`python -m finsite ... --format structured` process per command. "
        "The only workload that pays interpreter start, import, argument "
        "parsing and report rendering."),
}

CASE_CLASSES = {
    "catalog": "the eight bundled test semirings, the reference point of "
               "every report",
    "chain": "max/min chains: idempotent, many congruences, few primes",
    "zmod": "rings Z/m: congruences are ideals, twisted primality is the "
            "O(n^4) cost",
    "trunc": "truncated naturals: non-cancellative addition, a k-ideal gap",
    "product": "binary products up to 16 elements: the spectrum splits",
    "quotient": "quotients by a principal congruence: tables no "
                "constructor gives",
    "local": "localizations: the charts gluing is built from",
    "atlas": "atlases of covering families: monodromy, five gluings, "
             "affine comparison and descent",
    "doubled": "two copies of a chart glued along one open: a non-affine "
               "space",
    "cycle": "rings of 2-3 base charts joined by localization overlap "
             "charts: long closed walks",
    "wedge": "two different arrows between the same charts: monodromy "
             "obstruction, every gluing must be refused",
    "simplex": "full simplices of dimension 0-3",
    "complex": "face posets of fixed pseudo-random complexes up to about "
               "650 opens, listed as the CLI lists them",
    "finset-glue": "set-level gluing of the face charts of a complex",
    "descent": "finite-set descent: face covers and a subcanonicity sweep",
    "chain5": "congruence spectra of chain(5) in all three flavors",
    "frame": "frames of opens of mid-size face spaces, Stone dual and "
             "sobrification unit",
    "ladder": "scale rungs past today's cliff (simplex dimension 4, weak "
              "chain(6)); they time out at the per-case limit and are "
              "checked against closed forms when they finish",
    "readme": "the README session commands",
    "heavy": "heavier generated command inputs",
}


# ---------------------------------------------------------------------------
# Semiring tables, built independently of finsite


@dataclass(frozen=True)
class Table:
    labels: tuple[str, ...]
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    zero: int
    one: int

    @property
    def n(self) -> int:
        return len(self.labels)


def _table(labels, add, mul, zero, one) -> Table:
    n = len(labels)
    t = Table(tuple(labels), tuple(tuple(r) for r in add),
              tuple(tuple(r) for r in mul), zero, one)
    rng = range(n)
    ok = all(t.add[zero][a] == a and t.mul[one][a] == a
             and t.mul[zero][a] == zero for a in rng)
    ok = ok and all(t.add[a][b] == t.add[b][a] and t.mul[a][b] == t.mul[b][a]
                    for a in rng for b in rng)
    ok = ok and all(
        t.add[t.add[a][b]][c] == t.add[a][t.add[b][c]]
        and t.mul[t.mul[a][b]][c] == t.mul[a][t.mul[b][c]]
        and t.mul[a][t.add[b][c]] == t.add[t.mul[a][b]][t.mul[a][c]]
        for a in rng for b in rng for c in rng)
    if not ok or len(set(t.labels)) != n:
        raise ValueError(f"generated table is not a semiring: {labels}")
    return t


def boolean() -> Table:
    return _table(("0", "1"), ((0, 1), (1, 1)), ((0, 0), (0, 1)), 0, 1)


def zmod(m: int) -> Table:
    r = range(m)
    return _table([str(i) for i in r], [[(i + j) % m for j in r] for i in r],
                  [[(i * j) % m for j in r] for i in r], 0, 1 % m)


def chain(k: int) -> Table:
    r = range(k)
    return _table([f"c{i}" for i in r], [[max(i, j) for j in r] for i in r],
                  [[min(i, j) for j in r] for i in r], 0, k - 1)


def trunc(top: int) -> Table:
    """{0, ..., top} with sums and products capped at top, labelled T."""
    r = range(top + 1)
    return _table([str(i) for i in range(top)] + ["T"],
                  [[min(i + j, top) for j in r] for i in r],
                  [[min(i * j, top) for j in r] for i in r], 0, 1)


def product(A: Table, B: Table) -> Table:
    pairs = [(a, b) for a in range(A.n) for b in range(B.n)]
    idx = {p: i for i, p in enumerate(pairs)}
    return _table(
        [f"({A.labels[a]},{B.labels[b]})" for a, b in pairs],
        [[idx[A.add[a][c], B.add[b][d]] for c, d in pairs] for a, b in pairs],
        [[idx[A.mul[a][c], B.mul[b][d]] for c, d in pairs] for a, b in pairs],
        idx[A.zero, B.zero], idx[A.one, B.one])


def _classes(n, related_pairs, closure=None):
    """Union-find over range(n); closure(a, b) yields pairs forced by a
    merge.  Returns the class index of every element, classes numbered by
    least member."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    todo = list(related_pairs)
    while todo:
        a, b = todo.pop()
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            if closure is not None:
                todo.extend(closure(a, b))
    roots = sorted({find(x) for x in range(n)})
    pos = {r: i for i, r in enumerate(roots)}
    return [pos[find(x)] for x in range(n)]


def quotient(R: Table, pairs) -> Table:
    """R modulo the congruence generated by pairs; each class is labelled
    by its least member."""
    def forced(a, b):
        for c in range(R.n):
            yield R.add[a][c], R.add[b][c]
            yield R.mul[a][c], R.mul[b][c]

    cls = _classes(R.n, pairs, forced)
    k = max(cls) + 1
    rep = [cls.index(i) for i in range(k)]
    return _table([R.labels[r] for r in rep],
                  [[cls[R.add[rep[i]][rep[j]]] for j in range(k)]
                   for i in range(k)],
                  [[cls[R.mul[rep[i]][rep[j]]] for j in range(k)]
                   for i in range(k)],
                  cls[R.zero], cls[R.one])


def localize(R: Table, h: int) -> tuple[Table, list[int]]:
    """R[1/h] on classes of fractions a/p, p a power of h, with
    a/p ~ b/q when r*q*a == r*p*b for some power r.  Returns the table and
    the class of each a/1."""
    powers, acc = [], R.one
    while acc not in powers:
        powers.append(acc)
        acc = R.mul[acc][h]
    powers.sort()
    fracs = [(a, p) for a in range(R.n) for p in powers]
    m = R.mul
    related = [(i, j) for i, (a, p) in enumerate(fracs)
               for j, (b, q) in enumerate(fracs) if i < j
               and any(m[m[r][q]][a] == m[m[r][p]][b] for r in powers)]
    cls = _classes(len(fracs), related)
    k = max(cls) + 1
    where = {f: cls[i] for i, f in enumerate(fracs)}
    rep = [min((f for f in fracs if where[f] == c),
               key=lambda f: (f[1] != R.one, f[0], f[1])) for c in range(k)]
    labels = [R.labels[a] if p == R.one else f"{R.labels[a]}/{R.labels[p]}"
              for a, p in rep]
    add = [[where[R.add[m[q][a]][m[p][b]], m[p][q]] for b, q in rep]
           for a, p in rep]
    mul = [[where[m[a][b], m[p][q]] for b, q in rep] for a, p in rep]
    T = _table(labels, add, mul, where[R.zero, R.one], where[R.one, R.one])
    return T, [where[a, R.one] for a in range(R.n)]


def relabel(R: Table, prefix: str) -> Table:
    return Table(tuple(prefix + s for s in R.labels), R.add, R.mul,
                 R.zero, R.one)


# ---------------------------------------------------------------------------
# Seeded rendering: same content, seed-dependent bytes


class Writer:
    """Renders files with seed-dependent whitespace into one directory."""

    def __init__(self, root: Path, rng: random.Random):
        self.root = root
        self.rng = rng
        root.mkdir(parents=True, exist_ok=True)

    def _sep(self) -> str:
        return self.rng.choice((" ", "  ", "\t", " \t ", "   "))

    def _key(self, word: str) -> str:
        return self.rng.choice((f"{word}:", f"{word} :"))

    def _line(self, tokens) -> str:
        pad = self.rng.choice(("", "", " ", "  ", "\t"))
        return pad + self._sep().join(tokens)

    def write(self, name: str, lines) -> str:
        out = []
        for line in lines:
            out.append(line)
            if self.rng.random() < 0.15:
                out.append(self.rng.choice(("", "  ", "\t")))
        path = self.root / name
        path.write_text("\n".join(out) + "\n")
        return str(path)

    def semiring(self, name: str, R: Table) -> str:
        lab = R.labels
        lines = [self._line([self._key("elements"), *lab]),
                 self._line([self._key("zero"), lab[R.zero]]),
                 self._line([self._key("one"), lab[R.one]]),
                 self._line([self._key("add")])]
        lines += [self._line([lab[v] for v in row]) for row in R.add]
        lines.append(self._line([self._key("mul")]))
        lines += [self._line([lab[v] for v in row]) for row in R.mul]
        return self.write(name, lines)

    def cover(self, name: str, semiring_file: str, elements) -> str:
        return self.write(name, [
            self._line([self._key("semiring"), semiring_file]),
            self._line([self._key("cover"), *elements])])

    def presentation(self, name: str, nodes, arrows) -> str:
        lines = [self._line(["node", n, f]) for n, f in nodes]
        lines += [self._line(["arrow", *a]) for a in arrows]
        return self.write(name, lines)

    def complex(self, name: str, vertices, faces) -> str:
        return self.write(name, [self._line([self._key("vertices"),
                                             *vertices])]
                          + [self._line([self._key("face"), *f])
                             for f in faces])

    def lattice(self, name: str, covers) -> str:
        return self.write(name, [self._line([a, "<", b]) for a, b in covers])


# ---------------------------------------------------------------------------
# Case lists


@dataclass(frozen=True)
class Case:
    """One timed unit of work.  `id` names the content and is the same for
    every seed; it keys the stored reference digest.  `expect` holds the
    (points, opens) of the resulting space where this module can count
    them without finsite."""

    id: str
    cls: str
    kind: str
    args: tuple
    expect: tuple[int, int] | None = None


def catalog() -> list[tuple[str, Table]]:
    B = boolean()
    return [("B", B), ("BxB", product(B, B)), ("Z2", zmod(2)), ("Z3", zmod(3)),
            ("Z6", zmod(6)), ("N2", trunc(2)), ("N3", trunc(3)),
            ("chain4", chain(4))]


def spectra_pool() -> list[tuple[str, str, Table]]:
    """(class, name, table) for every spectra-sweep semiring, distinct
    tables only, in a fixed order."""
    B = boolean()
    pool = [("catalog", n, R) for n, R in catalog()]
    pool += [("chain", f"chain({k})", chain(k)) for k in range(1, 6)]
    pool += [("zmod", f"zmod({m})", zmod(m)) for m in range(2, 20) if m != 18]
    pool += [("trunc", f"trunc({t})", trunc(t)) for t in range(1, 8)]
    small = [("B", B), ("Z2", zmod(2)), ("Z3", zmod(3)), ("N2", trunc(2)),
             ("C3", chain(3)), ("Z5", zmod(5)), ("N3", trunc(3)),
             ("Z4", zmod(4)), ("C4", chain(4)), ("Z7", zmod(7))]
    for (na, A), (nb, Bt) in itertools.combinations_with_replacement(small, 2):
        if A.n * Bt.n <= 16 and (na, nb) not in _SLOW_PRODUCTS:
            pool.append(("product", f"{na}x{nb}", product(A, Bt)))
    bases = [("Z6", zmod(6)), ("N3", trunc(3)), ("N4", trunc(4)),
             ("N5", trunc(5)), ("C5", chain(5)), ("Z8", zmod(8)),
             ("Z10", zmod(10)), ("Z12", zmod(12)),
             ("BxN2", product(B, trunc(2))), ("BxC3", product(B, chain(3))),
             ("N2xN2", product(trunc(2), trunc(2))),
             ("N2xC3", product(trunc(2), chain(3))),
             ("Z2xN3", product(zmod(2), trunc(3))),
             ("BxZ3", product(B, zmod(3))), ("Z14", zmod(14)),
             ("Z15", zmod(15)), ("Z18", zmod(18)), ("Z20", zmod(20)),
             ("C3xC3", product(chain(3), chain(3)))]
    for nb, R in bases:
        for a, b in ((1, 2), (0, R.n - 1), (1, R.n - 1), (2, 3), (0, 2),
                     (1, 3)):
            if b < R.n and a != b:
                pool.append(("quotient", f"{nb}/({R.labels[a]}~{R.labels[b]})",
                             quotient(R, [(a, b)])))
        for h in range(R.n):
            T, _ = localize(R, h)
            if 1 < T.n < R.n:
                pool.append(("local", f"{nb}[1/{R.labels[h]}]", T))
    seen, out = set(), []
    for cls, name, R in pool:
        if R not in seen:
            seen.add(R)
            out.append((cls, name, R))
    return out


# products whose four analyses take more than a few tenths of a second at
# the seed; they would crowd the per-case limit
_SLOW_PRODUCTS = {("C4", "C4"), ("N3", "N3"), ("Z4", "Z4"), ("N3", "C4"),
                  ("N3", "Z4"), ("Z4", "C4"), ("C3", "C4"), ("C3", "Z5"),
                  ("N2", "C4")}


VISUALIZATIONS = ("prime", "k", "weak", "strong", "twisted")


def _rng(seed: int, *purpose) -> random.Random:
    return random.Random(":".join(map(str, (seed,) + purpose)))


class Inputs:
    """The files and cases of one workload for one seed."""

    def __init__(self, workload: str, seed: int, root: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.root = root
        self.why = WORKLOADS[workload]
        self._fixed = None
        if workload != "spectra-sweep":
            writer = Writer(root, _rng(seed, "bytes"))
            self._fixed = _BUILDERS[workload](writer)

    def cases(self, pass_no: int) -> list[Case]:
        """The cases of one pass in their seeded order.  spectra-sweep
        writes a freshly relabelled copy of its semirings for every pass."""
        if self._fixed is None:
            w = Writer(self.root / f"pass{pass_no}", _rng(self.seed, "bytes",
                                                          pass_no))
            cases = _spectra_cases(w, pass_prefix(pass_no))
        else:
            cases = list(self._fixed)
        _rng(self.seed, "order", pass_no).shuffle(cases)
        return cases

    def manifest(self) -> dict:
        classes = sorted({c.cls for c in self.cases(0)})
        return {"workload": self.workload, "seed": self.seed, "why": self.why,
                "classes": {c: CASE_CLASSES[c] for c in classes}}


def pass_prefix(pass_no: int) -> str:
    """Label prefix of a spectra-sweep pass; PREFIX_RE strips it again."""
    return f"q{pass_no}~"


PREFIX_RE = r"q\d+~"


def _spectra_cases(w: Writer, prefix: str) -> list[Case]:
    return [Case(f"{cls}/{name}", cls, "analyse",
                 (w.semiring(f"s{i}.sr", relabel(R, prefix)),))
            for i, (cls, name, R) in enumerate(spectra_pool())]


def _glue_cases(w: Writer) -> list[Case]:
    files: dict[Table, str] = {}

    def chart(R: Table) -> str:
        if R not in files:
            files[R] = w.semiring(f"chart{len(files)}.sr", R)
        return Path(files[R]).name

    B, Z6 = boolean(), zmod(6)
    BB = product(B, B)
    cases = []

    def glue_all(cls, name, pres):
        cases.append(Case(f"{cls}/{name}/monodromy", cls, "monodromy",
                          (pres,)))
        cases.extend(Case(f"{cls}/{name}/glue-{vis}", cls, "glue", (pres, vis))
                     for vis in VISUALIZATIONS)

    families = [("B", B, ["1"]), ("BxB", BB, ["(1,0)", "(0,1)"]),
                ("BxB", BB, ["(1,1)"]), ("BxB", BB, ["(1,0)"]),
                ("Z6", Z6, ["2", "3"]), ("Z6", Z6, ["1", "2", "3"]),
                ("Z6", Z6, ["2", "3", "4"]), ("Z6", Z6, ["2"]),
                ("Z10", zmod(10), ["2", "5"]), ("Z12", zmod(12), ["3", "4"]),
                ("Z15", zmod(15), ["3", "5"]), ("N3", trunc(3), ["1"]),
                ("chain4", chain(4), ["c3"]),
                ("BxZ3", product(B, zmod(3)), ["(1,0)", "(0,1)"])]
    for base, R, elems in families:
        name = f"{base}[{','.join(elems)}]"
        hs = [R.labels.index(e) for e in elems]
        locs = [localize(R, h) for h in hs]
        nodes = [(f"U{i}", chart(T)) for i, (T, _) in enumerate(locs)]
        arrows = []
        for i, j in itertools.combinations(range(len(hs)), 2):
            both, _ = localize(R, R.mul[hs[i]][hs[j]])
            nodes.append((f"U{i}_{j}", chart(both)))
            for a, b in ((i, j), (j, i)):
                T, image = locs[a]
                arrows.append((f"U{i}_{j}", f"U{a}", "localize-at",
                               T.labels[image[hs[b]]]))
        pres = w.presentation(f"atlas{len(cases)}.pres", nodes, arrows)
        cover = w.cover(f"atlas{len(cases)}.cover", chart(R), elems)
        glue_all("atlas", name, pres)
        cases += [Case(f"atlas/{name}/{kind}", "atlas", kind, (cover,))
                  for kind in ("affine", "descent")]

    for base, R, e in (("Z6", Z6, "2"), ("Z6", Z6, "3"),
                       ("Z10", zmod(10), "5"), ("BxB", BB, "(1,0)")):
        T, _ = localize(R, R.labels.index(e))
        pres = w.presentation(f"doubled{len(cases)}.pres",
                              [("A", chart(R)), ("B", chart(R)),
                               ("O", chart(T))],
                              [("O", "A", "localize-at", e),
                               ("O", "B", "localize-at", e)])
        glue_all("doubled", f"{base}[1/{e}]", pres)

    O, _ = localize(Z6, 2)
    for k in (2, 3):
        nodes = [(f"A{i}", chart(Z6)) for i in range(k)]
        nodes += [(f"O{i}", chart(O)) for i in range(k)]
        arrows = [(f"O{i}", f"A{(i + d) % k}", "localize-at", "2")
                  for i in range(k) for d in (0, 1)]
        glue_all("cycle", f"Z6x{k}",
                 w.presentation(f"cycle{k}.pres", nodes, arrows))

    for base, A in (("B", B), ("Z2", zmod(2))):
        AA = product(A, A)
        first = [A.labels[i // A.n] for i in range(AA.n)]
        second = [A.labels[i % A.n] for i in range(AA.n)]
        pres = w.presentation(f"wedge{base}.pres",
                              [("X", chart(AA)), ("U", chart(A))],
                              [("U", "X", "map", *first),
                               ("U", "X", "map", *second)])
        glue_all("wedge", f"{base}x{base}", pres)
    swap = [f"({b},{a})" for a, b in (lab[1:-1].split(",")
                                       for lab in BB.labels)]
    glue_all("wedge", "BxB-swap",
             w.presentation("swap.pres", [("X", chart(BB))],
                            [("X", "X", "map", *swap)]))
    return cases


def complexes() -> list[tuple]:
    """Fixed pseudo-random complexes with 10 to 650 opens, as (name,
    vertices, generating faces, faces, opens); the pool never depends on
    the run seed."""
    rng = random.Random("finsite-complexes")
    out, seen = [], set()
    while len(out) < 50:
        nv = rng.randint(3, 7)
        size = rng.choice((2, 2, 3))
        verts = tuple(f"x{i}" for i in range(nv))
        facets = [sorted(rng.sample(range(nv), min(size, nv)))
                  for _ in range(rng.randint(2, 6))]
        faces = {frozenset(c) for f in facets for k in range(1, len(f) + 1)
                 for c in itertools.combinations(f, k)}
        if set().union(*faces) != set(range(nv)) or frozenset(faces) in seen:
            continue
        opens = face_poset_opens(faces)
        if 10 <= opens <= 650:
            seen.add(frozenset(faces))
            out.append((f"K{len(out)}-{len(faces)}f-{opens}o", verts,
                        [[verts[i] for i in f] for f in facets], len(faces),
                        opens))
    return out


def _face_cases(w: Writer) -> list[Case]:
    cases = [Case(f"simplex/{n}", "simplex", "simplex", (n,),
                  simplex_counts(n)) for n in range(4)]
    for i, (name, verts, facets, faces, opens) in enumerate(complexes()):
        cx = w.complex(f"k{i}.cx", verts, facets)
        cases.append(Case(f"complex/{name}", "complex", "complex", (cx,),
                          (faces, opens)))
        if i % 2 == 0:
            cases.append(Case(f"finset-glue/{name}", "finset-glue",
                              "finset-glue", (cx,)))
        if opens <= 72:
            cases.append(Case(f"frame/{name}", "frame", "frame", (cx,)))
    cases += [Case(f"descent/cover-{m}-{y}", "descent", "face-cover", (m, y))
              for m in range(2, 6) for y in range(4)]
    cases += [Case(f"descent/sweep-{a}-{y}", "descent", "sweep", (a, y))
              for a, y in ((2, 3), (3, 2), (3, 3))]
    c5 = w.semiring("chain5.sr", chain(5))
    cases += [Case(f"chain5/{fl}", "chain5", "congruence-spectrum", (c5, fl),
                   weak_spectrum_counts(chain(5)) if fl == "weak" else None)
              for fl in ("weak", "strong", "twisted")]
    cases.append(Case("ladder/simplex-4", "ladder", "simplex", (4,),
                      simplex_counts(4)))
    cases.append(Case("ladder/weak-chain6", "ladder", "congruence-spectrum",
                      (w.semiring("chain6.sr", chain(6)), "weak"),
                      weak_spectrum_counts(chain(6))))
    return cases


def _cli_cases(w: Writer) -> list[Case]:
    B, Z6 = boolean(), zmod(6)
    z6 = w.semiring("z6.sr", Z6)
    o, _ = localize(Z6, 2)
    w.semiring("o.sr", o)
    z12 = w.semiring("z12.sr", zmod(12))
    n7 = w.semiring("n7.sr", trunc(7))
    c5 = w.semiring("chain5.sr", chain(5))
    bxb = w.semiring("bxb.sr", product(B, B))
    w.semiring("b.sr", B)
    doubled = w.presentation("doubled.pres", [("A", "z6.sr"), ("B", "z6.sr"),
                                              ("O", "o.sr")],
                             [("O", "A", "localize-at", "2"),
                              ("O", "B", "localize-at", "2")])
    cycle = w.presentation("cycle2.pres",
                           [(f"A{i}", "z6.sr") for i in range(2)]
                           + [(f"O{i}", "o.sr") for i in range(2)],
                           [(f"O{i}", f"A{(i + d) % 2}", "localize-at", "2")
                            for i in range(2) for d in (0, 1)])
    wedge = w.presentation("wedge.pres", [("X", "bxb.sr"), ("U", "b.sr")],
                           [("U", "X", "map", "0", "0", "1", "1"),
                            ("U", "X", "map", "0", "1", "0", "1")])
    cover = w.cover("cover.txt", "z6.sr", ["2", "3"])
    cover3 = w.cover("cover3.txt", "z6.sr", ["1", "2", "3"])
    hollow = w.complex("hollow.cx", ("a", "b", "c"),
                       [("a", "b"), ("a", "c"), ("b", "c")])
    name, verts, facets, _, _ = max((c for c in complexes() if c[4] < 400),
                                    key=lambda c: c[4])
    big = w.complex("big.cx", verts, facets)
    z6_lat = w.lattice("z6.lat", [("{}", "{p}"), ("{}", "{q}"),
                                  ("{p}", "{p,q}"), ("{q}", "{p,q}")])
    subsets = [frozenset(c) for k in range(4)
               for c in itertools.combinations("abc", k)]
    label = {s: "{" + ",".join(sorted(s)) + "}" for s in subsets}
    cube = w.lattice("cube.lat", [(label[s], label[t]) for s in subsets
                                  for t in subsets
                                  if s < t and len(t) == len(s) + 1])
    bad = w.write("bad.sr", ["elements: 0 1", "zero: 0", "one: 1",
                             "add:", " 0 1", " 1 0", "mul:", " 0 0", " 0 0"])
    vdir = Writer(w.root / "verify", w.rng)
    for nm, R in (("chain5.sr", chain(5)), ("n5.sr", trunc(5)),
                  ("z8.sr", zmod(8)), ("bxz3.sr", product(B, zmod(3)))):
        vdir.semiring(nm, R)
    commands = [
        ("readme", "check z6.sr", ["check", z6]),
        ("readme", "spectrum z6.sr", ["spectrum", z6]),
        ("readme", "localize z6.sr 2", ["localize", z6, "2"]),
        ("readme", "verify", ["verify"]),
        ("readme", "locale z6.sr --dot z6.lat",
         ["locale", z6, "--dot", "z6.lat"]),
        ("readme", "stone z6.lat", ["stone", z6_lat]),
        ("readme", "glue doubled.pres", ["glue", doubled]),
        ("readme", "sheaf-check cover.txt", ["sheaf-check", cover]),
        ("readme", "simplex --n 1", ["simplex", "--n", "1"]),
        ("readme", "simplex hollow.cx", ["simplex", hollow]),
        ("heavy", "check bad.sr", ["check", bad]),
        ("heavy", "congruences z12.sr", ["congruences", z12]),
        ("heavy", "congruences n7.sr", ["congruences", n7]),
        ("heavy", "spectrum z6.sr --flavor k", ["spectrum", z6, "--flavor",
                                                "k"]),
        ("heavy", "spectrum chain5.sr --flavor weak",
         ["spectrum", c5, "--flavor", "weak", "--dot", "c5.dot"]),
        ("heavy", "spectrum n7.sr --flavor twisted",
         ["spectrum", n7, "--flavor", "twisted"]),
        ("heavy", "localize z12.sr 3", ["localize", z12, "3"]),
        ("heavy", "locale bxb.sr", ["locale", bxb]),
        ("heavy", "stone cube.lat", ["stone", cube, "--dot", "cube.dot"]),
        ("heavy", "sheaf-check cover3.txt", ["sheaf-check", cover3]),
        ("heavy", "verify DIR", ["verify", str(vdir.root)]),
        ("heavy", "glue cycle2.pres --vis twisted",
         ["glue", cycle, "--vis", "twisted"]),
        ("heavy", "glue doubled.pres --vis weak",
         ["glue", doubled, "--vis", "weak", "--dot", "g.dot"]),
        ("heavy", "glue wedge.pres", ["glue", wedge]),
        ("heavy", "simplex --n 3", ["simplex", "--n", "3"]),
        ("heavy", f"simplex {name}.cx", ["simplex", big]),
    ]
    return [Case(f"{cls}/{text}", cls, "cli", tuple(argv))
            for cls, text, argv in commands]


_BUILDERS = {"glue-atlas": _glue_cases, "face-posets": _face_cases,
             "cli-session": _cli_cases}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to write into")
    ns = ap.parse_args(argv)
    inputs = Inputs(ns.workload, ns.seed, Path(ns.out).resolve())
    manifest = inputs.manifest()
    manifest["cases"] = [c.id for c in inputs.cases(0)]
    (inputs.root / "manifest.json").write_text(
        json.dumps(manifest, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

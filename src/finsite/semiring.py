"""Finite commutative semirings given by explicit operation tables.

Elements are indices into a label tuple; `add` and `mul` are n-by-n index
tables.  The one-element semiring (zero == one) is a legal value everywhere
and is never special-cased away.  Every congruence, joins included, is
closed by `congruence_closure`: the smallest partition relating its pairs
that is stable under the tables + and *, from `records._partition`, which
merges blocks smaller into larger and queues only the translates of a
merged pair whose blocks still differ; walk colimits and gluing take
their classes from the same routine.  The record and map bases, the memo
of derived data and the invariant and budget errors come from `records`,
so commands that build no semiring do not compile this module.  The
handlers of `check` and `localize` end it.
"""

from __future__ import annotations

import os

# BudgetExceeded is defined in `records` and keeps its name here
from .records import (BudgetExceeded, InvariantError, _canon_blocks, _count,
                      _Map, _memo, _partition, _Record)


class SemiringError(Exception):
    """Base class for semiring construction failures."""


class TableError(SemiringError):
    """Malformed tables: non-square, bad index, duplicate or unknown label."""


class AxiomError(SemiringError):
    """A named semiring axiom fails on a concrete witness tuple."""

    def __init__(self, axiom: str, witness: tuple, message: str):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class FiniteSemiring(_Record):
    """A validated finite commutative semiring.

    Use `validate_semiring` to build one; the bare constructor trusts its
    arguments.
    """

    elements: tuple[str, ...]
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    zero: int
    one: int

    @property
    def n(self) -> int:
        return len(self.elements)

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise TableError(f"unknown element label {label!r}") from None

    def idempotent_power(self, i: int) -> int:
        """The one idempotent among i, i**2, ... (1 when i is a unit): the
        powers end in a cycle, and a finite cyclic group has one."""
        acc = i
        while self.mul[acc][acc] != acc:
            acc = self.mul[acc][i]
        return acc

    def inverse_of(self, i: int) -> int | None:
        """Multiplicative inverse of i, or None."""
        for j in range(self.n):
            if self.mul[i][j] == self.one:
                return j
        return None

    def __repr__(self):
        return f"FiniteSemiring({self.n} elements: {' '.join(self.elements)})"


def _check_shape(elements, add, mul, zero, one):
    n = len(elements)
    if n == 0:
        raise TableError("a semiring needs at least one element")
    if len(set(elements)) != n:
        raise TableError("duplicate element labels")
    for name, table in (("add", add), ("mul", mul)):
        if len(table) != n or any(len(row) != n for row in table):
            raise TableError(f"{name} table is not {n}x{n}")
        for row in table:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise TableError(f"{name} table entry {v!r} out of range")
    if not 0 <= zero < n:
        raise TableError("zero index out of range")
    if not 0 <= one < n:
        raise TableError("one index out of range")


def validate_semiring(elements, add, mul, zero, one) -> FiniteSemiring:
    """Check every axiom by exhaustive scan; raise AxiomError on the first
    violation (axiom name plus witness) or return the validated semiring."""
    elements = tuple(elements)
    add = tuple(tuple(row) for row in add)
    mul = tuple(tuple(row) for row in mul)
    _check_shape(elements, add, mul, zero, one)
    n = len(elements)
    rng = range(n)

    def lab(*idxs):
        return tuple(elements[i] for i in idxs)

    for a in rng:
        if add[zero][a] != a:
            raise AxiomError("additive-identity", lab(a),
                             f"0 + {elements[a]} != {elements[a]}")
        if mul[one][a] != a:
            raise AxiomError("multiplicative-identity", lab(a),
                             f"1 * {elements[a]} != {elements[a]}")
        if mul[zero][a] != zero:
            raise AxiomError("annihilation", lab(a),
                             f"0 * {elements[a]} != 0")
    for a in rng:
        for b in rng:
            if add[a][b] != add[b][a]:
                raise AxiomError("additive-commutativity", lab(a, b),
                                 f"{elements[a]} + {elements[b]} is not symmetric")
            if mul[a][b] != mul[b][a]:
                raise AxiomError("multiplicative-commutativity", lab(a, b),
                                 f"{elements[a]} * {elements[b]} is not symmetric")
    for a in rng:
        for b in rng:
            for c in rng:
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    raise AxiomError("additive-associativity", lab(a, b, c),
                                     "(a+b)+c != a+(b+c) at " + str(lab(a, b, c)))
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    raise AxiomError("multiplicative-associativity", lab(a, b, c),
                                     "(a*b)*c != a*(b*c) at " + str(lab(a, b, c)))
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    raise AxiomError("distributivity", lab(a, b, c),
                                     "a*(b+c) != a*b + a*c at " + str(lab(a, b, c)))
    return FiniteSemiring(elements, add, mul, zero, one)


# ---------------------------------------------------------------------------
# Morphisms


class SemiringHom(_Map):
    """A unit-preserving additive and multiplicative map of finite
    semirings."""

    _error = TableError

    def __post_init__(self):
        if len(self.images) != self.source.n:
            raise TableError("hom image vector has wrong length")


def hom_violation(h: SemiringHom):
    """First broken preservation condition of h, or None."""
    A, B, f = h.source, h.target, h.images
    if f[A.zero] != B.zero:
        return ("zero", ())
    if f[A.one] != B.one:
        return ("one", ())
    for a in range(A.n):
        for b in range(A.n):
            if f[A.add[a][b]] != B.add[f[a]][f[b]]:
                return ("add", (a, b))
            if f[A.mul[a][b]] != B.mul[f[a]][f[b]]:
                return ("mul", (a, b))
    return None


def enumerate_homs(A: FiniteSemiring, B: FiniteSemiring,
                   bijective_only: bool = False) -> list[SemiringHom]:
    """All semiring homs A -> B, in lexicographic order of the image vector.

    Backtracking over element images with forced propagation through the
    tables; duplicate-free by construction of the search tree.
    """
    n = A.n
    img = [-1] * n

    def assign(i, v, trail):
        # returns False on clash; records assignments for undo
        stack = [(i, v)]
        while stack:
            i, v = stack.pop()
            if img[i] >= 0:
                if img[i] != v:
                    return False
                continue
            img[i] = v
            trail.append(i)
            # propagate through all pairs with both endpoints known
            for j in range(n):
                if img[j] < 0:
                    continue
                w = img[j]
                stack.append((A.add[i][j], B.add[v][w]))
                stack.append((A.mul[i][j], B.mul[v][w]))
        return True

    results: list[SemiringHom] = []

    def undo(trail, mark):
        while len(trail) > mark:
            img[trail.pop()] = -1

    def extend():
        try:
            i = img.index(-1)
        except ValueError:
            images = tuple(img)
            if bijective_only and len(set(images)) != B.n:
                return
            results.append(SemiringHom(A, B, images))
            return
        for v in range(B.n):
            if bijective_only and v in img:
                continue
            trail: list[int] = []
            if assign(i, v, trail):
                extend()
            undo(trail, 0)

    trail: list[int] = []
    ok = assign(A.zero, B.zero, trail) and assign(A.one, B.one, trail)
    if ok:
        extend()
    undo(trail, 0)
    results.sort(key=lambda h: h.images)
    return results


def find_isomorphism(A: FiniteSemiring, B: FiniteSemiring) -> SemiringHom | None:
    """First isomorphism A -> B in lexicographic order, or None."""
    if A.n != B.n:
        return None
    isos = enumerate_homs(A, B, bijective_only=True)
    return isos[0] if isos else None


# ---------------------------------------------------------------------------
# Congruences and kernels


class Congruence(_Record):
    """A partition of a semiring's carrier stable under + and * by every
    element; `blocks[i]` is the block id of element i, ids numbered by first
    occurrence."""

    semiring: FiniteSemiring
    blocks: tuple[int, ...]

    def related(self, a: int, b: int) -> bool:
        return self.blocks[a] == self.blocks[b]

    def block_count(self) -> int:
        return max(self.blocks) + 1

    def block_members(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.block_count())]
        for i, b in enumerate(self.blocks):
            out[b].append(i)
        return out

    def pairs(self) -> list[tuple[int, int]]:
        n = len(self.blocks)
        return [(a, b) for a in range(n) for b in range(a + 1, n)
                if self.blocks[a] == self.blocks[b]]

    def is_proper(self) -> bool:
        """Proper in the sense that 1 and 0 sit in different blocks."""
        R = self.semiring
        return self.blocks[R.one] != self.blocks[R.zero]

    def __le__(self, other: "Congruence") -> bool:
        n = len(self.blocks)
        return all(other.blocks[a] == other.blocks[b]
                   for a in range(n) for b in range(a + 1, n)
                   if self.blocks[a] == self.blocks[b])


def diagonal_congruence(R: FiniteSemiring) -> Congruence:
    return Congruence(R, tuple(range(R.n)))


def congruence_closure(R: FiniteSemiring, gen_pairs) -> Congruence:
    """Smallest congruence of R containing the generating pairs: the
    smallest partition relating them that is stable under + and *."""
    return Congruence(R, _partition(R.n, gen_pairs, (R.add, R.mul)))


def congruence_join(c1: Congruence, c2: Congruence) -> Congruence:
    return congruence_closure(c1.semiring, c1.pairs() + c2.pairs())


def enumerate_congruences(R: FiniteSemiring) -> list[Congruence]:
    """All congruences of R: principal congruences closed under join.

    Every congruence is the join of the principal congruences of its pairs,
    so the join-closure of the principal ones is complete.  Canonical order:
    by block-membership vector.  Computed once per semiring; each call
    returns a fresh list.
    """
    return list(_memo(R, "congruences", lambda: _congruences(R)))


def _congruences(R: FiniteSemiring) -> tuple[Congruence, ...]:
    found: dict[tuple[int, ...], Congruence] = {}
    diag = diagonal_congruence(R)
    found[diag.blocks] = diag
    principal = []
    for a in range(R.n):
        for b in range(a + 1, R.n):
            c = congruence_closure(R, [(a, b)])
            principal.append(c)
            found.setdefault(c.blocks, c)
    queue = list(found.values())
    while queue:
        c = queue.pop()
        for p in principal:
            j = congruence_join(c, p)
            if j.blocks not in found:
                found[j.blocks] = j
                queue.append(j)
    return tuple(sorted(found.values(), key=lambda c: c.blocks))


def hom_kernel(h: SemiringHom) -> Congruence:
    """Kernel congruence of a hom: a ~ b iff h(a) == h(b)."""
    return Congruence(h.source, _canon_blocks(h.images))


# ---------------------------------------------------------------------------
# Products (used by the catalog and tests)


def product_semiring(A: FiniteSemiring, B: FiniteSemiring) -> FiniteSemiring:
    labels = tuple(f"({a},{b})" for a in A.elements for b in B.elements)

    def idx(i, j):
        return i * B.n + j

    n = A.n * B.n
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for a1 in range(A.n):
        for b1 in range(B.n):
            for a2 in range(A.n):
                for b2 in range(B.n):
                    add[idx(a1, b1)][idx(a2, b2)] = idx(A.add[a1][a2], B.add[b1][b2])
                    mul[idx(a1, b1)][idx(a2, b2)] = idx(A.mul[a1][a2], B.mul[b1][b2])
    return validate_semiring(labels, add, mul, idx(A.zero, B.zero), idx(A.one, B.one))


# ---------------------------------------------------------------------------
# Localization at one element


class Localization(_Record):
    """R with h made invertible, realized on the corner eR.

    Some power e of h is idempotent (e == 1 when h is a unit), and e*h is a
    unit of the semiring eR = {e*a}, whose one is e.  A fraction a/h**k
    equals e*a*h**j, where e*h**(k+j) == e, so a -> e*a maps R onto
    R[1/h] and R[1/h] is eR with R's operations.  Each class is labelled
    by the least element of R mapping to it, and classes are in the order
    of those elements; `corner` holds the element of eR behind each class.
    """

    base: FiniteSemiring
    h: int
    semiring: FiniteSemiring
    to_local: SemiringHom           # the canonical map R -> R[1/h]
    corner: tuple[int, ...]

    def extend(self, g: SemiringHom) -> SemiringHom:
        """Universal property: factor g: base -> T through to_local, given
        that g(h) is invertible in T."""
        if g.source != self.base:
            raise TableError("extend expects a hom out of the base")
        T = g.target
        if T.inverse_of(g(self.h)) is None:
            raise TableError("image of the inverted element is not invertible")
        # g(e) is a power of g(h), so an invertible idempotent: g(e) == 1,
        # and g(x) == g(a)/g(h**k) for the class x of a/h**k
        out = SemiringHom(self.semiring, T, tuple(g(x) for x in self.corner))
        if hom_violation(out) is not None:
            raise AxiomError("localization-extension", (self.h,),
                             "extension through the localization failed")
        return out


def localize(R: FiniteSemiring, h: int) -> Localization:
    """R[1/h] as the corner eR (see `Localization`).  Computed once per
    semiring and element."""
    return _memo(R, ("localize", h), lambda: _localization(R, h))


def _localization(R: FiniteSemiring, h: int) -> Localization:
    if not 0 <= h < R.n:
        raise TableError("element index out of range")
    e = R.idempotent_power(h)
    least: dict[int, int] = {}      # x in eR -> least a with e*a == x
    for a, x in enumerate(R.mul[e]):
        least.setdefault(x, a)
    corner = tuple(least)
    index = {x: i for i, x in enumerate(corner)}
    labels = tuple(R.elements[a] for a in least.values())
    add = [[index[R.add[x][y]] for y in corner] for x in corner]
    mul = [[index[R.mul[x][y]] for y in corner] for x in corner]
    L = validate_semiring(labels, add, mul, index[R.zero], index[e])
    lam = SemiringHom(R, L, tuple(index[x] for x in R.mul[e]))
    if hom_violation(lam) is not None:
        raise InvariantError("canonical map to the localization is not a hom")
    if L.inverse_of(lam(h)) is None:
        raise InvariantError("inverted element has no inverse in the result")
    return Localization(R, h, L, lam, corner)


def is_finite_localization(h: SemiringHom) -> int | None:
    """If h: B -> A factors as a localization of B at some element followed
    by an isomorphism, return the least such element index, else None.
    B -> B[1/x] is b -> e*b onto eB, so h factors exactly when it is a
    surjective hom with the same kernel: h(b) == h(b') iff e*b == e*b'."""
    if not h.is_surjective() or hom_violation(h) is not None:
        return None
    for x in range(h.source.n):
        corner = h.source.mul[h.source.idempotent_power(x)]
        # equal kernels: pairing the maps separates no more than either
        if len(set(zip(corner, h.images))) == len(set(corner)) == h.target.n:
            return x
    return None


# The `check` and `localize` commands, run by `cli.main`
def _cmd_check(ns):
    from .formats import read_semiring

    try:
        R = read_semiring(ns.file)
    except AxiomError as e:
        lines = [f"invalid: {e.axiom} axiom fails",
                 f"witness: {e.witness}"]
        return 1, lines, {"valid": False, "axiom": e.axiom,
                          "witness": list(e.witness)}
    lines = [f"valid, {_count(R.n, 'element')}"]
    return 0, lines, {"valid": True, "elements": R.n}


def _cmd_localize(ns):
    from .formats import FormatError, read_semiring, render_semiring

    R = read_semiring(ns.file)
    # labels are UTF-8, as in files, but argv was decoded by the locale
    try:
        element = os.fsencode(ns.element).decode("utf-8")
    except UnicodeError:
        element = ns.element
    try:
        h = R.index(element)
    except SemiringError as e:
        raise FormatError(str(e)) from None
    T = localize(R, h).semiring
    data = {"element": element, "size": T.n,
            "elements": list(T.elements),
            "zero": T.elements[T.zero], "one": T.elements[T.one],
            "add": [[T.elements[v] for v in row] for row in T.add],
            "mul": [[T.elements[v] for v in row] for row in T.mul]}
    return 0, render_semiring(T).splitlines(), data

"""Finite commutative semirings given by explicit operation tables.

Elements are indices into a label tuple; `add` and `mul` are n-by-n index
tables.  The one-element semiring (zero == one) is a legal value everywhere
and is never special-cased away.
"""

from __future__ import annotations

from dataclasses import dataclass


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


class InvariantError(Exception):
    """A mathematical invariant the code relies on failed: a bug, not bad
    input.  Raised explicitly so that `python -O` keeps the check."""


@dataclass(frozen=True)
class FiniteSemiring:
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

    def power(self, i: int, k: int) -> int:
        """i**k with the convention i**0 == 1."""
        acc = self.one
        for _ in range(k):
            acc = self.mul[acc][i]
        return acc

    def powers_of(self, i: int) -> list[int]:
        """Distinct values of i**0, i**1, ... in exponent order."""
        seen = []
        acc = self.one
        while acc not in seen:
            seen.append(acc)
            acc = self.mul[acc][i]
        return seen

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


@dataclass(frozen=True)
class SemiringHom:
    """A unit-preserving additive and multiplicative map, stored by image
    index per source element."""

    source: FiniteSemiring
    target: FiniteSemiring
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.source.n:
            raise TableError("hom image vector has wrong length")

    def __call__(self, i: int) -> int:
        return self.images[i]

    def is_injective(self) -> bool:
        return len(set(self.images)) == self.source.n

    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.target.n

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def compose(self, other: "SemiringHom") -> "SemiringHom":
        """self after other (other first)."""
        if other.target is not self.source and other.target != self.source:
            raise TableError("composition endpoints do not match")
        return SemiringHom(other.source, self.target,
                           tuple(self.images[i] for i in other.images))

    def inverse(self) -> "SemiringHom":
        if not self.is_bijective():
            raise TableError("only bijective homs invert")
        inv = [0] * self.target.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return SemiringHom(self.target, self.source, tuple(inv))


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


def identity_hom(R: FiniteSemiring) -> SemiringHom:
    return SemiringHom(R, R, tuple(range(R.n)))


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


def are_isomorphic(A: FiniteSemiring, B: FiniteSemiring) -> bool:
    return find_isomorphism(A, B) is not None


# ---------------------------------------------------------------------------
# Congruences and quotients


@dataclass(frozen=True)
class Congruence:
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


def _canon_blocks(parent_of) -> tuple[int, ...]:
    """Renumber a membership vector by first occurrence."""
    seen: dict[int, int] = {}
    out = []
    for r in parent_of:
        if r not in seen:
            seen[r] = len(seen)
        out.append(seen[r])
    return tuple(out)


def diagonal_congruence(R: FiniteSemiring) -> Congruence:
    return Congruence(R, tuple(range(R.n)))


def total_congruence(R: FiniteSemiring) -> Congruence:
    return Congruence(R, (0,) * R.n)


def congruence_closure(R: FiniteSemiring, gen_pairs) -> Congruence:
    """Smallest congruence of R containing the generating pairs: union-find
    closed under translation and scaling by every element."""
    parent = list(range(R.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = []

    def merge(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
            queue.append((a, b))

    for a, b in gen_pairs:
        merge(a, b)
    while queue:
        a, b = queue.pop()
        for c in range(R.n):
            merge(R.add[a][c], R.add[b][c])
            merge(R.mul[a][c], R.mul[b][c])
    return Congruence(R, _canon_blocks([find(i) for i in range(R.n)]))


def is_congruence(R: FiniteSemiring, blocks) -> tuple[bool, tuple | None]:
    """Check stability of a partition; returns (ok, witness)."""
    n = R.n
    for a in range(n):
        for b in range(a + 1, n):
            if blocks[a] != blocks[b]:
                continue
            for c in range(n):
                if blocks[R.add[a][c]] != blocks[R.add[b][c]]:
                    return False, (a, b, c, "add")
                if blocks[R.mul[a][c]] != blocks[R.mul[b][c]]:
                    return False, (a, b, c, "mul")
    return True, None


def congruence_join(c1: Congruence, c2: Congruence) -> Congruence:
    return congruence_closure(c1.semiring, c1.pairs() + c2.pairs())


def enumerate_congruences(R: FiniteSemiring) -> list[Congruence]:
    """All congruences of R: principal congruences closed under join.

    Every congruence is the join of the principal congruences of its pairs,
    so the join-closure of the principal ones is complete.  Canonical order:
    by block-membership vector.
    """
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
    return sorted(found.values(), key=lambda c: c.blocks)


def quotient(R: FiniteSemiring, c: Congruence) -> tuple[FiniteSemiring, SemiringHom]:
    """Quotient semiring by block arithmetic plus the projection hom.

    Blocks are labelled by their least member's label.
    """
    ok, witness = is_congruence(R, c.blocks)
    if not ok:
        raise AxiomError("congruence-stability", witness,
                         f"partition is not a congruence, witness {witness}")
    members = c.block_members()
    reps = [min(m) for m in members]
    labels = tuple(R.elements[r] for r in reps)
    k = len(reps)
    add = tuple(tuple(c.blocks[R.add[reps[i]][reps[j]]] for j in range(k))
                for i in range(k))
    mul = tuple(tuple(c.blocks[R.mul[reps[i]][reps[j]]] for j in range(k))
                for i in range(k))
    Q = validate_semiring(labels, add, mul, c.blocks[R.zero], c.blocks[R.one])
    proj = SemiringHom(R, Q, tuple(c.blocks))
    return Q, proj


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


@dataclass(frozen=True)
class Localization:
    """R with h made invertible, realized on classes of pairs (a, h**k).

    Two pairs (a, p) and (b, q) with p, q powers of h are identified when
    r*q*a == r*p*b for some power r of h; the powers of h cycle, so the
    quantifier ranges over a finite set.  `reps` holds the least (element,
    power) pair of each class, in class order.
    """

    base: FiniteSemiring
    h: int
    semiring: FiniteSemiring
    to_local: SemiringHom           # the canonical map R -> R[1/h]
    reps: tuple[tuple[int, int], ...]

    def extend(self, g: SemiringHom) -> SemiringHom:
        """Universal property: factor g: base -> T through to_local, given
        that g(h) is invertible in T."""
        if g.source != self.base:
            raise TableError("extend expects a hom out of the base")
        T = g.target
        inv = T.inverse_of(g(self.h))
        if inv is None:
            raise TableError("image of the inverted element is not invertible")
        images = []
        for a, p in self.reps:
            ip = T.inverse_of(g(p))
            if ip is None:
                raise TableError("image of a denominator is not invertible")
            images.append(T.mul[g(a)][ip])
        out = SemiringHom(self.semiring, T, tuple(images))
        if hom_violation(out) is not None:
            raise AxiomError("localization-extension", (self.h,),
                             "extension through the localization failed")
        return out


def localize(R: FiniteSemiring, h: int) -> Localization:
    """R[1/h] by pair classes; deterministic labels a or a/p."""
    if not 0 <= h < R.n:
        raise TableError("element index out of range")
    powers = R.powers_of(h)          # distinct power values, exponent order
    pset = sorted(set(powers))
    pairs = [(a, p) for a in range(R.n) for p in pset]
    pos = {pq: i for i, pq in enumerate(pairs)}

    def related(x, y):
        (a, p), (b, q) = x, y
        return any(R.mul[R.mul[r][q]][a] == R.mul[R.mul[r][p]][b] for r in pset)

    parent = list(range(len(pairs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if find(i) != find(j) and related(pairs[i], pairs[j]):
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    classes: dict[int, list[int]] = {}
    for i in range(len(pairs)):
        classes.setdefault(find(i), []).append(i)

    def rep_key(i):
        a, p = pairs[i]
        return (p != R.one, a, p)    # prefer denominator-free representatives

    roots = sorted(classes, key=lambda r: min(rep_key(i) for i in classes[r]))
    reps = tuple(pairs[min(classes[r], key=rep_key)] for r in roots)
    class_of = {}
    for ci, r in enumerate(roots):
        for i in classes[r]:
            class_of[pairs[i]] = ci

    def label(rep):
        a, p = rep
        if p == R.one:
            return R.elements[a]
        return f"{R.elements[a]}/{R.elements[p]}"

    labels = [label(rep) for rep in reps]
    if len(set(labels)) != len(labels):     # pathological label collision
        labels = [f"c{i}_{lab}" for i, lab in enumerate(labels)]
    k = len(reps)
    add = [[0] * k for _ in range(k)]
    mul = [[0] * k for _ in range(k)]
    for i, (a, p) in enumerate(reps):
        for j, (b, q) in enumerate(reps):
            add[i][j] = class_of[(R.add[R.mul[q][a]][R.mul[p][b]], R.mul[p][q])]
            mul[i][j] = class_of[(R.mul[a][b], R.mul[p][q])]
    L = validate_semiring(tuple(labels), add, mul,
                          class_of[(R.zero, R.one)], class_of[(R.one, R.one)])
    lam = SemiringHom(R, L, tuple(class_of[(a, R.one)] for a in range(R.n)))
    if hom_violation(lam) is not None:
        raise AxiomError("localization-map", (h,),
                         "canonical map to the localization is not a hom")
    loc = Localization(R, h, L, lam, reps)
    # the inverted element must actually be invertible in the result
    if L.inverse_of(lam(h)) is None:
        raise AxiomError("localization-invertibility", (h,),
                         "inverted element has no inverse in the result")
    return loc


def is_finite_localization(h: SemiringHom) -> int | None:
    """If h: B -> A factors as a localization of B at some element followed
    by an isomorphism, return the least such element index, else None."""
    B = h.source
    for x in range(B.n):
        if h.target.inverse_of(h(x)) is None:
            continue
        loc = localize(B, x)
        try:
            induced = loc.extend(h)
        except SemiringError:
            continue
        if induced.is_bijective():
            return x
    return None

"""Ideals, prime ideals, k-ideals, and the spectra built from them.

A semiring has five visualizations, joined by the comparison chain
twisted -> strong -> weak -> k -> prime.  Each level's points are the next
level's points that pass its test, ordered as there: a subspace.  The weak
points are the exception: filtered from all congruences and ordered by
refinement, they map to the k-points by their kernel ideal.  The primes are
ordered by inclusion, whose down-sets are the opens the U_h = primes
avoiding h generate, as refinement's are those the U_{a,b} = congruences
separating a and b generate.  A record keeps each level's points, labels
and order, its space built from these alone, and its map down only where a
chain map is used; a hom's map of a level pulls every point back and is
kept in its target's record.  The handlers of `spectrum` and
`congruences` end the module.
"""

from __future__ import annotations

from .records import (FLAVORS, InvariantError, _canon_blocks, _count, _memo,
                      _Record)
from .semiring import (
    Congruence,
    FiniteSemiring,
    SemiringError,
    SemiringHom,
    Localization,
    TableError,
    enumerate_congruences,
)
from .topology import (
    ContinuousMap,
    FiniteTopSpace,
    _restrict,
    _space_listing,
    _space_of_order,
    continuous_map,
    set_label,
)


def enumerate_ideals(R: FiniteSemiring) -> list[frozenset[int]]:
    """All ideals: the principal ideals and their sums.  Computed once per
    semiring; each call returns a fresh list."""
    return list(_memo(R, "ideals", lambda: _ideals(R)))


def _ideals(R: FiniteSemiring) -> tuple[frozenset[int], ...]:
    """The principal ideal of a is the additive closure of Ra, which holds
    0 = 0a and a = 1a.  The join of ideals I, J is their sumset I + J: it
    holds both, as 0 lies in each, and is closed under + and scaling by
    associativity and distributivity.  Every ideal is a sum of principal
    ones, so joining each new ideal with each principal one finds them all."""
    add = R.add
    principal = set()
    for a in range(R.n):
        members = {row[a] for row in R.mul}
        todo = list(members)
        while todo:
            x = todo.pop()
            for s in {add[x][y] for y in members} - members:
                members.add(s)
                todo.append(s)
        principal.add(frozenset(members))
    found, todo = set(principal), list(principal)
    while todo:
        I = todo.pop()
        for P in principal:
            K = frozenset(add[i][p] for i in I for p in P)
            if K not in found:
                found.add(K)
                todo.append(K)
    return tuple(sorted(found, key=lambda s: (len(s), sorted(s))))


def is_k_ideal(R: FiniteSemiring, members) -> bool:
    """b in I and a+b in I force a in I."""
    members = frozenset(members)
    for b in members:
        for a in range(R.n):
            if R.add[a][b] in members and a not in members:
                return False
    return True


def is_prime_ideal(R: FiniteSemiring, members) -> bool:
    """The complement is a multiplicative set containing 1."""
    members = frozenset(members)
    if R.one in members:
        return False
    for a in range(R.n):
        if a in members:
            continue
        for b in range(R.n):
            if b not in members and R.mul[a][b] in members:
                return False
    return True


class Spectrum(_Record):
    """Prime ideals of a semiring with their generated topology."""

    semiring: FiniteSemiring
    space: FiniteTopSpace
    primes: tuple[frozenset[int], ...]

    def basic_open(self, h: int) -> frozenset[int]:
        """Point set of U_h: the primes avoiding h."""
        if not 0 <= h < self.semiring.n:
            raise TableError("element index out of range")
        return frozenset(i for i, p in enumerate(self.primes) if h not in p)


def prime_spectrum(R: FiniteSemiring) -> Spectrum:
    """Computed once per semiring: every call returns the same Spectrum."""
    return _memo(R, "spectrum", lambda: Spectrum(
        R, _space(R, "prime"), _points(R, "prime")))


def _distinct_labels(labels) -> tuple[str, ...]:
    """Refuse element labels with commas that print two points alike."""
    first = {}
    for i, label in enumerate(labels):
        if first.setdefault(label, i) != i:
            raise SemiringError(f"two spectrum points are labeled {label}")
    return tuple(labels)


def primality(c: Congruence, flavor: str) -> bool:
    """Whether c is a prime congruence of the given flavor; always demands
    properness (1 and 0 in different blocks).  Each condition reads only
    the blocks of its variables, and c is stable under + and *, so one
    member per block stands for the whole block."""
    R = c.semiring
    if not c.is_proper():
        return False
    k, add, mul, z = c.blocks, R.add, R.mul, c.blocks[R.zero]
    rng = [block[0] for block in c.block_members()]
    if flavor == "weak":
        return all(k[mul[a][b]] != z or k[a] == z or k[b] == z
                   for a in rng for b in rng)
    if flavor == "strong":
        return all(k[mul[a][b]] != k[mul[a][d]] or k[a] == z or k[b] == k[d]
                   for a in rng for b in rng for d in rng)
    if flavor == "twisted":
        return all(
            k[add[mul[a][x]][mul[b][y]]] != k[add[mul[a][y]][mul[b][x]]]
            or k[a] == k[b] or k[x] == k[y]
            for a in rng for b in rng for x in rng for y in rng)
    raise ValueError(f"unknown primality flavor {flavor!r}")


def kernel_ideal(c: Congruence) -> frozenset[int]:
    """The block of 0 of a weak prime congruence; the result is always a
    prime k-ideal."""
    if not primality(c, "weak"):
        raise SemiringError("kernel ideal needs a weak prime congruence")
    R = c.semiring
    I = frozenset(a for a in range(R.n) if c.related(a, R.zero))
    if not (is_prime_ideal(R, I) and is_k_ideal(R, I)):
        raise InvariantError("a weak prime kernel is not a prime k-ideal")
    return I


CHAIN_LEVELS = ("twisted", "strong", "weak", "k", "prime")
# the level each one maps down to
_NEXT = dict(zip(CHAIN_LEVELS, CHAIN_LEVELS[1:]))


def _points(R: FiniteSemiring, vis: str) -> tuple:
    """The points of one visualization; computed once per semiring."""
    return _memo(R, ("points", vis), lambda: _build_points(R, vis))


def _build_points(R: FiniteSemiring, vis: str) -> tuple:
    """The next level's points that pass this level's test, in its order;
    the primes come from all ideals and the weak points from all
    congruences."""
    if vis == "prime":
        return tuple(I for I in enumerate_ideals(R) if is_prime_ideal(R, I))
    if vis == "k":
        return tuple(p for p in _points(R, "prime") if is_k_ideal(R, p))
    if vis == "weak":
        return tuple(c for c in enumerate_congruences(R)
                     if primality(c, "weak"))
    if vis in FLAVORS:
        return tuple(c for c in _points(R, _NEXT[vis]) if primality(c, vis))
    raise ValueError(f"unknown visualization {vis!r}")


def _key(point):
    """A point's key in a position dict: an ideal itself, a congruence its
    blocks, as hashing a congruence hashes its semiring's tables."""
    return point.blocks if isinstance(point, Congruence) else point


def _position(points) -> dict:
    return {_key(p): i for i, p in enumerate(points)}


def _order(R: FiniteSemiring, vis: str) -> tuple:
    """One visualization's point labels, order rows, and its points' places
    among the next level's (None if not a subspace); computed once."""
    return _memo(R, ("order", vis), lambda: _build_order(R, vis))


def _build_order(R: FiniteSemiring, vis: str) -> tuple:
    points = _points(R, vis)
    if vis not in ("prime", "weak"):
        # a subspace is its restricted preorder: the next level's labels
        # and rows sliced to the points that pass
        labels, above, _ = _order(R, _NEXT[vis])
        position = _position(_points(R, _NEXT[vis]))
        hooks = [position[_key(p)] for p in points]
        return tuple(labels[x] for x in hooks), _restrict(above, hooks), hooks
    if vis == "weak":
        _order(R, "prime")  # a label clash is reported on the primes first
    labels = _distinct_labels(
        [set_label(R.elements, p) for p in points] if vis == "prime" else
        ["".join(set_label(R.elements, block) for block in c.block_members())
         for c in points])
    # least open around q: {p : p <= q}, the meet of the U_h over h not in
    # the prime q, or of the U_{a,b} the congruence q separates; inclusion
    # and refinement are orders, so the rows need no closing
    return labels, [sum(1 << j for j, q in enumerate(points) if p <= q)
                    for p in points], None


def _space(R: FiniteSemiring, vis: str) -> FiniteTopSpace:
    """One visualization's space, built from its order alone, once."""
    return _memo(R, ("space", vis), lambda: _build_space(R, vis))


def _build_space(R: FiniteSemiring, vis: str) -> FiniteTopSpace:
    return _space_of_order(*_order(R, vis)[:2])


def _level(R: FiniteSemiring, vis: str
           ) -> tuple[FiniteTopSpace, ContinuousMap | None]:
    """One visualization's space and its map down the chain (None for the
    prime spectrum); computed once per semiring."""
    return _memo(R, ("level", vis), lambda: _build_level(R, vis))


def _build_level(R: FiniteSemiring, vis: str
                 ) -> tuple[FiniteTopSpace, ContinuousMap | None]:
    space = _space(R, vis)
    if vis == "prime":
        return space, None
    lower = _space(R, _NEXT[vis])
    if vis != "weak":
        return space, continuous_map(space, lower, _order(R, vis)[2])
    points, k_points = _points(R, "weak"), _points(R, "k")
    position = _position(k_points)
    images = tuple(position[kernel_ideal(c)] for c in points)
    # the preimage of a basic open U_h must be the basic open U_{h,0}
    for h in range(R.n):
        if any((h in k_points[i]) != c.related(h, R.zero)
               for c, i in zip(points, images)):
            raise InvariantError(
                f"kernel map breaks the basic-open law at {h}")
    return space, continuous_map(space, lower, images)


def k_spectrum(R: FiniteSemiring) -> tuple[FiniteTopSpace, ContinuousMap]:
    """Subspace of the prime spectrum on the prime k-ideals, with its
    inclusion map; computed once per semiring."""
    return _level(R, "k")


def congruence_spectrum(R: FiniteSemiring, flavor: str
                        ) -> tuple[FiniteTopSpace, ContinuousMap]:
    """Space of flavor-prime congruences plus the kernel map down to the
    prime spectrum, the chain's maps composed."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown primality flavor {flavor!r}")
    space, down = _level(R, flavor)
    for vis in CHAIN_LEVELS[CHAIN_LEVELS.index(flavor) + 1:-1]:
        down = _level(R, vis)[1].compose(down)
    return space, down


def visualization_space(R: FiniteSemiring, vis: str) -> FiniteTopSpace:
    """The record's space of one of the five visualizations."""
    return _space(R, vis)


class SpectraChain(_Record):
    """The comparison chain twisted -> strong -> weak -> k-points -> primes.

    The first two arrows and the last one are embeddings of subspaces; the
    middle arrow sends a weak prime congruence to its kernel ideal.  Whether
    that kernel map is onto the prime k-ideals is reported, not assumed."""

    spaces: tuple[FiniteTopSpace, ...]
    names: tuple[str, ...]
    maps: tuple[ContinuousMap, ...]
    kernel_map_surjective: bool
    unreached_k_points: tuple[str, ...]


def visualization_chain(R: FiniteSemiring) -> SpectraChain:
    """The chain over the five levels the record keeps; computed once per
    semiring."""
    return _memo(R, "chain", lambda: _visualization_chain(R))


def _visualization_chain(R: FiniteSemiring) -> SpectraChain:
    spaces, downs = zip(*(_level(R, vis) for vis in CHAIN_LEVELS))
    hit = set(downs[2].images)
    missing = tuple(p for j, p in enumerate(spaces[3].points) if j not in hit)
    return SpectraChain(
        spaces=spaces,
        names=CHAIN_LEVELS,
        maps=downs[:-1],
        kernel_map_surjective=not missing,
        unreached_k_points=missing,
    )


def congruence_pullback(f: SemiringHom, c: Congruence) -> Congruence:
    """The congruence on f's source relating a, b when f(a), f(b) are
    related; pulls every primality flavor back."""
    if c.semiring is not f.target and c.semiring != f.target:
        raise SemiringError("congruence lives on the wrong semiring")
    return Congruence(f.source, _canon_blocks(c.blocks[b] for b in f.images))


def visualization_map(h: SemiringHom, vis: str) -> ContinuousMap:
    """The continuous map of visualization spaces a hom h: B -> A induces,
    running from the A side to the B side; built once and kept in A's
    record."""
    return _memo(h.target, ("map", vis, h), lambda: _build_map(h, vis))


def _build_map(h: SemiringHom, vis: str) -> ContinuousMap:
    """Send each point of A's level to its pullback along h: the preimage
    of a prime (k-)ideal, or `congruence_pullback` of a congruence."""
    B, A = h.source, h.target
    position = _position(_points(B, vis))
    images = []
    for q in _points(A, vis):
        back = (frozenset(a for a in range(B.n) if h(a) in q)
                if vis in ("prime", "k") else congruence_pullback(h, q))
        i = position.get(_key(back))
        if i is None:
            raise InvariantError(f"a pulled-back point leaves the {vis} level")
        images.append(i)
    return continuous_map(_space(A, vis), _space(B, vis), images)


def localization_spectrum_map(loc: Localization
                              ) -> tuple[ContinuousMap, frozenset[int]]:
    """The pullback Spec R[1/h] -> Spec R together with the basic open U_h
    it lands on; the map is an open embedding with exactly that image."""
    m = visualization_map(loc.to_local, "prime")
    target = prime_spectrum(loc.base).basic_open(loc.h)
    image = frozenset(m.images)
    if image != target or not m.is_injective():
        raise SemiringError(
            "localized spectrum does not match the basic open")
    if not m.is_open_embedding():
        raise InvariantError("localized spectrum is not an open embedding")
    return m, target


def spectrum_report(R: FiniteSemiring) -> dict:
    """Machine-readable summary with a stable key order."""
    ideals = enumerate_ideals(R)
    spec = prime_spectrum(R)
    chain = visualization_chain(R)
    report = {
        "elements": list(R.elements),
        "ideal_count": len(ideals),
        "k_ideal_count": sum(1 for I in ideals if is_k_ideal(R, I)),
        "prime_count": len(spec.primes),
        "primes": [sorted(R.elements[x] for x in p) for p in spec.primes],
        "k_prime_count": chain.spaces[3].n,
        "weak_count": chain.spaces[2].n,
        "strong_count": chain.spaces[1].n,
        "twisted_count": chain.spaces[0].n,
        "kernel_map_surjective": chain.kernel_map_surjective,
        "unreached_k_points": list(chain.unreached_k_points),
        "open_set_count": len(spec.space.open_masks),
    }
    report["chain_maps"] = {
        name: [[m.source.points[i], m.target.points[j]]
               for i, j in enumerate(m.images)]
        for name, m in zip(("twisted_to_strong", "strong_to_weak",
                            "weak_to_k", "k_to_prime"), chain.maps)}
    return report


# The `spectrum` and `congruences` commands, run by `cli.main`
def _cmd_spectrum(ns):
    from .formats import read_semiring

    R = read_semiring(ns.file)
    spec = prime_spectrum(R)
    space = visualization_space(R, ns.flavor)
    basic = None
    if ns.flavor in ("prime", "k"):
        under = k_spectrum(R)[1].images if ns.flavor == "k" else range(space.n)
        basic = {R.elements[h]: sorted(space.points[i]
                                       for i, p in enumerate(under)
                                       if p in spec.basic_open(h))
                 for h in range(R.n)}
    discrete = len(space.open_masks) == 2 ** space.n
    head = _count(space.n) + (", discrete" if discrete else "")
    listing, space_data = _space_listing(space, ns.dot)
    lines = [f"flavor: {ns.flavor}", head] + listing
    if basic is not None:
        lines += [f"basic open {e}: " + "{" + ",".join(pts) + "}"
                  for e, pts in basic.items()]
    data = {"flavor": ns.flavor, "discrete": discrete}
    data.update(space_data)
    if basic is not None:
        data["basic_opens"] = basic
    return 0, lines, data


def _cmd_congruences(ns):
    from .formats import read_semiring

    report = spectrum_report(read_semiring(ns.file))
    lines = [
        f"elements: {len(report['elements'])}",
        f"ideals: {report['ideal_count']}",
        f"k-ideals: {report['k_ideal_count']}",
        f"prime ideals: {report['prime_count']}",
        "primes: " + " ".join("{" + ",".join(p) + "}"
                              for p in report["primes"]),
        f"prime k-points: {report['k_prime_count']}",
        f"weak congruence points: {report['weak_count']}",
        f"strong congruence points: {report['strong_count']}",
        f"twisted congruence points: {report['twisted_count']}",
        "kernel map surjective: "
        + ("yes" if report["kernel_map_surjective"] else "no"),
        "unreached k-points: "
        + (" ".join(report["unreached_k_points"])
           if report["unreached_k_points"] else "none"),
        f"open sets: {report['open_set_count']}",
    ]
    for name, table in report["chain_maps"].items():
        for src, dst in table:
            lines.append(f"{name}: {src} -> {dst}")
    return 0, lines, report

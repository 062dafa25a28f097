"""Ideals, prime ideals, k-ideals, and the spectra built from them.

The prime spectrum is built from inclusion of primes, whose down-sets are
the opens the basic opens U_h = primes avoiding h generate.  Congruences
give three finer point sets (weak, strong, twisted prime congruences); the
weak one is built from refinement, whose down-sets are the opens the
U_{a,b} = congruences separating a and b generate.  Twisted implies strong
implies weak, so the strong and twisted spaces are the weak subspaces on
the points that pass their test.  All map down to Spec through the kernel
ideal.  A semiring's record keeps the five spaces and the chain, built once.
"""

from __future__ import annotations

from .semiring import (
    FLAVORS,
    Congruence,
    FiniteSemiring,
    InvariantError,
    SemiringError,
    SemiringHom,
    Localization,
    _Record,
    _canon_blocks,
    _memo,
    enumerate_congruences,
)
from .topology import (
    ContinuousMap,
    FiniteTopSpace,
    continuous_map,
    from_preorder,
    set_label,
    subspace,
)


def is_ideal(R: FiniteSemiring, members) -> bool:
    members = frozenset(members)
    if R.zero not in members:
        return False
    for a in members:
        for b in members:
            if R.add[a][b] not in members:
                return False
        for r in range(R.n):
            if R.mul[r][a] not in members:
                return False
    return True


def ideal_closure(R: FiniteSemiring, gens) -> frozenset[int]:
    """Smallest ideal containing gens."""
    members = {R.zero} | set(gens)
    changed = True
    while changed:
        changed = False
        current = list(members)
        for a in current:
            for b in current:
                s = R.add[a][b]
                if s not in members:
                    members.add(s)
                    changed = True
            for r in range(R.n):
                p = R.mul[r][a]
                if p not in members:
                    members.add(p)
                    changed = True
    return frozenset(members)


def enumerate_ideals(R: FiniteSemiring) -> list[frozenset[int]]:
    """All ideals: principal ideals closed under pairwise join.  Computed
    once per semiring; each call returns a fresh list."""
    return list(_memo(R, "ideals", lambda: _ideals(R)))


def _ideals(R: FiniteSemiring) -> tuple[frozenset[int], ...]:
    found = {ideal_closure(R, [a]) for a in range(R.n)}
    changed = True
    while changed:
        changed = False
        current = list(found)
        for I in current:
            for J in current:
                K = ideal_closure(R, I | J)
                if K not in found:
                    found.add(K)
                    changed = True
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
        return frozenset(i for i, p in enumerate(self.primes) if h not in p)

    def point_of(self, ideal) -> int:
        ideal = frozenset(ideal)
        try:
            return self.primes.index(ideal)
        except ValueError:
            raise SemiringError(f"{sorted(ideal)} is not a prime ideal") \
                from None


def prime_spectrum(R: FiniteSemiring) -> Spectrum:
    """Computed once per semiring: every call returns the same Spectrum."""
    return _memo(R, "spectrum", lambda: _prime_spectrum(R))


def _prime_spectrum(R: FiniteSemiring) -> Spectrum:
    ideals = enumerate_ideals(R)
    primes = tuple(I for I in ideals if is_prime_ideal(R, I))
    labels = _distinct_labels([set_label(R.elements, p) for p in primes])
    # least open around q: the meet of the U_h over h not in q, {p : p <= q}
    space = from_preorder(labels, [[p <= q for q in primes] for p in primes])
    return Spectrum(R, space, primes)


def _distinct_labels(labels) -> tuple[str, ...]:
    """Refuse element labels with commas that print two points alike."""
    first = {}
    for i, label in enumerate(labels):
        if first.setdefault(label, i) != i:
            raise SemiringError(f"two spectrum points are labeled {label}")
    return tuple(labels)


def k_spectrum(R: FiniteSemiring) -> tuple[FiniteTopSpace, ContinuousMap]:
    """Subspace of the prime spectrum on the prime k-ideals, with its
    inclusion map; computed once per semiring."""
    return _memo(R, ("subspace", "k"), lambda: _subspectrum(R, "k"))


def _flavor_subspace(R: FiniteSemiring, flavor: str
                     ) -> tuple[FiniteTopSpace, ContinuousMap]:
    """The strong or twisted points as a subspace of the weak space, with
    its inclusion; computed once per semiring and flavor."""
    if flavor not in ("strong", "twisted"):
        raise ValueError(f"unknown primality flavor {flavor!r}")
    return _memo(R, ("subspace", flavor), lambda: _subspectrum(R, flavor))


def _subspectrum(R: FiniteSemiring, vis: str
                 ) -> tuple[FiniteTopSpace, ContinuousMap]:
    """The prime k-ideals as a subspace of the prime spectrum, or the weak
    points that pass the strong or twisted test as one of the weak space."""
    if vis == "k":
        spec = prime_spectrum(R)
        return subspace(spec.space, [i for i, p in enumerate(spec.primes)
                                     if is_k_ideal(R, p)])
    return subspace(congruence_spectrum(R, "weak")[0],
                    [i for i, c in enumerate(prime_congruences(R, "weak"))
                     if primality(c, vis)])


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


def prime_congruences(R: FiniteSemiring, flavor: str) -> list[Congruence]:
    """The flavor-prime congruences in the order of the weak ones, which
    are filtered from all congruences; each call returns a fresh list."""
    weak = _memo(R, ("prime", "weak"), lambda: tuple(
        c for c in enumerate_congruences(R) if primality(c, "weak")))
    if flavor == "weak":
        return list(weak)
    return [weak[i] for i in _flavor_subspace(R, flavor)[1].images]


def congruence_spectrum(R: FiniteSemiring, flavor: str
                        ) -> tuple[FiniteTopSpace, ContinuousMap]:
    """Space of flavor-prime congruences plus the kernel map down to the
    prime spectrum; computed once per semiring and flavor."""
    if flavor == "weak":
        return _memo(R, ("space", "weak"), lambda: _congruence_spectrum(R))
    space, incl = _flavor_subspace(R, flavor)
    return _memo(R, ("space", flavor), lambda: (
        space, congruence_spectrum(R, "weak")[1].compose(incl)))


def _congruence_spectrum(R: FiniteSemiring
                         ) -> tuple[FiniteTopSpace, ContinuousMap]:
    spec = prime_spectrum(R)
    points = prime_congruences(R, "weak")
    labels = _distinct_labels(["".join(set_label(R.elements, block)
                                       for block in c.block_members())
                               for c in points])
    # least open around d: the meet of the U_{a,b} d separates, {c : c <= d}
    space = from_preorder(labels, [[c <= d for d in points] for c in points])
    images = tuple(spec.point_of(kernel_ideal(c)) for c in points)
    down = continuous_map(space, spec.space, images)
    # the preimage of a basic open U_h must be the basic open U_{h,0}
    for h in range(R.n):
        pre = frozenset(i for i in range(space.n)
                        if images[i] in spec.basic_open(h))
        direct = frozenset(i for i, c in enumerate(points)
                           if not c.related(h, R.zero))
        if pre != direct:
            raise InvariantError(
                f"kernel map breaks the basic-open law at {h}")
    return space, down


def visualization_space(R: FiniteSemiring, vis: str) -> FiniteTopSpace:
    """The record's space of one of the five visualizations."""
    if vis == "prime":
        return prime_spectrum(R).space
    if vis == "k":
        return k_spectrum(R)[0]
    if vis in FLAVORS:
        return congruence_spectrum(R, vis)[0]
    raise ValueError(f"unknown visualization {vis!r}")


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
    """The chain over the five spaces the record keeps; computed once per
    semiring."""
    return _memo(R, "chain", lambda: _visualization_chain(R))


def _visualization_chain(R: FiniteSemiring) -> SpectraChain:
    spec = prime_spectrum(R)
    k_space, k_incl = k_spectrum(R)
    weak_space, weak_down = congruence_spectrum(R, "weak")
    strong_space, strong_incl = _flavor_subspace(R, "strong")
    twisted_space, twisted_incl = _flavor_subspace(R, "twisted")
    # the hooks are injective as built; the kernel map lands in the k-points
    t_to_s = continuous_map(twisted_space, strong_space, tuple(
        strong_incl.images.index(i) for i in twisted_incl.images))
    w_to_k = continuous_map(weak_space, k_space, tuple(
        k_incl.images.index(i) for i in weak_down.images))
    hit = set(w_to_k.images)
    missing = tuple(p for j, p in enumerate(k_space.points) if j not in hit)
    return SpectraChain(
        spaces=(twisted_space, strong_space, weak_space, k_space, spec.space),
        names=("twisted", "strong", "weak", "k", "prime"),
        maps=(t_to_s, strong_incl, w_to_k, k_incl),
        kernel_map_surjective=not missing,
        unreached_k_points=missing,
    )


def spectrum_pullback(f: SemiringHom) -> ContinuousMap:
    """A hom f: R -> T induces the continuous map Spec T -> Spec R sending a
    prime to its preimage."""
    source_spec = prime_spectrum(f.source)
    target_spec = prime_spectrum(f.target)
    images = []
    for q in target_spec.primes:
        pre = frozenset(a for a in range(f.source.n) if f(a) in q)
        images.append(source_spec.point_of(pre))
    return continuous_map(target_spec.space, source_spec.space,
                          tuple(images))


def congruence_pullback(f: SemiringHom, c: Congruence) -> Congruence:
    """The congruence on f's source relating a, b when f(a), f(b) are
    related; pulls every primality flavor back."""
    if c.semiring is not f.target and c.semiring != f.target:
        raise SemiringError("congruence lives on the wrong semiring")
    return Congruence(f.source, _canon_blocks(c.blocks[b] for b in f.images))


def congruence_spectrum_pullback(f: SemiringHom, flavor: str
                                 ) -> ContinuousMap:
    """The map Cong(T) -> Cong(R) induced by a hom f: R -> T."""
    src_points = prime_congruences(f.source, flavor)
    src_space, _ = congruence_spectrum(f.source, flavor)
    tgt_points = prime_congruences(f.target, flavor)
    tgt_space, _ = congruence_spectrum(f.target, flavor)
    images = []
    for c in tgt_points:
        back = congruence_pullback(f, c)
        if not primality(back, flavor):
            raise InvariantError("pullback dropped out of the flavor")
        images.append(src_points.index(back))
    return continuous_map(tgt_space, src_space, tuple(images))


def localization_spectrum_map(loc: Localization
                              ) -> tuple[ContinuousMap, frozenset[int]]:
    """The pullback Spec R[1/h] -> Spec R together with the basic open U_h
    it lands on; the map is an open embedding with exactly that image."""
    m = spectrum_pullback(loc.to_local)
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

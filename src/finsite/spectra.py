"""Ideals, prime ideals, k-ideals, and the spectra built from them.

The prime spectrum carries the topology generated by the basic opens
U_h = set of primes avoiding h.  Congruences give three finer point sets
(weak, strong, twisted prime congruences); each carries the topology
generated by U_{a,b} = set of congruences separating a and b, and all of
them map down to the prime spectrum through the kernel ideal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .semiring import (
    Congruence,
    FiniteSemiring,
    InvariantError,
    SemiringError,
    SemiringHom,
    Localization,
    enumerate_congruences,
)
from .topology import (
    ContinuousMap,
    FiniteTopSpace,
    continuous_map,
    set_label,
    space_from_opens,
    subspace,
)

FLAVORS = ("weak", "strong", "twisted")


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
    """All ideals: principal ideals closed under pairwise join."""
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
    return sorted(found, key=lambda s: (len(s), sorted(s)))


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


@dataclass(frozen=True)
class Spectrum:
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
    ideals = enumerate_ideals(R)
    primes = tuple(I for I in ideals if is_prime_ideal(R, I))
    labels = tuple(set_label(R.elements, p) for p in primes)
    basis = [frozenset(i for i, p in enumerate(primes) if h not in p)
             for h in range(R.n)]
    space = space_from_opens(labels, basis)
    return Spectrum(R, space, primes)


def k_spectrum(R: FiniteSemiring,
               spec: Spectrum | None = None) -> tuple[FiniteTopSpace, ContinuousMap]:
    """Subspace of the prime spectrum on the prime k-ideals, with its
    inclusion map."""
    if spec is None:
        spec = prime_spectrum(R)
    keep = [i for i, p in enumerate(spec.primes) if is_k_ideal(R, p)]
    return subspace(spec.space, keep)


def primality(c: Congruence, flavor: str) -> bool:
    """Whether c is a prime congruence of the given flavor; always demands
    properness (1 and 0 in different blocks)."""
    R = c.semiring
    if not c.is_proper():
        return False
    rng = range(R.n)
    if flavor == "weak":
        return all(c.related(R.mul[a][b], R.zero) <=
                   (c.related(a, R.zero) or c.related(b, R.zero))
                   for a in rng for b in rng)
    if flavor == "strong":
        return all(c.related(R.mul[a][b], R.mul[a][d]) <=
                   (c.related(a, R.zero) or c.related(b, d))
                   for a in rng for b in rng for d in rng)
    if flavor == "twisted":
        return all(
            c.related(R.add[R.mul[a][x]][R.mul[b][y]],
                      R.add[R.mul[a][y]][R.mul[b][x]]) <=
            (c.related(a, b) or c.related(x, y))
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
    return [c for c in enumerate_congruences(R) if primality(c, flavor)]


def _congruence_label(c: Congruence) -> str:
    R = c.semiring
    return "".join(set_label(R.elements, block)
                   for block in c.block_members())


def congruence_spectrum(R: FiniteSemiring, flavor: str,
                        spec: Spectrum | None = None
                        ) -> tuple[FiniteTopSpace, ContinuousMap]:
    """Space of flavor-prime congruences plus the kernel map down to the
    prime spectrum."""
    if spec is None:
        spec = prime_spectrum(R)
    points = prime_congruences(R, flavor)
    labels = tuple(_congruence_label(c) for c in points)
    basis = [frozenset(i for i, c in enumerate(points) if not c.related(a, b))
             for a in range(R.n) for b in range(R.n)]
    space = space_from_opens(labels, basis)
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


@dataclass(frozen=True)
class SpectraChain:
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
    spec = prime_spectrum(R)
    k_space, k_incl = k_spectrum(R, spec)
    weak_points = prime_congruences(R, "weak")
    weak_space, weak_down = congruence_spectrum(R, "weak", spec)

    def sub_of_weak(flavor):
        keep = [i for i, c in enumerate(weak_points) if primality(c, flavor)]
        return subspace(weak_space, keep)

    strong_space, strong_incl = sub_of_weak("strong")
    twisted_space, _ = sub_of_weak("twisted")
    # embed the twisted points into the strong subspace
    strong_ids = [i for i, c in enumerate(weak_points)
                  if primality(c, "strong")]
    twisted_in_strong = tuple(
        strong_ids.index(i) for i, c in enumerate(weak_points)
        if primality(c, "twisted"))
    t_to_s = continuous_map(twisted_space, strong_space, twisted_in_strong)

    # the kernel map lands inside the k-points; express it against k_space
    k_ids = [k_incl(i) for i in range(k_space.n)]
    w_to_k = continuous_map(
        weak_space, k_space,
        tuple(k_ids.index(weak_down(i)) for i in range(weak_space.n)))

    if not all(m.is_injective() for m in (t_to_s, strong_incl, k_incl)):
        raise InvariantError("a subspace hook of the chain is not injective")
    hit = {w_to_k(i) for i in range(weak_space.n)}
    missing = tuple(k_space.points[j] for j in range(k_space.n)
                    if j not in hit)
    return SpectraChain(
        spaces=(twisted_space, strong_space, weak_space, k_space, spec.space),
        names=("twisted", "strong", "weak", "k", "prime"),
        maps=(t_to_s, strong_incl, w_to_k, k_incl),
        kernel_map_surjective=not missing,
        unreached_k_points=missing,
    )


def spectrum_pullback(f: SemiringHom, source_spec: Spectrum | None = None,
                      target_spec: Spectrum | None = None) -> ContinuousMap:
    """A hom f: R -> T induces the continuous map Spec T -> Spec R sending a
    prime to its preimage."""
    if source_spec is None:
        source_spec = prime_spectrum(f.source)
    if target_spec is None:
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
    n = f.source.n
    block_of = {}
    blocks = []
    for a in range(n):
        key = c.blocks[f(a)]
        if key not in block_of:
            block_of[key] = len(block_of)
        blocks.append(block_of[key])
    return Congruence(f.source, tuple(blocks))


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


def localization_spectrum_map(loc: Localization,
                              base_spec: Spectrum | None = None
                              ) -> tuple[ContinuousMap, frozenset[int]]:
    """The pullback Spec R[1/h] -> Spec R together with the basic open U_h
    it lands on; the map is an open embedding with exactly that image."""
    if base_spec is None:
        base_spec = prime_spectrum(loc.base)
    m = spectrum_pullback(loc.to_local, base_spec)
    target = base_spec.basic_open(loc.h)
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
        "open_set_count": len(spec.space.opens),
    }
    maps = {}
    for name_pair, m in zip(
            ("twisted_to_strong", "strong_to_weak", "weak_to_k",
             "k_to_prime"), chain.maps):
        maps[name_pair] = [[m.source.points[i], m.target.points[m(i)]]
                           for i in range(m.source.n)]
    report["chain_maps"] = maps
    return report

"""Finite frames (bounded distributive lattices) and Stone duality.

At finite scale a frame is exactly a bounded distributive lattice, and the
points of its Stone dual are the completely prime filters, each the up-set
of a join-prime.  By Birkhoff a finite distributive lattice is the lattice
of down-sets of its join-primes (its elements with exactly one lower
cover), so a frame stores each element as the bitmask of the join-primes
below it: `finite_frame` validates parsed orders, and `frame_of_opens`
reads the masks off a space's least opens.  A space keeps its frame of
opens, and a frame its Stone dual, in the record `records._memo` fills,
built once on first use; equality, hash and repr ignore it.  Nothing
here needs a semiring, so `stone` loads no `semiring`, and `locale` reads
its frame off the prime spectrum without `site`.  The lattice-dump format
and the handlers of `locale` and `stone` end the module.
"""

from __future__ import annotations

from .records import _count, _memo, _Record
from .topology import (
    ContinuousMap,
    FiniteTopSpace,
    _bits,
    _converse,
    _mask,
    _restrict,
    _space_listing,
    continuous_map,
    cover_pairs,
    from_preorder,
    order_closure,
    set_label,
)


class FrameError(Exception):
    pass


class FiniteFrame(_Record):
    """A finite distributive lattice: bit j of masks[a] is set iff the
    join-prime j (an element index) lies below a, so the order is mask
    inclusion, meet is &, join is |, bottom's mask is empty and top's full;
    build through `finite_frame` or `frame_of_opens`."""

    elements: tuple[str, ...]
    masks: tuple[int, ...]
    primes: tuple[int, ...]

    @property
    def n(self):
        return len(self.elements)

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise FrameError(f"no lattice element labeled {label!r}") from None

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (a, b) with a strictly below b and nothing between, in
        index order: b adds one join-prime whose other join-primes a
        holds."""
        position = {m: c for c, m in enumerate(self.masks)}
        return sorted((a, position[m | 1 << j])
                      for a, m in enumerate(self.masks) for j in self.primes
                      if self.masks[j] & ~m == 1 << j)

    def join_primes(self) -> list[int]:
        """Non-bottom elements m with m <= a v b forcing m <= a or m <= b,
        the generators of the completely prime filters."""
        return list(self.primes)

    def __repr__(self):
        return f"FiniteFrame({self.n} elements)"


def finite_frame(elements, above) -> FiniteFrame:
    """Validate order rows (bit b of above[a] set iff a <= b) into a frame:
    a bounded lattice whose meet distributes over join.  The
    distributivity error carries a witness triple."""
    elements = tuple(elements)
    n = len(elements)
    if len(set(elements)) != n:
        raise FrameError("duplicate element labels")
    # up[a] and down[a]: the elements above and below a, as bitmasks
    up = tuple(above)
    if len(up) != n or any(row >> n for row in up):
        raise FrameError(f"order rows do not fit {n} elements")
    down = _converse(up)
    for a in range(n):
        if not up[a] >> a & 1:
            raise FrameError(f"order not reflexive at {elements[a]}")
        # both checks concern the b above a, taken in index order
        for b in _bits(up[a]):
            if a != b and up[b] >> a & 1:
                raise FrameError(
                    f"order not antisymmetric on {elements[a]}, {elements[b]}")
            # some c above b is not above a
            if up[b] & ~up[a]:
                raise FrameError(
                    f"order not transitive through {elements[b]}")

    # in a poset an element is fixed by its up-set: a v b, when it exists,
    # is the element whose up-set is up(a) & up(b), and dually for meets
    def bounds(masks, kind):
        by_mask = {m: c for c, m in enumerate(masks)}
        for a, m in enumerate(masks):
            for b, k in enumerate(masks):
                if m & k not in by_mask:
                    raise FrameError(
                        f"no {kind} for {elements[a]}, {elements[b]}")
        return by_mask

    bounds(down, "meet")
    join = bounds(up, "join")
    full = (1 << n) - 1
    if up.count(full) != 1 or down.count(full) != 1:
        raise FrameError("missing bottom or top")
    # Birkhoff: a finite lattice is distributive iff each join-irreducible
    # is join-prime, that is J(a v b) = J(a) | J(b) with J(x) the
    # join-irreducibles below x.  A j below a v b but below neither a nor b
    # has j ^ (a v b) = j above (j ^ a) v (j ^ b), which lies under j's
    # one lower cover, so (j, a, b) witnesses the failure.
    lower = [0] * n
    for _, b in cover_pairs(up):
        lower[b] += 1
    primes = tuple(j for j in range(n) if lower[j] == 1)
    irreducible = sum(1 << j for j in primes)
    J = tuple(d & irreducible for d in down)
    for a in range(n):
        for b in range(a + 1, n):
            missed = J[join[up[a] & up[b]]] & ~(J[a] | J[b])
            if missed:
                j = (missed & -missed).bit_length() - 1
                raise FrameError(
                    "meet does not distribute over join at "
                    f"({elements[j]}, {elements[a]}, {elements[b]})")
    # the J(a) are the masks: distributivity makes them the frame's order
    return FiniteFrame(elements, J, primes)


def frame_from_covers(elements, pairs) -> FiniteFrame:
    """Rebuild a frame from its covering pairs (a below b)."""
    elements = tuple(elements)
    return finite_frame(elements, order_closure(len(elements), pairs))


def frame_of_opens(X: FiniteTopSpace) -> FiniteFrame:
    """The lattice of open sets ordered by inclusion, in canonical order;
    built on first use and kept by X."""
    return _memo(X, "frame", lambda: _frame_of_opens(X))


def _frame_of_opens(X: FiniteTopSpace) -> FiniteFrame:
    # the join-primes of a lattice of down-sets are its distinct least
    # opens, and those inside an open u are the least opens of u's points
    opens = X.open_masks
    position = {u: i for i, u in enumerate(opens)}
    prime = [position[least] for least in X._below]
    return FiniteFrame(
        tuple(set_label(X.points, _bits(u)) for u in opens),
        tuple(_mask(prime[x] for x in _bits(u)) for u in opens),
        tuple(sorted(set(prime))))


def stone_dual(L: FiniteFrame) -> tuple[FiniteTopSpace, tuple[frozenset[int], ...]]:
    """The space of completely prime filters of L, each the up-set of a
    join-prime; built from the join-prime order, whose down-sets are the
    O_u = filters containing u, so the O_u generate the same topology.
    Built on first use and kept by L."""
    return _memo(L, "dual", lambda: _stone_dual(L))


def _stone_dual(L: FiniteFrame):
    gens = L.primes
    up = _converse(L.masks)  # up[m]: the elements above m
    filters = tuple(frozenset(_bits(up[m])) for m in gens)
    labels = tuple(L.elements[m] for m in gens)
    # O_u = join-primes below u, and by Birkhoff every down-set is some O_u;
    # on gens the masks list the join-primes below each one
    return from_preorder(labels, _converse(_restrict(L.masks, gens))), filters


def sobrification_unit(X: FiniteTopSpace) -> ContinuousMap:
    """The canonical comparison x -> (filter of opens containing x) into
    the dual of the open-set frame; a homeomorphism exactly on T0 spaces."""
    L = frame_of_opens(X)
    dual, _ = stone_dual(L)
    # the opens around x are those holding x's least open: the up-set of
    # that open, a join-prime, so the filter of the dual's point there
    position = {u: i for i, u in enumerate(X.open_masks)}
    return continuous_map(X, dual, tuple(L.primes.index(position[least])
                                         for least in X._below))


def is_sober(X: FiniteTopSpace):
    """Each irreducible closed set must be the closure of exactly one
    point; returns (flag, witness) where the witness names an offending
    closed set and its generic points."""
    for c in X.irreducible_closed_sets():
        gens = X.generic_points(c)
        if len(gens) != 1:
            return False, (c, tuple(X.points[g] for g in gens))
    return True, None


def spatiality_check(L: FiniteFrame) -> bool:
    """Whether u -> O_u, the join-primes below u or masks[u], identifies L
    with the open-set frame of its dual: it must be injective and
    order-reflecting.  It preserves meets, O_{a ^ b} = O_a & O_b, so
    injective is enough: O_a inside O_b gives O_{a ^ b} = O_a, so a <= b."""
    return len(set(L.masks)) == L.n


# The lattice-dump format, read by `formats.read_lattice`: the Hasse edges,
# one `a < b` covering pair per line, or the lone label of a one-element
# frame.

def _render_lattice(L: FiniteFrame) -> str:
    """The dump of L, the format `_parse_lattice` reads back."""
    lines = [f"{L.elements[a]} < {L.elements[b]}" for a, b in L.covers()]
    return "\n".join(lines or L.elements) + "\n"


def _parse_lattice(text: str) -> FiniteFrame:
    from .formats import FormatError, _logical_lines

    order: list[str] = []
    seen = set()
    pairs = []
    for line in _logical_lines(text):
        if len(line) == 3 and line[1] == "<":
            if line[0] == line[2]:
                raise FormatError(f"cover pair repeats label {line[0]!r}")
            pairs.append((line[0], line[2]))
        elif len(line) != 1:
            raise FormatError(f"lattice lines read: a < b or a lone label, "
                              f"got {' '.join(line)!r}")
        # the labels: a pair's two ends, or the lone label
        for label in line[::2]:
            if label not in seen:
                seen.add(label)
                order.append(label)
    if not order:
        raise FormatError("empty lattice dump")
    index = {e: i for i, e in enumerate(order)}
    try:
        return frame_from_covers(tuple(order),
                                 [(index[a], index[b]) for a, b in pairs])
    except FrameError as e:
        raise FormatError(str(e)) from None


# The `locale` and `stone` commands, run by `cli.main`
def _cmd_locale(ns):
    from .formats import read_semiring, write_text
    from .spectra import prime_spectrum

    frame = frame_of_opens(prime_spectrum(read_semiring(ns.file)).space)
    dump = _render_lattice(frame)
    data = {"elements": list(frame.elements),
            "covers": [[frame.elements[a], frame.elements[b]]
                       for a, b in frame.covers()],
            "spatial": spatiality_check(frame)}
    lines = [f"frame of spectrum opens: {_count(frame.n, 'element')}",
             f"join-primes: {len(frame.join_primes())}",
             "spatial: " + ("yes" if data["spatial"] else "no")]
    lines += dump.splitlines()
    if ns.dot:
        write_text(ns.dot, dump)
    return 0, lines, data


def _cmd_stone(ns):
    from .formats import read_lattice

    frame = read_lattice(ns.file)
    space, _ = stone_dual(frame)
    sober = is_sober(space)[0]
    data = {"sober": sober, "spatial": spatiality_check(frame)}
    listing, space_data = _space_listing(space, ns.dot)
    lines = [f"dual space: {_count(space.n)}"] + listing
    lines += ["sober: " + ("yes" if sober else "no"),
              "spatial: " + ("yes" if data["spatial"] else "no")]
    data.update(space_data)
    return 0, lines, data

"""Finite topological spaces, continuous maps, and chart presentations.

Finite spaces are exactly preorders: x <= y holds when y lies in the
closure of x, opens are the down-sets (stable under passing to more generic
points), closed points sit at the top.  A space stores its specialization
order as int-bitmask rows, sets each point's least open at construction,
and lists its opens, the down-sets, only when a caller asks for them,
keeping the listing in its derived data (`records._memo`).  Every
operation works on the order: least opens are down-sets, closed sets
up-sets, continuity is monotonicity, a subspace is the restricted order
(`_restrict`) and a glued space (`colimit.glue_along_maps`) the
identified one.  These rows are the one format of a finite order in
finsite, frames included.  Until construction learns to trust its own
down-sets, `_space_of_order` still checks the listed family for closure
under unions and intersections, pair by pair.

Both sites present their charts in one record, `_Presentation`, built
by `_presentation` and walked by its `walk`; they glue and decide descent
in `colimit`, which the commands that neither glue nor check descent do
not load.
"""

from __future__ import annotations

from .records import _Map, _memo, _Record


class TopologyError(Exception):
    pass


def set_label(labels, members) -> str:
    """The label of a subset, by its members' labels in index order."""
    return "{" + ",".join(labels[x] for x in sorted(members)) + "}"


def _bits(mask: int) -> list[int]:
    """The members of a bitmask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask(members) -> int:
    return sum(1 << x for x in set(members))


def _converse(rows) -> tuple[int, ...]:
    """The converse of a relation given as bitmask rows: bit x of row y is
    set iff bit y of rows[x] is."""
    out = [0] * len(rows)
    for x, row in enumerate(rows):
        for y in _bits(row):
            out[y] |= 1 << x
    return tuple(out)


def _listing_key(mask: int):
    """sorted_opens' order on masks: by size, then by sorted members."""
    return mask.bit_count(), _bits(mask)


class FiniteTopSpace(_Record):
    """Points and their specialization order: bit y of above[x] is set iff
    x <= y, that is, y lies in the closure of x.  The least opens are set
    at construction and the opens kept in the record's derived data on
    first use; equality, hash and repr ignore both."""
    points: tuple[str, ...]
    above: tuple[int, ...]

    def __post_init__(self):
        # per point x, its least open neighbourhood: the points y <= x
        object.__setattr__(self, "_below", _converse(self.above))

    @property
    def open_masks(self) -> tuple[int, ...]:
        """The opens, the down-sets of the order, as bitmasks in
        sorted_opens order."""
        return _memo(self, "open_masks", self._down_sets)

    def _down_sets(self) -> tuple[int, ...]:
        # mutually related points share a least open and travel together;
        # clusters come by size of least open, so after every cluster
        # strictly below them, and each joins the down-sets that already
        # hold everything strictly below it
        below = self._below
        clusters: dict[int, int] = {}
        for x in sorted(range(self.n), key=lambda x: below[x].bit_count()):
            clusters[below[x]] = clusters.get(below[x], 0) | 1 << x
        downs = [0]
        for least, c in clusters.items():
            strict = least & ~c
            downs += [d | c for d in downs if d & strict == strict]
        return tuple(sorted(downs, key=_listing_key))

    @property
    def _opens_listed(self) -> tuple[frozenset[int], ...]:
        return _memo(self, "opens_listed", lambda: tuple(
            frozenset(_bits(m)) for m in self.open_masks))

    @property
    def opens(self) -> frozenset[frozenset[int]]:
        return _memo(self, "opens", lambda: frozenset(self._opens_listed))

    @property
    def n(self):
        return len(self.points)

    def index(self, label: str) -> int:
        try:
            return self.points.index(label)
        except ValueError:
            raise TopologyError(f"no point labeled {label!r}") from None

    def sorted_opens(self) -> list[frozenset[int]]:
        return list(self._opens_listed)

    def is_open(self, subset) -> bool:
        """subset is a down-set of points of the space."""
        return self.interior(subset) == frozenset(subset)

    def is_closed(self, subset) -> bool:
        return self.is_open(frozenset(range(self.n)) - frozenset(subset))

    def interior(self, subset) -> frozenset:
        """The points whose least open lies inside subset."""
        s = _mask(x for x in subset if x in range(self.n))
        return frozenset(x for x in range(self.n) if self._below[x] & ~s == 0)

    def min_open(self, x: int) -> frozenset:
        return frozenset(_bits(self._below[x]))

    def irreducible_closed_sets(self) -> list[frozenset[int]]:
        """In a finite space these are exactly the point closures: a
        nonempty closed set is the finite union of its points' closures."""
        return [frozenset(_bits(c))
                for c in sorted(set(self.above), key=_listing_key)]

    def generic_points(self, closed_set) -> list[int]:
        c = _mask(closed_set)
        return [x for x in range(self.n) if self.above[x] == c]

    def specialization_edges(self) -> list[tuple[str, str]]:
        """Covering pairs of the specialization order by label, each from
        the more special point toward its generization."""
        return [(self.points[y], self.points[x])
                for x, y in cover_pairs(self.above)]

    def specialization_dot(self, edges=None) -> str:
        """Edges run from each closed point toward its generizations, one
        covering pair per line; `edges` defaults to specialization_edges()."""
        lines = ["digraph specialization {"]
        lines += [f'  "{p}";' for p in self.points]
        lines += [f'  "{a}" -> "{b}";' for a, b in (
            self.specialization_edges() if edges is None else edges)]
        lines.append("}")
        return "\n".join(lines) + "\n"


def _labels(points) -> tuple[str, ...]:
    points = tuple(points)
    if len(set(points)) != len(points):
        raise TopologyError("duplicate point labels")
    return points


def _check_family(n: int, masks) -> None:
    """Raise unless the family of open masks, listed in sorted_opens order,
    holds the empty and the full set and is closed under pairwise unions
    and intersections; a failure names the first such pair.  A pair and
    its swap fail together, so scanning each unordered pair once finds the
    first failing ordered pair."""
    fam = set(masks)
    if 0 not in fam:
        raise TopologyError("the empty set must be open")
    if (1 << n) - 1 not in fam:
        raise TopologyError("the full point set must be open")
    for i, u in enumerate(masks):
        for v in masks[i:]:
            if u | v not in fam:
                raise TopologyError(
                    f"opens not closed under union: {_bits(u)} | {_bits(v)}")
            if u & v not in fam:
                raise TopologyError(
                    "opens not closed under intersection: "
                    f"{_bits(u)} & {_bits(v)}")


def validate_topology(points, opens) -> FiniteTopSpace:
    """The space with the given family of opens, checked to be a topology;
    its order is read off the family: x <= y iff x lies in y's least
    open."""
    points = _labels(points)
    n = len(points)
    masks = set()
    for u in opens:
        for x in u:
            if not (0 <= x < n):
                raise TopologyError(f"open set mentions unknown point {x}")
        masks.add(_mask(u))
    _check_family(n, sorted(masks, key=_listing_key))
    least = [(1 << n) - 1] * n
    for u in masks:
        for x in _bits(u):
            least[x] &= u
    return FiniteTopSpace(points, _converse(least))


def order_closure(n: int, pairs) -> list[int]:
    """The reflexive-transitive closure of the relation pairs on range(n),
    as bitmask rows: bit y of row x is set iff (x, y) is in the closure."""
    rows = [1 << x for x in range(n)]
    for x, y in pairs:
        rows[x] |= 1 << y
    # Warshall: after step k, rows[x] holds every y reachable through
    # points up to k
    for k in range(n):
        for x in range(n):
            if rows[x] >> k & 1:
                rows[x] |= rows[k]
    return rows


def _restrict(above, subset) -> list[int]:
    """The order rows on the points of subset, renumbered by their
    position in it."""
    return [sum(1 << j for j, y in enumerate(subset) if above[x] >> y & 1)
            for x in subset]


def cover_pairs(above) -> list[tuple[int, int]]:
    """The covering pairs (x, y) of the preorder with rows `above`, in
    index order: x lies strictly below y (bit y of above[x] is set, bit x
    of above[y] is not) and no point lies strictly between them."""
    strict = [row & ~col for row, col in zip(above, _converse(above))]
    out = []
    for x, row in enumerate(strict):
        # y covers x when it lies strictly above x but not strictly above
        # any point strictly above x
        covers = row
        for z in _bits(row):
            covers &= ~strict[z]
        out += [(x, y) for y in _bits(covers)]
    return out


def from_preorder(points, above) -> FiniteTopSpace:
    """Space whose specialization order is the reflexive-transitive closure
    of the relation with rows `above` (bit y of above[x]: y specializes
    x); opens are the down-sets."""
    n = len(points)
    if len(above) != n or any(row >> n for row in above):
        raise TopologyError(f"order rows do not fit {n} points")
    return _space_of_order(points, order_closure(
        n, [(x, y) for x, row in enumerate(above) for y in _bits(row)]))


def _space_of_order(points, above) -> FiniteTopSpace:
    """The space on points whose order rows `above` are already reflexive
    and transitive, with its listed down-sets checked as a topology."""
    X = FiniteTopSpace(_labels(points), tuple(above))
    _check_family(X.n, X.open_masks)
    return X


class ContinuousMap(_Map):
    """A map of finite spaces, continuous when built by `continuous_map`."""

    _error = TopologyError

    def continuity_violation(self):
        """A target open whose preimage is not open, or None.  A map of
        finite spaces is continuous iff it is monotone; for x <= y with
        f(x) not <= f(y), the least open around f(y) holds f(y) but not
        f(x), so its preimage holds y but not x and is no down-set."""
        above = self.target.above
        for x, ups in enumerate(self.source.above):
            fx = above[self.images[x]]
            for y in _bits(ups):
                if not fx >> self.images[y] & 1:
                    return self.target.min_open(self.images[y])
        return None

    def is_continuous(self) -> bool:
        return self.continuity_violation() is None

    def is_homeomorphism(self) -> bool:
        if not (self.is_bijective() and self.is_continuous()):
            return False
        inv = [0] * self.target.n
        for x, y in enumerate(self.images):
            inv[y] = x
        back = ContinuousMap(self.target, self.source, tuple(inv))
        return back.is_continuous()

    def is_open_embedding(self) -> bool:
        """Injective, and each least open goes onto the least open around
        its image: f(min x) = min f(x)."""
        if not self.is_injective():
            return False
        below = self.target._below
        return all(_mask(self.images[y] for y in _bits(least))
                   == below[self.images[x]]
                   for x, least in enumerate(self.source._below))


def continuous_map(source, target, images) -> ContinuousMap:
    images = tuple(images)
    if len(images) != source.n or any(not 0 <= y < target.n for y in images):
        raise TopologyError("point assignment out of range")
    m = ContinuousMap(source, target, images)
    bad = m.continuity_violation()
    if bad is not None:
        raise TopologyError(
            f"preimage of open {sorted(bad)} is not open")
    return m


class _Presentation(_Record):
    """Named charts and arrows (src, dst, map) between them, on either
    site; the subclass's `_error` is raised for an unknown chart or walk."""

    names: tuple[str, ...]
    charts: tuple
    arrows: tuple[tuple[int, int, object], ...]

    def node(self, name: str) -> int:
        if name not in self.names:
            raise self._error(f"no chart named {name!r}")
        return self.names.index(name)

    def walk(self, start: int, steps) -> tuple[int, ...]:
        """The charts visited from `start` by (arrow id, forward?) steps."""
        if start not in range(len(self.names)):
            raise self._error(f"walk starts at unknown chart {start!r}")
        seq = [start]
        for ai, forward in steps:
            if ai not in range(len(self.arrows)):
                raise self._error(f"walk steps along unknown arrow {ai!r}")
            si, di, _ = self.arrows[ai]
            if seq[-1] != (si if forward else di):
                raise self._error(
                    "walk step does not start where the walk stands")
            seq.append(di if forward else si)
        return tuple(seq)


def _presentation(cls, nodes, arrows, check):
    """A presentation of class cls from (name, chart) pairs and (src, dst,
    map) triples by name; equal charts share one object, and check(arrow,
    tail chart, head chart, map) returns the map to keep or raises."""
    items = list(nodes.items()) if isinstance(nodes, dict) else list(nodes)
    names = tuple(name for name, _ in items)
    if len(set(names)) != len(names):
        raise cls._error("duplicate chart name")
    canon = {}
    charts = tuple(canon.setdefault(c, c) for _, c in items)
    index = {name: i for i, name in enumerate(names)}
    packed = []
    for src, dst, m in arrows:
        if src not in index or dst not in index:
            raise cls._error(
                f"arrow endpoint {src!r} or {dst!r} is not a chart")
        si, di = index[src], index[dst]
        packed.append((si, di, check(f"arrow {src} -> {dst}", charts[si],
                                     charts[di], m)))
    return cls(names, charts, tuple(packed))


def _space_listing(space, dot=None) -> tuple[list[str], dict]:
    """Report lines and structured data of a space, from one listing of its
    opens and covering edges; writes the `--dot` file when `dot` is set."""
    opens = space.sorted_opens()
    edges = space.specialization_edges()
    if dot:
        from .formats import write_text

        write_text(dot, space.specialization_dot(edges))
    lines = [f"point {p}" for p in space.points]
    lines += [f"open {set_label(space.points, u)}" for u in opens]
    lines += [f"edge {a} -> {b}" for a, b in edges]
    return lines, {
        "points": list(space.points),
        "opens": [sorted(space.points[x] for x in u) for u in opens],
        "specialization_edges": [[a, b] for a, b in edges],
    }

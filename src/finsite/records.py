"""The record and map bases every value of finsite derives from, the
per-record memo of derived data, the invariant and budget errors, the
names the command-line parser needs, the count every report prints, and
the one partition routine, `_partition`: congruence closure, walk
colimits and gluing all merge blocks through it.

This module imports nothing of finsite, so a command that builds no
semiring (`stone`, `simplex`) compiles no semiring code: each layer takes
its bases from here rather than from `semiring`.
"""

from __future__ import annotations

from operator import attrgetter

# Names the command-line parser needs, kept in the one module every command
# loads: the congruence flavors, the five visualizations of a spectrum, and
# the element budget of the monodromy check, of face posets and of the
# opens listing.
FLAVORS = ("weak", "strong", "twisted")
VISUALIZATIONS = ("prime", "k") + FLAVORS
DEFAULT_BUDGET = 10_000


class InvariantError(Exception):
    """A mathematical invariant the code relies on failed: a bug, not bad
    input.  Raised explicitly so that `python -O` keeps the check."""


class BudgetExceeded(Exception):
    """An enumeration past its element budget, refused before it is built:
    a chart of a monodromy walk, the faces of a simplex or complex, or the
    opens of a finite space."""


def _count(n: int, word: str = "point") -> str:
    """A count and its noun, as the reports print them."""
    return f"{n} {word}" + ("" if n == 1 else "s")


class _Record:
    """Immutable value whose fields are its annotated names, after those
    of its record bases, set by position or keyword, then checked or
    completed by the subclass's `__post_init__` if it has one; equal only
    within its class, and hashed and shown as its field tuple."""

    def __init_subclass__(cls):
        fields = getattr(cls, "_fields", ()) + tuple(
            cls.__dict__.get("__annotations__", ()))
        cls._fields = fields
        cls._key = staticmethod(attrgetter(*fields) if len(fields) > 1 else
                                lambda r, f=fields[0]: (getattr(r, f),))
        # __init__ is compiled per class: as fast as a dataclass's, twice a
        # generic `*args` one.  It sets fields with object.__setattr__, as
        # writing `self.__dict__` would halve Python 3.11's field reads.
        body = "".join(f"\n _set(self, {f!r}, {f})" for f in fields)
        if hasattr(cls, "__post_init__"):
            body += "\n self.__post_init__()"
        ns = {"_set": object.__setattr__}
        exec(f"def __init__(self, {', '.join(fields)}):{body}", ns)
        cls.__init__ = ns["__init__"]

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return (type(self).__qualname__ + "(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")")


def _memo(R, key, build):
    """R's derived value under `key`, built by `build()` on first use and
    kept for the life of the record R.  The values live in R's `_derived`
    dict, made here on R's first use; it is no field, so ==, hash and repr
    ignore it.  It is no class attribute either: on CPython 3.11 a
    descriptor of that name on the class slows every later read of it."""
    try:
        memo = R._derived
    except AttributeError:
        memo = {}
        object.__setattr__(R, "_derived", memo)
    if key not in memo:
        memo[key] = build()
    return memo[key]


class _Map(_Record):
    """A map between finite carriers, stored by image index per source
    element; the subclass's `_error` is raised when a composite's endpoints
    do not match."""

    source: object
    target: object
    images: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.images[i]

    def is_injective(self) -> bool:
        return len(set(self.images)) == len(self.images)

    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.target.n

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def compose(self, other):
        """self after other (other first)."""
        if other.target is not self.source and other.target != self.source:
            raise self._error("composition endpoints do not match")
        return type(self)(other.source, self.target,
                          tuple(self.images[i] for i in other.images))


def _canon_blocks(parent_of) -> tuple[int, ...]:
    """Renumber a membership vector by first occurrence."""
    seen: dict[int, int] = {}
    out = []
    for r in parent_of:
        if r not in seen:
            seen[r] = len(seen)
        out.append(seen[r])
    return tuple(out)


def _partition(n: int, pairs, tables=()) -> tuple[int, ...]:
    """Block ids, numbered by first occurrence, of the smallest partition
    of range(n) that relates each pair and is stable under every n-by-n
    table t: x ~ y gives t[x][c] ~ t[y][c] for every c.  With no tables it
    is the equivalence the pairs generate.  By block merging (Freese,
    *Computing congruences efficiently*, 2008).

    Each element keeps a block id and each block its members.  Merging the
    blocks of a and b moves the smaller block into the larger, then queues
    each table's translates (t[a][c], t[b][c]) whose blocks still differ.
    Every merged pair's translates end up related, and by transitivity so
    do those of every pair in a block."""
    block = list(range(n))
    members = [[x] for x in range(n)]
    queue = list(pairs)
    for a, b in queue:  # the loop also reads the pairs queued inside it
        keep, gone = block[a], block[b]
        if keep == gone:
            continue
        if len(members[keep]) < len(members[gone]):
            keep, gone = gone, keep
        for x in members[gone]:
            block[x] = keep
        members[keep] += members[gone]
        for t in tables:
            queue += [(x, y) for x, y in zip(t[a], t[b])
                      if block[x] != block[y]]
    return _canon_blocks(block)

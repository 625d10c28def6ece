"""Finite topological spaces on points 0..n-1 with subsets as bitmasks.

A space is determined by the minimal open neighbourhood of each point
(its "star"); the family of all opens is exactly the family of unions
of stars and is materialised lazily, on first use of `opens`.

Closure and interior read one lookup per space object, built with the
space and indexed t[a].  It starts as a memo: a dict that computes a mask
from the stars on its first request, so it fills only with the masks
callers ask about, at any number of points.  `tabulate` replaces both
lookups by flat sequences over all 2^n masks, built in one pass: closure
is a union of point closures, t[a | bit(x)] = t[a] | cl(x)
(`union_table`), and interior is the complement of closure,
full ^ cl[full ^ a].  The union rule has one home here: `union_table` is
its table and `UnionMemo` its memo, which contmap's image and preimage
lookups start as.  contmap tabulates the spaces of a map that a literal
procedure decides, within its point limit: those procedures quantify over
families of up to 2^n masks, so a table costs no more than they do and
turns every later request into a list index.  A space that only the
star-based routines touch keeps its memo (a fresh 12-point map's
`classify_map` asks about a few dozen masks), and so do the 81- and
97-point scenario spaces.  `closure` and `interior` refuse a mask outside
the space.

`tabulate` also sets the subset families that contmap's literal procedures
quantify over (the nonempty opens, proper closed, dense, dense open,
nowhere-dense and canonically closed sets), each an ascending tuple read
off the opens and the two tables in the same pass.  So a space is either
fresh (memos, lazy opens, no families) or tabulated (tables and all six
families).  Only the literal procedures read the families, and `decide_by`
tabulates both spaces before it runs one; the star-based routines and the
verify references never do, so a space that only they touch builds none.
"""

from dataclasses import dataclass

from .bitset import bit, bits, full_mask, mask_to_list

DEFAULT_MAX_POINTS = 16
ENUMERATION_MAX_POINTS = 5
OPENS_FAMILY_BUDGET = 1 << 20


class InvalidTopology(ValueError):
    """Raised when an opens family or star table fails the axioms."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SpaceTooLarge(ValueError):
    pass


def mask_error(n, a):
    return ValueError("mask %r is not a subset of the points 0..%d" % (a, n - 1))


class _ClosureMemo(dict):
    """Points whose star meets a, computed on the first request for a."""

    __slots__ = ("stars",)

    def __init__(self, stars):
        self.stars = stars

    def __missing__(self, a):
        out = 0
        x = 1
        for star in self.stars:
            if star & a:
                out |= x
            x <<= 1
        self[a] = out
        return out


class _InteriorMemo(dict):
    """Points of a whose star stays inside a, computed on the first request."""

    __slots__ = ("stars",)

    def __init__(self, stars):
        self.stars = stars

    def __missing__(self, a):
        stars = self.stars
        out = 0
        for x in bits(a):
            if stars[x] & ~a == 0:
                out |= 1 << x
        self[a] = out
        return out


class UnionMemo(dict):
    """The union of parts[x] over the points x of a, computed on the first
    request for a: the memo form of `union_table`."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts

    def __missing__(self, a):
        parts = self.parts
        out = 0
        for x in bits(a):
            out |= parts[x]
        self[a] = out
        return out


def union_table(parts):
    """t[a] is the union of parts[x] over the points x of a, for every mask
    a of len(parts) points: each point x doubles the table, t[a | bit(x)] =
    t[a] | parts[x] for the masks a below bit(x)."""
    t = [0]
    for p in parts:
        for v in t[:]:
            t.append(v | p)
    return t


class FinSpace:
    """Immutable finite space; equality and hashing go through the stars.

    The six subset families (`nonempty_opens`, `proper_closed_sets`,
    `dense_sets`, `dense_opens`, `nowhere_dense_sets`,
    `canonically_closed_sets`) exist only once `tabulate` has run: reading
    one on a space that was never tabulated raises AttributeError.
    """

    __slots__ = ("n", "stars", "full", "_opens", "_closure", "_interior",
                 "nonempty_opens", "proper_closed_sets", "dense_sets",
                 "dense_opens", "nowhere_dense_sets", "canonically_closed_sets")

    def __init__(self, n, stars):
        self.n = n
        self.stars = stars
        self.full = full_mask(n)
        self._opens = None
        self._closure = _ClosureMemo(stars)
        self._interior = _InteriorMemo(stars)

    @property
    def opens(self):
        """All open sets, sorted ascending by mask value (so empty first, X last)."""
        if self._opens is None:
            family = {0}
            for s in self.stars:
                family |= {m | s for m in family}
                if len(family) > OPENS_FAMILY_BUDGET:
                    raise SpaceTooLarge(
                        "opens family exceeds %d sets; use star-based operations"
                        % OPENS_FAMILY_BUDGET
                    )
            self._opens = tuple(sorted(family))
        return self._opens

    def is_open(self, a):
        return self.interior(a) == a

    def is_closed(self, a):
        return self.closure(a) == a

    def tabulate(self):
        """Replace the closure and interior lookups by flat tables over all
        2^n masks and set the six subset families from them."""
        if 1 << self.n > OPENS_FAMILY_BUDGET:
            raise SpaceTooLarge("a table over the masks of %d points exceeds %d entries"
                                % (self.n, OPENS_FAMILY_BUDGET))
        if type(self._closure) is list:
            return
        stars, full, opens = self.stars, self.full, self.opens
        cl = self._closure = union_table(
            [sum(bit(x) for x, star in enumerate(stars) if star & bit(y))
             for y in range(self.n)])
        inner = self._interior = [full ^ c for c in reversed(cl)]
        nonempty = self.nonempty_opens = opens[1:]
        self.proper_closed_sets = tuple(sorted(full ^ u for u in nonempty))
        self.dense_sets = tuple(a for a, c in enumerate(cl) if c == full)
        self.dense_opens = tuple(u for u in opens if cl[u] == full)
        self.nowhere_dense_sets = tuple(a for a, c in enumerate(cl) if not inner[c])
        self.canonically_closed_sets = tuple(sorted({cl[u] for u in opens}))

    def closure(self, a):
        """Smallest closed superset: points whose every neighbourhood meets a."""
        if not 0 <= a <= self.full:
            raise mask_error(self.n, a)
        return self._closure[a]

    def interior(self, a):
        """Largest open subset: points whose star stays inside a."""
        if not 0 <= a <= self.full:
            raise mask_error(self.n, a)
        return self._interior[a]

    def is_dense(self, a):
        return self.closure(a) == self.full

    def is_nowhere_dense(self, a):
        return self.interior(self.closure(a)) == 0

    def is_discrete(self):
        for x, star in enumerate(self.stars):
            if star != bit(x):
                return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, FinSpace)
            and self.n == other.n
            and self.stars == other.stars
        )

    def __hash__(self):
        return hash((self.n, self.stars))

    def __repr__(self):
        return "FinSpace(n=%d, stars=%r)" % (self.n, self.stars)


@dataclass(frozen=True)
class SubsetProps:
    closed: bool
    dense: bool
    nowhere_dense: bool
    canonically_closed: bool
    canonically_open: bool
    clopen: bool


def _check_n(n):
    if n < 1:
        raise InvalidTopology("a space needs at least one point")


def make_space(n, opens):
    """Build a space from an explicit opens family (iterable of masks).

    The family must contain the empty set and the full set.  Each member
    is the union of its points' stars, so the family is a topology exactly
    when it also holds every other union of stars; the least missing one
    is reported as the witness.
    """
    _check_n(n)
    full = full_mask(n)
    family = sorted(set(opens))
    for m in family:
        if m & ~full:
            raise InvalidTopology("open set %r uses points outside 0..%d" % (m, n - 1))
    if 0 not in family:
        raise InvalidTopology("the empty set is missing from the family")
    if full not in family:
        raise InvalidTopology("the full set is missing from the family")
    stars = []
    for x in range(n):
        s = full
        for m in family:
            if m & bit(x):
                s &= m
        stars.append(s)
    space = FinSpace(n, tuple(stars))
    if space.opens != tuple(family):
        members = set(family)
        raise InvalidTopology(
            "family not closed under union and intersection",
            witness=next(u for u in space.opens if u not in members),
        )
    return space


def from_stars(n, stars):
    """Build a space from minimal-open-neighbourhood masks.

    Axioms: x in star(x), and y in star(x) implies star(y) subset star(x).
    """
    _check_n(n)
    stars = tuple(stars)
    if len(stars) != n:
        raise InvalidTopology("need one star per point")
    full = full_mask(n)
    for x, s in enumerate(stars):
        if s & ~full:
            raise InvalidTopology("star of %d leaves the point range" % x)
        if not s & bit(x):
            raise InvalidTopology("star of %d does not contain %d" % (x, x), witness=x)
        for y in bits(s):
            if stars[y] & ~s:
                raise InvalidTopology(
                    "stars are not transitively closed", witness=(x, y)
                )
    return FinSpace(n, stars)


def discrete_space(n):
    return from_stars(n, tuple(bit(x) for x in range(n)))


def classify_subset(space, a):
    """Closed / dense / nowhere-dense / canonical-regularity flags for a subset."""
    cl = space.closure(a)
    inside = space.interior(a)
    closed = space.is_closed(a)
    return SubsetProps(
        closed=closed,
        dense=cl == space.full,
        nowhere_dense=space.interior(cl) == 0,
        canonically_closed=a == space.closure(inside),
        canonically_open=a == space.interior(cl),
        clopen=closed and space.is_open(a),
    )


def subspace(space, a):
    """Subspace on the points of `a`, re-indexed ascending.

    Returns (space, mapping) where mapping[i] is the original point of
    new point i.
    """
    if not 0 <= a <= space.full:
        raise mask_error(space.n, a)
    if a == 0:
        raise InvalidTopology("subspace needs a nonempty carrier")
    mapping = tuple(mask_to_list(a))
    index = {p: i for i, p in enumerate(mapping)}
    stars = []
    for p in mapping:
        stars.append(sum(bit(index[q]) for q in bits(space.stars[p] & a)))
    return FinSpace(len(mapping), tuple(stars)), mapping


def _filter_families(n):
    # Brute force over families of nontrivial subsets; practical for n <= 4.
    if n > 4:
        raise SpaceTooLarge("the family-filter strategy is exhaustive only up to n=4")
    full = full_mask(n)
    nontrivial = [m for m in range(1, full)]
    k = len(nontrivial)
    out = []
    for choice in range(1 << k):
        family = [0, full]
        c = choice
        while c:
            low = c & -c
            family.append(nontrivial[low.bit_length() - 1])
            c ^= low
        members = set(family)
        ok = True
        for i in range(len(family)):
            a = family[i]
            for j in range(i + 1, len(family)):
                b = family[j]
                if a | b not in members or a & b not in members:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(sorted(members)))
    return out


def _preorder_star_tables(n):
    # Every reflexive transitive star table is a topology and vice versa.
    out = []
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    k = len(offdiag)
    for choice in range(1 << k):
        stars = [bit(i) for i in range(n)]
        c = choice
        while c:
            low = c & -c
            i, j = offdiag[low.bit_length() - 1]
            stars[i] |= bit(j)
            c ^= low
        ok = True
        for i in range(n):
            reach = 0
            for j in bits(stars[i]):
                reach |= stars[j]
            if reach & ~stars[i]:
                ok = False
                break
        if ok:
            out.append(tuple(stars))
    return out


def enumerate_topologies(n, *, strategy="preorder"):
    """Yield every topology on n labelled points exactly once.

    Deterministic order: ascending by the sorted opens-family tuple.
    Two independent strategies are available; "filter" checks every
    subset family directly (n <= 4), "preorder" enumerates reflexive
    transitive reachability tables.
    """
    _check_n(n)
    if n > ENUMERATION_MAX_POINTS:
        raise SpaceTooLarge("n=%d exceeds the enumeration limit %d"
                            % (n, ENUMERATION_MAX_POINTS))
    if strategy == "filter":
        families = _filter_families(n)
        families.sort()
        for fam in families:
            yield make_space(n, fam)
    elif strategy == "preorder":
        spaces = [FinSpace(n, stars) for stars in _preorder_star_tables(n)]
        spaces.sort(key=lambda s: s.opens)
        yield from spaces
    else:
        raise ValueError("unknown strategy %r" % (strategy,))

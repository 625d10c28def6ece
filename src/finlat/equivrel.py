"""Equivalence relations on finite spaces and their quotients.

A relation is kept as a partition in canonical form (blocks sorted by
least element).  "Closed" means the saturation of every closed set is
closed; P-eqr checks this verdict against a scan of all closed sets and
against the closedness of the quotient projection.

The quotient takes its stars from `contmap.final_star`; the two block
conditions are star tests on it:
(i) holds iff the projection is weakly open: an open set contains a
nonempty set with open saturation iff its image has nonempty interior in
the quotient, and every nonempty open set contains a star.
(ii) holds iff every star contains a whole block: the complement of a star
is the largest closed set missing that star, and saturation is monotone.
"""

from .bitset import bit, bits
from .contmap import ContMap, final_star, weakly_open_stars
from .finspace import from_stars, mask_error


class PartitionError(ValueError):
    pass


def _point_error(n, x):
    return ValueError("point %r outside 0..%d" % (x, n - 1))


class EquivRel:
    """A partition of the points of a finite space."""

    __slots__ = ("space", "blocks", "block_index")

    def __init__(self, space, blocks):
        self.space = space
        cleaned = sorted((b for b in blocks), key=lambda m: m & -m)
        self.blocks = tuple(cleaned)
        seen = 0
        index = [None] * space.n
        for i, b in enumerate(self.blocks):
            if b == 0:
                raise PartitionError("empty block")
            if b & seen:
                raise PartitionError("blocks overlap")
            if b & ~space.full:
                raise PartitionError("block outside the point range")
            seen |= b
            for x in bits(b):
                index[x] = i
        if seen != space.full:
            raise PartitionError("blocks do not cover every point")
        self.block_index = tuple(index)

    def block_of(self, x):
        if not 0 <= x < self.space.n:
            raise _point_error(self.space.n, x)
        return self.blocks[self.block_index[x]]

    def __eq__(self, other):
        return (
            isinstance(other, EquivRel)
            and self.space == other.space
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.space, self.blocks))

    def __repr__(self):
        return "EquivRel(blocks=%r)" % (self.blocks,)


def from_blocks(space, blocks):
    masks = []
    for b in blocks:
        m = 0
        for x in b:
            m |= bit(x)
        masks.append(m)
    return EquivRel(space, masks)


def from_pairs(space, pairs):
    parent = list(range(space.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, c in pairs:
        for x in (a, c):
            if not 0 <= x < space.n:
                raise _point_error(space.n, x)
        parent[find(a)] = find(c)
    groups = {}
    for x in range(space.n):
        groups.setdefault(find(x), 0)
        groups[find(x)] |= bit(x)
    return EquivRel(space, groups.values())


def identity_relation(space):
    return EquivRel(space, [bit(x) for x in range(space.n)])


def saturate(rel, a):
    """Union of the blocks meeting a (smallest block-union superset)."""
    space = rel.space
    if not 0 <= a <= space.full:
        raise mask_error(space.n, a)
    out = 0
    for b in rel.blocks:
        if b & a:
            out |= b
    return out


def is_closed_relation(rel):
    """Whether the saturation of every closed set is closed.

    Closed sets are unions of point closures and saturation preserves
    unions, so the point closures suffice.
    """
    space = rel.space
    for x in range(space.n):
        down = space.closure(bit(x))
        if not space.is_closed(saturate(rel, down)):
            return False
    return True


def quotient(rel):
    """Quotient space plus the projection, finest topology keeping it continuous."""
    space = rel.space
    qstars = [
        final_star(space, rel.blocks, rel.block_index, i)
        for i in range(len(rel.blocks))
    ]
    qspace = from_stars(len(qstars), qstars)
    return qspace, ContMap(space, qspace, rel.block_index)


def meet(r1, r2):
    if r1.space != r2.space:
        raise ValueError("relations live on different spaces")
    blocks = []
    for a in r1.blocks:
        for b in r2.blocks:
            if a & b:
                blocks.append(a & b)
    return EquivRel(r1.space, blocks)


def _partitions_of(k):
    """Restricted-growth strings: every partition of {0..k-1}."""
    rgs = [0] * k

    def rec(i, maxval):
        if i == k:
            yield tuple(rgs)
            return
        for v in range(maxval + 2):
            rgs[i] = v
            yield from rec(i + 1, max(maxval, v))

    yield from rec(1, 0) if k else iter(((),))


def eqq_condition_i(rel):
    """Every open nonempty set contains a set with open saturation."""
    return weakly_open_stars(quotient(rel)[1])


def eqq_condition_ii(rel):
    """No proper closed set saturates to the whole space."""
    return all(
        any(b & ~star == 0 for b in rel.blocks) for star in rel.space.stars
    )

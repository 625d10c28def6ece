"""Sublattices of the n-dimensional function lattice in constraint form.

Every sublattice of the coordinatewise-ordered rational n-space is the
solution set of two kinds of constraints: a set of coordinates forced
to zero, and pairwise ties f(x) = c * f(rep) with c > 0 inside groups
of proportional coordinates.  canonical_form derives that description
from generators; the other operations manipulate it directly.

All scalar arithmetic is exact rational.  Tie ratios compose along
union-find paths, so floating point is never used.
"""

from dataclasses import dataclass
from fractions import Fraction

from .bitset import bit, bits


class _RatioForest:
    """Union-find whose edge x -> parent carries f(x) = w * f(parent)."""

    def __init__(self, n):
        if n < 0:
            raise ValueError("coordinate count must be nonnegative")
        self.parent = list(range(n))
        self.weight = [Fraction(1)] * n
        self.dead = [False] * n

    def find(self, x):
        """(root, w) with f(x) = w * f(root); compresses the path to x."""
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        w = Fraction(1)
        for y in reversed(path):
            w = self.weight[y] * w
            self.weight[y] = w
            self.parent[y] = x
        return x, w

    def union(self, x, z, alpha):
        # impose f(x) = alpha * f(z)
        rx, wx = self.find(x)
        rz, wz = self.find(z)
        if rx == rz:
            if wx != alpha * wz:
                # f(rx) would satisfy two different ratios: only 0 works
                self.dead[rx] = True
            return
        self.parent[rx] = rz
        self.weight[rx] = alpha * wz / wx
        self.dead[rz] = self.dead[rz] or self.dead[rx]

    def kill(self, x):
        root, _ = self.find(x)
        self.dead[root] = True


@dataclass(frozen=True)
class ConstraintSystem:
    """Canonical description of one sublattice of rational n-space.

    rep[x] is the least coordinate of x's proportionality group and
    ratio[x] the positive factor with f(x) = ratio[x] * f(rep[x]);
    zeroed coordinates point at themselves with ratio 1.  groups holds
    the masks of the non-zero groups sorted by least element, so the
    solution-space dimension is len(groups).
    """

    n: int
    zero_mask: int
    rep: tuple
    ratio: tuple
    groups: tuple


def _from_forest(n, forest):
    members = {}
    zero = 0
    for x in range(n):
        root, _ = forest.find(x)
        if forest.dead[root]:
            zero |= bit(x)
        else:
            members.setdefault(root, []).append(x)
    rep = list(range(n))
    ratio = [Fraction(1)] * n
    groups = []
    for xs in members.values():
        lead = min(xs)
        _, w_lead = forest.find(lead)
        g = 0
        for x in xs:
            g |= bit(x)
            _, w_x = forest.find(x)
            rep[x] = lead
            ratio[x] = w_x / w_lead
        groups.append(g)
    groups.sort(key=lambda m: m & -m)
    return ConstraintSystem(n, zero, tuple(rep), tuple(ratio), tuple(groups))


def from_constraints(n, zeros=(), ties=()):
    """Build a system from explicit zero coordinates and tie triples.

    A tie triple (x, z, ratio) imposes f(x) = ratio * f(z).  Coordinates
    must lie in 0..n-1 and ratios must be strictly positive, or ValueError
    is raised; contradictory ratios force the whole group to zero, the only
    solution-set-preserving reading.
    """
    forest = _RatioForest(n)
    for x, z, alpha in ties:
        alpha = Fraction(alpha)
        if alpha <= 0:
            raise ValueError("tie ratio must be strictly positive")
        forest.union(_coordinate(n, x), _coordinate(n, z), alpha)
    for x in zeros:
        forest.kill(_coordinate(n, x))
    return _from_forest(n, forest)


def _coordinate(n, x):
    if not 0 <= x < n:
        raise ValueError("coordinate %r outside 0..%d" % (x, n - 1))
    return x


def full_space(n):
    return from_constraints(n)


def zero_space(n):
    return from_constraints(n, zeros=range(n))


def dim(cs):
    return len(cs.groups)


def canonical_form(n, generators):
    """Constraint system of the sublattice generated by the given vectors.

    A coordinate is zeroed when every generator vanishes there; two
    coordinates are tied when one fixed positive ratio relates them on
    every generator.  Both conditions are linear, so checking the
    generators settles them for the whole generated sublattice.
    """
    gens = []
    for g in generators:
        vec = tuple(Fraction(v) for v in g)
        if len(vec) != n:
            raise ValueError("generator dimension mismatch")
        gens.append(vec)
    forest = _RatioForest(n)
    vanished = [all(g[x] == 0 for g in gens) for x in range(n)]
    for x in range(n):
        if vanished[x]:
            forest.kill(x)
    for z in range(n):
        if vanished[z]:
            continue
        for x in range(z + 1, n):
            if vanished[x]:
                continue
            alpha = None
            for g in gens:
                if g[z] != 0:
                    alpha = g[x] / g[z]
                    break
            if alpha is None or alpha <= 0:
                continue
            if all(g[x] == alpha * g[z] for g in gens):
                forest.union(x, z, alpha)
    return _from_forest(n, forest)


def member(cs, f):
    vec = tuple(Fraction(v) for v in f)
    if len(vec) != cs.n:
        raise ValueError("vector dimension mismatch")
    for x in bits(cs.zero_mask):
        if vec[x] != 0:
            return False
    for x in range(cs.n):
        if vec[x] != cs.ratio[x] * vec[cs.rep[x]]:
            return False
    return True


def zero_ideal(cs, a):
    """The members vanishing on the coordinate mask a.

    Zeroing one coordinate of a tie group zeroes the whole group.
    """
    a &= (1 << cs.n) - 1
    zero = cs.zero_mask | a
    rep = list(cs.rep)
    ratio = list(cs.ratio)
    groups = []
    for g in cs.groups:
        if g & a:
            zero |= g
            for x in bits(g):
                rep[x] = x
                ratio[x] = Fraction(1)
        else:
            groups.append(g)
    return ConstraintSystem(cs.n, zero, tuple(rep), tuple(ratio), tuple(groups))


def solution_basis(cs):
    """One positive vector per tie group; they span the solution set."""
    basis = []
    for g in cs.groups:
        basis.append(
            tuple(cs.ratio[x] if g & bit(x) else Fraction(0) for x in range(cs.n))
        )
    return basis


def support_mask(vec):
    out = 0
    for x, v in enumerate(vec):
        if v != 0:
            out |= bit(x)
    return out


def disjoint_complement(cs, vectors):
    """Members disjoint from every given vector: the zero-ideal of the supports."""
    s = 0
    for v in vectors:
        if not member(cs, v):
            raise ValueError("vector outside the lattice")
        s |= support_mask(v)
    return zero_ideal(cs, s)


def intersection(a, b):
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    ties = []
    for cs in (a, b):
        for x in range(cs.n):
            if cs.rep[x] != x:
                ties.append((x, cs.rep[x], cs.ratio[x]))
    return from_constraints(a.n, zeros=bits(a.zero_mask | b.zero_mask), ties=ties)


def contains(outer, inner):
    if outer.n != inner.n:
        raise ValueError("dimension mismatch")
    return all(member(outer, v) for v in solution_basis(inner))


@dataclass(frozen=True)
class SublatticeFlags:
    ideal: bool
    band: bool
    projection_band: bool
    order_dense: bool
    urysohn: bool
    weakly_urysohn: bool
    regular: bool

    def __post_init__(self):
        assert not self.ideal or self.band
        assert not self.band or self.projection_band
        assert not self.order_dense or self.weakly_urysohn
        assert not self.urysohn or self.weakly_urysohn
        assert self.regular


def _infimum_of_dominators_nonzero(cs, k):
    """Regularity scan: for every nonempty coordinate set u, the members
    dominating the indicator of u must have a nonzero infimum inside the
    lattice, unless there are no such members or no infimum at all."""
    for u in range(1, 1 << k):
        if u & cs.zero_mask:
            continue  # no member dominates the indicator
        if any(not g & u for g in cs.groups):
            continue  # an unconstrained group lets dominators sink: no infimum
        # the infimum exists: groupwise the least admissible value
        inf_values = [
            max(Fraction(1) / cs.ratio[x] for x in bits(g & u)) for g in cs.groups
        ]
        if not any(v > 0 for v in inf_values):
            return False
    return True


def classify_sublattice(ambient, e):
    """All structural flags of e relative to ambient.

    The ambient lattice is isomorphic to the full lattice over its tie
    groups (project to group representatives), so e is first rewritten
    in those coordinates and every flag is decided there.
    """
    if ambient.n != e.n:
        raise ValueError("dimension mismatch")
    if not contains(ambient, e):
        raise ValueError("sublattice not inside the ambient lattice")
    k = dim(ambient)
    reps = [(g & -g).bit_length() - 1 for g in ambient.groups]
    inner = canonical_form(k, [tuple(v[r] for r in reps) for v in solution_basis(e)])
    amb = full_space(k)

    ideal = all(g.bit_count() == 1 for g in inner.groups)
    first = disjoint_complement(amb, solution_basis(inner))
    dd = disjoint_complement(amb, solution_basis(first))
    band = contains(inner, dd) and contains(dd, inner)
    projection_band = band and dim(inner) + dim(first) == k
    order_dense = contains(inner, amb)

    kfull = (1 << k) - 1
    urysohn = True
    weakly_urysohn = True
    for u in range(1, 1 << k):
        vanish = zero_ideal(inner, kfull & ~u)
        if not vanish.groups:
            weakly_urysohn = False
        if vanish.zero_mask & u:
            urysohn = False
    regular = _infimum_of_dominators_nonzero(inner, k)

    return SublatticeFlags(
        ideal=ideal,
        band=band,
        projection_band=projection_band,
        order_dense=order_dense,
        urysohn=urysohn,
        weakly_urysohn=weakly_urysohn,
        regular=regular,
    )


def infimum_is_zero(n, vectors):
    """Coordinatewise infimum of a finite nonnegative family is zero."""
    vecs = []
    for v in vectors:
        vec = tuple(Fraction(c) for c in v)
        if len(vec) != n:
            raise ValueError("vector dimension mismatch")
        if any(c < 0 for c in vec):
            raise ValueError("negative entry")
        vecs.append(vec)
    if not vecs:
        raise ValueError("empty family has no infimum")
    return all(min(v[x] for v in vecs) == 0 for x in range(n))

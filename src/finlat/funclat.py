"""Sublattices of the n-dimensional function lattice in constraint form.

Every sublattice of the coordinatewise-ordered rational n-space is the
solution set of two kinds of constraints: a set of coordinates forced
to zero, and pairwise ties f(x) = c * f(rep) with c > 0 inside groups
of proportional coordinates.  canonical_form is the one place that
derives that description from vectors; from_constraints hands it one
generator per tree of solved ties, and the other operations manipulate
a system directly.

canonical_form, zero_ideal, from_constraints and full_space each build the
unique description of their sublattice: the zeroed coordinates, the tie
groups sorted by least element, each coordinate's group lead and its ratio
to that lead (1 for a lead or a zeroed coordinate).  So two systems the
module builds are equal exactly when their sublattices are, and
band_complement and classify_sublattice compare sublattices with ==.

All scalar arithmetic is exact.  canonical_form scales each generator to
ints once, groups the coordinates by the gcd-normalised direction of their
int columns and builds one Fraction ratio per tied coordinate; member tests
ties by integer cross-multiplication.  Explicit tie constraints compose
their ratios along the paths of a union-find forest before they reach
canonical_form.  Floating point is never used.  A ConstraintSystem hashes
every field but its ratios: equal systems agree on the others, so the hash
stays valid without hashing a Fraction, and two systems that differ only in
their ratios are unequal and stay apart as dict keys.  It is a tuple of
its five fields, so it is cheap to build and compare, and immutable.

The library takes numbers by one rule, _exact: an int or a Fraction passes
through unchanged, and anything else (a bool, a float, a numeric string) is
converted by Fraction(v), so 0.5 reads as 1/2 and True as 1, and a
non-finite float (an infinity or a NaN) raises ValueError.  funclat,
comphom.HomMatrix, the latclosure oracle and the record parser all read
their entries this way.  canonical_form and latclosure.closure_subspace
read each generator once, at the boundary, through _int_tuple: an all-int
vector is taken as it is, any other goes through the rule and _integral,
and from there on they work on int tuples.  The vectors the library builds
are int tuples: a Fraction appears only where a value is a ratio, a tie
ratio or a non-integral operator weight.  Where integer arithmetic is
wanted, a vector is scaled by the lcm of its denominators (_integral;
solution_basis does the same per tie group), a positive factor that keeps
its direction, and a primitive vector is divided by math.gcd of its
entries.
"""

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
import math
import operator

from .bitset import bits

# the ratio of a group's lead and of a zeroed coordinate
_ONE = Fraction(1)


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


class ConstraintSystem(namedtuple("ConstraintSystem", "n zero_mask rep ratio groups")):
    """Canonical description of one sublattice of rational n-space.

    rep[x] is the least coordinate of x's proportionality group and
    ratio[x] the positive factor with f(x) = ratio[x] * f(rep[x]);
    zeroed coordinates point at themselves with ratio 1.  groups holds
    the masks of the non-zero groups sorted by least element, so the
    solution-space dimension is len(groups).
    """

    __slots__ = ()

    def __hash__(self):
        # the ratios are left out (module docstring)
        return hash((self.n, self.zero_mask, self.rep, self.groups))


def _tie_ratio(num, den):
    """The tie ratio f(x) / f(lead) from one pair of values with f(lead) != 0."""
    return Fraction(num, den)


def _from_forest(n, forest):
    """The system of a forest: canonical_form of one basis vector per live
    tree, f(x) = w on each member x with f(x) = w * f(root)."""
    basis = {}
    for x in range(n):
        root, w = forest.find(x)
        if not forest.dead[root]:
            basis.setdefault(root, [0] * n)[x] = w
    return canonical_form(n, basis.values())


def from_constraints(n, zeros=(), ties=()):
    """Build a system from explicit zero coordinates and tie triples.

    A tie triple (x, z, ratio) imposes f(x) = ratio * f(z).  Coordinates
    must lie in 0..n-1 and ratios must be strictly positive, or ValueError
    is raised; contradictory ratios force the whole group to zero, the only
    solution-set-preserving reading.
    """
    forest = _RatioForest(n)
    for x, z, alpha in ties:
        alpha = _exact((alpha,))[0]
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
    """The whole n-dimensional lattice: no zeroed coordinate and no tie.

    One immutable value per dimension, built on first use and kept for the
    process; n is read by operator.index, so True reads as 1.
    """
    return _full_space(operator.index(n))


@cache
def _full_space(n):
    return from_constraints(n)


def dim(cs):
    return len(cs.groups)


_EXACT_TYPES = frozenset((int, Fraction))


def _exact(vec):
    """The entries as ints and Fractions; any other type through Fraction.

    An infinite or NaN float raises ValueError (Fraction itself raises
    OverflowError for an infinity).
    """
    vec = tuple(vec)
    if _EXACT_TYPES.issuperset(map(type, vec)):
        return vec
    try:
        return tuple(v if type(v) in _EXACT_TYPES else Fraction(v) for v in vec)
    except OverflowError as exc:
        raise ValueError(str(exc)) from None


def _integral(vec):
    """An exact vector times the lcm of its denominators, as a tuple of ints."""
    if Fraction not in map(type, vec):
        return tuple(vec)
    scale = math.lcm(*[v.denominator for v in vec])
    return tuple([v.numerator * (scale // v.denominator) for v in vec])


_INT_TYPE = frozenset((int,))


def _int_tuple(vec, exact):
    """A generator read once, as a tuple of ints: an all-int vector as it
    is, any other through exact (the number rule, _exact) and _integral.

    exact is the caller's module-level name for the rule, looked up at the
    call, so a test that wraps it sees every read."""
    vec = tuple(vec)
    if _INT_TYPE.issuperset(map(type, vec)):
        return vec
    return _integral(exact(vec))


def canonical_form(n, generators):
    """Constraint system of the sublattice generated by the given vectors.

    A coordinate is zeroed when every generator vanishes there; two
    coordinates are tied when one fixed positive ratio relates them on
    every generator, that is when their generator columns are positive
    multiples of each other.  Both conditions are linear, so checking the
    generators settles them for the whole generated sublattice.

    Each generator is read and scaled to ints once (_int_tuple).  A
    positive factor on one generator scales one row of every column, so it
    keeps which columns vanish, which are positive multiples of each other,
    and every ratio of two entries in one row.  Columns are grouped by
    their gcd-normalised direction, sign kept, which two nonzero columns
    share exactly when they are positive multiples of each other.
    """
    gens = []
    for g in generators:
        vec = _int_tuple(g, _exact)
        if len(vec) != n:
            raise ValueError("generator dimension mismatch")
        gens.append(vec)
    if n < 0:
        raise ValueError("coordinate count must be nonnegative")
    rep = list(range(n))
    ratio = [_ONE] * n
    cols = list(zip(*gens)) if gens else [()] * n
    zero = 0
    leads = {}
    masks = {}
    for x, col in enumerate(cols):
        g = math.gcd(*col)
        if not g:
            zero |= 1 << x
            continue
        lead = leads.setdefault(col if g == 1 else tuple([v // g for v in col]), x)
        if lead == x:
            masks[x] = 1 << x
            continue
        masks[lead] |= 1 << x
        lead_col = cols[lead]
        j = 0
        while not lead_col[j]:
            j += 1
        rep[x] = lead
        ratio[x] = _tie_ratio(col[j], lead_col[j])
    return ConstraintSystem(n, zero, tuple(rep), tuple(ratio), tuple(masks.values()))


def member(cs, f):
    n, zero_mask, rep, ratio, groups = cs
    vec = _exact(f)
    if len(vec) != n:
        raise ValueError("vector dimension mismatch")
    if zero_mask:
        for x in bits(zero_mask):
            if vec[x]:
                return False
    if n - zero_mask.bit_count() == len(groups):
        return True  # every live coordinate leads its own group: no ties
    for x, (r, q) in enumerate(zip(rep, ratio)):
        if r != x and vec[x] * q.denominator != q.numerator * vec[r]:
            return False
    return True


def zero_ideal(cs, a):
    """The members vanishing on the coordinate mask a.

    Zeroing one coordinate of a tie group zeroes the whole group.  A mask
    outside the coordinates 0..n-1 raises ValueError.
    """
    if not 0 <= a < 1 << cs.n:
        raise ValueError("coordinate mask %r is not a subset of 0..%d" % (a, cs.n - 1))
    zero = cs.zero_mask | a
    rep = list(cs.rep)
    ratio = list(cs.ratio)
    groups = []
    for g in cs.groups:
        if g & a:
            zero |= g
            for x in bits(g):
                rep[x] = x
                ratio[x] = _ONE
        else:
            groups.append(g)
    return ConstraintSystem(cs.n, zero, tuple(rep), tuple(ratio), tuple(groups))


def solution_basis(cs):
    """One primitive positive int vector per tie group, the group's ratios
    times the lcm of their denominators; they span the solution set."""
    basis = []
    for g in cs.groups:
        vec = [0] * cs.n
        if g & (g - 1):
            group = [(x, cs.ratio[x]) for x in bits(g)]
            scale = math.lcm(*[q.denominator for _, q in group])
            for x, q in group:
                vec[x] = q.numerator * (scale // q.denominator)
        else:
            vec[g.bit_length() - 1] = 1
        basis.append(tuple(vec))
    return basis


def support_mask(vec):
    out = 0
    for x, v in enumerate(vec):
        if v:
            out |= 1 << x
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


def double_complement(ambient, e):
    """(e^d, e^dd): the disjoint complement of e in ambient and its own.

    e^d is a zero ideal of ambient, so its members are ambient's and their
    supports cover every coordinate it does not zero: e^dd is the zero
    ideal of ambient on those coordinates."""
    first = disjoint_complement(ambient, solution_basis(e))
    return first, zero_ideal(ambient, ((1 << ambient.n) - 1) & ~first.zero_mask)


def band_complement(ambient, e):
    """The disjoint complement of e in ambient when e is a band there, else
    None.  A band is a sublattice that equals its double disjoint complement,
    and equal sublattices have equal systems (module docstring)."""
    first, dd = double_complement(ambient, e)
    return first if dd == e else None


@dataclass(frozen=True)
class SublatticeFlags:
    ideal: bool
    band: bool
    projection_band: bool
    order_dense: bool
    urysohn: bool
    weakly_urysohn: bool
    regular: bool


def classify_sublattice(ambient, e):
    """All structural flags of e relative to ambient.

    The ambient lattice is isomorphic to the full lattice over its tie
    groups (project to group representatives), so e is first rewritten
    in those coordinates and every flag is decided there.

    regular holds by theorem: a sublattice of the finite-dimensional full
    lattice is closed and holds the finite infima of its members, so the
    infimum in the full lattice of any subset of it, the limit of those
    finite infima, lies in it, and the inclusion is order continuous.
    """
    if ambient.n != e.n:
        raise ValueError("dimension mismatch")
    if not contains(ambient, e):
        raise ValueError("sublattice is not a sublattice of the ambient lattice")
    k = dim(ambient)
    reps = [(g & -g).bit_length() - 1 for g in ambient.groups]
    inner = canonical_form(k, [tuple(v[r] for r in reps) for v in solution_basis(e)])
    amb = full_space(k)

    ideal = all(g.bit_count() == 1 for g in inner.groups)
    first = band_complement(amb, inner)
    band = first is not None
    projection_band = band and dim(inner) + dim(first) == k
    order_dense = inner == amb

    # zero_ideal(inner, ~{x}) is nonzero, and zeroes no coordinate of {x},
    # only when {x} is a group; so both hold for every u iff inner is full
    urysohn = weakly_urysohn = order_dense

    return SublatticeFlags(
        ideal=ideal,
        band=band,
        projection_band=projection_band,
        order_dense=order_dense,
        urysohn=urysohn,
        weakly_urysohn=weakly_urysohn,
        regular=True,
    )

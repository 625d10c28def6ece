"""Continuous maps between finite spaces and their openness/injectivity classes.

Every class flag has a fast decision routine that quantifies only over
minimal open neighbourhoods (sound for finite spaces, where every open
set is a union of stars), plus literal procedures that spell out each
characterisation with full subset quantifiers.  A literal procedure
iterates the space's subset family it quantifies over (the dense sets of
the codomain, the proper closed sets of the domain, ...), which exists only
on a tabulated space: `decide_by` tabulates both spaces before it runs
one, so a literal procedure is called through it.  The literal procedures
form a registry keyed by stable string IDs so equivalence suites can
compare them pairwise and report which routine produced a verdict.

Classes defined through a subspace (the image, a dense subset of the
domain) are decided on the parent spaces, a mask standing for its subspace.

Every quantifier is a plain loop over its family in iteration order that
returns at the first witness (`for ... else` where an inner search runs
dry), so a verdict stops where its first counterexample is.

Image and preimage read one lookup per map object, built with the map and
indexed t[a]: a memo that computes a mask as a union of point images
(fibers) on its first request (finspace's `UnionMemo`).  When `decide_by`
runs a literal procedure, within LITERAL_POINT_LIMIT points, `_tabulate`
replaces the map's lookups and its spaces' closure and interior lookups by
flat tables over all 2^n masks (see finspace); the star-based routines and
`classify_map` keep the memos, and past the limit `decide_by` refuses a
literal procedure.  `image` and `preimage` refuse a mask outside their
space; the routines here bind a map's lookup (`m._image`, `m._preimage`)
once and index it with masks of the spaces' own families.  Verdicts are
not memoized per map, and the lookups read nothing a verification
mutation wraps: a mutation installed after a map was classified (say, a
wrapped `saturation`, which every routine still calls through this
module) must still change that map's answers, or the suite would re-check
stale values.

`classify_map` returns a `MapClassification`: a named tuple of the 13
class flags, filled in one pass over `_CLASSIFY_ROUTINES` (read per call),
whose `procedure_ids` is a fresh dict naming the routine behind each flag.
A `ContMap` reads each table entry once with `operator.index`, so a bool
is stored as the int it stands for and a float is refused.
"""

from collections import namedtuple
from dataclasses import dataclass
from itertools import product
from operator import index

from .bitset import bit, bits
from .finspace import SpaceTooLarge, UnionMemo, mask_error, union_table

LITERAL_POINT_LIMIT = 12
TABLE_BUDGET = 1 << 20


class NotContinuous(ValueError):
    """Raised for a table with some open set whose preimage is not open."""

    def __init__(self, message, witness_open=None):
        super().__init__(message)
        self.witness_open = witness_open


class ContMap:
    """A validated continuous map; table[x] is the image point of x.

    The image and preimage lookups are built with the map and take no
    part in equality or hashing.
    """

    __slots__ = ("domain", "codomain", "table", "fibers", "_image", "_preimage")

    def __init__(self, domain, codomain, table):
        # each entry is read once, as a plain int: True becomes 1, and a
        # float is refused rather than kept where a record cannot hold it
        points = []
        for y in table:
            try:
                points.append(index(y))
            except TypeError:
                raise ValueError("table value %r is not an integer" % (y,)) from None
        table = tuple(points)
        if len(table) != domain.n:
            raise ValueError("table length must match the domain size")
        for y in table:
            if not 0 <= y < codomain.n:
                raise ValueError("table value %r outside the codomain" % (y,))
        y = _discontinuity(domain, codomain, table)
        if y is not None:
            raise NotContinuous(
                "preimage of the star of point %d is not open" % y,
                witness_open=codomain.stars[y],
            )
        self.domain = domain
        self.codomain = codomain
        self.table = table
        fibers = [0] * codomain.n
        for x, y in enumerate(table):
            fibers[y] |= bit(x)
        self.fibers = tuple(fibers)
        self._image = UnionMemo(tuple(bit(y) for y in table))
        self._preimage = UnionMemo(self.fibers)

    def __eq__(self, other):
        return (
            isinstance(other, ContMap)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.domain, self.codomain, self.table))

    def __repr__(self):
        return "ContMap(table=%r)" % (self.table,)


def _discontinuity(domain, codomain, table):
    """The first image point whose star has a preimage that is not open, or
    None when the table is continuous.

    Continuity for finite spaces: the image of every minimal open
    neighbourhood must stay inside the image point's own star.
    """
    for x in range(domain.n):
        target = codomain.stars[table[x]]
        for x2 in bits(domain.stars[x]):
            if not target & bit(table[x2]):
                return table[x]
    return None


def _tabulate(m):
    """Flat image, preimage, closure and interior tables, and the spaces'
    subset families, for a map that a literal procedure decides."""
    m._image = union_table([bit(y) for y in m.table])
    m._preimage = union_table(m.fibers)
    m.domain.tabulate()
    m.codomain.tabulate()


def image(m, a):
    if not 0 <= a <= m.domain.full:
        raise mask_error(m.domain.n, a)
    return m._image[a]


def preimage(m, b):
    if not 0 <= b <= m.codomain.full:
        raise mask_error(m.codomain.n, b)
    return m._preimage[b]


def saturation(m, a):
    """Smallest fiber-union containing a, i.e. preimage(image(a))."""
    if not 0 <= a <= m.domain.full:
        raise mask_error(m.domain.n, a)
    return m._preimage[m._image[a]]


def is_saturated(m, a):
    return saturation(m, a) == a


def largest_open_saturated(m, u):
    """Largest open set of fibers inside u (may be empty)."""
    dom = m.domain
    w = u
    while True:
        solid = w & ~saturation(m, dom.full & ~w)
        nxt = dom.interior(solid)
        if nxt == w:
            return w
        w = nxt


def _interior_in(space, s, a):
    """Interior of a (a subset of s) in the subspace on s: the points of a
    whose star meets s only inside a.  Closure there is closure(b) & s."""
    return space.interior(a | space.full & ~s) & a


def final_star(domain, fibers, table, y):
    """Minimal open neighbourhood of y in the final (quotient) topology of
    the map table from domain, whose fiber over each point is fibers[point]."""
    v = bit(y)
    pre = new = fibers[y]
    while new:
        add = 0
        for x in bits(new):  # the stars of earlier points lie inside pre
            for x2 in bits(domain.stars[x] & ~pre):
                add |= bit(table[x2])
        v |= add
        new = 0
        for z in bits(add):
            new |= fibers[z]
        pre |= new
    return v


# ---------------------------------------------------------------------------
# fast star-based class decisions (used by classify_map on spaces of any size)


def _weakly_open_onto(m, s):
    """Weakly open as a map onto the subspace on s (s holds the image)."""
    cod, img = m.codomain, m._image
    for star in m.domain.stars:
        if not _interior_in(cod, s, img[star]):
            return False
    return True


def _almost_open_onto(m, d, s):
    """Almost open as the restriction to the subspace on d, onto the
    subspace on s (s holds the image of d)."""
    cod, stars, img = m.codomain, m.domain.stars, m._image
    for x in bits(d):
        if not _interior_in(cod, s, cod.closure(img[stars[x] & d]) & s):
            return False
    return True


def weakly_open_stars(m):
    return _weakly_open_onto(m, m.codomain.full)


def almost_open_stars(m):
    return _almost_open_onto(m, m.domain.full, m.codomain.full)


def skeletal_stars(m):
    return _almost_open_onto(m, m.domain.full, image(m, m.domain.full))


def strongly_skeletal_stars(m):
    return _weakly_open_onto(m, image(m, m.domain.full))


def irreducible_stars(m):
    dom, cod, pre = m.domain, m.codomain, m._preimage
    for x in range(dom.n):
        star = dom.stars[x]
        for y in range(cod.n):
            if m.fibers[y] and pre[cod.stars[y]] & ~star == 0:
                break
        else:
            return False
    return True


def weakly_injective_stars(m):
    for star in m.domain.stars:
        if not largest_open_saturated(m, star):
            return False
    return True


def almost_injective_stars(m):
    solo = 0
    for x in range(m.domain.n):
        if m.fibers[m.table[x]] == bit(x):
            solo |= bit(x)
    return m.domain.is_dense(solo)


def open_map_stars(m):
    cod, img = m.codomain, m._image
    for star in m.domain.stars:
        if not cod.is_open(img[star]):
            return False
    return True


def closed_map_stars(m):
    dom, cod, img = m.domain, m.codomain, m._image
    for x in range(dom.n):
        if not cod.is_closed(img[dom.closure(bit(x))]):
            return False
    return True


def is_injective(m):
    return len(set(m.table)) == m.domain.n


def is_surjective(m):
    return all(m.fibers)


def embedding_stars(m):
    """Injective, and each star's image is open in the image subspace."""
    if not is_injective(m):
        return False
    cod, t = m.codomain, m._image
    img = t[m.domain.full]
    for star in m.domain.stars:
        a = t[star]
        if _interior_in(cod, img, a) != a:
            return False
    return True


def quotient_map_stars(m):
    if not is_surjective(m):
        return False
    for y, star in enumerate(m.codomain.stars):
        if final_star(m.domain, m.fibers, m.table, y) != star:
            return False
    return True


def domain_is_discrete(m):
    return m.domain.is_discrete()


# ---------------------------------------------------------------------------
# literal procedures: full subset quantifiers, one routine per characterisation


def ao_i(m):
    cod, img = m.codomain, m._image
    for u in m.domain.nonempty_opens:
        if not cod.interior(img[u]):
            return False
    return True


def ao_ii_nonempty(m):
    dom, cod, img = m.domain, m.codomain, m._image
    for u in dom.nonempty_opens:
        for w in dom.opens:
            if w and w & ~u == 0 and cod.is_open(img[w]):
                break
        else:
            return False
    return True


def ao_ii_dense(m):
    dom, cod, img = m.domain, m.codomain, m._image
    for u in dom.nonempty_opens:
        for w in dom.opens:
            if (w & ~u == 0 and u & ~dom.closure(w) == 0
                    and cod.is_open(img[w])):
                break
        else:
            return False
    return True


def ao_iii(m):
    dom, cod, pre = m.domain, m.codomain, m._preimage
    for a in cod.dense_sets:
        if not dom.is_dense(pre[a]):
            return False
    return True


def wo_i(m):
    cod, img = m.codomain, m._image
    for u in m.domain.nonempty_opens:
        if not cod.interior(cod.closure(img[u])):
            return False
    return True


def wo_ii(m):
    dom, cod, pre = m.domain, m.codomain, m._preimage
    for v in cod.opens:
        inner = dom.interior(pre[cod.closure(v)])
        if inner & ~dom.closure(pre[v]):
            return False
    return True


def wo_iii(m):
    dom, pre = m.domain, m._preimage
    for v in m.codomain.dense_opens:
        if not dom.is_dense(pre[v]):
            return False
    return True


def wo_iv(m):
    dom, cod, pre = m.domain, m.codomain, m._preimage
    for a in cod.nowhere_dense_sets:
        if not dom.is_nowhere_dense(pre[a]):
            return False
    return True


def _canonically_closed(space, a):
    return a == space.closure(space.interior(a))


def wo_v(m):
    cod, img = m.codomain, m._image
    for u in m.domain.opens:
        if not _canonically_closed(cod, cod.closure(img[u])):
            return False
    return True


def wo_v_canon(m):
    dom, cod, img = m.domain, m.codomain, m._image
    for c in dom.canonically_closed_sets:
        if not _canonically_closed(cod, cod.closure(img[c])):
            return False
    return True


def _almost_open_on_dense(m, every):
    """Whether every (every=True) or some (every=False) restriction to a
    dense subset of the domain is almost open."""
    full = m.codomain.full
    for d in m.domain.dense_sets:
        if _almost_open_onto(m, d, full) is not every:
            return not every
    return every


def wo_vi_every(m):
    return _almost_open_on_dense(m, True)


def wo_vi_some(m):
    return _almost_open_on_dense(m, False)


def _open_preimage_inside(m, cap):
    """Some open set has a nonempty preimage inside cap."""
    pre = m._preimage
    for v in m.codomain.opens:
        p = pre[v]
        if p and p & ~cap == 0:
            return True
    return False


def sk_sat(m):
    cod, img, pre = m.codomain, m._image, m._preimage
    for u in m.domain.nonempty_opens:
        if not _open_preimage_inside(m, pre[cod.closure(img[u])]):
            return False
    return True


def ssk_sat(m):
    for u in m.domain.nonempty_opens:
        if not _open_preimage_inside(m, saturation(m, u)):
            return False
    return True


def irr_i(m):
    dom, cod, t = m.domain, m.codomain, m._image
    img = t[dom.full]
    for a in dom.proper_closed_sets:
        if img & ~cod.closure(t[a]) == 0:
            return False
    return True


def irr_ii(m):
    for u in m.domain.nonempty_opens:
        if not _open_preimage_inside(m, u):
            return False
    return True


def irr_ii_dense(m):
    dom, cod, pre = m.domain, m.codomain, m._preimage
    for u in dom.nonempty_opens:
        ok = False
        for v in cod.opens:
            p = pre[v]
            if p and p & ~u == 0 and u & ~dom.closure(p) == 0:
                ok = True
                break
        if not ok:
            return False
    return True


def wi_def(m):
    dom = m.domain
    for u in dom.nonempty_opens:
        for w in dom.opens:
            if w and w & ~u == 0 and is_saturated(m, w):
                break
        else:
            return False
    return True


def irr_iii(m):
    return strongly_skeletal_stars(m) and wi_def(m)


def irr_iv(m):
    if not strongly_skeletal_stars(m):
        return False
    dom = m.domain
    for a in dom.proper_closed_sets:
        if dom.is_dense(saturation(m, a)):
            return False
    return True


def wi_i(m):
    dom = m.domain
    for u in dom.nonempty_opens:
        w = largest_open_saturated(m, u)
        if u & ~dom.closure(w):
            return False
    return True


def wi_ii(m):
    dom = m.domain
    for a in range(dom.full + 1):
        if not dom.is_nowhere_dense(saturation(m, a) & ~dom.closure(a)):
            return False
    return True


def wi_iii(m):
    dom, cod, t = m.domain, m.codomain, m._image
    img = t[dom.full]
    for a in dom.nowhere_dense_sets:
        if _interior_in(cod, img, t[a]) != 0:
            return False
    return True


def mirr_i(m):
    dom = m.domain
    for a in dom.proper_closed_sets:
        if saturation(m, a) == dom.full:
            return False
    return True


@dataclass(frozen=True)
class Procedure:
    """One named decision routine about one map class.

    kind records how the routine's value relates to the class under its
    hypothesis: "iff" (equivalent), "necessary" (class implies value),
    or "sufficient" (value implies class).
    """

    id: str
    target: str
    kind: str
    evaluate: object
    hypothesis: object = None
    needs_family: bool = False


_PROCEDURE_LIST = [
    Procedure("ao-stars", "weakly_open", "iff", weakly_open_stars),
    Procedure("ao-i", "weakly_open", "iff", ao_i, needs_family=True),
    Procedure("ao-ii-nonempty", "weakly_open", "iff", ao_ii_nonempty, needs_family=True),
    Procedure("ao-ii-dense", "weakly_open", "iff", ao_ii_dense, needs_family=True),
    Procedure("ao-iii", "weakly_open", "iff", ao_iii, needs_family=True),
    Procedure("wo-stars", "almost_open", "iff", almost_open_stars),
    Procedure("wo-i", "almost_open", "iff", wo_i, needs_family=True),
    Procedure("wo-ii", "almost_open", "iff", wo_ii, needs_family=True),
    Procedure("wo-iii", "almost_open", "iff", wo_iii, needs_family=True),
    Procedure("wo-iv", "almost_open", "iff", wo_iv, needs_family=True),
    Procedure("wo-v", "almost_open", "iff", wo_v, needs_family=True),
    Procedure("wo-v-canon", "almost_open", "iff", wo_v_canon, needs_family=True),
    Procedure("wo-vi", "almost_open", "iff", wo_vi_every, needs_family=True),
    Procedure("wo-vi-some", "almost_open", "iff", wo_vi_some, needs_family=True),
    Procedure("sk-stars", "skeletal", "iff", skeletal_stars),
    Procedure("sk-sat", "skeletal", "iff", sk_sat, needs_family=True),
    Procedure("ssk-stars", "strongly_skeletal", "iff", strongly_skeletal_stars),
    Procedure("ssk-sat", "strongly_skeletal", "iff", ssk_sat, needs_family=True),
    Procedure("irr-stars", "irreducible", "iff", irreducible_stars),
    Procedure("irr-i", "irreducible", "iff", irr_i, needs_family=True),
    Procedure("irr-ii", "irreducible", "iff", irr_ii, needs_family=True),
    Procedure("irr-ii-dense", "irreducible", "iff", irr_ii_dense, needs_family=True),
    Procedure("irr-iii", "irreducible", "iff", irr_iii, needs_family=True),
    Procedure("irr-iv", "irreducible", "iff", irr_iv, needs_family=True),
    Procedure("wi-stars", "weakly_injective", "iff", weakly_injective_stars),
    Procedure("wi-def", "weakly_injective", "iff", wi_def, needs_family=True),
    Procedure("wi-i", "weakly_injective", "necessary", wi_i, needs_family=True),
    Procedure("wi-ii", "weakly_injective", "necessary", wi_ii, needs_family=True),
    Procedure("wi-iii", "weakly_injective", "necessary", wi_iii, needs_family=True),
    Procedure("ai-stars", "almost_injective", "iff", almost_injective_stars),
    Procedure(
        "mirr-i", "irreducible", "iff", mirr_i,
        hypothesis=closed_map_stars, needs_family=True,
    ),
    Procedure(
        "mirr-ii", "irreducible", "sufficient", almost_injective_stars,
        hypothesis=closed_map_stars,
    ),
    Procedure(
        "mirr-iii", "almost_injective", "sufficient", weakly_injective_stars,
        hypothesis=domain_is_discrete,
    ),
]

PROCEDURES = {p.id: p for p in _PROCEDURE_LIST}

NOT_APPLICABLE = None


def decide_by(m, class_name, procedure_id):
    """Evaluate one registered routine; None when its hypothesis fails."""
    proc = PROCEDURES.get(procedure_id)
    if proc is None:
        raise ValueError("unknown procedure id %r" % (procedure_id,))
    if proc.target != class_name:
        raise ValueError(
            "procedure %s decides %s, not %s" % (procedure_id, proc.target, class_name)
        )
    if proc.needs_family:
        if m.domain.n > LITERAL_POINT_LIMIT or m.codomain.n > LITERAL_POINT_LIMIT:
            raise SpaceTooLarge(
                "literal procedures enumerate subsets; limited to %d points"
                % LITERAL_POINT_LIMIT
            )
        if type(m._image) is not list:
            _tabulate(m)
    if proc.hypothesis is not None and not proc.hypothesis(m):
        return NOT_APPLICABLE
    return proc.evaluate(m)


_CLASSIFY_ROUTINES = {
    "weakly_open": ("ao-stars", weakly_open_stars),
    "almost_open": ("wo-stars", almost_open_stars),
    "skeletal": ("sk-stars", skeletal_stars),
    "strongly_skeletal": ("ssk-stars", strongly_skeletal_stars),
    "irreducible": ("irr-stars", irreducible_stars),
    "weakly_injective": ("wi-stars", weakly_injective_stars),
    "almost_injective": ("ai-stars", almost_injective_stars),
    "open_map": ("open-map", open_map_stars),
    "closed_map": ("closed-map", closed_map_stars),
    "embedding": ("embedding", embedding_stars),
    "quotient_map": ("quotient-map", quotient_map_stars),
    "injective": ("injective", is_injective),
    "surjective": ("surjective", is_surjective),
}

_FLAG_NAMES = tuple(_CLASSIFY_ROUTINES)
_PROCEDURE_IDS = {name: pid for name, (pid, _) in _CLASSIFY_ROUTINES.items()}


class MapClassification(namedtuple("MapClassification", _FLAG_NAMES)):
    """Every class flag of one map, a tuple in _FLAG_NAMES order; P-hier
    checks the implications."""

    __slots__ = ()

    @property
    def procedure_ids(self):
        """The routine behind each flag, as a fresh dict in field order."""
        return dict(_PROCEDURE_IDS)

    def flags(self):
        return dict(zip(_FLAG_NAMES, self))


def classify_map(m):
    """All class flags for a map, each tagged with the routine that ran."""
    # the routine table is read per call, so a swapped routine takes effect
    return MapClassification._make(
        [fn(m) for _, fn in _CLASSIFY_ROUTINES.values()])


def enumerate_continuous_maps(domain, codomain):
    """All continuous tables domain -> codomain, lexicographic order."""
    total = codomain.n ** domain.n
    if total > TABLE_BUDGET:
        raise SpaceTooLarge(
            "%d candidate tables exceed the budget %d" % (total, TABLE_BUDGET)
        )
    for table in product(range(codomain.n), repeat=domain.n):
        if _discontinuity(domain, codomain, table) is None:
            yield ContMap(domain, codomain, table)

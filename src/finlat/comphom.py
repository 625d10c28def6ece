"""Lattice homomorphisms between function lattices and composition certificates.

A linear map between finite-dimensional function lattices preserves the
lattice operations exactly when its matrix is nonnegative with at most
one nonzero entry per row.  The constructor runs that structural test
and stores the operator in its normal form, a weight vector plus a partial
coordinate map, so a HomMatrix is a certified homomorphism.  A rejected
matrix raises NotHomomorphism with the first failing probe as its witness;
is_homomorphism runs the same test and builds no witness.  Numbers
follow funclat's rule: an integral weight is stored as an int and any
other weight as its Fraction, and apply multiplies each entry it reads by
its weight, so an image entry is an int exactly when the entry it reads is
an int and its weight is integral.  The definitional |Tf| = T|f| sign
sweep lives in verify (P-hom), which checks the structural test against
it.

Every certified HomMatrix passes all five hoc_conditions, as lattice
homomorphisms of finite-dimensional lattices are order continuous; the
lattice-side conditions still run their funclat computations.  Their domain
side depends only on the dimension n: _coordinate_ideals(n) holds, per
coordinate mask, the band verdict of the coordinate ideal G and the
solution bases of G and G^dd, built by funclat on first use and kept for
the process.  funclat.full_space keeps the full lattice of each
dimension the same way.  The probe vectors of chain-continuity are shared
per n too, and so is the table of directed-sups: each distinct vector of
its families (the probes, the joins of the probe pairs and, up to n = 12,
the subset indicators) once, with the checks as index triples.  They are
int vectors, as are funclat's solution bases, so on a composition operator
or an integer-weight operator every condition runs in int arithmetic.
Each of these three per-dimension vector tables (the probes, the
directed-sups vectors and the distinct basis vectors of
_coordinate_ideals(n)) is a _VectorTable that keeps its coordinate
columns, and the conditions map a whole table at once, one pass over its
columns per call, where apply reads one vector.  HomMatrix.image_rows
gives the image table row by row, each row a column of the table, scaled
or zero.  chain-continuity and directed-sups are coordinatewise, so they
read the rows, and directed-sups checks each distinct row once; image-dd
reads their transpose, one image per vector.  The
codomain side of image-dd is kept with the domain side: each (TG)^dd is
closed once per distinct (m, set of nonzero images) and stored in the
closed dict of the table _coordinate_ideals(n), so clearing that table
clears them too, as verify.mutations does around every mutation.
Membership of T(G^dd) in (TG)^dd is tested on every call, once per
distinct (image set, image) pair.

certify_composition reads the theorem table CONCLUSIONS: each conclusion
about the lattice pulled back along a map is licensed by one map class and,
on discrete spaces, decided directly by one flag of the pulled-back lattice
(order continuity by the composition operator's hoc_conditions).
"""

from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .bitset import bit
from .contmap import classify_map
from .funclat import (
    _exact,
    band_complement,
    canonical_form,
    classify_sublattice,
    double_complement,
    full_space,
    member,
    solution_basis,
    zero_ideal,
)


class NotHomomorphism(ValueError):
    """Raised for matrices that fail |Tf| = T|f|; carries a witness f."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CertificateMismatch(ValueError):
    """Raised when a certificate disagrees with its direct lattice verdict."""


def _to_rows(matrix):
    rows = tuple(map(_exact, matrix))
    if not rows:
        raise ValueError("matrix needs at least one row")
    if len(set(map(len, rows))) != 1 or not rows[0]:
        raise ValueError("matrix must be rectangular and nonempty")
    return rows


def _normal_form(rows):
    """Split a row-monomial nonnegative matrix into (weights, phi), or None.

    Row i reads T(f)[i] = weights[i] * f(phi[i]); zero rows get weight 0
    and an undefined (None) coordinate.  An integral weight is an int, any
    other weight its Fraction.  Any other matrix gives None.
    """
    weights = []
    phi = []
    for row in rows:
        live = [j for j, v in enumerate(row) if v]
        # _exact leaves ints and Fractions, whose sign is their numerator's
        if len(live) > 1 or (live and row[live[0]].numerator < 0):
            return None
        w = row[live[0]] if live else 0
        weights.append(w.numerator if w.denominator == 1 else w)
        phi.append(live[0] if live else None)
    return tuple(weights), tuple(phi)


def _first_failing_probe(rows):
    """The first probe f with |Tf| != T|f|, or None when no probe fails.

    Probes are the unit vectors e_j, then e_a - e_b for a < b.  A unit e_j
    fails exactly when column j holds a negative entry.  With no negative
    entry, e_a - e_b fails exactly when some row is nonzero in both columns
    a and b, so the first failing pair is the least (first, second)
    nonzero-column pair over the rows.
    """
    n = len(rows[0])
    for j in range(n):
        for row in rows:
            if row[j].numerator < 0:
                return tuple([int(i == j) for i in range(n)])
    pair = None
    for row in rows:
        live = [j for j, v in enumerate(row) if v]
        if len(live) > 1 and (pair is None or live[:2] < pair):
            pair = live[:2]
    if pair is None:
        return None
    a, b = pair
    return tuple([1 if j == a else -1 if j == b else 0 for j in range(n)])


def is_homomorphism(matrix):
    """Structural test: nonnegative with at most one nonzero per row."""
    return _normal_form(_to_rows(matrix)) is not None


class HomMatrix:
    """A certified lattice homomorphism from n-space to m-space.

    Stored in its normal form: T(f)[i] = weights[i] * f(phi[i]), with
    weight 0 and coordinate None on zero rows.
    """

    __slots__ = ("m", "n", "weights", "phi")

    def __init__(self, matrix):
        rows = _to_rows(matrix)
        form = _normal_form(rows)
        if form is None:
            raise NotHomomorphism(
                "matrix does not preserve absolute values",
                witness=_first_failing_probe(rows),
            )
        self.m = len(rows)
        self.n = len(rows[0])
        self.weights, self.phi = form

    @property
    def entries(self):
        """The dense rows, for records and display."""
        return tuple(
            tuple(w if j == col else 0 for j in range(self.n))
            for w, col in zip(self.weights, self.phi)
        )

    def apply(self, f):
        """T(f), exact.

        f is read by funclat's one number rule (_exact).  A zero row gives
        the int 0; any other entry is an int when the entry it reads is an
        int and its weight is integral, and a Fraction otherwise.
        """
        f = _exact(f)
        if len(f) != self.n:
            raise ValueError("vector dimension mismatch")
        out = []
        for w, col in zip(self.weights, self.phi):
            if col is None:
                out.append(0)
                continue
            # entry times weight: Fraction * int takes Fraction.__mul__'s
            # direct int case, int * Fraction the slower reflected one
            out.append(f[col] * w)
        return tuple(out)

    def image_rows(self, table):
        """The m rows of the image table of table, as tuples.

        table is a _VectorTable of int n-vectors, and entry v of row i is
        self.apply(table[v])[i]: column phi[i] of the table times
        weights[i].  That is the column as it is for the int weight 1, the
        zero column for a zero row, and otherwise each entry times the
        weight, in apply's operand order, so the values and number types
        are apply's.
        """
        columns = table.columns
        if len(columns) != self.n:
            raise ValueError("vector dimension mismatch")
        rows = []
        for w, col in zip(self.weights, self.phi):
            if col is None:
                rows.append(table.zero)
            elif w == 1:
                rows.append(columns[col])
            else:
                rows.append(tuple([c * w for c in columns[col]]))
        return rows

    def __eq__(self, other):
        return isinstance(other, HomMatrix) and (
            (self.n, self.weights, self.phi) == (other.n, other.weights, other.phi)
        )

    def __hash__(self):
        return hash((self.n, self.weights, self.phi))

    def __repr__(self):
        return "HomMatrix(%r)" % (self.entries,)


def hom_from_map(m):
    """The composition operator f -> f(map(.)): row x reads coordinate map(x)."""
    k = m.codomain.n
    return HomMatrix([tuple(int(j == y) for j in range(k)) for y in m.table])


def _columns_read(t):
    """The mask of the domain coordinates that the rows of t read."""
    used = 0
    for col in t.phi:
        if col is not None:
            used |= bit(col)
    return used


class _VectorTable(tuple):
    """Int n-vectors with their coordinate columns, for HomMatrix.image_rows.

    columns[j] holds coordinate j of every vector, in table order, and zero
    is the all-zero column, the image row of a zero row.  Every table holds
    at least one vector, so it has n columns.
    """

    def __new__(cls, vectors):
        table = super().__new__(cls, vectors)
        table.columns = tuple(zip(*table))
        table.zero = (0,) * len(table)
        return table


class _IdealTable(tuple):
    """A dimension's coordinate-ideal entries, with their distinct basis
    vectors and the (TG)^dd sets that image-dd closed from them.

    vectors is a _VectorTable holding each distinct basis vector of the
    entries once.  closed maps (m, *the nonzero images of G's basis, sorted)
    to (TG)^dd in m-dimensional space.  The sorted images name the set
    whatever order they came in, and one flat tuple holds less than a
    frozenset or a nested tuple.  closed lives and dies with the table, so
    whatever clears _coordinate_ideals clears it too.
    """

    def __new__(cls, entries, vectors):
        table = super().__new__(cls, entries)
        table.vectors = vectors
        table.closed = {}
        return table


@cache
def _coordinate_ideals(n):
    """The domain side of the lattice-side conditions, per dimension n.

    Entry a describes the coordinate ideal G_a = zero_ideal(full, a) of
    the full n-dimensional lattice: (whether G_a is a band, solution basis
    of G_a, solution basis of G_a^dd).  The band test computes G_a^dd and
    accepts exactly when it equals G_a, so a band shares G_a's basis, and
    G_a^dd is computed again only for a non-band.  Built on first use and
    kept for the process; its closed dict starts empty and fills as
    image-dd runs.  Each distinct basis vector is stored once, and listed
    once in the table's vectors: the bases of a dimension share its n unit
    vectors.
    """
    full = full_space(n)
    vectors = {}

    def basis(cs):
        return tuple([vectors.setdefault(v, v) for v in solution_basis(cs)])

    table = []
    for a in range(1 << n):
        g = zero_ideal(full, a)
        g_basis = basis(g)
        if band_complement(full, g) is not None:
            table.append((True, g_basis, g_basis))
        else:
            table.append((False, g_basis, basis(double_complement(full, g)[1])))
    return _IdealTable(table, _VectorTable(vectors))


@cache
def _probe_positives(n):
    """A few nonnegative int n-vectors exercising every coordinate, as a
    _VectorTable."""
    vecs = [(1,) * n]
    for j in range(n):
        vecs.append(tuple(int(i == j) for i in range(n)))
        vecs.append(tuple(0 if i == j else i + 1 for i in range(n)))
    return _VectorTable(vecs)


@cache
def _directed_sup_table(n):
    """The vectors directed-sups applies T to, and its checks by index.

    (vectors, joins, indicators, sup): vectors is a _VectorTable holding
    each distinct int vector among the probes, their pairwise joins and,
    for n <= 12, the 2^n subset indicators, once, in order of first
    appearance.  joins holds (i, j, k) for each pair of probes, in the
    order of their indices in _probe_positives(n), with vectors[i] and
    vectors[j] the two probes and vectors[k] their coordinatewise max;
    indicators holds the indices of the 2^n indicators and sup the index of
    their sup, the all-ones vector.  Above n = 12 indicators is empty and
    sup None.
    """
    index = {}

    def at(v):
        return index.setdefault(v, len(index))

    probes = _probe_positives(n)
    for v in probes:
        at(v)
    joins = tuple((index[a], index[b], at(tuple(map(max, a, b))))
                  for a, b in combinations(probes, 2))
    indicators = ()
    sup = None
    if n <= 12:
        indicators = tuple(at(tuple(a >> j & 1 for j in range(n)))
                           for a in range(1 << n))
        sup = at((1,) * n)
    return _VectorTable(index), joins, indicators, sup


def _chain_continuity(t):
    """Chains v/2^k decrease to zero; their images must do the same.

    The image chain (Tv)/2^k decreases with infimum zero exactly when
    Tv is nonnegative, so the test reduces to positivity on a probe
    family that spans the positive cone.  It reads the probes' image
    table row by row: every image is nonnegative exactly when every row
    is.
    """
    return min(map(min, t.image_rows(_probe_positives(t.n)))) >= 0


def _directed_sup_preservation(t):
    """T must carry sups of upward-directed families to sups of images.

    Each probe pair a, b gives the directed family {a, b, a v b}, whose sup
    is a v b.  The family is symmetric in a and b and trivially preserved
    when a = b, so each unordered pair of distinct probes is visited once.
    For n <= 12 the 2^n subset indicators form one more upward-directed
    family, whose sup is the all-ones vector; above that it is skipped.
    The per-dimension _directed_sup_table lists every vector these
    families hold once, and the checks read T's image table of that list
    by index.  T(a v b) is the sup of the images of {a, b, a v b} exactly
    when T(a) and T(b) lie below it.  Both checks are coordinatewise, so
    they hold exactly when they hold on every row of the image table, and
    each distinct row is checked once: a row-monomial T repeats a row for
    every two rows that read one column with one weight.
    """
    vectors, joins, indicators, sup = _directed_sup_table(t.n)
    for row in set(t.image_rows(vectors)):
        for i, j, k in joins:
            top = row[k]
            if row[i] > top or row[j] > top:
                return False
        if indicators and max([row[k] for k in indicators]) != row[sup]:
            return False
    return True


def _kernel_is_band(t):
    return _coordinate_ideals(t.n)[_columns_read(t)][0]


def _band_preimages(t):
    """T^{-1} of every band of the codomain must be a band in the domain.

    The bands of an m-dimensional function lattice are exactly the 2^m
    coordinate subspaces.  The band vanishing on the rows a pulls back to
    the members vanishing on the columns those rows read.  Those column
    sets are exactly the submasks of the columns T reads (for a submask,
    take one row reading each of its columns), and each is looked up once.
    """
    table = _coordinate_ideals(t.n)
    used = _columns_read(t)
    cols = used
    while table[cols][0]:
        if not cols:
            return True
        cols = (cols - 1) & used
    return False


def _image_double_complements(t):
    """T(G^dd) must land inside (TG)^dd for every coordinate ideal G.

    (TG)^dd is a sublattice, so it contains the sublattice generated by
    T(G^dd) exactly when it contains T of each basis vector of G^dd.  Both
    bases come from the per-dimension table, whose distinct basis vectors T
    maps in one image_rows pass per call, and each distinct image gets one bit.
    TG is generated by the images of G's basis whatever their order,
    repeats or zeros, so each ideal is keyed by its set of nonzero images:
    the OR of its basis vectors' bits without the zero image's.  (TG)^dd is
    read from the table's closed dict under (m, *that set, sorted), and
    canonical_form and double_complement build it only when no earlier
    operator of the dimension closed the same set.  When T reads fewer than
    n columns, many ideals share a set.  Membership in (TG)^dd depends only
    on the key and the image, so each (key, image) pair is tested once per
    call, and the images a key has passed are kept as a mask of their bits.
    """
    table = _coordinate_ideals(t.n)
    closed = table.closed
    distinct = {}
    bits = {}
    for v, tv in zip(table.vectors, zip(*t.image_rows(table.vectors))):
        bits[v] = distinct.setdefault(tv, 1 << len(distinct))
    image_of = {b: tv for tv, b in distinct.items()}
    nonzero = ~distinct.get((0,) * t.m, 0)
    by_key = {}
    passed_by_key = {}
    for _, g_basis, gdd_basis in table:
        key = 0
        for v in g_basis:
            key |= bits[v]
        key &= nonzero
        tgdd = by_key.get(key)
        if tgdd is None:
            gens = [tv for tv, b in distinct.items() if key & b]
            slot = (t.m, *sorted(gens))
            if slot not in closed:
                tg = canonical_form(t.m, gens)
                closed[slot] = double_complement(full_space(t.m), tg)[1]
            tgdd = by_key[key] = closed[slot]
        passed = passed_by_key.get(key, 0)
        for v in gdd_basis:
            b = bits[v]
            if not passed & b:
                if not member(tgdd, image_of[b]):
                    return False
                passed |= b
        passed_by_key[key] = passed
    return True


HOC_CONDITIONS = {
    "chain-continuity": _chain_continuity,
    "directed-sups": _directed_sup_preservation,
    "kernel-band": _kernel_is_band,
    "band-preimages": _band_preimages,
    "image-dd": _image_double_complements,
}


def hoc_conditions(t):
    """Evaluate the five order-continuity conditions independently."""
    return {name: check(t) for name, check in HOC_CONDITIONS.items()}


@dataclass(frozen=True)
class CertificateReport:
    """Topological certificates and the lattice conclusions they license.

    certificates holds the four map-class verdicts; conclusions the
    lattice-side statements they decide.  On discrete spaces direct
    carries independently computed lattice verdicts, and each must
    equal the corresponding certificate.
    """

    certificates: dict
    conclusions: dict
    direct: dict
    discrete: bool

    def __post_init__(self):
        if self.discrete:
            for key, value in self.direct.items():
                if self.conclusions[key] != value:
                    raise CertificateMismatch(
                        "certificate %r disagrees with the direct verdict" % key
                    )


# lattice conclusion -> (the map class that licenses it, the flag of the
# pulled-back lattice that decides it directly; None: hoc_conditions do)
CONCLUSIONS = {
    "image_order_dense": ("irreducible", "order_dense"),
    "image_weakly_urysohn": ("irreducible", "weakly_urysohn"),
    "image_urysohn": ("embedding", "urysohn"),
    "order_continuous": ("almost_open", None),
    "image_regular": ("skeletal", "regular"),
}


def certify_composition(phi, e):
    """The CONCLUSIONS phi's map classes license for e pulled back along phi.

    The hypothesis, e order dense and Urysohn, is one equality test: an
    order-dense sublattice of finite-dimensional R^n holds every unit
    vector, so it holds exactly when e is the full lattice.
    """
    y = phi.codomain
    x = phi.domain
    if e.n != y.n:
        raise ValueError("lattice dimension must match the codomain points")
    if e != full_space(y.n):
        raise ValueError(
            "lattice must be order dense and Urysohn" if y.is_discrete()
            else "non-discrete codomain: only the full lattice is supported"
        )
    cls = classify_map(phi)
    certificates = {cert: getattr(cls, cert) for cert, _ in CONCLUSIONS.values()}
    conclusions = {key: certificates[cert] for key, (cert, _) in CONCLUSIONS.items()}
    discrete = x.is_discrete() and y.is_discrete()
    direct = {}
    if discrete:
        t = hom_from_map(phi)
        pulled = canonical_form(x.n, [t.apply(v) for v in solution_basis(e)])
        flags = classify_sublattice(full_space(x.n), pulled)
        direct = {
            key: getattr(flags, flag) if flag else all(hoc_conditions(t).values())
            for key, (_, flag) in CONCLUSIONS.items()
        }
    return CertificateReport(
        certificates=certificates,
        conclusions=conclusions,
        direct=direct,
        discrete=discrete,
    )

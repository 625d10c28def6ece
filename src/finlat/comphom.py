"""Lattice homomorphisms between function lattices and composition certificates.

A linear map between finite-dimensional function lattices preserves the
lattice operations exactly when its matrix is nonnegative with at most
one nonzero entry per row.  The constructor runs that structural test
and stores the operator in its normal form, a weight vector plus a partial
coordinate map, so a HomMatrix is a certified homomorphism.  The
definitional |Tf| = T|f| sign sweep lives in verify (P-hom, P-hoc), which
checks the structural test against it.

Every certified HomMatrix passes all five hoc_conditions, as lattice
homomorphisms of finite-dimensional lattices are order continuous; the
lattice-side conditions still run their funclat computations.

certify_composition connects map classification to sublattice structure:
the topological class of a continuous map decides order density,
Urysohn richness, order continuity, and regularity of the pulled-back
sublattice, and on discrete spaces the lattice side is recomputed
directly and compared.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .bitset import bit, bits
from .contmap import classify_map
from .funclat import (
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
    rows = tuple(tuple(Fraction(v) for v in row) for row in matrix)
    if not rows:
        raise ValueError("matrix needs at least one row")
    n = len(rows[0])
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("matrix must be rectangular and nonempty")
    return rows


def _normal_form(rows):
    """Split a row-monomial nonnegative matrix into (weights, phi).

    Row i reads T(f)[i] = weights[i] * f(phi[i]); zero rows get weight 0
    and an undefined (None) coordinate.  Any other matrix raises
    NotHomomorphism.
    """
    weights = []
    phi = []
    for row in rows:
        live = [j for j, v in enumerate(row) if v != 0]
        if len(live) > 1 or (live and row[live[0]] < 0):
            raise NotHomomorphism(
                "matrix does not preserve absolute values",
                witness=_first_failing_probe(rows),
            )
        weights.append(row[live[0]] if live else Fraction(0))
        phi.append(live[0] if live else None)
    return tuple(weights), tuple(phi)


def _first_failing_probe(rows):
    """The first probe f with |Tf| != T|f| for a matrix failing the test.

    Probes are the unit vectors e_j, then e_a - e_b for a < b.  A unit e_j
    fails exactly when column j holds a negative entry.  With no negative
    entry, e_a - e_b fails exactly when some row is nonzero in both columns
    a and b, so the first failing pair is the least (first, second)
    nonzero-column pair over the rows.
    """
    n = len(rows[0])
    negative = [j for j in range(n) if any(row[j] < 0 for row in rows)]
    if negative:
        return tuple(int(j == negative[0]) for j in range(n))
    a, b = min(
        live[:2]
        for live in ([j for j, v in enumerate(row) if v != 0] for row in rows)
        if len(live) > 1
    )
    return tuple(1 if j == a else -1 if j == b else 0 for j in range(n))


def is_homomorphism(matrix):
    """Structural test: nonnegative with at most one nonzero per row."""
    try:
        _normal_form(_to_rows(matrix))
    except NotHomomorphism:
        return False
    return True


class HomMatrix:
    """A certified lattice homomorphism from n-space to m-space.

    Stored in its normal form: T(f)[i] = weights[i] * f(phi[i]), with
    weight 0 and coordinate None on zero rows.
    """

    __slots__ = ("m", "n", "weights", "phi")

    def __init__(self, matrix):
        rows = _to_rows(matrix)
        self.m = len(rows)
        self.n = len(rows[0])
        self.weights, self.phi = _normal_form(rows)

    @property
    def entries(self):
        """The dense rows, for records and display."""
        zero = Fraction(0)
        return tuple(
            tuple(w if j == col else zero for j in range(self.n))
            for w, col in zip(self.weights, self.phi)
        )

    def apply(self, f):
        if len(f) != self.n:
            raise ValueError("vector dimension mismatch")
        return tuple(
            Fraction(0) if col is None else w * Fraction(f[col])
            for w, col in zip(self.weights, self.phi)
        )

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
    t = object.__new__(HomMatrix)
    t.m = m.domain.n
    t.n = m.codomain.n
    t.weights = (Fraction(1),) * t.m
    t.phi = tuple(m.table)
    return t


def _columns_read(t, rows):
    """The mask of the domain coordinates that the given rows of t read."""
    used = 0
    for i in rows:
        if t.phi[i] is not None:
            used |= bit(t.phi[i])
    return used


def kernel(t):
    """Ker T as a constraint system over the domain coordinates."""
    return zero_ideal(full_space(t.n), _columns_read(t, range(t.m)))


def _probe_positives(t):
    """A few nonnegative domain vectors exercising every coordinate."""
    vecs = [tuple(Fraction(1) for _ in range(t.n))]
    for j in range(t.n):
        unit = [Fraction(0)] * t.n
        unit[j] = Fraction(1)
        vecs.append(tuple(unit))
        ramp = [Fraction(i + 1) for i in range(t.n)]
        ramp[j] = Fraction(0)
        vecs.append(tuple(ramp))
    return vecs


def _chain_continuity(t):
    """Chains v/2^k decrease to zero; their images must do the same.

    The image chain (Tv)/2^k decreases with infimum zero exactly when
    Tv is nonnegative, so the test reduces to positivity on a probe
    family that spans the positive cone.
    """
    for v in _probe_positives(t):
        if any(c < 0 for c in t.apply(v)):
            return False
    return True


def _directed_sup_preservation(t):
    """T must carry sups of upward-directed families to sups of images.

    Each probe pair a, b gives the directed family {a, b, a v b}, whose sup
    is a v b.  The family is symmetric in a and b and trivially preserved
    when a = b, so each unordered pair of distinct probes is visited once.
    The subset indicators form an upward-directed family whose sup is the
    all-ones vector.
    """
    probes = _probe_positives(t)
    images = [t.apply(a) for a in probes]
    for (a, ta), (b, tb) in combinations(zip(probes, images), 2):
        t_top = t.apply(tuple(max(x, y) for x, y in zip(a, b)))
        if t_top != tuple(max(vals) for vals in zip(ta, tb, t_top)):
            return False
    if t.n <= 12:
        chain = [
            tuple(Fraction(1 if a >> j & 1 else 0) for j in range(t.n))
            for a in range(1 << t.n)
        ]
        sup_dom = tuple(max(vals) for vals in zip(*chain))
        sup_img = tuple(max(vals) for vals in zip(*(t.apply(f) for f in chain)))
        if t.apply(sup_dom) != sup_img:
            return False
    return True


def _kernel_is_band(t):
    return band_complement(full_space(t.n), kernel(t)) is not None


def _band_preimages(t):
    """T^{-1} of every band of the codomain must be a band in the domain.

    The bands of an m-dimensional function lattice are exactly the 2^m
    coordinate subspaces.  The band vanishing on the rows a pulls back to
    the members vanishing on the columns those rows read, and the band test
    runs once per distinct column set.
    """
    dom = full_space(t.n)
    pulled = dict.fromkeys(_columns_read(t, bits(a)) for a in range(1 << t.m))
    return all(
        band_complement(dom, zero_ideal(dom, cols)) is not None for cols in pulled
    )


def _image_double_complements(t):
    """T(G^dd) must land inside (TG)^dd for every coordinate ideal G.

    (TG)^dd is a sublattice, so it contains the sublattice generated by
    T(G^dd) exactly when it contains T of each basis vector of G^dd.
    """
    dom = full_space(t.n)
    cod = full_space(t.m)
    for a in range(1 << t.n):
        g = zero_ideal(dom, a)
        _, gdd = double_complement(dom, g)
        tg = canonical_form(t.m, [t.apply(v) for v in solution_basis(g)])
        _, tgdd = double_complement(cod, tg)
        if not all(member(tgdd, t.apply(v)) for v in solution_basis(gdd)):
            return False
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


def certify_composition(phi, e):
    y = phi.codomain
    x = phi.domain
    if e.n != y.n:
        raise ValueError("lattice dimension must match the codomain points")
    if y.is_discrete():
        eflags = classify_sublattice(full_space(y.n), e)
        if not (eflags.order_dense and eflags.urysohn):
            raise ValueError("lattice must be order dense and Urysohn")
    else:
        if e != full_space(y.n):
            raise ValueError(
                "non-discrete codomain: only the full lattice is supported"
            )
    cls = classify_map(phi)
    certificates = {
        "irreducible": cls.irreducible,
        "embedding": cls.embedding,
        "almost_open": cls.almost_open,
        "skeletal": cls.skeletal,
    }
    conclusions = {
        "image_order_dense": cls.irreducible,
        "image_weakly_urysohn": cls.irreducible,
        "image_urysohn": cls.embedding,
        "order_continuous": cls.almost_open,
        "image_regular": cls.skeletal,
    }
    discrete = x.is_discrete() and y.is_discrete()
    direct = {}
    if discrete:
        t = hom_from_map(phi)
        pulled = canonical_form(x.n, [t.apply(v) for v in solution_basis(e)])
        dflags = classify_sublattice(full_space(x.n), pulled)
        operator_oc = all(hoc_conditions(t).values())
        direct = {
            "image_order_dense": dflags.order_dense,
            "image_weakly_urysohn": dflags.weakly_urysohn,
            "image_urysohn": dflags.urysohn,
            "order_continuous": operator_oc,
            "image_regular": dflags.regular,
        }
    return CertificateReport(
        certificates=certificates,
        conclusions=conclusions,
        direct=direct,
        discrete=discrete,
    )

"""Independent reference implementations the tests freeze expectations against.

Everything here is deliberately naive and stdlib-only: topologies are sets of
frozensets of points, maps are plain tables, operators are row lists of
Fractions.  Nothing imports from the package under test, so agreement between
these and the fast bitmask routines is a genuine cross-check.  The one
exception is the subspace section below: it rebuilds each restricted map as
its own space and map with the package's ``subspace`` and ``ContMap``, the
way the map classes were first decided, and checks the mask-based subspace
routines against those rebuilt maps.  The lattice-construction section
likewise keeps the first, longer formulations of a few constructions on top
of the package's own constraint systems, and the record section at the end
keeps the first record parser (one regex match and one token tuple per
token) on top of the package's record builders, and the map-sampler section
keeps the first rejection loop (a ContMap built for every drawn table) on
top of the package's seeded spaces.
"""

from fractions import Fraction
from itertools import chain, combinations, product
from math import gcd
import re


def powerset(points):
    pts = sorted(points)
    return [
        frozenset(c)
        for c in chain.from_iterable(
            combinations(pts, r) for r in range(len(pts) + 1)
        )
    ]


def is_topology(n, family):
    pts = frozenset(range(n))
    if frozenset() not in family or pts not in family:
        return False
    for a in family:
        for b in family:
            if a | b not in family or a & b not in family:
                return False
    return True


def topologies_on(n):
    """Brute-force filter over every family of subsets; fine for n <= 3."""
    pts = frozenset(range(n))
    nontrivial = [s for s in powerset(pts) if s and s != pts]
    out = []
    for r in range(len(nontrivial) + 1):
        for chosen in combinations(nontrivial, r):
            family = frozenset(chosen) | {frozenset(), pts}
            if is_topology(n, family):
                out.append(family)
    return out


def generated_topology(family):
    """Close a family of frozensets under pairwise union and intersection."""
    out = set(family)
    while True:
        more = {a | b for a in out for b in out} | {a & b for a in out for b in out}
        if more <= out:
            return out
        out |= more


def interior(family, a):
    out = frozenset()
    for u in family:
        if u <= a:
            out |= u
    return out


def closure(n, family, a):
    pts = frozenset(range(n))
    return pts - interior(family, pts - a)


def is_continuous(dom_n, dom_family, cod_family, table):
    for u in cod_family:
        pre = frozenset(x for x in range(dom_n) if table[x] in u)
        if pre not in dom_family:
            return False
    return True


def image_of(table, a):
    return frozenset(table[x] for x in a)


def preimage_of(table, dom_n, b):
    return frozenset(x for x in range(dom_n) if table[x] in b)


def saturation_of(table, dom_n, a):
    return preimage_of(table, dom_n, image_of(table, a))


# the same three on bitmasks, point by point: the first formulations of the
# map suites' image, preimage and fiber-scan references


def _image_of(table, a):
    out = 0
    for x, y in enumerate(table):
        if a >> x & 1:
            out |= 1 << y
    return out


def _preimage_of(table, b):
    out = 0
    for x, y in enumerate(table):
        if b >> y & 1:
            out |= 1 << x
    return out


def _fiber_sat(table, a):
    """The union of the fibers that meet a."""
    return _preimage_of(table, _image_of(table, a))


def relative_family(family, img):
    return frozenset(u & img for u in family)


def weakly_open(dom_n, dom_family, cod_family, table):
    for u in dom_family:
        if u and not interior(cod_family, image_of(table, u)):
            return False
    return True


def almost_open(dom_n, cod_n, dom_family, cod_family, table):
    for u in dom_family:
        if not u:
            continue
        cl = closure(cod_n, cod_family, image_of(table, u))
        if not interior(cod_family, cl):
            return False
    return True


def skeletal(dom_n, cod_n, dom_family, cod_family, table):
    img = image_of(table, range(dom_n))
    rel = relative_family(cod_family, img)
    for u in dom_family:
        if not u:
            continue
        # relative closure inside the image subspace, from the definition
        rel_cl = frozenset()
        for y in img:
            if all(y not in v or v & image_of(table, u) for v in rel):
                rel_cl |= {y}
        if not interior(rel, rel_cl):
            return False
    return True


def strongly_skeletal(dom_n, dom_family, cod_family, table):
    img = image_of(table, range(dom_n))
    rel = relative_family(cod_family, img)
    for u in dom_family:
        if u and not interior(rel, image_of(table, u)):
            return False
    return True


def irreducible(dom_n, cod_n, dom_family, cod_family, table):
    pts = frozenset(range(dom_n))
    img = image_of(table, pts)
    for c in powerset(pts):
        if c == pts or (pts - c) not in dom_family:
            continue
        cl = img & closure(cod_n, cod_family, image_of(table, c))
        if cl == img:
            return False
    return True


def weakly_injective(dom_n, dom_family, table):
    for u in dom_family:
        if not u:
            continue
        found = False
        for v in dom_family:
            if v and v <= u and saturation_of(table, dom_n, v) == v:
                found = True
                break
        if not found:
            return False
    return True


def almost_injective(dom_n, dom_family, table):
    solo = frozenset(
        x for x in range(dom_n)
        if saturation_of(table, dom_n, {x}) == frozenset({x})
    )
    return closure(dom_n, dom_family, solo) == frozenset(range(dom_n))


def quotient_family(n, family, blocks):
    """Opens of the block space: block sets whose union is open below."""
    opens = set()
    for chosen in powerset(range(len(blocks))):
        union = frozenset().union(*(blocks[i] for i in chosen)) if chosen else frozenset()
        if union in family:
            opens.add(frozenset(chosen))
    return frozenset(opens)


def sign_vectors(n):
    return product((-1, 0, 1), repeat=n)


def hom_by_signs(rows):
    """Definitional |Tf| = T|f| sweep over every sign vector."""
    n = len(rows[0])
    for f in sign_vectors(n):
        tf = [sum(r[j] * f[j] for j in range(n)) for r in rows]
        t_abs = [sum(r[j] * abs(f[j]) for j in range(n)) for r in rows]
        if [abs(v) for v in tf] != t_abs:
            return False
    return True


def matvec(rows, f):
    """Dense matrix-vector product over plain row lists."""
    return tuple(sum(r[j] * f[j] for j in range(len(f))) for r in rows)


def directed_sups_by_families(apply, n):
    """The directed-sups condition as one family per check: each pair of
    positive probes a, b with its join, then the subset-indicator chain
    (n <= 12); T must carry every family's sup to the sup of its images."""
    probes = [tuple(Fraction(1) for _ in range(n))]
    for j in range(n):
        probes.append(tuple(Fraction(int(i == j)) for i in range(n)))
        probes.append(tuple(Fraction(0 if i == j else i + 1) for i in range(n)))
    families = [(a, b, tuple(max(x, y) for x, y in zip(a, b)))
                for a in probes for b in probes]
    if n <= 12:
        families.append(tuple(tuple(Fraction(a >> j & 1) for j in range(n))
                              for a in range(1 << n)))
    for family in families:
        sup_dom = tuple(max(vals) for vals in zip(*family))
        sup_img = tuple(max(vals) for vals in zip(*(apply(f) for f in family)))
        if apply(sup_dom) != sup_img:
            return False
    return True


def first_failing_probe(rows):
    """First probe f with |Tf| != T|f|, or None.

    The probes are the unit vectors e_j, then e_a - e_b for a < b.
    """
    n = len(rows[0])
    probes = [tuple(int(j == a) for j in range(n)) for a in range(n)]
    probes += [
        tuple(1 if j == a else -1 if j == b else 0 for j in range(n))
        for a, b in combinations(range(n), 2)
    ]
    for f in probes:
        if tuple(abs(v) for v in matvec(rows, f)) != matvec(rows, [abs(v) for v in f]):
            return f
    return None


def row_monomial_nonneg(rows):
    for row in rows:
        support = [v for v in row if v != 0]
        if len(support) > 1 or any(v < 0 for v in support):
            return False
    return True


def frac_rows(rows):
    return [[Fraction(v) for v in row] for row in rows]


BELL = [1, 1, 2, 5, 15, 52]


def normalize_generators(gens):
    """Multiset normal form: primitive, sign-fixed, zero-free, sorted."""
    out = []
    for vec in gens:
        g = gcd(*vec)
        if g == 0:
            continue
        vec = tuple(v // g for v in vec)
        lead = next(v for v in vec if v)
        out.append(vec if lead > 0 else tuple(-v for v in vec))
    return tuple(sorted(out))


def burnside_multiset_orbits(n, alphabet, normalize):
    """Orbit count for multisets of size <= 3 from the alphabet under
    coordinate permutations, by averaging fixed-multiset counts.

    A multiset is fixed by a permutation exactly when its multiplicity is
    constant along each cycle of the induced alphabet permutation, so the
    fixed count falls out of the cycle-length census.
    """
    from itertools import permutations as _perms
    from math import comb as _comb

    lookup = {vec: i for i, vec in enumerate(alphabet)}
    perms = list(_perms(range(n)))
    total = 0
    for perm in perms:
        image = [
            lookup[normalize(tuple(vec[p] for p in perm))] for vec in alphabet
        ]
        seen = [False] * len(alphabet)
        cycles = {}
        for start in range(len(alphabet)):
            if seen[start]:
                continue
            length, cur = 0, start
            while not seen[cur]:
                seen[cur] = True
                cur = image[cur]
                length += 1
            cycles[length] = cycles.get(length, 0) + 1
        c1 = cycles.get(1, 0)
        c2 = cycles.get(2, 0)
        c3 = cycles.get(3, 0)
        total += (
            1
            + c1
            + _comb(c1 + 1, 2) + c2
            + _comb(c1 + 2, 3) + c1 * c2 + c3
        )
    assert total % len(perms) == 0
    return total // len(perms)


def orbit_minima_by_tables(n, alphabet):
    """The orbit-minimal multisets of at most three alphabet vectors under
    coordinate permutations, in ascending sentinel-padded index-triple order,
    by sorting each visited triple's image under every table that maps one
    of its indices onto its least index.

    The first formulation of the sweep's quotient pass; ``alphabet`` must be
    closed under permuting coordinates up to the sign of each vector.
    """
    from itertools import permutations as _perms

    lookup = {vec: i for i, vec in enumerate(alphabet)}
    size = len(alphabet)
    tables = [
        [lookup[normalize_generators((tuple(vec[p] for p in perm),))[0]]
         for vec in alphabet] + [size]
        for perm in _perms(range(n))
    ]
    low = [min(images) for images in zip(*tables)]
    reps = []
    for a in range(size + 1):
        if low[a] != a:
            continue
        onto = [[] for _ in range(size + 1)]
        for table in tables:
            onto[table.index(a)].append(table)
        rest = [i for i in range(a, size + 1) if low[i] >= a]
        for j, b in enumerate(rest):
            for c in rest[j:]:
                triple = [a, b, c]
                if all(sorted((t[a], t[b], t[c])) >= triple
                       for t in onto[a] + onto[b] + onto[c]):
                    reps.append(
                        tuple(alphabet[i] for i in triple if i != size))
    return reps


def set_partitions(points):
    pts = list(points)
    if not pts:
        yield []
        return
    first, rest = pts[0], pts[1:]
    for smaller in set_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [block + [first]] + smaller[i + 1:]
        yield smaller + [[first]]


class SimpleDSU:
    """Plain union-find, no ranks or ratios; used to replay merge streams."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
            return True
        return False

    def component(self, x):
        root = self.find(x)
        return frozenset(y for y in self.parent if self.find(y) == root)


def canonical_form(n, generators):
    """Constraint system of the generated sublattice, derived pairwise.

    Returns the tuple (n, zero_mask, rep, ratio, groups).  Every pair of
    nonvanishing coordinates z < x is tested for one positive Fraction ratio
    on all generators, and each tie found is merged into a union-find whose
    edges carry f(x) = weight * f(parent).
    """
    gens = [tuple(Fraction(v) for v in g) for g in generators]
    if n < 0 or any(len(g) != n for g in gens):
        raise ValueError("bad dimension")
    parent = list(range(n))
    weight = [Fraction(1)] * n
    vanished = [all(g[x] == 0 for g in gens) for x in range(n)]
    dead = list(vanished)

    def find(x):
        w = Fraction(1)
        while parent[x] != x:
            w *= weight[x]
            x = parent[x]
        return x, w

    for z in range(n):
        for x in range(z + 1, n):
            if vanished[z] or vanished[x]:
                continue
            alpha = next(g[x] / g[z] for g in gens if g[z] != 0)
            if alpha <= 0 or any(g[x] != alpha * g[z] for g in gens):
                continue
            rx, wx = find(x)
            rz, wz = find(z)
            if rx == rz:
                if wx != alpha * wz:
                    dead[rx] = True
                continue
            parent[rx] = rz
            weight[rx] = alpha * wz / wx
            dead[rz] = dead[rz] or dead[rx]

    zero = 0
    members = {}
    for x in range(n):
        root, _ = find(x)
        if dead[root]:
            zero |= 1 << x
        else:
            members.setdefault(root, []).append(x)
    rep = list(range(n))
    ratio = [Fraction(1)] * n
    groups = []
    for xs in members.values():
        lead = min(xs)
        w_lead = find(lead)[1]
        mask = 0
        for x in xs:
            mask |= 1 << x
            rep[x] = lead
            ratio[x] = find(x)[1] / w_lead
        groups.append(mask)
    groups.sort(key=lambda m: m & -m)
    return n, zero, tuple(rep), tuple(ratio), tuple(groups)


def member(system, f):
    """Does f satisfy the zero and tie constraints of the tuple system?"""
    n, zero_mask, rep, ratio, _ = system
    vec = tuple(Fraction(v) for v in f)
    if len(vec) != n:
        raise ValueError("bad dimension")
    if any(vec[x] != 0 for x in range(n) if zero_mask >> x & 1):
        return False
    return all(vec[x] == ratio[x] * vec[rep[x]] for x in range(n))


# ---------------------------------------------------------------------------
# subspace classes through rebuilt subspaces and maps


def corestriction(m):
    """The same map onto its image with the subspace topology."""
    from finlat import ContMap, image, subspace

    sub, mapping = subspace(m.codomain, image(m, m.domain.full))
    index = {p: i for i, p in enumerate(mapping)}
    return ContMap(m.domain, sub, tuple(index[y] for y in m.table))


def dense_restrictions(m):
    """The restriction of m to every dense subspace of its domain."""
    from finlat import ContMap, subspace

    dom = m.domain
    for d in range(1, dom.full + 1):
        if dom.is_dense(d):
            sub, mapping = subspace(dom, d)
            yield ContMap(sub, m.codomain, tuple(m.table[p] for p in mapping))


def subspace_classes(m):
    """The six subspace-defined procedures, each on rebuilt maps."""
    from finlat.contmap import (
        almost_open_stars, image, is_injective, open_map_stars,
        weakly_open_stars,
    )

    core = corestriction(m)
    dom = m.domain
    return {
        "skeletal_stars": almost_open_stars(core),
        "strongly_skeletal_stars": weakly_open_stars(core),
        "embedding_stars": is_injective(m) and open_map_stars(core),
        "wi_iii": not any(
            dom.is_nowhere_dense(a) and core.codomain.interior(image(core, a))
            for a in range(dom.full + 1)
        ),
        "wo_vi_every": all(almost_open_stars(r) for r in dense_restrictions(m)),
        "wo_vi_some": any(almost_open_stars(r) for r in dense_restrictions(m)),
    }


# ---------------------------------------------------------------------------
# map sampler: the first rejection loop


def reference_sample_map(cfg, index):
    """The suite's sampled map, drawn by building a ContMap for every table
    and catching NotContinuous until one is continuous."""
    from finlat import ContMap, NotContinuous
    from finlat.verify.properties import _random_space, _rng

    rng = _rng(cfg.seed, "map", index)
    dom = _random_space(rng, cfg.sample_points)
    cod = _random_space(rng, cfg.sample_points)
    for _ in range(40):
        table = tuple(rng.randrange(cod.n) for _ in range(dom.n))
        try:
            return ContMap(dom, cod, table)
        except NotContinuous:
            continue
    return ContMap(dom, cod, (rng.randrange(cod.n),) * dom.n)


# ---------------------------------------------------------------------------
# lattice constructions in their first, longer formulations


def from_constraints_by_hand(n, zeros=(), ties=()):
    """from_constraints with the forest's system assembled field by field.

    The tie ratios go through funclat._tie_ratio, looked up at call time,
    so a mutation of it reaches this formulation as well.
    """
    from finlat import ConstraintSystem, funclat

    forest = funclat._RatioForest(n)
    for x, z, alpha in ties:
        forest.union(x, z, Fraction(alpha))
    for x in zeros:
        forest.kill(x)
    members = {}
    zero = 0
    for x in range(n):
        root, _ = forest.find(x)
        if forest.dead[root]:
            zero |= 1 << x
        else:
            members.setdefault(root, []).append(x)
    rep = list(range(n))
    ratio = [Fraction(1)] * n
    groups = []
    for xs in members.values():
        lead = min(xs)
        _, w_lead = forest.find(lead)
        mask = 0
        for x in xs:
            mask |= 1 << x
            rep[x] = lead
            ratio[x] = funclat._tie_ratio(forest.find(x)[1], w_lead)
        groups.append(mask)
    groups.sort(key=lambda m: m & -m)
    return ConstraintSystem(n, zero, tuple(rep), tuple(ratio), tuple(groups))


def pullback_lattice(phi, e):
    """The sublattice {v o phi : v in e}, composed coordinate by coordinate."""
    from finlat import canonical_form, solution_basis

    compose = [
        tuple(v[phi.table[x]] for x in range(phi.domain.n))
        for v in solution_basis(e)
    ]
    return canonical_form(phi.domain.n, compose)


def image_double_complements(t):
    """image-dd with T(G^dd) built as its own sublattice and compared by
    containment; any object with m, n and apply will do for t."""
    from finlat import (
        canonical_form, contains, disjoint_complement, full_space,
        solution_basis, zero_ideal,
    )

    dom = full_space(t.n)
    cod = full_space(t.m)
    for a in range(1 << t.n):
        g = zero_ideal(dom, a)
        gd = disjoint_complement(dom, solution_basis(g))
        gdd = disjoint_complement(dom, solution_basis(gd))
        tg = canonical_form(t.m, [t.apply(v) for v in solution_basis(g)])
        tgd = disjoint_complement(cod, solution_basis(tg))
        tgdd = disjoint_complement(cod, solution_basis(tgd))
        t_of_gdd = canonical_form(t.m, [t.apply(v) for v in solution_basis(gdd)])
        if not contains(tgdd, t_of_gdd):
            return False
    return True


def band_preimages_every_subset(t):
    """band-preimages with the band test run on each of the 2^m row
    subsets, repeated preimages included."""
    from finlat import full_space, zero_ideal
    from finlat.funclat import band_complement

    dom = full_space(t.n)
    for a in range(1 << t.m):
        pulled = 0
        for i in range(t.m):
            if a >> i & 1 and t.phi[i] is not None:
                pulled |= 1 << t.phi[i]
        if band_complement(dom, zero_ideal(dom, pulled)) is None:
            return False
    return True


def rewritten_over_leads(ambient, e):
    """(k, inner): e rewritten over the k group leads of ambient, as
    classify_sublattice rewrites it before deciding any flag."""
    from finlat import canonical_form, solution_basis

    k = len(ambient.groups)
    reps = [(g & -g).bit_length() - 1 for g in ambient.groups]
    return k, canonical_form(k, [tuple(v[r] for r in reps) for v in solution_basis(e)])


def urysohn_flags_by_zero_ideals(ambient, e):
    """(urysohn, weakly_urysohn) of e in ambient by their definition.

    e is rewritten over the group representatives of ambient, as in
    classify_sublattice; then for every nonempty coordinate set u the
    members vanishing off u, zero_ideal(inner, ~u), must be nonzero (weakly
    Urysohn) and must zero no coordinate of u (Urysohn).
    """
    from finlat import zero_ideal

    k, inner = rewritten_over_leads(ambient, e)
    urysohn = weakly_urysohn = True
    for u in range(1, 1 << k):
        vanish = zero_ideal(inner, ((1 << k) - 1) & ~u)
        if not vanish.groups:
            weakly_urysohn = False
        if vanish.zero_mask & u:
            urysohn = False
    return urysohn, weakly_urysohn


def regularity_scan(cs, k):
    """The regularity scan that classify_sublattice ran before its regular
    flag was read from the theorem: for every nonempty coordinate set u, the
    members dominating the indicator of u must have a nonzero infimum inside
    the lattice, unless there are no such members or no infimum at all."""
    for u in range(1, 1 << k):
        if u & cs.zero_mask:
            continue  # no member dominates the indicator
        if any(not g & u for g in cs.groups):
            continue  # an unconstrained group lets dominators sink: no infimum
        # the infimum exists: groupwise the largest 1 / ratio[x] over the
        # group's points in u, which is positive exactly when some ratio[x]
        # is (a Fraction's denominator is positive, so its numerator says)
        if not any(cs.ratio[x].numerator > 0
                   for g in cs.groups for x in range(k) if (g & u) >> x & 1):
            return False
    return True


def certified_direct(phi, e):
    """The direct lattice verdicts of certify_composition on discrete
    spaces, through the formulations above."""
    from finlat import classify_sublattice, comphom, full_space, hom_from_map

    t = hom_from_map(phi)
    flags = classify_sublattice(full_space(phi.domain.n), pullback_lattice(phi, e))
    same = ("chain-continuity", "directed-sups", "kernel-band")
    conditions = [comphom.HOC_CONDITIONS[name](t) for name in same]
    conditions += [band_preimages_every_subset(t), image_double_complements(t)]
    return {
        "image_order_dense": flags.order_dense,
        "image_weakly_urysohn": flags.weakly_urysohn,
        "image_urysohn": flags.urysohn,
        "order_continuous": all(conditions),
        "image_regular": flags.regular,
    }


# --- records: the token-tuple parser ------------------------------------------

_REF_GAP = r"\s*(?:\#[^\n]*(?![^\n])\s*)*"
_REF_SKIP = re.compile(_REF_GAP)
_REF_TOKEN = re.compile(
    _REF_GAP + r"""(?: (?P<int>-?\d+) | (?P<str>"[^"\n]*") |
        (?P<ident>[A-Za-z_][A-Za-z0-9_-]*) | (?P<punct>[{}\[\]=;,@]) )""",
    re.VERBOSE,
)


def _ref_line(text, offset):
    return text.count("\n", 0, offset) + 1


def reference_tokenize(text):
    """(type, value, offset) triples, ending with an "end" token."""
    from finlat.records import RecordError

    out = []
    pos = 0
    while m := _REF_TOKEN.match(text, pos):
        pos = m.end()
        kind = m.lastgroup
        value = m[kind]
        if kind == "int":
            try:
                value = int(value)
            except ValueError:  # past the interpreter's digit limit
                raise RecordError(
                    "line %d: integer too long" % _ref_line(text, m.start(kind))
                ) from None
        elif kind == "str":
            value = value[1:-1]
        out.append((kind, value, m.start(kind)))
    pos = _REF_SKIP.match(text, pos).end()
    if pos < len(text):
        raise RecordError(
            "line %d: bad character %r" % (_ref_line(text, pos), text[pos])
        )
    out.append(("end", None, pos))
    return out


class ReferenceParser:
    """The whole text tokenized first, then read through peek()/take();
    records are built by the package's own builders."""

    def __init__(self, text):
        self.text = text
        self.tokens = reference_tokenize(text)
        self.i = 0
        self.env = {}

    def error(self, tok, message):
        from finlat.records import RecordError

        return RecordError("line %d: %s" % (_ref_line(self.text, tok[2]), message))

    def peek(self):
        return self.tokens[self.i]

    def take(self, ttype=None, value=None):
        tok = self.tokens[self.i]
        if ttype is not None and tok[0] != ttype:
            raise self.error(tok, "expected %s, found %r" % (ttype, tok[1]))
        if value is not None and tok[1] != value:
            raise self.error(tok, "expected %r, found %r" % (value, tok[1]))
        self.i += 1
        return tok

    def parse_file(self):
        from finlat.records import KINDS, RecordError

        records = []
        while self.peek()[0] != "end":
            name = None
            tok = self.take("ident")
            if self.peek()[:2] == ("punct", "="):
                if tok[1] in KINDS:
                    raise self.error(tok, "%r cannot name a record" % tok[1])
                name = tok[1]
                self.take("punct", "=")
                tok = self.take("ident")
            if tok[1] not in KINDS:
                raise self.error(tok, "unknown record kind %r" % tok[1])
            obj = self._build(tok[1], self._fields(1), tok)
            if name is not None:
                self.env[name] = obj
            records.append((name, obj))
        if not records:
            raise RecordError("no records found")
        return records

    def _nest(self, depth):
        from finlat.records import MAX_NESTING

        if depth > MAX_NESTING:
            raise self.error(self.peek(),
                             "brackets nested deeper than %d" % MAX_NESTING)

    def _fields(self, depth):
        self._nest(depth)
        self.take("punct", "{")
        fields = {}
        while True:
            tok = self.peek()
            if tok[:2] == ("punct", "}"):
                self.take()
                return fields
            key = self.take("ident")
            self.take("punct", "=")
            fields[key[1]] = self._value(depth)
            if self.peek()[:2] == ("punct", ";"):
                self.take()
            elif self.peek()[:2] != ("punct", "}"):
                raise self.error(self.peek(), "expected ';' or '}'")

    def _value(self, depth):
        from finlat.records import KINDS

        tok = self.peek()
        ttype, val = tok[0], tok[1]
        if ttype in ("int", "str"):
            self.take()
            return val
        if (ttype, val) == ("punct", "@"):
            self.take()
            ref = self.take("ident")
            if ref[1] not in self.env:
                raise self.error(ref, "undefined name %r" % ref[1])
            return self.env[ref[1]]
        if (ttype, val) == ("punct", "["):
            self._nest(depth + 1)
            self.take()
            items = []
            while self.peek()[:2] != ("punct", "]"):
                items.append(self._value(depth + 1))
                if self.peek()[:2] == ("punct", ","):
                    self.take()
                elif self.peek()[:2] != ("punct", "]"):
                    raise self.error(self.peek(), "expected ',' or ']'")
            self.take()
            return items
        if (ttype, val) == ("punct", "{"):
            return self._fields(depth + 1)
        if ttype == "ident" and val in KINDS:
            self.take()
            return self._build(val, self._fields(depth + 1), tok)
        raise self.error(tok, "expected a value, found %r" % (val,))

    def _build(self, kind, fields, tok):
        from finlat.records import RecordError, _KIND_TABLE

        try:
            return _KIND_TABLE[kind][1](fields)
        except RecordError:
            raise
        except (TypeError, ValueError, KeyError) as exc:
            raise self.error(tok, "bad %s record: %s" % (kind, exc)) from exc


def reference_parse_records(text):
    return ReferenceParser(text).parse_file()

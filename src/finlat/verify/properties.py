"""Property suite: every decision routine re-checked against plain references.

The suite never trusts the star-based machinery it is auditing.  Each map
class is recomputed here straight from the opens family (interior = union of
open subsets, closure by complement), each relation condition from the block
masks, each lattice identity from a second computation path.  The map
references read every image and preimage from two flat tables per map,
built here with their own loop (`_unions`) and shared by the seven map
suites.  They reuse none of finspace's or contmap's tables and lookups:
those are what the suites audit, and a reference built from them would
agree with a defect in them.  Instances come from two streams per input
kind: an exhaustive stream over all small cases in a fixed order, then a
seeded sampled stream; the first failing instance in stream order becomes
the witness and can be replayed from its record text.  The map, relation
and discrete-map streams build each finite space once per process and star
table (at most 389 on up to 4 points) and share it, and the exhaustive
streams enumerate the topologies of each size once.
"""

from dataclasses import dataclass, fields, replace
from fractions import Fraction
import functools
from itertools import combinations_with_replacement, product
import math
from operator import mul
import random
import time

from ..bitset import bit, bits, full_mask
from .. import comphom
from .. import contmap
from .. import equivrel
from .. import funclat
from .. import latclosure
from .. import records
from ..contmap import ContMap
from ..finspace import enumerate_topologies, from_stars
from .mutations import MUTATIONS, active_mutation, apply_mutation
from .report import PropertyResult, SuiteReport

MAX_POINTS_LIMIT = 4
MAX_LATTICE_DIM = 5
# a fixed cap rather than the host's core count, so a config is accepted or
# refused alike on every machine
MAX_WORKERS = 64


# ---------------------------------------------------------------------------
# references computed from the opens family only

def _int_in(opens, a):
    out = 0
    for o in opens:
        if not o & ~a:
            out |= o
    return out


def _cl_in(opens, universe, a):
    return universe & ~_int_in(opens, universe & ~a)


def _unions(parts):
    """t[a] = the union of parts[x] over the points x of a, for every mask a.

    The masks that hold point x are the masks below bit(x) with parts[x]
    added, so the table doubles once per point.
    """
    t = [0]
    for part in parts:
        t += [v | part for v in t]
    return t


class _MapRefs(dict):
    """The reference value of each map class of one map: refs[target]
    computes the target on first lookup and keeps it.

    Two flat tables, built once per map, give every image and preimage the
    references read: image[a] for each domain mask a and preimage[b] for
    each codomain mask b.  The seven targets, P-sat's fiber scan
    (preimage[image[a]]) and P-hier's plain references all read them.  Each
    target keeps its opens-family definition (interior as a union of open
    subsets, closure by complement) rather than the star shortcuts that
    contmap's procedures take.  The opens families are read with the first
    target, so P-sat, which needs none, reads none.
    """

    def __init__(self, m):
        super().__init__()
        self.m = m
        fibers = [0] * m.codomain.n
        for x, y in enumerate(m.table):
            fibers[y] |= bit(x)
        self.image = _unions([bit(y) for y in m.table])
        self.preimage = _unions(fibers)
        self.img = self.image[m.domain.full]

    def __missing__(self, target):
        if not self:  # the first target reads the opens families
            self.dom_opens = self.m.domain.opens
            self.cod_opens = self.m.codomain.opens
            self.rel_opens = tuple(sorted({o & self.img for o in self.cod_opens}))
        value = self[target] = getattr(self, "_" + target)()
        return value

    def _weakly_open(self):
        image = self.image
        cod_opens = self.cod_opens
        for u in self.dom_opens:
            if u and not _int_in(cod_opens, image[u]):
                return False
        return True

    def _almost_open(self):
        image = self.image
        cod_opens = self.cod_opens
        cod_full = self.m.codomain.full
        for u in self.dom_opens:
            if u and not _int_in(cod_opens, _cl_in(cod_opens, cod_full, image[u])):
                return False
        return True

    def _strongly_skeletal(self):
        image = self.image
        rel_opens = self.rel_opens
        for u in self.dom_opens:
            if u and not _int_in(rel_opens, image[u]):
                return False
        return True

    def _skeletal(self):
        image = self.image
        rel_opens = self.rel_opens
        for u in self.dom_opens:
            if u and not _int_in(rel_opens, _cl_in(rel_opens, self.img, image[u])):
                return False
        return True

    def _irreducible(self):
        # no proper closed subset of the domain has a dense image in the image
        image = self.image
        dom_full = self.m.domain.full
        open_set = frozenset(self.dom_opens)
        for a in range(dom_full + 1):
            if a == dom_full or (dom_full & ~a) not in open_set:
                continue
            if _cl_in(self.rel_opens, self.img, image[a]) == self.img:
                return False
        return True

    def _weakly_injective(self):
        image = self.image
        preimage = self.preimage
        for u in self.dom_opens:
            if not u:
                continue
            for w in self.dom_opens:
                if w and not w & ~u and preimage[image[w]] == w:
                    break
            else:
                return False
        return True

    def _almost_injective(self):
        m = self.m
        counts = {}
        for y in m.table:
            counts[y] = counts.get(y, 0) + 1
        solo = 0
        for x, y in enumerate(m.table):
            if counts[y] == 1:
                solo |= bit(x)
        for u in self.dom_opens:
            if u and not u & solo:
                return False
        return True


# ---------------------------------------------------------------------------
# per-instance checks; each returns (failure details, n/a count)

# map class -> the suite that checks its procedures; a procedure with a
# hypothesis is checked by P-mirr whatever its target
_SUITE_OF_TARGET = {
    "weakly_open": "P-ao",
    "almost_open": "P-wo",
    "skeletal": "P-wo",
    "strongly_skeletal": "P-wo",
    "irreducible": "P-irr",
    "weakly_injective": "P-wi",
    "almost_injective": "P-wi",
}


def _suite_of(proc):
    return "P-mirr" if proc.hypothesis is not None else _SUITE_OF_TARGET[proc.target]


def _procedure_spec(prop_id, description):
    """The map suite prop_id: every procedure _suite_of routes to it,
    checked against the reference of its target; each procedure id is the
    label of its own failures."""
    pids = tuple(pid for pid in sorted(contmap.PROCEDURES)
                 if _suite_of(contmap.PROCEDURES[pid]) == prop_id)

    def check(m):
        refs = _derived(_MapRefs, m)
        # read per check, so mutations and tracers of contmap reach them
        procedures = contmap.PROCEDURES
        decide_by = contmap.decide_by
        failures = []
        na = 0
        for pid in pids:
            proc = procedures[pid]
            target = proc.target
            got = decide_by(m, target, pid)
            if got is None:
                na += 1
                continue
            ref = refs[target]
            # an "iff" verdict must equal the reference; a "necessary" one
            # may be True off the class, a "sufficient" one False on it
            if got != ref and proc.kind != ("necessary" if got else "sufficient"):
                failures.append({
                    "check": pid,
                    "target": target,
                    "kind": proc.kind,
                    "procedure_value": got,
                    "reference_value": ref,
                })
        return failures, na

    return PropertySpec(prop_id, "map", description, check, pids)


def _check_saturation(m):
    refs = _derived(_MapRefs, m)
    image = refs.image
    preimage = refs.preimage
    full = m.domain.full
    sat_full = contmap.saturation(m, full)
    for a in range(full + 1):
        s = contmap.saturation(m, a)
        # the union of the fibers that meet a
        ref = preimage[image[a]]
        if s != ref:
            return [{"check": "fiber-scan", "subset": a, "got": s, "expected": ref}], 0
        if contmap.saturation(m, s) != s:
            return [{"check": "idempotent", "subset": a, "got": s}], 0
        c = full & ~a
        if sat_full != (s | contmap.saturation(m, c)):
            return [{"check": "union-additive", "subset": a}], 0
    return [], 0


# the map-class hierarchy: the flag on the left implies the one on the right
_IMPLICATIONS = (
    ("weakly_open", "almost_open"),
    ("weakly_open", "strongly_skeletal"),
    ("almost_open", "skeletal"),
    ("strongly_skeletal", "skeletal"),
    ("embedding", "irreducible"),
)

# the flags P-hier compares with plain references, each the label of its
# own failures
_HIER_FLAGS = ("open_map", "closed_map", "injective", "surjective",
               "embedding", "quotient_map")


def _check_hierarchy(m):
    flags = contmap.classify_map(m).flags()
    broken = ["%s -> %s" % (a, b) for a, b in _IMPLICATIONS
              if flags[a] and not flags[b]]
    if flags["irreducible"] != (flags["strongly_skeletal"]
                                and flags["weakly_injective"]):
        broken.append("irreducible <-> strongly_skeletal and weakly_injective")
    if broken:
        return [{"check": "classification-consistency", "implication": b}
                for b in broken], 0
    refs = _derived(_MapRefs, m)
    image = refs.image
    preimage = refs.preimage
    dom_opens = m.domain.opens
    cod_opens = m.codomain.opens
    open_set = frozenset(cod_opens)
    dom_open_set = frozenset(dom_opens)
    dom_full = m.domain.full
    cod_full = m.codomain.full
    ref_open = True
    for u in dom_opens:
        if image[u] not in open_set:
            ref_open = False
            break
    ref_closed = True
    for u in dom_opens:
        img = image[dom_full & ~u]
        if _cl_in(cod_opens, cod_full, img) != img:
            ref_closed = False
            break
    ref_injective = len(set(m.table)) == m.domain.n
    ref_surjective = refs.img == cod_full
    ref_embedding = ref_injective and dom_open_set == {
        preimage[o] for o in cod_opens
    }
    ref_quotient = ref_surjective and open_set == {
        v for v in range(cod_full + 1) if preimage[v] in dom_open_set
    }
    failures = []
    expected = (ref_open, ref_closed, ref_injective, ref_surjective,
                ref_embedding, ref_quotient)
    for name, ref in zip(_HIER_FLAGS, expected):
        if flags[name] != ref:
            failures.append({"check": name, "flag": flags[name], "reference_value": ref})
    return failures, 0


def _check_relation(rel):
    space = rel.space
    full = space.full
    opens = space.opens
    for a in range(full + 1):
        s = equivrel.saturate(rel, a)
        ref = 0
        for x in bits(a):
            ref |= rel.block_of(x)
        if s != ref or a & ~s or equivrel.saturate(rel, s) != s:
            return [{"check": "saturation", "subset": a, "got": s, "expected": ref}], 0
    closed_scan = True
    for a in range(full + 1):
        if _int_in(opens, full & ~a) != full & ~a:
            continue  # a is not closed
        sat = equivrel.saturate(rel, a)
        if _int_in(opens, full & ~sat) != full & ~sat:
            closed_scan = False
            break
    lib = equivrel.is_closed_relation(rel)
    if lib != closed_scan:
        return [{"check": "closed-relation", "got": lib, "expected": closed_scan}], 0
    _, proj = equivrel.quotient(rel)
    by_projection = contmap.closed_map_stars(proj)
    if lib != by_projection:
        return [{"check": "closed-relation-projection", "got": lib,
                 "expected": by_projection}], 0
    return [], 0


def _check_quotient(rel):
    space = rel.space
    qspace, proj = equivrel.quotient(rel)
    failures = []
    if tuple(proj.table) != rel.block_index:
        failures.append({"check": "projection-table"})
    q_open_set = frozenset(qspace.opens)
    dom_open_set = frozenset(space.opens)
    for v in range(qspace.full + 1):
        pre = 0
        for i in bits(v):
            pre |= rel.blocks[i]
        if (v in q_open_set) != (pre in dom_open_set):
            failures.append({"check": "final-topology", "subset": v,
                             "open_downstairs": pre in dom_open_set})
            break
    return failures, 0


def _check_block_conditions(rel):
    space = rel.space
    opens = space.opens
    open_set = frozenset(opens)
    full = space.full
    failures = []
    na = 0
    got_i = equivrel.eqq_condition_i(rel)
    got_ii = equivrel.eqq_condition_ii(rel)
    ref_i = True
    for u in opens:
        if not u:
            continue
        touched = [b for b in rel.blocks if b & u]
        found = False
        for pick in range(1, 1 << len(touched)):
            sel = 0
            for i in bits(pick):
                sel |= touched[i]
            if sel in open_set:
                found = True
                break
        if not found:
            ref_i = False
            break
    ref_ii = True
    for a in range(full + 1):
        if a == full or _int_in(opens, full & ~a) != full & ~a:
            continue
        if equivrel.saturate(rel, a) == full:
            ref_ii = False
            break
    if got_i != ref_i:
        failures.append({"check": "open-saturation-condition", "got": got_i,
                         "reference_value": ref_i})
    if got_ii != ref_ii:
        failures.append({"check": "closed-saturation-condition", "got": got_ii,
                         "reference_value": ref_ii})
    if space.is_discrete():
        indicators = [
            tuple(1 if b >> x & 1 else 0 for x in range(space.n))
            for b in rel.blocks
        ]
        pulled = funclat.canonical_form(space.n, indicators)
        lat = funclat.classify_sublattice(funclat.full_space(space.n), pulled)
        identity = all(b.bit_count() == 1 for b in rel.blocks)
        if lat.regular != got_i:
            failures.append({"check": "lattice-regular-bridge",
                             "lattice": lat.regular, "condition": got_i})
        if lat.order_dense != got_ii or got_ii != identity:
            failures.append({"check": "lattice-density-bridge",
                             "lattice": lat.order_dense, "condition": got_ii,
                             "identity_relation": identity})
    else:
        na += 1
    return failures, na


# the sublattice-flag hierarchy: the flag on the left implies the one on the
# right; in finite dimension every sublattice is also regular
_SUBLATTICE_IMPLICATIONS = (
    ("ideal", "band"),
    ("band", "projection_band"),
    ("order_dense", "weakly_urysohn"),
    ("urysohn", "weakly_urysohn"),
)


# The checks of one kind share work per instance: the seven map suites one
# _MapRefs, whose image and preimage tables the first of them builds, and
# P-sw, P-dis and P-menag canonical_form(n, gens), which P-sw hands to the
# closure oracle and on which P-dis and P-menag alone depend.
# _check_stage sets this to a fresh _StageCache after it installs the
# mutation and back to None when the stage ends, so a check called outside
# a stage computes everything afresh.
_stage_cache = None


class _StageCache:
    def __init__(self):
        self.instance = None
        self.derived = {}
        self.verdicts = {}


def _derived(make, instance):
    """make(instance); inside a stage, the values derived from the instance
    checked last are kept for the next check of the same instance."""
    cache = _stage_cache
    if cache is None:
        return make(instance)
    if cache.instance is not instance:
        cache.instance = instance
        cache.derived = {}
    if make not in cache.derived:
        cache.derived[make] = make(instance)
    return cache.derived[make]


def _system_of(instance):
    # looked up at call time, so mutations and tracers of funclat reach it
    return funclat.canonical_form(*instance)


def _per_system(audit, instance):
    """audit(canonical system); inside a stage, once per distinct system."""
    system = _derived(_system_of, instance)
    cache = _stage_cache
    if cache is None:
        return audit(system)
    key = (audit, system)
    found = cache.verdicts.get(key)
    if found is None:
        found = cache.verdicts[key] = audit(system)
    return found


def _check_disjoint_identities(instance):
    return _per_system(_disjoint_identities_of, instance)


def _disjoint_identities_of(outer):
    n = outer.n
    slices = [outer]
    seen = {outer}
    for a in range(1, 1 << n):
        e = funclat.zero_ideal(outer, a)
        if e not in seen:
            seen.add(e)
            slices.append(e)
    for e in slices:
        basis = funclat.solution_basis(e)
        tried = set()
        for pick in range(1 << len(basis)):
            gvecs = tuple(basis[i] for i in bits(pick))
            g = funclat.canonical_form(n, gvecs)
            if g in tried:
                continue
            tried.add(g)
            gb = funclat.solution_basis(g)
            gd_local = funclat.disjoint_complement(e, gb)
            gd_outer = funclat.disjoint_complement(outer, gb)
            if gd_local != funclat.intersection(gd_outer, e):
                return [{"check": "complement-localizes",
                         "slice_zero": e.zero_mask, "pick": pick}], 0
            gdd_local = funclat.disjoint_complement(e, funclat.solution_basis(gd_local))
            gdd_outer = funclat.disjoint_complement(outer, funclat.solution_basis(gd_outer))
            restricted = funclat.intersection(gdd_outer, e)
            if not funclat.contains(gdd_local, restricted):
                return [{"check": "double-complement-monotone",
                         "slice_zero": e.zero_mask, "pick": pick}], 0
            flags = funclat.classify_sublattice(e, g)
            broken = ["%s -> %s" % (a, b) for a, b in _SUBLATTICE_IMPLICATIONS
                      if getattr(flags, a) and not getattr(flags, b)]
            if not flags.regular:
                broken.append("regular")
            if broken:
                return [{"check": "flag-hierarchy", "implication": b,
                         "slice_zero": e.zero_mask, "pick": pick}
                        for b in broken], 0
            if flags.band and g != restricted:
                return [{"check": "band-restriction",
                         "slice_zero": e.zero_mask, "pick": pick}], 0
    return [], 0


def _check_ideal_intersection(instance):
    return _per_system(_ideal_intersection_of, instance)


def _ideal_intersection_of(sub):
    n = sub.n
    ambient = funclat.full_space(n)
    for a in range(1 << n):
        ideal = funclat.zero_ideal(ambient, a)
        inter = funclat.intersection(ideal, sub)
        if not funclat.classify_sublattice(sub, inter).ideal:
            return [{"check": "ideal-meets-sublattice", "zero_mask": a}], 0
    return [], 0


def _check_span_closure(instance):
    _, gens = instance
    cs = _derived(_system_of, instance)
    for g in gens:
        if not funclat.member(cs, g):
            return [{"check": "generator-membership", "generator": list(g)}], 0
    if not latclosure.lattice_closure_matches(cs, gens):
        return [{"check": "closure-dimension"}], 0
    return [], 0


@functools.cache
def _sign_pairs(n):
    """(f, |f|) for each of the 3^n vectors f with entries in {-1, 0, 1}."""
    return tuple((f, tuple(map(abs, f))) for f in product((-1, 0, 1), repeat=n))


def _scaled_rows(rows):
    """Each distinct row scaled by the lcm of its denominators.

    The factor is positive, so a scaled row breaks |r.f| = r.|f| exactly
    when the row does, and on int vectors f the test runs in int
    arithmetic.
    """
    return {funclat._integral(funclat._exact(row)) for row in rows}


def _breaks_on(r, pairs):
    """Some pair (f, |f|) with |r.f| != r.|f|, for the int row r."""
    return any(abs(sum(map(mul, r, f))) != sum(map(mul, r, af)) for f, af in pairs)


@functools.cache
def _row_breaks_some_sign_vector(r):
    """The sign sweep of one scaled row, once per process.

    It reads only _sign_pairs and operator.mul: no funclat routine, nothing
    a mutation wraps and nothing a test patches.  So a process-wide cache
    answers as a per-stage one would, and it also serves callers that run
    a property's check outside any stage.
    """
    return _breaks_on(r, _sign_pairs(len(r)))


def _breaks_absolute_value(rows, f):
    """|Tf| != T|f| for the dense rows and the vector f."""
    return _scaled_breaks(_scaled_rows(rows), f)


def _scaled_breaks(scaled, f):
    """_breaks_absolute_value on rows already scaled by _scaled_rows."""
    pairs = ((f, tuple(map(abs, f))),)
    return any(_breaks_on(r, pairs) for r in scaled)


def _definitional_homomorphism(rows):
    """|Tf| = T|f| on every sign vector f, the definitional test.

    A linear map preserves absolute values exactly when it does so on the
    3^n vectors with entries in {-1, 0, 1}, and it does so exactly when
    each of its rows does.
    """
    return _scaled_keep_signs(_scaled_rows(rows))


def _scaled_keep_signs(scaled):
    """_definitional_homomorphism on rows already scaled by _scaled_rows."""
    return not any(map(_row_breaks_some_sign_vector, scaled))


def _check_operator_conditions(rows):
    try:
        t = comphom.HomMatrix(rows)
    except comphom.NotHomomorphism:
        return [{"check": "constructor", "error": "rejected a row-monomial matrix"}], 0
    if not _definitional_homomorphism(rows):
        return [{"check": "structural-vs-definitional"}], 0
    failures = []
    conds = comphom.hoc_conditions(t)
    for name in sorted(conds):
        if not conds[name]:
            failures.append({"check": name})
    if comphom.HomMatrix(t.entries) != t:
        failures.append({"check": "normal-form-roundtrip"})
    return failures, 0


def _check_homomorphism_test(rows):
    failures = []
    verdict = comphom.is_homomorphism(rows)
    # scaled once, for the sign sweep and for the witness below
    scaled = _scaled_rows(rows)
    if verdict != _scaled_keep_signs(scaled):
        return [{"check": "structural-vs-definitional"}], 0
    try:
        t = comphom.HomMatrix(rows)
    except comphom.NotHomomorphism as exc:
        t = None
        if verdict:
            failures.append({"check": "constructor-rejects-homomorphism"})
        elif exc.witness is None:
            failures.append({"check": "missing-witness"})
        elif not _scaled_breaks(scaled, exc.witness):
            failures.append({"check": "witness-does-not-witness",
                             "witness": [str(v) for v in exc.witness]})
    if t is not None:
        if not verdict:
            failures.append({"check": "constructor-accepts-non-homomorphism"})
        if comphom.HomMatrix(t.entries) != t:
            failures.append({"check": "normal-form-roundtrip"})
    return failures, 0


def _check_certification(m):
    e = funclat.full_space(m.codomain.n)
    try:
        rep = comphom.certify_composition(m, e)
    except comphom.CertificateMismatch:
        return [{"check": "certificate-vs-direct"}], 0
    return [], 0 if rep.discrete else 1


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class PropertySpec:
    """One property: check(instance) returns (failure dicts, n/a count).

    Each failure dict names its label under "check"; labels lists every
    label the check can emit.  Any check may also fail with
    UNEXPECTED_EXCEPTION, which the runner emits when it raises.
    """

    id: str
    kind: str
    description: str
    check: object
    labels: tuple


UNEXPECTED_EXCEPTION = "unexpected-exception"

PROPERTIES = {p.id: p for p in (
    _procedure_spec("P-ao",
                    "weak-openness procedures match the opens-family reference"),
    _procedure_spec("P-wo",
                    "almost-openness and skeletality procedures match the reference"),
    _procedure_spec("P-irr",
                    "irreducibility procedures match the closed-image scan"),
    _procedure_spec("P-wi",
                    "injectivity-flavour procedures stay within their direction"),
    _procedure_spec("P-mirr",
                    "hypothesis-gated irreducibility procedures are sound"),
    PropertySpec("P-sat", "map",
                 "saturation equals the fiber scan and acts like a closure",
                 _check_saturation,
                 ("fiber-scan", "idempotent", "union-additive")),
    PropertySpec("P-hier", "map",
                 "classification flags are consistent and match plain references",
                 _check_hierarchy,
                 ("classification-consistency",) + _HIER_FLAGS),
    PropertySpec("P-eqr", "rel",
                 "relation saturation and closedness agree with references",
                 _check_relation,
                 ("saturation", "closed-relation", "closed-relation-projection")),
    PropertySpec("P-quot", "rel",
                 "the quotient topology is final for the projection",
                 _check_quotient,
                 ("projection-table", "final-topology")),
    PropertySpec("P-eqq", "rel",
                 "block conditions match references and the discrete bridge",
                 _check_block_conditions,
                 ("open-saturation-condition", "closed-saturation-condition",
                  "lattice-regular-bridge", "lattice-density-bridge")),
    PropertySpec("P-dis", "lattice",
                 "disjoint-complement identities hold in every ideal slice",
                 _check_disjoint_identities,
                 ("complement-localizes", "double-complement-monotone",
                  "flag-hierarchy", "band-restriction")),
    PropertySpec("P-menag", "lattice",
                 "ideals meet sublattices in ideals",
                 _check_ideal_intersection,
                 ("ideal-meets-sublattice",)),
    PropertySpec("P-sw", "lattice",
                 "canonical form matches the integer closure oracle",
                 _check_span_closure,
                 ("generator-membership", "closure-dimension")),
    PropertySpec("P-hoc", "monohom",
                 "order-continuity conditions hold for row-monomial operators",
                 _check_operator_conditions,
                 ("constructor", "structural-vs-definitional",
                  "normal-form-roundtrip") + tuple(comphom.HOC_CONDITIONS)),
    PropertySpec("P-hom", "hom",
                 "structural and definitional homomorphism tests agree",
                 _check_homomorphism_test,
                 ("structural-vs-definitional", "constructor-rejects-homomorphism",
                  "missing-witness", "witness-does-not-witness",
                  "constructor-accepts-non-homomorphism", "normal-form-roundtrip")),
    PropertySpec("P-com", "dismap",
                 "certificates equal direct verdicts on discrete spaces",
                 _check_certification,
                 ("certificate-vs-direct",)),
)}

PROPERTY_ORDER = tuple(PROPERTIES)


# ---------------------------------------------------------------------------
# instance kinds: the exhaustive stream, the seeded sampler and the witness
# record of each kind of instance a property checks

@functools.cache
def _space(stars):
    """The one stream space with this star tuple, built on first request.

    Every space the instance streams hand out comes from here, so its
    closure and interior lookups, opens and subset families are built once
    and shared across maps, runs and stages.  The cache is bounded: streams
    have at most MAX_POINTS_LIMIT = 4 points, so it holds at most the 389
    labelled topologies on 1-4 points (1 + 4 + 29 + 355), each with lookups
    of at most 16 entries.  Sharing is safe: a FinSpace is immutable
    and its lookups are pure functions of the stars, and no mutation wraps
    anything a FinSpace keeps (they wrap contmap.saturation,
    contmap.PROCEDURES and funclat._tie_ratio).  Witnesses still replay
    through records.load_record, which builds fresh spaces.
    """
    return from_stars(len(stars), stars)


def _discrete(n):
    return _space(tuple(bit(x) for x in range(n)))


@functools.cache
def _topologies(n):
    """The stream spaces of the labelled topologies on n points, in
    enumerate_topologies order; enumerated once per n and kept."""
    return tuple(_space(s.stars) for s in enumerate_topologies(n))


def _spaces_upto(max_points):
    return [space for n in range(1, max_points + 1) for space in _topologies(n)]


def _exhaustive_maps(cfg):
    spaces = _spaces_upto(cfg.max_points)
    for dom in spaces:
        for cod in spaces:
            yield from contmap.enumerate_continuous_maps(dom, cod)


def _exhaustive_rels(cfg):
    for space in _spaces_upto(cfg.max_points):
        for rgs in equivrel._partitions_of(space.n):
            blocks = {}
            for x, g in enumerate(rgs):
                blocks[g] = blocks.get(g, 0) | bit(x)
            yield equivrel.EquivRel(space, blocks.values())


def _normalize(vec):
    """The primitive integer vector on vec's ray, first nonzero entry
    positive; None for the zero vector."""
    g = math.gcd(*vec)
    if g == 0:
        return None
    vec = tuple(v // g for v in vec)
    return vec if next(v for v in vec if v) > 0 else tuple(-v for v in vec)


# the entry bound of the lattice alphabet, the sizes of the exhaustive lattice
# and hom streams, and the largest weight of the exhaustive monomial stream
_ALPHABET_BOUND = 2
_LATTICE_MAX_DIM = 2
_LATTICE_MAX_GENS = 2
_HOM_MAX_SIDE = 2
_MONOMIAL_MAX_WEIGHT = 3


def _lattice_alphabet(n):
    entries = range(-_ALPHABET_BOUND, _ALPHABET_BOUND + 1)
    out = {_normalize(vec) for vec in product(entries, repeat=n)}
    out.discard(None)
    return sorted(out)


def _exhaustive_lattices(cfg):
    for n in range(1, _LATTICE_MAX_DIM + 1):
        alphabet = _lattice_alphabet(n)
        for k in range(_LATTICE_MAX_GENS + 1):
            for gens in combinations_with_replacement(alphabet, k):
                yield (n, gens)


def _exhaustive_homs(cfg):
    vals = (-1, 0, 1)
    for m_rows in range(1, _HOM_MAX_SIDE + 1):
        for n_cols in range(1, _HOM_MAX_SIDE + 1):
            for flat in product(vals, repeat=m_rows * n_cols):
                yield tuple(
                    tuple(flat[i * n_cols:(i + 1) * n_cols])
                    for i in range(m_rows)
                )


def _exhaustive_monomials(cfg):
    for m_rows in range(1, cfg.max_points + 1):
        for n_cols in range(1, cfg.max_points + 1):
            choices = [(None, 0)] + [
                (j, v) for j in range(n_cols)
                for v in range(1, _MONOMIAL_MAX_WEIGHT + 1)
            ]
            for combo in product(choices, repeat=m_rows):
                rows = []
                for j, v in combo:
                    row = [0] * n_cols
                    if j is not None:
                        row[j] = v
                    rows.append(tuple(row))
                yield tuple(rows)


def _exhaustive_dismaps(cfg):
    for n_dom in range(1, cfg.max_points + 1):
        dom = _discrete(n_dom)
        for n_cod in range(1, cfg.max_points + 1):
            cod = _discrete(n_cod)
            for table in product(range(n_cod), repeat=n_dom):
                yield ContMap(dom, cod, table)


def _rng(seed, label, index):
    return random.Random("%s:%s:%d" % (seed, label, index))


def _random_space(rng, n):
    stars = [bit(i) | (rng.getrandbits(n) & full_mask(n)) for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            grown = stars[i]
            for j in bits(stars[i]):
                grown |= stars[j]
            if grown != stars[i]:
                stars[i] = grown
                changed = True
    return _space(tuple(stars))


def _sample_map(cfg, index):
    rng = _rng(cfg.seed, "map", index)
    dom = _random_space(rng, cfg.sample_points)
    cod = _random_space(rng, cfg.sample_points)
    # rejection sampling: only the table kept is built into a ContMap
    for _ in range(40):
        table = tuple(rng.randrange(cod.n) for _ in range(dom.n))
        if contmap._discontinuity(dom, cod, table) is None:
            return ContMap(dom, cod, table)
    return ContMap(dom, cod, (rng.randrange(cod.n),) * dom.n)


def _sample_rel(cfg, index):
    rng = _rng(cfg.seed, "rel", index)
    space = _random_space(rng, cfg.sample_points)
    blocks = {0: bit(0)}
    top = 0
    for x in range(1, space.n):
        g = rng.randrange(top + 2)
        top = max(top, g)
        blocks[g] = blocks.get(g, 0) | bit(x)
    return equivrel.EquivRel(space, blocks.values())


def _sample_lattice(cfg, index):
    rng = _rng(cfg.seed, "lattice", index)
    k = rng.randrange(4)
    gens = tuple(
        tuple(rng.randint(-2, 2) for _ in range(cfg.lattice_dim)) for _ in range(k)
    )
    return (cfg.lattice_dim, gens)


def _sample_hom(cfg, index):
    rng = _rng(cfg.seed, "hom", index)
    m_rows = rng.randint(1, 3)
    n_cols = rng.randint(1, 3)
    return tuple(
        tuple(rng.randint(-2, 2) for _ in range(n_cols))
        for _ in range(m_rows)
    )


def _sample_monohom(cfg, index):
    rng = _rng(cfg.seed, "monohom", index)
    m_rows = rng.randint(1, 3)
    n_cols = rng.randint(1, 3)
    rows = []
    for _ in range(m_rows):
        row = [0] * n_cols
        if rng.random() < 0.85:
            row[rng.randrange(n_cols)] = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        rows.append(tuple(row))
    return tuple(rows)


def _sample_dismap(cfg, index):
    rng = _rng(cfg.seed, "dismap", index)
    dom = _discrete(rng.randint(1, cfg.sample_points))
    cod = _discrete(rng.randint(1, cfg.sample_points))
    table = tuple(rng.randrange(cod.n) for _ in range(dom.n))
    return ContMap(dom, cod, table)


def _describe_lattice(instance):
    n, gens = instance
    body = ", ".join("[%s]" % ",".join(str(v) for v in g) for g in gens)
    return {
        "record": "sublattice { n = %d; generators = [ %s ] }" % (n, body),
        "n": n,
        "generators": [list(g) for g in gens],
    }


@dataclass(frozen=True)
class _Kind:
    exhaustive: object  # cfg -> the instances in stream order
    sample: object      # (cfg, index) -> the sampled instance at index
    describe: object    # instance -> the witness fields that record it
    rebuild: object     # witness -> an instance equal to the described one


_MAP_WITNESS = dict(
    describe=lambda m: {"record": records.emit_map(m)},
    rebuild=lambda witness: records.load_record(witness["record"], "map"),
)
_ROWS_WITNESS = dict(
    describe=lambda rows: {"rows": [[str(v) for v in row] for row in rows]},
    rebuild=lambda witness: tuple(
        tuple(Fraction(v) for v in row) for row in witness["rows"]),
)

# Stages and worker processes pass the kind's name, never the _Kind.
_KINDS = {
    "map": _Kind(_exhaustive_maps, _sample_map, **_MAP_WITNESS),
    "rel": _Kind(
        _exhaustive_rels, _sample_rel,
        describe=lambda rel: {"record": records.emit_rel(rel)},
        rebuild=lambda witness: records.load_record(witness["record"], "rel"),
    ),
    "lattice": _Kind(
        _exhaustive_lattices, _sample_lattice, _describe_lattice,
        rebuild=lambda witness: (
            witness["n"], tuple(tuple(g) for g in witness["generators"])),
    ),
    "hom": _Kind(_exhaustive_homs, _sample_hom, **_ROWS_WITNESS),
    "monohom": _Kind(_exhaustive_monomials, _sample_monohom, **_ROWS_WITNESS),
    "dismap": _Kind(_exhaustive_dismaps, _sample_dismap, **_MAP_WITNESS),
}


# ---------------------------------------------------------------------------
# witnesses

def _safe_check(pid, instance):
    try:
        return PROPERTIES[pid].check(instance)
    except Exception as exc:  # a crash counts as a failing instance
        return [{"check": UNEXPECTED_EXCEPTION, "error": repr(exc)}], 0


def replay_witness(witness):
    """Rebuild the witness instance from its record and re-run the check.

    Returns the fresh failure list; empty means the instance passes now.
    """
    pid = witness["property"]
    instance = _KINDS[PROPERTIES[pid].kind].rebuild(witness)
    failures, _ = _safe_check(pid, instance)
    return failures


# ---------------------------------------------------------------------------
# suite runner

@dataclass(frozen=True)
class SuiteConfig:
    max_points: int = 3
    sample_points: int = 4
    sample_budget: int = 2000
    properties: tuple = ()
    seed: int = 0
    workers: int = 1
    lattice_dim: int = 3
    mutation: object = None
    include_timing: bool = False

    def selected(self):
        return tuple(self.properties) or PROPERTY_ORDER

    def to_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["properties"] = list(self.selected())
        return out


def _validate(cfg):
    if not 1 <= cfg.max_points <= MAX_POINTS_LIMIT:
        raise ValueError("max_points must be within 1..%d" % MAX_POINTS_LIMIT)
    if not 1 <= cfg.sample_points <= MAX_POINTS_LIMIT:
        raise ValueError("sample_points must be within 1..%d" % MAX_POINTS_LIMIT)
    if not 1 <= cfg.lattice_dim <= MAX_LATTICE_DIM:
        raise ValueError("lattice_dim must be within 1..%d" % MAX_LATTICE_DIM)
    if cfg.sample_budget < 0:
        raise ValueError("sample_budget must be nonnegative")
    if cfg.workers < 1:
        raise ValueError("workers must be positive")
    if cfg.workers > MAX_WORKERS:
        raise ValueError("workers must be at most %d" % MAX_WORKERS)
    selected = cfg.selected()
    for pid in selected:
        if pid not in PROPERTIES:
            raise ValueError("unknown property %r; known: %s"
                             % (pid, ", ".join(PROPERTY_ORDER)))
        if selected.count(pid) > 1:
            raise ValueError("property %r is selected more than once" % pid)
    if cfg.mutation is not None and cfg.mutation not in MUTATIONS:
        raise ValueError("unknown mutation %r; known: %s"
                         % (cfg.mutation, ", ".join(sorted(MUTATIONS))))


# how the suite runner's pools start their workers, named here rather than
# left to the interpreter's default (Python 3.14 moves Linux to forkserver).
# A spawned worker inherits no module state: everything it checks with,
# the mutation included, reaches it as an argument.
_START_METHOD = "spawn"


@dataclass
class _Agg:
    exhaustive: int = 0
    sampled: int = 0
    failures: int = 0
    na: int = 0
    seconds: float = 0.0
    witness: object = None


def _check_stage(kind, pids, cfg, stage, start=0, stop=0, instances=None):
    """Check one stage's instances in stream order; returns {pid: _Agg}.

    The sampled stage covers the indices start..stop-1.  Given
    ``instances``, the stage checks that list instead, numbered from
    ``start``.  The mutation, then a fresh stage cache, are installed here,
    in whichever process checks the instances.
    """
    global _stage_cache
    spec = _KINDS[kind]
    totals = {pid: _Agg() for pid in pids}
    checked = 0
    with apply_mutation(cfg.mutation):
        _stage_cache = _StageCache()
        try:
            if instances is not None:
                stream = enumerate(instances, start)
            elif stage == "exhaustive":
                stream = enumerate(spec.exhaustive(cfg))
            else:
                stream = ((i, spec.sample(cfg, i)) for i in range(start, stop))
            for index, instance in stream:
                checked += 1
                for pid in pids:
                    agg = totals[pid]
                    t0 = time.perf_counter()
                    failures, na = _safe_check(pid, instance)
                    agg.seconds += time.perf_counter() - t0
                    agg.na += na
                    if failures:
                        agg.failures += 1
                        if agg.witness is None:
                            agg.witness = dict(
                                property=pid, stage=stage, index=index,
                                detail=failures[0], **spec.describe(instance),
                            )
        finally:
            _stage_cache = None
    for agg in totals.values():
        setattr(agg, stage, checked)
    return totals


def _span_parts(kind, pids, cfg, stage, total, instances=None):
    """The stage's indices 0..total-1 checked in stream order: as one span
    inline, or in spans of at least 64 in a pool of at most cfg.workers.

    The pool starts its workers by _START_METHOD.  A mutation installed
    around the runner is passed to the workers as cfg.mutation, so a
    worker that did not inherit it installs it; the inline span runs under
    it already.
    """
    if total <= 0:
        return []
    if cfg.workers <= 1:
        return [_check_stage(kind, pids, cfg, stage, 0, total, instances)]
    # imported here, so a process that never opens a pool never loads them
    from concurrent.futures import ProcessPoolExecutor
    import multiprocessing

    if cfg.mutation is None:
        cfg = replace(cfg, mutation=active_mutation())
    step = max(64, -(-total // (cfg.workers * 4)))
    starts = range(0, total, step)
    context = multiprocessing.get_context(_START_METHOD)
    with ProcessPoolExecutor(max_workers=min(cfg.workers, len(starts)),
                             mp_context=context) as pool:
        futures = [
            pool.submit(_check_stage, kind, pids, cfg, stage, a,
                        min(a + step, total),
                        None if instances is None else instances[a:a + step])
            for a in starts
        ]
        return [f.result() for f in futures]


def _summed(pid, aggs):
    # aggs are in stream order, so the first witness found is the earliest
    return PropertyResult(
        property_id=pid,
        exhaustive=sum(a.exhaustive for a in aggs),
        sampled=sum(a.sampled for a in aggs),
        failures=sum(a.failures for a in aggs),
        not_applicable=sum(a.na for a in aggs),
        witness=next((a.witness for a in aggs if a.witness), None),
        seconds=sum(a.seconds for a in aggs),
    )


def check_instances(pids, instances, *, workers=1):
    """Check an explicit instance list, as an exhaustive stream, with
    properties of one kind; returns their PropertyResults in pids order.

    pids and workers are checked by run_suite's rules: an unknown or
    repeated id, or fewer than one worker, raises ValueError.  So do no
    ids, and ids of more than one kind.
    """
    cfg = SuiteConfig(properties=tuple(pids), workers=workers)
    _validate(cfg)
    kinds = {PROPERTIES[pid].kind for pid in pids}
    if len(kinds) != 1:
        raise ValueError("check_instances needs properties of one kind")
    (kind,) = kinds
    parts = _span_parts(kind, pids, cfg, "exhaustive", len(instances), instances)
    return tuple(_summed(pid, [part[pid] for part in parts]) for pid in pids)


def run_suite(cfg=None, **overrides):
    if cfg is None:
        cfg = SuiteConfig(**overrides)
    _validate(cfg)
    selected = cfg.selected()
    by_kind = {}
    for pid in selected:
        by_kind.setdefault(PROPERTIES[pid].kind, []).append(pid)
    parts = {pid: [] for pid in selected}
    for kind, pids in by_kind.items():
        pids = tuple(pids)
        # per-stage results in stream order: exhaustive, then sampled spans
        for part in ([_check_stage(kind, pids, cfg, "exhaustive")]
                     + _span_parts(kind, pids, cfg, "sampled", cfg.sample_budget)):
            for pid, agg in part.items():
                parts[pid].append(agg)
    results = tuple(_summed(pid, aggs) for pid, aggs in parts.items())
    return SuiteReport(config=cfg.to_dict(), results=results)

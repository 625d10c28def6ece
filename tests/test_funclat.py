from dataclasses import make_dataclass
from fractions import Fraction
import hashlib
import math
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from finlat import (
    ConstraintSystem,
    HomMatrix,
    SublatticeFlags,
    canonical_form,
    classify_sublattice,
    contains,
    disjoint_complement,
    full_space,
    intersection,
    member,
    solution_basis,
    zero_ideal,
)
from finlat.bitset import bits
from finlat.funclat import (
    _exact,
    _int_tuple,
    _integral,
    band_complement,
    dim,
    double_complement,
    from_constraints,
)
from finlat.latclosure import closure_subspace
from finlat.records import RecordError, load_record
from finlat.verify import family_representatives
from finlat.verify.mutations import apply_mutation

F = Fraction


def cs(n, zero_mask, rep, ratio, groups):
    return ConstraintSystem(
        n, zero_mask, tuple(rep), tuple(F(r) for r in ratio), tuple(groups)
    )


# --- canonical forms, frozen by hand -----------------------------------------

def test_canonical_form_ties_equal_coordinates():
    got = canonical_form(3, [(1, 1, 0), (0, 0, 2)])
    assert got == cs(3, 0, (0, 0, 2), (1, 1, 1), (0b011, 0b100))


def test_canonical_form_ignores_negative_ratios():
    # f(1) = -f(0) is not a lattice tie; the closure is the whole plane
    got = canonical_form(2, [(1, -1)])
    assert got == full_space(2)


def test_canonical_form_keeps_fractional_ratio():
    got = canonical_form(2, [(2, 1)])
    assert got == cs(2, 0, (0, 0), (1, F(1, 2)), (0b11,))


def test_canonical_form_of_nothing_is_zero():
    zero = from_constraints(2, zeros=range(2))
    assert canonical_form(2, []) == zero
    assert canonical_form(2, [(0, 0)]) == zero


def test_full_space_is_one_value_per_dimension():
    for n in range(17):
        units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        assert full_space(n) is full_space(n)
        assert full_space(n) == canonical_form(n, units)
    # the dimension is read by operator.index: True is the dimension 1
    assert type(full_space(True).n) is int
    assert full_space(True).n == 1
    assert full_space(True) is full_space(1)
    for _ in range(2):
        with pytest.raises(ValueError):
            full_space(-1)
    with pytest.raises(TypeError):
        full_space(1.0)


def test_contradictory_ties_zero_the_group():
    got = from_constraints(2, ties=[(1, 0, 2), (1, 0, 3)])
    assert got == cs(2, 0b11, (0, 1), (1, 1), ())
    with pytest.raises(ValueError):
        from_constraints(2, ties=[(1, 0, -1)])


def test_long_tie_chain_needs_no_recursion():
    # f(x) = 2 f(x + 1) along 3,000 coordinates: one group led by 0
    n = 3000
    got = from_constraints(n, ties=[(x, x + 1, 2) for x in range(n - 1)])
    assert got.groups == ((1 << n) - 1,)
    assert got.rep == (0,) * n
    assert all(got.ratio[x] == Fraction(1, 2 ** x) for x in range(n))


# --- membership and derived systems -------------------------------------------

def test_member_checks_zeros_and_ratios():
    sys3 = canonical_form(3, [(1, 1, 0), (0, 0, 2)])
    assert member(sys3, (2, 2, 5))
    assert member(sys3, (0, 0, 0))
    assert not member(sys3, (1, 2, 0))
    half = canonical_form(2, [(2, 1)])
    assert member(half, (4, 2))
    assert not member(half, (4, 3))
    with pytest.raises(ValueError):
        member(half, (1, 2, 3))


def test_zero_ideal_on_zeroed_coordinates_is_the_system_itself():
    # a mask inside zero_mask meets no group: an equal system comes back;
    # a mask with a bit above n - 1, or a negative one, is refused
    tied = canonical_form(4, [(1, 2, 0, 0), (0, 0, 3, 0)])
    systems = (tied, zero_ideal(tied, 0b0100), canonical_form(3, []), full_space(2))
    for system in systems:
        for a in range(1 << system.n):
            if not a & ~system.zero_mask:
                assert zero_ideal(system, a) == system
                with pytest.raises(ValueError):
                    zero_ideal(system, a | 1 << system.n)
        with pytest.raises(ValueError):
            zero_ideal(system, -1)


def test_zero_ideal_kills_whole_groups():
    sys3 = canonical_form(3, [(1, 1, 0), (0, 0, 2)])
    assert zero_ideal(sys3, 0b001) == cs(3, 0b011, (0, 1, 2), (1, 1, 1), (0b100,))
    assert zero_ideal(full_space(3), 0b001) == cs(
        3, 0b001, (0, 1, 2), (1, 1, 1), (0b010, 0b100)
    )


def test_solution_basis_spans_one_vector_per_group():
    sys3 = canonical_form(3, [(1, 1, 0), (0, 0, 2)])
    assert solution_basis(sys3) == [(1, 1, 0), (0, 0, 1)]
    assert solution_basis(canonical_form(2, [])) == []
    # ratios 1, 1/2 and 1/3 scale by 6 to the primitive int vector
    thirds = from_constraints(3, ties=[(1, 0, F(1, 2)), (2, 0, F(1, 3))])
    assert repr(solution_basis(thirds)) == repr([(6, 3, 2)])


@pytest.mark.parametrize("loose,exact", [(0.5, F(1, 2)), (True, 1)])
@pytest.mark.parametrize("entry", ["canonical_form", "member", "from_constraints"])
def test_float_and_bool_entries_follow_the_number_rule(entry, loose, exact):
    # 0.5 reads as 1/2 and True as 1 at every funclat entry point
    if entry == "canonical_form":
        got = canonical_form(2, [(1, loose)])
        assert repr(got) == repr(canonical_form(2, [(1, exact)]))
    elif entry == "member":
        assert member(canonical_form(2, [(2, 2 * exact)]), (1, loose))
        assert not member(canonical_form(2, [(1, exact + 1)]), (1, loose))
    else:
        got = from_constraints(2, ties=[(1, 0, loose)])
        assert repr(got) == repr(from_constraints(2, ties=[(1, 0, exact)]))
        assert got == canonical_form(2, [(1, exact)])


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("entry", [
    lambda v: canonical_form(2, [(1, v)]),
    lambda v: member(full_space(2), (v, 1)),
    lambda v: from_constraints(2, ties=[(1, 0, v)]),
    lambda v: HomMatrix([[v, 0]]),
    lambda v: HomMatrix([[1, 0]]).apply((v, 1)),
], ids=["canonical_form", "member", "from_constraints", "HomMatrix",
        "HomMatrix.apply"])
def test_non_finite_floats_raise_value_error(entry, value):
    # Fraction raises OverflowError for an infinity and ValueError for a NaN;
    # the number rule turns both into ValueError
    with pytest.raises(ValueError, match="cannot convert"):
        entry(value)


def test_disjoint_complement_is_support_annihilator():
    full3 = full_space(3)
    assert disjoint_complement(full3, [(1, 0, 0)]) == zero_ideal(full3, 0b001)
    sys3 = canonical_form(3, [(1, 1, 0), (0, 0, 2)])
    got = disjoint_complement(sys3, [(1, 1, 0)])
    assert got == cs(3, 0b011, (0, 1, 2), (1, 1, 1), (0b100,))
    with pytest.raises(ValueError):
        disjoint_complement(sys3, [(1, 0, 0)])  # not a member


def test_intersection_and_containment():
    full3 = full_space(3)
    a = zero_ideal(full3, 0b001)
    b = zero_ideal(full3, 0b010)
    assert intersection(a, b) == zero_ideal(full3, 0b011)
    sys3 = canonical_form(3, [(1, 1, 0), (0, 0, 2)])
    assert contains(full3, sys3)
    assert not contains(sys3, full3)
    assert contains(sys3, canonical_form(3, []))


# --- structure flags, frozen by hand ------------------------------------------

def flags_tuple(f):
    return (
        f.ideal, f.band, f.projection_band, f.order_dense,
        f.urysohn, f.weakly_urysohn, f.regular,
    )


def test_full_lattice_has_every_property():
    f = classify_sublattice(full_space(2), full_space(2))
    assert flags_tuple(f) == (True, True, True, True, True, True, True)


def test_zero_sublattice_is_a_degenerate_band():
    f = classify_sublattice(full_space(2), canonical_form(2, []))
    assert flags_tuple(f) == (True, True, True, False, False, False, True)


def test_diagonal_is_no_ideal():
    diag = canonical_form(2, [(1, 1)])
    f = classify_sublattice(full_space(2), diag)
    assert flags_tuple(f) == (False, False, False, False, False, False, True)


def test_axis_is_a_projection_band():
    axis = canonical_form(2, [(1, 0)])
    f = classify_sublattice(full_space(2), axis)
    assert flags_tuple(f) == (True, True, True, False, False, False, True)


def test_tied_plane_in_three_space():
    sys3 = canonical_form(3, [(1, 1, 0), (0, 0, 2)])
    f = classify_sublattice(full_space(3), sys3)
    assert flags_tuple(f) == (False, False, False, False, False, False, True)


def test_order_density_is_relative_to_the_ambient():
    slice3 = zero_ideal(full_space(3), 0b100)
    f = classify_sublattice(slice3, slice3)
    assert f.order_dense and f.urysohn and f.ideal


def test_classify_requires_containment():
    axis = canonical_form(2, [(1, 0)])
    with pytest.raises(ValueError):
        classify_sublattice(axis, full_space(2))


# --- certify_composition's hypothesis is one equality test --------------------

def _dense_and_urysohn(e):
    flags = classify_sublattice(full_space(e.n), e)
    return flags.order_dense and flags.urysohn


def _zero_tie_forms(n):
    # every zero set, with no tie or with one tie f(x) = r f(y), r in {1, 2}
    ties = [()] + [((x, y, r),) for x in range(n) for y in range(x + 1, n)
                   for r in (1, 2)]
    for zeros in range(1 << n):
        for tie in ties:
            yield from_constraints(n, [x for x in range(n) if zeros >> x & 1], tie)


def test_order_dense_urysohn_sublattice_is_the_full_lattice():
    systems = [canonical_form(n, gens) for n in (1, 2)
               for gens in family_representatives(n)]
    systems += [e for n in range(1, 5) for e in _zero_tie_forms(n)]
    verdicts = {e: _dense_and_urysohn(e) for e in systems}
    assert {e for e, v in verdicts.items() if v} == {full_space(n) for n in range(1, 5)}
    # 93 distinct systems: the four full lattices and 89 others
    assert len(verdicts) == 93


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(*[st.integers(-2, 2)] * n), max_size=4))))
def test_order_dense_urysohn_sublattice_is_the_full_lattice_drawn(drawn):
    n, gens = drawn
    e = canonical_form(n, gens)
    assert _dense_and_urysohn(e) == (e == full_space(n))


# --- band-ness from its definition ------------------------------------------------

def test_band_complement_matches_the_band_flag_on_coordinate_ideals():
    for n in range(1, 5):
        full = full_space(n)
        for a in range(1 << n):
            e = zero_ideal(full, a)
            # a coordinate ideal is a band; its complement is the other one
            assert band_complement(full, e) == zero_ideal(full, ((1 << n) - 1) & ~a)
            assert classify_sublattice(full, e).band


def test_band_complement_rejects_a_tied_line():
    diag = canonical_form(2, [(1, 1)])
    assert band_complement(full_space(2), diag) is None
    assert not classify_sublattice(full_space(2), diag).band


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=3)))
def test_band_complement_matches_the_band_flag(gens):
    # oracle outside funclat: the bands of R^n are its coordinate subspaces,
    # so the closure is a band exactly when it fills the generators' support
    n = len(gens[0])
    support = {i for g in gens for i, c in enumerate(g) if c}
    want = len(closure_subspace(n, gens)) == len(support)
    e = canonical_form(n, gens)
    full = full_space(n)
    assert (band_complement(full, e) is not None) == want
    assert classify_sublattice(full, e).band == want


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=1, max_size=4),
       st.integers(0, 4))
def test_double_complement_contains_e_and_is_a_band(gens, k):
    ambient = canonical_form(3, gens)
    e = canonical_form(3, gens[:k])
    first, dd = double_complement(ambient, e)
    assert contains(dd, e) and contains(ambient, dd)
    assert double_complement(ambient, dd) == (first, dd)
    assert band_complement(ambient, dd) == first


# --- explicit constraints against the field-by-field assembly -------------------

def test_from_constraints_matches_hand_assembly():
    rng = random.Random(5)
    ratios = (1, 2, F(1, 2), 3, F(2, 3))
    cases = []
    for _ in range(1500):
        n = rng.randint(0, 6)
        ties = [(rng.randrange(n), rng.randrange(n), rng.choice(ratios))
                for _ in range(rng.randint(0, 6) if n else 0)]
        zeros = [rng.randrange(n) for _ in range(rng.randint(0, 2) if n else 0)]
        cases.append((n, zeros, ties))
    plain = [from_constraints(*case) for case in cases]
    assert plain == [oracles.from_constraints_by_hand(*case) for case in cases]
    # contradictory ties occur and zero their groups
    assert sum(1 for n, _, ties in cases if from_constraints(n, ties=ties).zero_mask) > 100
    with apply_mutation("ratio-flip"):
        flipped = [from_constraints(*case) for case in cases]
        assert flipped == [oracles.from_constraints_by_hand(*case) for case in cases]
    assert flipped != plain


# --- closure invariance of the canonical system ----------------------------------

small_vec = st.tuples(*([st.integers(-2, 2)] * 3))


@settings(max_examples=150, deadline=None)
@given(st.lists(small_vec, min_size=1, max_size=3))
def test_canonical_form_absorbs_lattice_words(gens):
    base = canonical_form(3, gens)
    joined = [
        tuple(max(a, b) for a, b in zip(gens[0], gens[-1])),
        tuple(x + y for x, y in zip(gens[0], gens[-1])),
        tuple(abs(x) for x in gens[0]),
    ]
    assert canonical_form(3, list(gens) + joined) == base
    doubled = [tuple(2 * x for x in g) for g in gens]
    assert canonical_form(3, doubled + list(gens)) == base


@settings(max_examples=150, deadline=None)
@given(st.lists(small_vec, min_size=0, max_size=3))
def test_generators_are_members(gens):
    sys3 = canonical_form(3, gens)
    for g in gens:
        assert member(sys3, g)
    for v in solution_basis(sys3):
        assert member(sys3, v)


# --- the integer kernel against the pairwise Fraction oracle ---------------------

kernel_entry = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(-3, 3).map(lambda k: F(k, 1)),
    st.sampled_from([0, F(0), 0.5, -1.5, 2.0, True, False]),
)


@st.composite
def kernel_inputs(draw):
    n = draw(st.integers(0, 5))
    vec = st.tuples(*[kernel_entry] * n)
    gens = draw(st.lists(vec, max_size=4))
    if gens and n and draw(st.booleans()):
        # make column x a fixed multiple of column z, of either sign
        x, z = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.sampled_from([1, 2, F(1, 2), F(3, 1), -1, F(-2, 3)]))
        gens = [g[:x] + (g[z] * c,) + g[x + 1:] for g in gens]
    probes = draw(st.lists(vec, max_size=3))
    probes += [tuple(a + 2 * b for a, b in zip(g, h))
               for g, h in zip(gens, gens[1:])]
    return n, gens, gens + probes


@settings(max_examples=400, deadline=None)
@given(kernel_inputs())
def test_kernel_matches_pairwise_oracle(inputs):
    n, gens, probes = inputs
    got = canonical_form(n, gens)
    expected = oracles.canonical_form(n, gens)
    fields = (got.n, got.zero_mask, got.rep, got.ratio, got.groups)
    # repr also tells an int ratio from a Fraction one
    assert repr(fields) == repr(expected)
    for v in probes + solution_basis(got):
        assert member(got, v) == oracles.member(expected, v)


@settings(max_examples=300, deadline=None)
@given(kernel_inputs())
def test_solution_basis_is_primitive_int_and_canonical(inputs):
    n, gens, _ = inputs
    system = canonical_form(n, gens)
    basis = solution_basis(system)
    assert len(basis) == len(system.groups)
    for vec, group in zip(basis, system.groups):
        assert all(type(v) is int for v in vec)
        assert math.gcd(*vec) == 1
        # positive exactly on its group, zero elsewhere
        assert all(v > 0 if group >> x & 1 else v == 0 for x, v in enumerate(vec))
    assert canonical_form(n, basis) == system


@pytest.mark.parametrize("n,gens", [(-1, []), (-1, [()]), (2, [(1,)])])
def test_kernel_rejects_bad_dimensions(n, gens):
    with pytest.raises(ValueError):
        canonical_form(n, gens)
    with pytest.raises(ValueError):
        oracles.canonical_form(n, gens)


# --- the number rule applied once per generator ----------------------------------

# sha256 over each family, in family_representatives order, of
# repr(canonical_form(n, gens)) + "\n", recorded before canonical_form
# scaled each generator to ints
CANONICAL_FORM_PINS = {
    1: "d0d4b355af0edaa386746e398549adbc096c6cadea68478e2d10e5a8dd146efd",
    2: "19064b123a897d18eef4affa8b82a6c6e3c24a3c1f5c47f698360f2a84c0d7e5",
    3: "9fbae9652d89b95f62ece36dfcadc26fa9f98df3836775ca91bda5b6cf99ff80",
}


def test_canonical_forms_of_each_family_match_their_pin():
    for n, pin in CANONICAL_FORM_PINS.items():
        h = hashlib.sha256()
        for gens in family_representatives(n):
            h.update(repr(canonical_form(n, gens)).encode() + b"\n")
        assert h.hexdigest() == pin


positive_factor = st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6)


@settings(max_examples=300, deadline=None)
@given(kernel_inputs(), st.data())
def test_positive_factors_on_generators_keep_the_canonical_form(inputs, data):
    # the identity that lets canonical_form scale each generator to ints
    n, gens, _ = inputs
    factors = data.draw(st.lists(positive_factor, min_size=len(gens), max_size=len(gens)))
    scaled = [tuple(q * v for v in _exact(g)) for q, g in zip(factors, gens)]
    got, want = canonical_form(n, scaled), canonical_form(n, gens)
    fields = lambda s: (s.n, s.zero_mask, s.rep, s.ratio, s.groups)
    assert repr(fields(got)) == repr(fields(want))


def test_equal_systems_hash_equal_and_a_ratio_keeps_its_own_key():
    for n in (1, 2, 3):
        for gens in family_representatives(n):
            system = canonical_form(n, gens)
            ties = [(x, r, q) for x, (r, q) in enumerate(zip(system.rep, system.ratio))
                    if r != x]
            rebuilt = from_constraints(n, bits(system.zero_mask), ties)
            assert rebuilt == system and hash(rebuilt) == hash(system)
    plain = canonical_form(3, [(1, 2, 0), (0, 0, 1)])
    with apply_mutation("ratio-flip"):
        flipped = canonical_form(3, [(1, 2, 0), (0, 0, 1)])
    # only the ratio tells them apart, and the hash leaves the ratio out
    assert flipped.ratio != plain.ratio
    assert flipped != plain and hash(flipped) == hash(plain)
    table = {plain: "plain", flipped: "flipped"}
    assert len(table) == 2
    assert table[plain] == "plain" and table[flipped] == "flipped"


# the repr reference: a frozen dataclass with ConstraintSystem's fields
_DATACLASS_SYSTEM = make_dataclass(
    "ConstraintSystem", ["n", "zero_mask", "rep", "ratio", "groups"], frozen=True)


def test_constraint_system_keeps_the_dataclass_value_contract():
    fields = (3, 0b100, (0, 0, 2), (F(1), F(2), F(1)), (0b011,))
    built = ConstraintSystem(*fields)
    assert (built.n, built.zero_mask, built.rep, built.ratio, built.groups) == fields
    assert repr(built) == repr(_DATACLASS_SYSTEM(*fields)) == (
        "ConstraintSystem(n=3, zero_mask=4, rep=(0, 0, 2), "
        "ratio=(Fraction(1, 1), Fraction(2, 1), Fraction(1, 1)), groups=(3,))")
    for n in (1, 2, 3):
        for gens in family_representatives(n)[::7]:
            system = canonical_form(n, gens)
            old = _DATACLASS_SYSTEM(system.n, system.zero_mask, system.rep,
                                    system.ratio, system.groups)
            assert repr(system) == repr(old)
            again = pickle.loads(pickle.dumps(system))
            assert type(again) is ConstraintSystem
            assert again == system and hash(again) == hash(system)
            assert repr(again) == repr(system)

    # equality counts the ratios; the hash leaves them out
    other_ratio = ConstraintSystem(3, 0b100, (0, 0, 2), (F(1), F(3), F(1)), (0b011,))
    assert ConstraintSystem(*fields) == built
    assert other_ratio != built and hash(other_ratio) == hash(built)
    assert len({built, other_ratio}) == 2

    for name in ("n", "zero_mask", "rep", "ratio", "groups", "extra"):
        with pytest.raises(AttributeError):
            setattr(built, name, 0)
    assert (built.n, built.ratio) == (3, fields[3])


def test_sublattice_records_keep_their_kind():
    text = "sublattice { n = 2; generators = [[1, 2]] }\nhom { rows = [[1, 0]] }"
    system = load_record(text, "sublattice")
    assert type(system) is ConstraintSystem and system == canonical_form(2, [(1, 2)])
    assert type(load_record(text, "hom")) is HomMatrix
    with pytest.raises(RecordError, match="no sublattice record in the file"):
        load_record("hom { rows = [[1, 0], [0, 1]] }", "sublattice")
    with pytest.raises(RecordError, match="no hom record in the file"):
        load_record("sublattice { n = 2; zeros = [1] }", "hom")


def test_int_tuple_agrees_with_the_number_rule_and_integral():
    big = 10 ** 4999 + 7  # 5000 digits
    vectors = [
        (1, -2, 0, big),
        (0, 0, 0, 0),
        (),
        (True, False, 3, -1),
        (F(1, 2), -1, F(-4, 6), 0),
        (0.5, -1.25, 3, True),
        ("3/4", "-2", 1, 0.5),
        (big, F(1, 3), -big, "7"),
    ]
    for vec in vectors:
        want = _integral(_exact(vec))
        for given_as in (vec, list(vec)):
            got = _int_tuple(given_as, _exact)
            assert got == want
            assert type(got) is tuple and all(type(v) is int for v in got)
    # an all-int tuple is taken as it is
    assert _int_tuple(vectors[0], _exact) is vectors[0]


NAN, INF = float("nan"), float("inf")
# (vector in 2-space, message from canonical_form, member, closure_subspace)
BAD_GENERATORS = [
    ((NAN, 1), ("cannot convert NaN to integer ratio",) * 3),
    ((INF, 1), ("cannot convert Infinity to integer ratio",) * 3),
    ((1, -INF), ("cannot convert Infinity to integer ratio",) * 3),
    ((1, 2, 3), ("generator dimension mismatch", "vector dimension mismatch",
                 "vector length mismatch")),
    # canonical_form and member read the entries first, closure_subspace
    # checks the length first
    ((NAN, 1, 1), ("cannot convert NaN to integer ratio",) * 2
                  + ("vector length mismatch",)),
]


@pytest.mark.parametrize("vec,messages", BAD_GENERATORS)
def test_bad_generators_raise_the_same_value_error_everywhere(vec, messages):
    routines = (lambda v: canonical_form(2, [(1, 1), v]),
                lambda v: member(full_space(2), v),
                lambda v: closure_subspace(2, [(1, 1), v]))
    for routine, message in zip(routines, messages):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            routine(vec)


def test_double_complement_is_the_zero_ideal_off_the_first_complement():
    systems = dict.fromkeys(canonical_form(n, gens) for n in range(1, 5)
                            for gens in family_representatives(n))
    pairs = {}
    for ambient in systems:
        for a in range(1 << ambient.n):
            pairs[ambient, zero_ideal(ambient, a)] = None
        basis = solution_basis(ambient)
        for pick in range(1 << len(basis)):
            pairs[ambient, canonical_form(ambient.n, [basis[i] for i in bits(pick)])] = None
    for ambient, e in pairs:
        # the two-step definition: e^d, then the complement of its basis
        first = disjoint_complement(ambient, solution_basis(e))
        two_step = (first, disjoint_complement(ambient, solution_basis(first)))
        assert double_complement(ambient, e) == two_step
    # every coordinate ideal is also a sub-pick: 98 systems, 390 pairs
    assert (len(systems), len(pairs)) == (98, 390)
    # the first step still checks membership
    with pytest.raises(ValueError):
        double_complement(canonical_form(2, [(1, 1)]), full_space(2))


# --- regular by theorem, bands and order density by equality --------------------

def _fraction_regularity_scan(cs, k):
    # the scan's first formulation: the infimum's groupwise values as Fractions
    for u in range(1, 1 << k):
        if u & cs.zero_mask:
            continue
        if any(not g & u for g in cs.groups):
            continue
        inf_values = [
            max(Fraction(1) / cs.ratio[x] for x in bits(g & u)) for g in cs.groups
        ]
        if not any(v > 0 for v in inf_values):
            return False
    return True


def _flags_by_containment(ambient, e):
    """The flags by the earlier code path: band and order density by mutual
    containment, regular by the scan."""
    k, inner = oracles.rewritten_over_leads(ambient, e)
    full = full_space(k)
    first, dd = double_complement(full, inner)
    band = contains(inner, dd) and contains(dd, inner)
    order_dense = contains(inner, full)
    return SublatticeFlags(
        ideal=all(g.bit_count() == 1 for g in inner.groups),
        band=band,
        projection_band=band and dim(inner) + dim(first) == k,
        order_dense=order_dense,
        urysohn=order_dense,
        weakly_urysohn=order_dense,
        regular=oracles.regularity_scan(inner, k),
    )


def _assert_flags_match_the_scans(pairs):
    for ambient, e in pairs:
        flags = classify_sublattice(ambient, e)
        assert flags == _flags_by_containment(ambient, e)
        # regular is True by theorem; regularity_scan agrees through the
        # comparison above, the Fraction scan here
        assert flags.regular is True
        k, inner = oracles.rewritten_over_leads(ambient, e)
        assert _fraction_regularity_scan(inner, k) is True


def _family_pairs():
    """The (ambient, e) pairs of the dims 1-4 family: each system in the
    full lattice, and each zero ideal of each system in that system."""
    systems = dict.fromkeys(canonical_form(n, gens) for n in range(1, 5)
                            for gens in family_representatives(n))
    pairs = dict.fromkeys((full_space(e.n), e) for e in systems)
    pairs.update(dict.fromkeys((ambient, zero_ideal(ambient, a))
                               for ambient in systems
                               for a in range(1 << ambient.n)))
    return list(pairs)


def test_sublattice_flags_match_the_fraction_scan_on_each_family():
    pairs = _family_pairs()
    assert len(pairs) == 469
    _assert_flags_match_the_scans(pairs)


@pytest.mark.parametrize("mutation", [None, "ratio-flip"])
def test_band_and_order_density_by_equality_match_mutual_containment(mutation):
    with apply_mutation(mutation):
        pairs = _family_pairs()
        bands = dense = 0
        for ambient, e in pairs:
            dd = double_complement(ambient, e)[1]
            band = band_complement(ambient, e) is not None
            assert band == (contains(e, dd) and contains(dd, e))
            k, inner = oracles.rewritten_over_leads(ambient, e)
            order_dense = classify_sublattice(ambient, e).order_dense
            assert order_dense == contains(inner, full_space(k))
            bands += band
            dense += order_dense
    assert len(pairs) == 469
    assert 0 < dense < bands < len(pairs)


def test_urysohn_flags_match_the_zero_ideal_definition_on_each_family():
    systems = dict.fromkeys(canonical_form(n, gens) for n in range(1, 5)
                            for gens in family_representatives(n))
    pairs = dict.fromkeys((full_space(e.n), e) for e in systems)
    for e in systems:
        for a in range(1 << e.n):
            pairs[full_space(e.n), zero_ideal(e, a)] = None
            pairs[e, zero_ideal(e, a)] = None
    verdicts = set()
    for ambient, e in pairs:
        flags = classify_sublattice(ambient, e)
        want = oracles.urysohn_flags_by_zero_ideals(ambient, e)
        assert (flags.urysohn, flags.weakly_urysohn) == want
        verdicts.add(want)
    assert {u for u, _ in verdicts} == {True, False}
    assert {w for _, w in verdicts} == {True, False}


@st.composite
def ambient_and_sublattice(draw):
    n = draw(st.integers(1, 4))
    entry = st.sampled_from([-2, -1, 0, 1, 2, F(1, 2), F(-3, 2)])
    ambient = canonical_form(n, draw(st.lists(st.tuples(*[entry] * n), max_size=4)))
    basis = solution_basis(ambient)
    # integer combinations of ambient members generate a sublattice of it
    combos = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(basis),
                                    max_size=len(basis)), max_size=3))
    gens = [tuple(sum(c * v[x] for c, v in zip(coeffs, basis)) for x in range(n))
            for coeffs in combos]
    return ambient, canonical_form(n, gens)


@settings(max_examples=200, deadline=None)
@given(st.lists(ambient_and_sublattice(), min_size=1, max_size=5))
def test_sublattice_flags_match_the_fraction_scan_drawn(pairs):
    _assert_flags_match_the_scans(pairs)

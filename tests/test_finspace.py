import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    SUBSET_FAMILIES,
    built_families,
    family_of,
    mask_from,
    set_from,
    spaces_upto,
)
from finlat import (
    InvalidTopology,
    classify_subset,
    discrete_space,
    enumerate_topologies,
    from_stars,
    make_space,
    subspace,
)
from finlat.bitset import bits, full_mask
from finlat.records import load_record


# --- enumeration against the independent filter oracle ---------------------

@pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 29)])
def test_enumeration_matches_brute_oracle(n, count):
    oracle_families = {frozenset(f) for f in oracles.topologies_on(n)}
    assert len(oracle_families) == count
    spaces = list(enumerate_topologies(n))
    assert len(spaces) == count
    assert {family_of(s) for s in spaces} == oracle_families


def test_enumeration_strategies_agree_up_to_four():
    for n in range(1, 5):
        a = [s.opens for s in enumerate_topologies(n, strategy="preorder")]
        b = [s.opens for s in enumerate_topologies(n, strategy="filter")]
        assert a == b
    assert len(list(enumerate_topologies(4))) == 355


def test_enumeration_rejects_bad_input():
    with pytest.raises(InvalidTopology):
        list(enumerate_topologies(0))
    with pytest.raises(ValueError):
        list(enumerate_topologies(2, strategy="guess"))


# --- closure and interior against the family-scan oracle -------------------

def test_closure_interior_exhaustive_small():
    for space in spaces_upto(3):
        family = family_of(space)
        for a in range(1 << space.n):
            sub = set_from(a)
            # the second answer for each mask comes from the space's memo
            for _ in range(2):
                assert set_from(space.interior(a)) == oracles.interior(family, sub)
                assert set_from(space.closure(a)) == oracles.closure(
                    space.n, family, sub
                )
            assert space.is_open(a) == (sub in family)
            assert space.is_closed(a) == (
                frozenset(range(space.n)) - sub in family
            )


def test_subset_flags_follow_definitions():
    for space in spaces_upto(3):
        family = family_of(space)
        pts = frozenset(range(space.n))
        for a in range(1 << space.n):
            sub = set_from(a)
            props = classify_subset(space, a)
            cl = oracles.closure(space.n, family, sub)
            inside = oracles.interior(family, sub)
            assert props.closed == (pts - sub in family)
            assert props.dense == (cl == pts)
            assert props.nowhere_dense == (not oracles.interior(family, cl))
            assert props.canonically_closed == (
                sub == oracles.closure(space.n, family, inside)
            )
            assert props.canonically_open == (sub == oracles.interior(family, cl))
            assert props.clopen == (sub in family and pts - sub in family)


def test_dense_and_closed_listings():
    for space in spaces_upto(3):
        family = family_of(space)
        pts = frozenset(range(space.n))
        want_dense = {
            s for s in oracles.powerset(pts)
            if oracles.closure(space.n, family, s) == pts
        }
        subsets = range(space.full + 1)
        assert {set_from(m) for m in subsets if space.is_dense(m)} == want_dense
        want_closed = {pts - u for u in family}
        assert {set_from(m) for m in subsets if space.is_closed(m)} == want_closed


# --- constructors and validation -------------------------------------------

def test_make_space_requires_closure_axioms():
    with pytest.raises(InvalidTopology):
        make_space(2, [0b00, 0b01])  # missing the full set
    with pytest.raises(InvalidTopology):
        make_space(2, [0b01, 0b11])  # missing the empty set
    with pytest.raises(InvalidTopology):
        make_space(3, [0, 0b001, 0b010, 0b111])  # union {0,1} missing
    with pytest.raises(InvalidTopology):
        make_space(2, [0, 0b100, 0b11])  # stray point


@pytest.mark.parametrize("n", [1, 2, 3])
def test_make_space_accepts_exactly_the_topologies(n):
    # every family of subsets of n points: 256 of them at n = 3
    pts = frozenset(range(n))
    for choice in range(1 << (1 << n)):
        masks = [m for m in range(1 << n) if choice >> m & 1]
        family = {set_from(m) for m in masks}
        if oracles.is_topology(n, family):
            assert family_of(make_space(n, masks)) == family
            continue
        with pytest.raises(InvalidTopology) as err:
            make_space(n, masks)
        if frozenset() in family and pts in family:
            # the witness is the least member of the generated topology
            # that the family lacks
            missing = oracles.generated_topology(family) - family
            assert err.value.witness == min(mask_from(u) for u in missing)


def test_discrete_sixteen_point_record_loads_quickly():
    n = 16
    opens = ", ".join(
        "[%s]" % ",".join(str(x) for x in bits(m)) for m in range(1 << n)
    )
    text = "space { n = %d; opens = [ %s ] }" % (n, opens)
    start = time.perf_counter()
    space = load_record(text, "space")
    assert time.perf_counter() - start < 5
    assert space == discrete_space(n)
    assert len(space.opens) == 1 << n


def test_from_stars_validates_axioms():
    with pytest.raises(InvalidTopology):
        from_stars(2, (0b10, 0b10))  # 0 not in its own star
    with pytest.raises(InvalidTopology):
        from_stars(3, (0b011, 0b110, 0b100))  # 1 in star(0) but star(1) leaks


def test_star_is_minimal_open_neighbourhood():
    for space in spaces_upto(3):
        family = family_of(space)
        for x in range(space.n):
            candidates = [u for u in family if x in u]
            smallest = min(candidates, key=len)
            assert set_from(space.stars[x]) == frozenset.intersection(*candidates)
            assert len(set_from(space.stars[x])) == len(smallest)


def test_discrete_space_shape():
    d = discrete_space(3)
    assert d.is_discrete()
    assert len(d.opens) == 8


def test_subspace_carries_relative_topology():
    for space in spaces_upto(3):
        family = family_of(space)
        for a in range(1, 1 << space.n):
            sub, mapping = subspace(space, a)
            carrier = set_from(a)
            relative = {u & carrier for u in family}
            got = {
                frozenset(mapping[i] for i in bits(u)) for u in sub.opens
            }
            assert got == relative


@pytest.mark.parametrize("n", [1, 2, 3])
def test_subspace_refuses_masks_outside_the_space(n):
    space = discrete_space(n)
    for bad in (-1, -(1 << n), 1 << n, (1 << n) | 1):
        with pytest.raises(ValueError, match="not a subset of the points"):
            subspace(space, bad)
    with pytest.raises(InvalidTopology):
        subspace(space, 0)


# --- structural invariants under random stars ------------------------------

@st.composite
def star_tables(draw, min_n=1, max_n=5):
    n = draw(st.integers(min_n, max_n))
    stars = []
    for x in range(n):
        extra = draw(st.integers(0, full_mask(n)))
        stars.append(extra | (1 << x))
    # transitive closure turns any reflexive table into a valid space
    changed = True
    while changed:
        changed = False
        for x in range(n):
            reach = stars[x]
            for y in bits(stars[x]):
                reach |= stars[y]
            if reach != stars[x]:
                stars[x] = reach
                changed = True
    return from_stars(n, tuple(stars))


@settings(max_examples=120, deadline=None)
@given(star_tables(), star_tables(min_n=17, max_n=24))
def test_operator_laws(space, wide):
    # wide has 17 to 24 points, past the 16-point record limit: the operators
    # and their lookups have no size cutoff
    for sp in (space, wide):
        full = sp.full
        for a in (0, full, sp.stars[0], full ^ sp.stars[0] & ~1):
            cl = sp.closure(a)
            assert cl & a == a
            assert sp.closure(cl) == cl
            assert sp.interior(a) == full & ~sp.closure(full & ~a)
            assert sp.is_open(sp.interior(a))
            assert sp.is_closed(cl)


# --- the subset families the literal procedures quantify over ----------------

def _oracle_families(space):
    family = family_of(space)
    pts = frozenset(range(space.n))
    out = {name: [] for name in SUBSET_FAMILIES}
    for a in range(space.full + 1):
        sub = set_from(a)
        cl = oracles.closure(space.n, family, sub)
        flags = {
            "nonempty_opens": sub in family and bool(sub),
            "proper_closed_sets": pts - sub in family and sub != pts,
            "dense_sets": cl == pts,
            "dense_opens": sub in family and cl == pts,
            "nowhere_dense_sets": not oracles.interior(family, cl),
            "canonically_closed_sets": sub == oracles.closure(
                space.n, family, oracles.interior(family, sub)
            ),
        }
        for name, keep in flags.items():
            if keep:
                out[name].append(a)
    return {name: tuple(masks) for name, masks in out.items()}


def test_families_match_the_oracle_scan_up_to_four_points():
    spaces = spaces_upto(4)
    assert len(spaces) == 389
    for space in spaces:
        want = _oracle_families(space)
        space.tabulate()
        assert {name: getattr(space, name) for name in SUBSET_FAMILIES} == want


@settings(max_examples=60, deadline=None)
@given(star_tables(max_n=8))
def test_families_match_the_subset_flags(space):
    props = [classify_subset(space, a) for a in range(space.full + 1)]
    space.tabulate()
    keep = {
        "nonempty_opens": lambda a, p: a != 0 and space.is_open(a),
        "proper_closed_sets": lambda a, p: p.closed and a != space.full,
        "dense_sets": lambda a, p: p.dense,
        "dense_opens": lambda a, p: space.is_open(a) and p.dense,
        "nowhere_dense_sets": lambda a, p: p.nowhere_dense,
        "canonically_closed_sets": lambda a, p: p.canonically_closed,
    }
    for name in SUBSET_FAMILIES:
        want = tuple(a for a, p in enumerate(props) if keep[name](a, p))
        assert getattr(space, name) == want, name


@pytest.mark.parametrize("name", SUBSET_FAMILIES)
def test_a_family_is_built_on_first_use_and_kept(name):
    # a fresh space, so no earlier test has tabulated it: the family is
    # absent until the first tabulate, which sets all six, and a second
    # tabulate keeps the same tuple
    space = from_stars(3, (0b001, 0b011, 0b111))
    assert built_families(space) == []
    with pytest.raises(AttributeError):
        getattr(space, name)
    space.tabulate()
    assert built_families(space) == list(SUBSET_FAMILIES)
    family = getattr(space, name)
    space.tabulate()
    assert getattr(space, name) is family

import pytest

import oracles
from conftest import family_of, set_from, spaces_upto
from finlat import (
    classify_map,
    eqq_condition_i,
    eqq_condition_ii,
    from_blocks,
    from_pairs,
    identity_relation,
    is_closed_relation,
    make_space,
    meet,
    quotient,
    saturate,
)
from finlat.equivrel import PartitionError, _partitions_of


def all_partitions(n):
    return list(oracles.set_partitions(range(n)))


def relations_on(space):
    return [from_blocks(space, p) for p in all_partitions(space.n)]


# --- construction and canonical form ----------------------------------------

def test_blocks_are_canonically_ordered():
    space = make_space(3, [0, 0b111])
    rel = from_blocks(space, [[2], [1, 0]])
    assert rel.blocks == (0b011, 0b100)
    assert rel.block_index == (0, 0, 1)
    assert rel.block_of(1) == 0b011


def test_relations_equal_exactly_on_one_space_with_one_partition():
    space = make_space(3, [0, 0b111])
    other = make_space(3, [0, 0b001, 0b111])
    rel = from_blocks(space, [[0, 1], [2]])
    assert rel == from_blocks(space, [[2], [1, 0]])
    # same space, other blocks; same blocks, other space
    assert rel != from_blocks(space, [[0], [1, 2]])
    assert rel != from_blocks(other, [[0, 1], [2]])
    assert rel != rel.blocks
    assert len({rel, from_blocks(space, [[0], [1, 2]]),
                from_blocks(other, [[0, 1], [2]])}) == 3


def test_partition_validation():
    space = make_space(2, [0, 0b11])
    with pytest.raises(PartitionError):
        from_blocks(space, [[0]])  # misses point 1
    with pytest.raises(PartitionError):
        from_blocks(space, [[0, 1], [1]])  # overlap
    with pytest.raises(PartitionError):
        from_blocks(space, [[0, 1], []])  # empty block
    with pytest.raises(PartitionError):
        from_blocks(space, [[0, 1, 2]])  # out of range


def test_from_pairs_and_constants():
    space = make_space(3, [0, 0b111])
    assert from_pairs(space, [(0, 2)]).blocks == (0b101, 0b010)
    assert identity_relation(space).blocks == (1, 2, 4)
    assert from_pairs(space, [(0, 1), (1, 2)]).blocks == (0b111,)


@pytest.mark.parametrize("point", (-1, 3))
def test_points_outside_the_space_are_refused(point):
    space = make_space(3, [0, 0b111])
    with pytest.raises(ValueError, match="point %d outside 0..2" % point):
        from_pairs(space, [(point, 0)])
    with pytest.raises(ValueError, match="point %d outside 0..2" % point):
        from_pairs(space, [(0, point)])
    with pytest.raises(ValueError, match="point %d outside 0..2" % point):
        identity_relation(space).block_of(point)


def test_partition_generator_hits_bell_numbers():
    for k in range(5):
        assert len(list(_partitions_of(k))) == oracles.BELL[k]
        assert len(all_partitions(k)) == oracles.BELL[k]


# --- saturation --------------------------------------------------------------

def test_saturate_is_union_of_touched_blocks():
    for space in spaces_upto(3):
        for rel in relations_on(space):
            blocks = [set_from(b) for b in rel.blocks]
            for a in range(1 << space.n):
                sub = set_from(a)
                want = frozenset().union(
                    *(b for b in blocks if b & sub)
                ) if any(b & sub for b in blocks) else frozenset()
                assert set_from(saturate(rel, a)) == want


def test_saturate_refuses_masks_outside_the_space():
    # before the check, 0b100 saturated to 0 and -1 to 3 on two points
    for space in spaces_upto(2):
        n = space.n
        for rel in relations_on(space):
            for bad in (-1, -(1 << n), 1 << n, (1 << n) | 1):
                with pytest.raises(ValueError, match="not a subset of the points"):
                    saturate(rel, bad)


# --- quotient topology ---------------------------------------------------------

def test_quotient_carries_the_final_topology():
    for space in spaces_upto(4):
        family = family_of(space)
        for rel in relations_on(space):
            blocks = [set_from(b) for b in rel.blocks]
            qspace, projection = quotient(rel)
            assert projection.table == rel.block_index
            got = family_of(qspace)
            want = oracles.quotient_family(space.n, family, blocks)
            assert got == want
            assert classify_map(projection).quotient_map
            assert classify_map(projection).surjective


def test_closed_relation_matches_direct_scan():
    for space in spaces_upto(3):
        family = family_of(space)
        pts = frozenset(range(space.n))
        closed_sets = [pts - u for u in family]
        for rel in relations_on(space):
            blocks = [set_from(b) for b in rel.blocks]

            def sat(sub):
                hit = [b for b in blocks if b & sub]
                return frozenset().union(*hit) if hit else frozenset()

            want = all(sat(c) in closed_sets for c in closed_sets)
            assert is_closed_relation(rel) == want


# --- meet ---------------------------------------------------------------------

def test_meet_is_coarsest_common_refinement():
    space = make_space(4, [0, 0b1111])
    r1 = from_blocks(space, [[0, 1], [2, 3]])
    r2 = from_blocks(space, [[0, 2], [1, 3]])
    assert meet(r1, r2).blocks == (1, 2, 4, 8)
    r3 = from_blocks(space, [[0, 1, 2], [3]])
    assert meet(r1, r3).blocks == (0b0011, 0b0100, 0b1000)


# --- block-space conditions -----------------------------------------------------

def oracle_condition_i(space, rel):
    family = family_of(space)
    blocks = [set_from(b) for b in rel.blocks]
    for u in family:
        if not u:
            continue
        touched = [b for b in blocks if b & u]
        good = False
        for pick in oracles.powerset(range(len(touched))):
            if not pick:
                continue
            union = frozenset().union(*(touched[i] for i in pick))
            if union in family:
                good = True
                break
        if not good:
            return False
    return True


def oracle_condition_ii(space, rel):
    family = family_of(space)
    pts = frozenset(range(space.n))
    blocks = [set_from(b) for b in rel.blocks]
    for u in family:
        c = pts - u
        if c == pts:
            continue
        sat = frozenset().union(*(b for b in blocks if b & c)) if any(
            b & c for b in blocks
        ) else frozenset()
        if sat == pts:
            return False
    return True


def test_block_conditions_match_oracles():
    seen = set()
    for space in spaces_upto(4):
        for rel in relations_on(space):
            got = (eqq_condition_i(rel), eqq_condition_ii(rel))
            assert got == (oracle_condition_i(space, rel),
                           oracle_condition_ii(space, rel))
            seen.add(got)
    assert seen == {(False, False), (False, True), (True, False), (True, True)}

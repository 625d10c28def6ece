from finlat.bitset import (
    bit,
    bits,
    full_mask,
    mask_of,
    mask_to_list,
)


def test_bit_and_full():
    assert bit(0) == 1
    assert bit(3) == 8
    assert full_mask(0) == 0
    assert full_mask(4) == 0b1111


def test_mask_round_trip():
    for points in ([], [0], [2, 0, 5], [1, 1, 3]):
        mask = mask_of(points)
        assert mask_to_list(mask) == sorted(set(points))
        assert mask_of(mask_to_list(mask)) == mask


def test_bits_iterates_ascending():
    assert list(bits(0)) == []
    assert list(bits(0b101101)) == [0, 2, 3, 5]

import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert bits(0) == ()
    assert bits(0b101101) == (0, 2, 3, 5)


def _positions(m):
    return [i for i in range(m.bit_length()) if m >> i & 1]


@pytest.mark.parametrize("m", [0, 255, 256, 2**16 - 1, 2**16])
def test_bits_at_byte_edges(m):
    got = bits(m)
    assert type(got) is tuple
    assert list(got) == _positions(m)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**2048 - 1))
def test_bits_is_the_tuple_of_set_positions(m):
    got = bits(m)
    assert type(got) is tuple
    assert list(got) == _positions(m)


class _Overtime(Exception):
    pass


def _raise_overtime(signum, frame):
    raise _Overtime


@pytest.mark.parametrize("m", [-1, -256, -(2**70)])
def test_bits_rejects_a_negative_mask(m):
    # a negative int has infinitely many set bits, and m >> 8 stays
    # negative; the timer turns a loop that never ends into a failure
    previous = signal.signal(signal.SIGALRM, _raise_overtime)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        with pytest.raises(ValueError):
            bits(m)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

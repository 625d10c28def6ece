"""Small helpers for subsets-of-points encoded as int bitmasks."""


def bit(i):
    return 1 << i


def full_mask(n):
    return (1 << n) - 1


def bits(mask):
    """Iterate set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(points):
    m = 0
    for p in points:
        m |= 1 << p
    return m


def mask_to_list(mask):
    return list(bits(mask))

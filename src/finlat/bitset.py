"""Small helpers for subsets-of-points encoded as int bitmasks.

`bits` reads a mask a byte at a time from one fixed 256-entry table of
per-byte bit positions; each byte above the first adds its bit offset to
the table's positions, collected in one list, so `bits` is linear in the
mask width.  The table is the same for every mask width, so its memory
stays fixed however wide the masks get.
"""

# the set bit positions of each byte value, ascending
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def bit(i):
    return 1 << i


def full_mask(n):
    return (1 << n) - 1


def bits(mask):
    """The set bit positions of a nonnegative mask, ascending, as a tuple."""
    if mask < 0:
        # a negative int has infinitely many set bits: -1 >> 8 == -1
        raise ValueError("bits needs a nonnegative mask, not %r" % (mask,))
    low = _BYTE_BITS[mask & 255]
    mask >>= 8
    if not mask:
        return low
    out = list(low)
    offset = 8
    while mask:
        byte = mask & 255
        if byte:
            out += [offset + i for i in _BYTE_BITS[byte]]
        mask >>= 8
        offset += 8
    return tuple(out)


def mask_of(points):
    m = 0
    for p in points:
        m |= 1 << p
    return m


def mask_to_list(mask):
    return list(bits(mask))

"""Bitmask helpers for vertex subsets.

A vertex subset of the free layer is an int whose bit v is set when vertex v
belongs to the subset. Vertices are the indices 0..n_v-1.
"""


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def mask_members(mask: int) -> list:
    """Set bits of ``mask`` in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


"""Bitmask helpers for vertex sets.

Vertex sets are plain Python ints used as bitsets: bit v set means vertex v
is a member. Python ints are arbitrary precision, so the same representation
covers small and large graphs.
"""


def bit(v):
    return 1 << v


def mask_of(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask):
    """Yield the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def to_tuple(mask):
    return tuple(bits(mask))


def popcount(mask):
    return mask.bit_count()


def lowest_bit(mask):
    return (mask & -mask).bit_length() - 1


def components(adj, mask):
    """Connected components of ``mask`` under ``adj``, which maps a vertex to
    its adjacency mask, as masks ordered by smallest member vertex."""
    comps = []
    rest = mask
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= adj[v]
            frontier = grow & mask & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def submasks(mask):
    """Yield every submask of ``mask``, in descending numeric order."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask

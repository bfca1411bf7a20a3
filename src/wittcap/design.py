"""Block systems on int masks: cover counts and the automorphism search.

A block system on n points is a sequence of ints, one per block, with bit i
set iff point i lies in the block.  Nothing here knows what the points are:
this module imports only the standard library, so the counts it returns do
not depend on the PG(5,3) arithmetic that produced the blocks.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence


@lru_cache(maxsize=None)
def _lane_masks(n: int) -> tuple[int, ...]:
    """low[i] holds 0xFF in every byte lane m of a 2^n-lane table whose
    index m has bit i clear, and 0 elsewhere."""
    return tuple(
        int.from_bytes((b"\xff" * (1 << i) + bytes(1 << i)) * (1 << (n - 1 - i)), "little")
        for i in range(n)
    )


def cover_counts(masks: Sequence[int], n: int) -> bytes:
    """Entry m is the number of masks (subsets of n points, as ints) that
    contain subset m, for all 2^n subsets at once.

    One byte lane per subset, filled by the superset-sum transform: step i
    adds lane m + 2^i into lane m for every m with bit i clear.  A lane
    never exceeds len(masks), so no step carries into its neighbour.
    """
    if n > 16:
        raise ValueError(f"a cover table holds at most 16 points, not {n}")
    if len(masks) > 255:
        raise ValueError(f"a byte lane counts at most 255 blocks, not {len(masks)}")
    low, high = min(masks, default=0), max(masks, default=0)
    if low < 0 or high >> n:
        raise ValueError(f"mask {low if low < 0 else high} is not a subset of {n} points")
    counts = bytearray(1 << n)
    for m in masks:
        counts[m] += 1
    x = int.from_bytes(counts, "little")
    for i, low in enumerate(_lane_masks(n)):
        x += (x >> (8 << i)) & low
    return x.to_bytes(1 << n, "little")


@lru_cache(maxsize=None)
def subset_masks(n: int, k: int) -> tuple[int, ...]:
    """The k-subsets of range(n) as int masks, in itertools.combinations order."""
    return tuple(map(sum, itertools.combinations([1 << i for i in range(n)], k)))


def stabiliser_chain(
    masks: Sequence[int], n: int
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, tuple[int, ...]], ...]]:
    """The group of permutations of range(n) that map the set of blocks onto
    itself (a repeated block counts once), as (base, orbit_lengths,
    generators): the order is the product of the orbit lengths, and
    generators holds (depth, perm) pairs in the order found, where perm[i]
    is the image of point i and perm fixes base[:depth] pointwise but moves
    base[depth].

    The chain is walked from the deepest base point up.  At depth d the
    group is the pointwise stabiliser of base[:d], and the orbit of base[d]
    starts as {base[d]}.  Each candidate image outside the orbit so far is
    settled by one prefix search with base[:d] held fixed: the image of
    every partially mapped block must stay inside some block (a nonzero
    `cover_counts` entry), and a complete map counts only if it permutes
    the blocks.  A map found is kept as a generator, and the orbit is
    closed under every generator kept so far.

    This is exact.  Every generator was found at a depth >= d, so it fixes
    base[:d] pointwise, and the closed orbit lies inside the true orbit.
    Every candidate outside the closed orbit was searched directly.  More
    than 16 points or 255 distinct blocks are refused (ValueError).
    """
    block_masks = sorted(set(masks))
    blocks_of = tuple(
        tuple(bi for bi, bm in enumerate(block_masks) if bm >> i & 1) for i in range(n)
    )
    # coverable[m] is nonzero iff the points of m lie in a common block.
    coverable = cover_counts(block_masks, n)
    # Constrained points first: order the base by block degree.  An image
    # must lie on as many blocks as its preimage.
    base = sorted(range(n), key=lambda i: (-len(blocks_of[i]), i))
    peers = tuple(
        tuple(v for v in range(n) if len(blocks_of[v]) == len(blocks_of[p]))
        for p in range(n)
    )
    # Every point starts fixed; the walk below releases one base point per depth.
    images = list(block_masks)
    used = (1 << n) - 1
    # assign[p] is the image of point p.  A search at depth d writes only
    # the points of base[d:], and depths are walked upwards, so the points
    # of base[:d] still map to themselves.
    assign = list(range(n))

    def places(depth: int, v: int, used: int) -> bool:
        """With base[:depth] mapped as `images` and `used` record, does
        sending base[depth] to v extend to a block permutation?"""
        bit = 1 << v
        mine = blocks_of[base[depth]]
        for bi in mine:
            if not coverable[images[bi] | bit]:
                return False
        for bi in mine:
            images[bi] |= bit
        assign[base[depth]] = v
        used |= bit
        if depth + 1 == n:
            found = sorted(images) == block_masks
        else:
            nxt = peers[base[depth + 1]]
            found = any(places(depth + 1, w, used) for w in nxt if not used >> w & 1)
        for bi in mine:
            images[bi] ^= bit
        return found

    gens: list[tuple[int, tuple[int, ...]]] = []
    orbit_lengths = [0] * n
    for depth in range(n - 1, -1, -1):
        # Release base[depth]: the state now holds base[:depth] fixed, since
        # `places` undoes its own writes to `images`.
        bit = 1 << base[depth]
        for bi in blocks_of[base[depth]]:
            images[bi] ^= bit
        used ^= bit
        orbit = {base[depth]}
        for v in peers[base[depth]]:
            if used >> v & 1 or v in orbit or not places(depth, v, used):
                continue
            gens.append((depth, tuple(assign)))
            frontier = list(orbit)
            while frontier:
                x = frontier.pop()
                for _, g in gens:
                    if g[x] not in orbit:
                        orbit.add(g[x])
                        frontier.append(g[x])
        orbit_lengths[depth] = len(orbit)
    del places  # the closure refers to itself: free it without the collector
    return tuple(base), tuple(orbit_lengths), tuple(gens)

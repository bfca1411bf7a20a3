"""Block systems on int masks: cover counts and the automorphism search.

A block system on n points is a sequence of ints, one per block, with bit i
set iff point i lies in the block.  Nothing here knows what the points are:
this module imports only the standard library, so the counts it returns do
not depend on the PG(5,3) arithmetic that produced the blocks.
"""

from __future__ import annotations

import itertools
import struct
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


_PLUS_ONE = bytes(range(1, 256)) + b"\xff"   # translate table: byte -> byte + 1


@lru_cache(maxsize=None)
def _weight_lanes(n: int) -> tuple[int, ...]:
    """ones[k] holds 0x01 in every byte lane m of a 2^n-lane table whose
    index m has k bits set, and 0 elsewhere, for k in range(n + 1)."""
    weights = b"\x00"
    for _ in range(n):   # lane m + 2^i, for m < 2^i, has one bit more than lane m
        weights += weights.translate(_PLUS_ONE)
    return tuple(
        int.from_bytes(weights.translate(bytes(k) + b"\x01" + bytes(255 - k)), "little")
        for k in range(n + 1)
    )


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
    settled by one prefix search with base[:d] held fixed.  An automorphism
    preserves every cover count, so once base[:e + 1] is mapped, every
    block B through base[e] must send B & prefix, the prefix being the
    points of base[:e + 1], to a subset with the same `cover_counts` entry;
    a complete map counts only if it permutes the blocks.  A map found is
    kept as a generator, and the orbit is closed under every generator kept
    so far.

    The images of all blocks are one int, 16 bits per block: placing point
    p at v adds lane[p] << v, where lane[p] has bit 16 bi set for each
    block bi through p.  A check on k mapped points cannot fail when every
    k-subset has the same cover count, so it is skipped; on the Witt design
    that leaves one check per block, at its last base point.

    This is exact.  Every generator was found at a depth >= d, so it fixes
    base[:d] pointwise, and the closed orbit lies inside the true orbit.
    Every candidate outside the closed orbit was searched directly.  More
    than 16 points or 255 distinct blocks are refused (ValueError).
    """
    block_masks = sorted(set(masks))
    coverable = cover_counts(block_masks, n)
    lanes = struct.Struct(f"<{len(block_masks)}H")
    packed = int.from_bytes(lanes.pack(*block_masks), "little")
    lane_ones = int.from_bytes(lanes.pack(*[1] * len(block_masks)), "little")
    lane = [packed >> p & lane_ones for p in range(n)]
    degree = [x.bit_count() for x in lane]
    # An image must lie on as many blocks as its preimage.  The base takes
    # the smallest such cell first, then the most constrained point.
    peers = tuple(tuple(v for v in range(n) if degree[v] == degree[p]) for p in range(n))
    base = sorted(range(n), key=lambda i: (len(peers[i]), -degree[i], i))
    prefix = list(itertools.accumulate(1 << p for p in base))
    # uniform[k]: every k-subset has the cover count of the first one.
    table = int.from_bytes(coverable, "little")
    uniform = [
        table & ones * 0xFF == ones * coverable[(1 << k) - 1]
        for k, ones in enumerate(_weight_lanes(n))
    ]
    # checks[d]: (shift, count) for each block B through base[d] whose
    # B & prefix[d] has a size k with uneven cover counts.  `ranked` holds
    # each block with bit d for base[d]: with k of its bits left, the top
    # one is its k-th base point.  Sizes below the least uneven k are skipped.
    checks: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    ranked = sum(lane[p] << d for d, p in enumerate(base)).to_bytes(lanes.size, "little")
    least = next((k for k in range(1, n + 1) if not uniform[k]), n + 1)
    for bi, (bm, rm) in enumerate(zip(block_masks, lanes.unpack(ranked))):
        for k in range(rm.bit_count(), least - 1, -1):
            d = rm.bit_length() - 1
            if not uniform[k]:
                checks[d].append((16 * bi, coverable[bm & prefix[d]]))
            rm ^= 1 << d
    # assign[p] is the image of point p.  A search at depth d writes only
    # the points of base[d:], and depths are walked upwards, so the points
    # of base[:d] still map to themselves.
    assign = list(range(n))

    def places(depth: int, v: int, images: int, used: int) -> bool:
        """With base[:depth] mapped as `images` and `used` record, does
        sending base[depth] to v extend to a block permutation?"""
        p = base[depth]
        images += lane[p] << v
        for shift, count in checks[depth]:
            if coverable[images >> shift & 0xFFFF] != count:
                return False
        assign[p] = v
        if depth + 1 == n:
            return sorted(lanes.unpack(images.to_bytes(lanes.size, "little"))) == block_masks
        used |= 1 << v
        for w in peers[base[depth + 1]]:
            if not used >> w & 1 and places(depth + 1, w, images, used):
                return True
        return False

    gens: list[tuple[int, tuple[int, ...]]] = []
    orbit_lengths = [0] * n
    # Every point starts fixed; the walk below releases one base point per depth.
    images = packed
    used = (1 << n) - 1
    for depth in range(n - 1, -1, -1):
        p = base[depth]
        images -= lane[p] << p
        used ^= 1 << p
        orbit = {p}
        for v in peers[p]:
            if used >> v & 1 or v in orbit or not places(depth, v, images, used):
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

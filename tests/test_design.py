import math
import random

import pytest

from wittcap import cap as capmod
from wittcap import cosets, pg
from wittcap import design as designmod
from wittcap.veronese import veronese_map


def _cover_count_cases(design):
    """Seeded block systems on at most 8 points, with empty, repeated and
    nested blocks, then the Witt design with one bit per point."""
    rng = random.Random(23)
    cases = []
    for n in range(9):
        for _ in range(6):
            masks = [rng.getrandbits(n) for _ in range(rng.randint(0, 12))]
            if masks:
                masks += [0, masks[0], masks[-1] & rng.getrandbits(n)]
            cases.append((masks, n))
    return cases + [(design._block_masks, 12)]


def test_cover_counts_match_brute_force(design):
    for masks, n in _cover_count_cases(design):
        want = bytes(sum(b & m == m for b in masks) for m in range(1 << n))
        assert designmod.cover_counts(masks, n) == want, (masks, n)


def test_cover_counts_refuses_what_a_byte_lane_table_cannot_hold():
    # 2^16 lanes is the largest table; 255 blocks the fullest lane
    assert designmod.cover_counts([(1 << 16) - 1], 16) == b"\x01" * (1 << 16)
    assert designmod.cover_counts([0] * 255, 1) == bytes([255, 0])
    lanes_before = designmod._lane_masks.cache_info().currsize
    with pytest.raises(ValueError, match="17"):
        designmod.cover_counts([], 17)
    with pytest.raises(ValueError, match="256"):
        designmod.cover_counts([0] * 256, 1)
    assert designmod._lane_masks.cache_info().currsize == lanes_before


@pytest.mark.parametrize("mask", [-1, 8], ids=["negative", "beyond_the_points"])
@pytest.mark.parametrize("kernel", [designmod.cover_counts, designmod.stabiliser_chain],
                         ids=["cover_counts", "stabiliser_chain"])
def test_kernels_refuse_a_mask_outside_the_points(kernel, mask):
    # a negative index would count into the full-set lane, a large one past the table
    with pytest.raises(ValueError, match=f"mask {mask} is not a subset of 3 points"):
        kernel([0b011, mask], 3)


def test_stabiliser_chain_generators_on_small_designs(small_block_systems, checked_chain):
    # the generators are a strong generating set: they generate a group of
    # exactly the order the orbit lengths give
    for masks, n in small_block_systems:
        orbit_lengths, gens = checked_chain(masks, n)
        group = {tuple(range(n))}
        frontier = list(group)
        while frontier:
            h = frontier.pop()
            for g in gens:
                gh = tuple(g[i] for i in h)
                if gh not in group:
                    group.add(gh)
                    frontier.append(gh)
        assert len(group) == math.prod(orbit_lengths), (masks, n)


def _presence_table(masks, n):
    """Byte m is 1 if subset m lies in some block, else 0: every submask of
    every block, by the walk sub -> (sub - 1) & bm, plus 0."""
    table = bytearray(1 << n)
    table[0] = 1
    for bm in masks:
        sub = bm
        while sub:
            table[sub] = 1
            sub = (sub - 1) & bm
    return bytes(table)


def test_stabiliser_chain_matches_the_submask_walk(
    model, base, monkeypatch, small_block_systems
):
    # On a 0/1 presence table, matching a prefix's count is the former rule:
    # its image must lie in some block.  Both rules cut only branches with no
    # automorphism below them, and the base does not depend on the table, so
    # the depth-first search meets the same first map at each candidate: the
    # same base, orbit lengths and generators, in the same order.
    twelve_sets = [capmod.build_cap(model, veronese_map(pre)).points
                   for pre in pg.enumerate_points(2)]
    twelve_sets += [
        cosets.twelve_set(model, base, quad).points
        for quad in ((0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0))
    ]
    rng = random.Random(8)
    twelve_sets += [rng.sample(pg.enumerate_points(5), 12) for _ in range(8)]
    systems = [(capmod.blocks(s)._block_masks, 12) for s in twelve_sets]
    systems += small_block_systems
    chains = [designmod.stabiliser_chain(masks, n) for masks, n in systems]
    monkeypatch.setattr(designmod, "cover_counts", _presence_table)
    assert [designmod.stabiliser_chain(masks, n) for masks, n in systems] == chains


def test_weight_lanes_select_the_subsets_of_each_size():
    for n in range(9):
        lanes = designmod._weight_lanes(n)
        assert len(lanes) == n + 1
        for k, ones in enumerate(lanes):
            want = bytes(m.bit_count() == k for m in range(1 << n))
            assert ones.to_bytes(1 << n, "little") == want, (n, k)

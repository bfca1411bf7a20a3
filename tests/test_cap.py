import dataclasses
import gc
import itertools
import math
import random
import re
from collections import Counter

import pytest

from wittcap import cap as capmod
from wittcap import cosets, gf3, pg
from wittcap.veronese import classify_conic_plane, veronese_map

EXPECTED_MISSING_PRIME_LITERALS = [
    (0, 0, 0, 1, 0, 1),
    (0, 0, 0, 2, 2, 1),
    (0, 0, 0, 2, 1, 1),
]


def test_cap_map_values():
    assert capmod.cap_map((0, 1, 0)) == (1, 0, 0, 1, 0, 0)
    assert capmod.cap_map((0, 0, 1)) == (1, 0, 0, 0, 0, 1)
    assert capmod.cap_map((1, 1, 1)) == (1, 2, 2, 2, 2, 2)


def test_cap_map_rejects_the_removed_point():
    with pytest.raises(ValueError, match="domain"):
        capmod.cap_map((1, 0, 0))
    with pytest.raises(ValueError, match="domain"):
        capmod.cap_map((2, 0, 0))  # same projective point


@pytest.mark.parametrize("pre", pg.enumerate_points(2), ids=pg.format_point)
def test_cap_map_agrees_with_internal_partner(internal_partner, pre):
    base = veronese_map(pre)
    domain = capmod.cap_domain(base)
    assert domain == tuple(x for x in pg.enumerate_points(2) if x != pre)
    for x in domain:
        assert capmod.cap_map(x, base) == internal_partner(base, veronese_map(x))
    with pytest.raises(ValueError, match="domain"):
        capmod.cap_map(pre, base)


def test_cap_domain_rejects_non_surface_base():
    with pytest.raises(ValueError, match="not a surface point"):
        capmod.cap_domain((1, 1, 0, 0, 0, 0))


def test_both_constructions_agree(model, cap):
    formula = capmod.build_cap_from_formula(model)
    assert cap.points == formula.points


def test_cap_has_12_points_disjoint_from_surface(model, cap):
    assert len(cap.points) == 12
    assert not cap.points & set(model.points)


def test_cap_rejects_non_surface_base(model):
    with pytest.raises(ValueError):
        capmod.build_cap(model, (1, 1, 0, 0, 0, 0))


def test_no_three_cap_points_collinear(cap):
    assert capmod.is_cap(cap.points)


def test_is_cap_refuses_a_point_that_is_not_canonical():
    # (2,2,0,0,0,0) is the point (1,1,0,0,0,0), on the line through the other
    # two; compared as written it was never found there
    with pytest.raises(ValueError, match="2:2:0:0:0:0 is not a canonical point"):
        capmod.is_cap([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (2, 2, 0, 0, 0, 0)])
    assert not capmod.is_cap([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0)])


def test_cap_for_every_base_point(model):
    # the construction is projectively homogeneous
    for p in model.points:
        k = capmod.build_cap(model, p)
        assert len(k.points) == 12
        assert capmod.is_cap(k.points)
        assert capmod.verify_witt(capmod.blocks(k)).ok


def test_block_count_matches_design_counting(design):
    # b = C(12,5) / C(6,5) for a 5-(12,6,1) design
    assert len(design.blocks) == math.comb(12, 5) // math.comb(6, 5) == 132


def test_blocks_are_six_point_sections(cap, design):
    for b in design.blocks:
        assert len(b.points) == 6
        assert b.points == {p for p in cap.points if pg.incident(p, b.prime)}


@pytest.mark.parametrize("pre", pg.enumerate_points(2), ids=pg.format_point)
def test_blocks_equal_a_rebuild_by_incidence_tests(model, pre):
    # the sections as they were once read: every 6-point prime re-tested
    # point by point with pg.incident
    cap = capmod.build_cap(model, veronese_map(pre))
    pts = sorted(cap.points)
    expected = tuple(
        capmod.Block(points=frozenset(p for p in pts if pg.incident(p, h)), prime=h)
        for h in pg.hyperplanes_meeting(5, pts, 6)
    )
    assert capmod.blocks(cap) == capmod.Design(points=tuple(pts), blocks=expected)


def test_every_five_subset_in_exactly_one_block(design):
    block_sets = [b.points for b in design.blocks]
    for five in itertools.combinations(sorted(design.points), 5):
        covering = [b for b in block_sets if set(five) <= b]
        assert len(covering) == 1


def test_verify_witt_passes_and_reports_quad_cover(design):
    report = capmod.verify_witt(design)
    assert report.ok
    assert len(design.blocks) == 132
    assert report.first_violation is None
    assert report.quad_cover_value == 4


def test_verify_witt_fails_with_witness_on_perturbed_set(model, cap):
    tampered = sorted(cap.points)[:11] + [model.points[0]]
    design = capmod.blocks(tampered)
    report = capmod.verify_witt(design)
    assert not report.ok and report.first_violation is not None
    # the witness is the first 5-subset, in combinations order, not covered once
    block_sets = [b.points for b in design.blocks]
    for five in itertools.combinations(design.points, 5):
        cover = sum(1 for b in block_sets if set(five) <= b)
        if cover != 1:
            break
    assert report.first_violation == (five, cover)
    assert report.quad_cover_value is None


def test_designs_beyond_the_cover_table_are_refused():
    wide = capmod.Design(points=pg.enumerate_points(5)[:17], blocks=())
    for check in (capmod.verify_witt, capmod.automorphism_order):
        with pytest.raises(ValueError, match="17"):
            check(wide)


def _reference_verify_witt(design):
    """verify_witt with frozenset cover keys: the reference for the masks."""
    pts = design.points
    cover = Counter(
        frozenset(sub)
        for b in design.blocks
        for k in (4, 5)
        for sub in itertools.combinations(b.points, k)
    )
    violation = next(
        (
            (sub, cover[frozenset(sub)])
            for sub in itertools.combinations(pts, 5)
            if cover[frozenset(sub)] != 1
        ),
        None,
    )
    quad_counts = set()
    if violation is None:
        quad_counts = {cover[frozenset(sub)] for sub in itertools.combinations(pts, 4)}
    sizes_ok = all(len(b.points) == 6 for b in design.blocks)
    return capmod.WittReport(
        ok=len(pts) == 12 and sizes_ok and violation is None,
        first_violation=violation,
        quad_cover_value=quad_counts.pop() if len(quad_counts) == 1 else None,
    )


def _witt_reference_cases(model):
    """The Witt design at every base, seeded random 12-sets, and hand-made
    faults: a block dropped or repeated, a block point outside the design's
    points, designs of 0 to 5 points, a block of 7 points."""
    designs = [_witt_design(model, pre) for pre in pg.enumerate_points(2)]
    rng = random.Random(11)
    designs += [capmod.blocks(rng.sample(pg.enumerate_points(5), 12)) for _ in range(30)]
    witt = designs[0]
    designs.append(dataclasses.replace(witt, blocks=witt.blocks[1:]))
    designs.append(dataclasses.replace(witt, blocks=witt.blocks + witt.blocks[:1]))
    outsider = next(p for p in pg.enumerate_points(5) if p not in witt.points)
    first, rest = witt.blocks[0], witt.blocks[1:]
    designs.append(dataclasses.replace(witt, blocks=(
        capmod.Block(points=first.points - {min(first.points)} | {outsider}, prime=first.prime),
        *rest,
    )))
    designs.append(dataclasses.replace(witt, blocks=(
        capmod.Block(points=first.points | {outsider}, prime=first.prime), *rest
    )))
    designs += [dataclasses.replace(witt, points=witt.points[:n]) for n in range(6)]
    spare = min(set(witt.points) - first.points)
    designs.append(dataclasses.replace(witt, blocks=(
        capmod.Block(points=first.points | {spare}, prime=first.prime), *rest
    )))
    return designs


def test_verify_witt_matches_the_frozenset_reference(model):
    cases = _witt_reference_cases(model)
    assert sum(_reference_verify_witt(d).ok for d in cases) == 13
    for d in cases:
        assert capmod.verify_witt(d) == _reference_verify_witt(d)


def test_repeated_design_points_are_refused(model):
    # both checks name the first point seen twice, reading the points in order
    witt = _witt_design(model, (1, 0, 0))
    p0, p1, p2 = witt.points[:3]
    cases = [
        (witt.points[:11] + witt.points[:1], p0),
        (witt.points[:1] * 3 + witt.points[1:10], p0),
        ((p0, p1, p2, p2, p1), p2),
    ]
    for points, first in cases:
        design = dataclasses.replace(witt, points=points)
        for check in (capmod.verify_witt, capmod.automorphism_order):
            with pytest.raises(ValueError, match=f"point {pg.format_point(first)} is repeated"):
                check(design)


def test_prime_scans_refuse_a_point_outside_pg5(cap):
    eleven = sorted(cap.points)[:11]
    scans = [
        ("2:0:0:0:0:0", lambda: capmod.blocks([(2, 0, 0, 0, 0, 0), *eleven])),
        ("1:0:0", lambda: capmod.missed_primes([(1, 0, 0)])),
        ("0:2:1:0:0:0", lambda: pg.hyperplanes_meeting(5, [(0, 2, 1, 0, 0, 0)], 1)),
    ]
    for text, scan in scans:
        message = f"{text} is not a canonical point of PG(5,3)"
        with pytest.raises(ValueError, match=re.escape(message)):
            scan()


def test_dual_cap_size_and_literal_primes(dual_cap):
    assert len(dual_cap.primes) == 12
    for raw in EXPECTED_MISSING_PRIME_LITERALS:
        assert pg.canonical_point(raw) in dual_cap.primes


def test_dual_cap_contains_the_nine_osculating_primes(model, base, dual_cap):
    # conics whose preimage lines have nonzero first dual coordinate miss the
    # base, and their osculating primes are the non-exceptional dual points
    nine = {
        model.osculating_primes[c]
        for c in model.conics
        if c.preimage_line[0] != 0
    }
    assert len(nine) == 9
    assert nine <= dual_cap.primes
    for c in model.conics:
        assert (c.preimage_line[0] != 0) == (base not in c.points)


def test_dual_cap_equals_missed_primes(cap, dual_cap):
    assert set(capmod.missed_primes(cap)) == dual_cap.primes
    assert len(capmod.missed_primes(cap)) == 12


def test_no_incidence_between_cap_and_dual_cap(cap, dual_cap):
    assert capmod.disjointness_check(cap, dual_cap)


def test_full_prime_scan_has_exactly_12_misses(cap):
    sizes = [
        sum(1 for p in cap.points if pg.incident(p, h))
        for h in pg.enumerate_hyperplanes(5)
    ]
    assert sizes.count(0) == 12
    assert sizes.count(6) == 132
    assert sorted(set(sizes)) == [0, 3, 6]
    assert bytes(sizes) == pg.section_sizes(5, cap.points)


def test_osculating_primes_through_base_cut_three_cap_points(model, base, cap):
    # regression value: each carries precisely the internal triple of its own
    # conic, the other conics contributing nothing
    for c in model.conics_through(base):
        h = model.osculating_primes[c]
        cut = {p for p in cap.points if pg.incident(p, h)}
        assert cut == classify_conic_plane(c).internal
        assert len(cut) == 3


def test_dual_space_structure_is_again_a_witt_design(cap):
    # read the 12 missed primes as points of the dual space; sections by dual
    # hyperplanes (= points) again give a 5-(12,6,1) design
    dual = capmod.blocks(capmod.missed_primes(cap))
    assert capmod.verify_witt(dual).ok
    assert len(dual.blocks) == 132


def test_vector_identity_check():
    assert capmod.vector_identity_check()


def test_vector_identity_check_fails_on_reordered_monomials(monkeypatch):
    # reversed, the monomials give v_0 + v_1 + v_2 + v_inf = (1,0,0,0,0,2)
    monkeypatch.setattr(capmod, "MONOMIALS", capmod.MONOMIALS[::-1])
    assert not capmod.vector_identity_check()


def test_vector_identity_hand_value():
    # u = 0, direction (1,0): v_0 + v_inf must equal 2 v_1 + 2 v_2
    v0 = (0, 0, 0, 1, 0, 0)
    vinf = (1, 0, 0, 0, 0, 0)
    v1 = (1, 1, 0, 1, 0, 0)
    v2 = (1, 2, 0, 1, 0, 0)
    lhs = tuple((a + b) % 3 for a, b in zip(v0, vinf))
    rhs = tuple((2 * (a + b)) % 3 for a, b in zip(v1, v2))
    assert lhs == rhs == (1, 0, 0, 1, 0, 0)


def _witt_design(model, pre):
    return capmod.blocks(capmod.build_cap(model, veronese_map(pre)))


def _random_collineation(rng):
    while True:
        m = gf3.mat(rng.choices(range(3), k=6) for _ in range(6))
        if gf3.rank(m) == 6:
            return m


@pytest.mark.parametrize("pre", pg.enumerate_points(2), ids=pg.format_point)
def test_automorphism_order_is_95040(model, pre):
    assert capmod.automorphism_order(_witt_design(model, pre)) == 95040


@pytest.mark.parametrize("pre", pg.enumerate_points(2), ids=pg.format_point)
def test_automorphism_orders_of_m12_subgroups(model, pre):
    # orders from the subgroup structure of M12 (ATLAS of Finite Groups), not
    # from the search: dropping one block leaves its hexad stabiliser S6, and
    # the 66 blocks through a point, or the 66 avoiding it, leave that
    # point's stabiliser M11
    witt = _witt_design(model, pre)
    for i in (0, 65, 131):
        rest = witt.blocks[:i] + witt.blocks[i + 1:]
        assert capmod.automorphism_order(dataclasses.replace(witt, blocks=rest)) == 720, i
    for p in (witt.points[0], witt.points[7]):
        for through in (True, False):
            kept = tuple(b for b in witt.blocks if (p in b.points) == through)
            assert len(kept) == 66
            order = capmod.automorphism_order(dataclasses.replace(witt, blocks=kept))
            assert order == 7920, (p, through)


def test_automorphism_order_terminates_on_unstructured_sets():
    # random 12-sets have little or no symmetry; the order is an invariant,
    # so a copy moved by a random collineation must give the same one
    for seed in range(8):
        rng = random.Random(seed)
        pts = rng.sample(pg.enumerate_points(5), 12)
        m = _random_collineation(rng)
        moved = pg.apply_collineation(m, pts)
        design, moved_design = capmod.blocks(pts), capmod.blocks(moved)
        assert len(design.blocks) == len(moved_design.blocks)
        order = capmod.automorphism_order(design)
        assert order == capmod.automorphism_order(moved_design) >= 1


def _with_first_block(design, points):
    first = design.blocks[0]
    block = capmod.Block(points=frozenset(points), prime=first.prime)
    return dataclasses.replace(design, blocks=(block, *design.blocks[1:]))


def test_automorphism_order_ignores_a_block_widened_by_an_outside_point(model):
    witt = _witt_design(model, (1, 0, 0))
    outsider = next(p for p in pg.enumerate_points(5) if p not in witt.points)
    widened = _with_first_block(witt, witt.blocks[0].points | {outsider})
    assert capmod.automorphism_order(widened) == 95040


def test_automorphism_order_on_blockless_set():
    # no blocks means no constraints: the full symmetric group
    design = capmod.Design(points=tuple(pg.enumerate_points(5)[:4]), blocks=())
    assert capmod.automorphism_order(design) == math.factorial(4)


def test_automorphism_order_leaves_no_garbage_cycles(model):
    # the search must not need the cyclic collector to free its state
    rigid = capmod.blocks(random.Random(3).sample(pg.enumerate_points(5), 12))
    designs = (_witt_design(model, (1, 0, 0)), rigid)
    gc.collect()
    gc.disable()
    try:
        orders = [capmod.automorphism_order(d) for d in designs]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert orders == [95040, 1]


def _brute_force_order(design):
    """The number of point permutations that map the set of blocks onto itself."""
    blocks = {b.points for b in design.blocks}
    count = 0
    for perm in itertools.permutations(design.points):
        move = dict(zip(design.points, perm))
        count += {frozenset(map(move.get, b)) for b in blocks} == blocks
    return count


def _as_design(masks, n):
    """A block system on n points, bit i for the i-th point of PG(5,3)."""
    pts = pg.enumerate_points(5)[:n]
    return capmod.Design(points=pts, blocks=tuple(
        capmod.Block(points=frozenset(p for i, p in enumerate(pts) if m >> i & 1), prime=pts[0])
        for m in masks
    ))


def test_automorphism_order_matches_brute_force(small_block_systems):
    cases = [_as_design(masks, n) for masks, n in small_block_systems]
    assert capmod.automorphism_order(cases[0]) == 2
    for d in cases:
        assert capmod.automorphism_order(d) == _brute_force_order(d), d


def test_automorphism_order_ignores_a_swapped_in_outside_point(model, small_block_systems):
    # a block that swaps one of its points for a point outside the design
    # counts as the block of its remaining points
    designs = [_as_design(masks, n) for masks, n in small_block_systems if masks and masks[0]]
    rng = random.Random(5)
    designs += [capmod.blocks(rng.sample(pg.enumerate_points(5), 12)) for _ in range(3)]
    designs.append(_witt_design(model, (1, 0, 0)))
    for d in designs:
        outsider = next(p for p in pg.enumerate_points(5) if p not in d.points)
        kept = d.blocks[0].points - {min(d.blocks[0].points)}
        order = capmod.automorphism_order(_with_first_block(d, kept))
        assert capmod.automorphism_order(_with_first_block(d, kept | {outsider})) == order, d
        if len(d.points) <= 7:
            assert order == _brute_force_order(_with_first_block(d, kept)), d


@pytest.mark.parametrize("pre", [(1, 0, 0), (0, 1, 2), (1, 2, 2)], ids=pg.format_point)
def test_stabiliser_chain_generators_on_the_witt_design(model, pre, checked_chain):
    # sharply 5-transitive: orbits 12, 11, 10, 9, 8, then the identity
    orbit_lengths, _ = checked_chain(_witt_design(model, pre)._block_masks, 12)
    assert orbit_lengths == (12, 11, 10, 9, 8, 1, 1, 1, 1, 1, 1, 1)


@pytest.mark.parametrize(
    "quad, order",
    [((0, 0, 0, 0), 432), ((1, 0, 0, 0), 95040), ((2, 0, 0, 0), 432)],
    ids=["surface", "cap", "exotic"],
)
def test_automorphism_order_of_layer_set_representatives(model, base, quad, order):
    pts = sorted(cosets.twelve_set(model, base, quad).points)
    m = _random_collineation(random.Random(sum(quad)))
    moved = pg.apply_collineation(m, pts)
    assert capmod.automorphism_order(capmod.blocks(pts)) == order
    assert capmod.automorphism_order(capmod.blocks(moved)) == order


def test_automorphism_order_of_every_layer_set(model):
    # all 81 layer sets at all 13 bases: the cap class (quadruple sum 1) is
    # a Witt design, order 95040; the surface and exotic classes have 432.
    # The order is an invariant, so a copy of the class representatives
    # moved by a random collineation must give it too.
    orders = Counter()
    rng = random.Random(31)
    for pre in pg.enumerate_points(2):
        base = veronese_map(pre)
        for quad in itertools.product(range(3), repeat=4):
            pts = sorted(cosets.twelve_set(model, base, quad).points)
            order = capmod.automorphism_order(capmod.blocks(pts))
            assert order == (95040 if sum(quad) % 3 == 1 else 432), (pre, quad)
            orders[order] += 1
            if quad in ((0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0)):
                moved = pg.apply_collineation(_random_collineation(rng), pts)
                assert capmod.automorphism_order(capmod.blocks(moved)) == order, (pre, quad)
    assert orders == {95040: 13 * 27, 432: 13 * 54}


@pytest.mark.parametrize("pre", pg.enumerate_points(2), ids=pg.format_point)
def test_automorphism_order_of_a_block_cut_to_five_points(model, pre):
    # a 5-subset lies in one block, so cutting that block to the 5-subset
    # leaves the setwise stabiliser of the 5-subset in M12: S5, order 120
    # (ATLAS of Finite Groups), not a count from the search
    witt = _witt_design(model, pre)
    for i in (0, 37, 65, 131):
        block = witt.blocks[i]
        for drop in sorted(block.points)[::5]:
            cut = dataclasses.replace(block, points=block.points - {drop})
            blocks = witt.blocks[:i] + (cut,) + witt.blocks[i + 1:]
            design = dataclasses.replace(witt, blocks=blocks)
            assert capmod.automorphism_order(design) == 120, (i, drop)


@pytest.mark.parametrize("pre", pg.enumerate_points(2), ids=pg.format_point)
def test_every_cap_class_layer_set_is_a_witt_design(model, pre):
    # the 27 quadruples of sum 1 give caps like the one of internal points
    base = veronese_map(pre)
    quads = [q for q in itertools.product(range(3), repeat=4) if sum(q) % 3 == 1]
    assert len(quads) == 27
    for quad in quads:
        design = capmod.blocks(cosets.twelve_set(model, base, quad).points)
        assert capmod.verify_witt(design).ok, quad
        assert capmod.automorphism_order(design) == 95040, quad

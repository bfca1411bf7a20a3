import itertools
import random

import pytest

from wittcap import cap as capmod
from wittcap import gf3, pg
from wittcap.veronese import (
    chordal_cubic_contains,
    classify_conic_plane,
    dual_veronese_map,
    lift_collineation,
    plane_lines,
    tangent_lines,
    veronese_map,
)


def test_map_values():
    assert veronese_map((1, 0, 0)) == (1, 0, 0, 0, 0, 0)
    assert veronese_map((0, 1, 0)) == (0, 0, 0, 1, 0, 0)
    assert veronese_map((1, 1, 1)) == (1, 1, 1, 1, 1, 1)


def test_map_is_well_defined_on_points():
    for x in pg.enumerate_points(2):
        doubled = tuple((2 * t) % 3 for t in x)
        assert veronese_map(x) == veronese_map(doubled)


def test_map_is_a_bijection_onto_13_points(model):
    images = {veronese_map(x) for x in pg.enumerate_points(2)}
    assert len(images) == 13
    assert images == set(model.points)


def test_dual_map_values():
    assert dual_veronese_map((0, 0, 1)) == (0, 0, 0, 0, 0, 1)
    assert dual_veronese_map((1, 0, 0)) == (1, 0, 0, 0, 0, 0)


def test_dual_map_prime_meets_surface_exactly_in_the_conic(model):
    for c in model.conics:
        h = model.osculating_primes[c]
        cut = {p for p in model.points if pg.incident(p, h)}
        assert cut == c.points


def test_model_counts(model, base):
    assert len(model.conics) == 13
    assert all(len(c.points) == 4 for c in model.conics)
    assert len(model.conics_through(base)) == 4
    for p in model.points:
        assert len(model.conics_through(p)) == 4


def test_two_conic_planes_meet_in_one_surface_point(model):
    for a, b in itertools.combinations(model.conics, 2):
        common = set(pg.flat_points(a.plane)) & set(pg.flat_points(b.plane))
        assert len(common) == 1
        (point,) = common
        assert point in model.points


def test_two_tangent_planes_meet_in_one_point_off_surface(model):
    planes = [model.tangent_planes[p] for p in model.points]
    for a, b in itertools.combinations(planes, 2):
        common = set(pg.flat_points(a)) & set(pg.flat_points(b))
        assert len(common) == 1
        (point,) = common
        assert point not in model.points


def test_osculating_prime_is_span_of_tangent_planes_along_conic(model):
    for c in model.conics:
        union = []
        for p in sorted(c.points):
            union.extend(model.tangent_planes[p])
        assert pg.span(union) == pg.flat_from_dual([model.osculating_primes[c]])


def test_tangent_plane_is_meet_of_osculating_primes_through_point(model):
    # by brute force over PG(5,3), not through flat_from_dual as build_model
    for p in model.points:
        primes = [model.osculating_primes[c] for c in model.conics_through(p)]
        on_all = {x for x in pg.enumerate_points(5) if all(pg.incident(x, h) for h in primes)}
        assert on_all == set(pg.flat_points(model.tangent_planes[p]))


def test_conic_plane_partition_counts(model):
    for c in model.conics:
        part = classify_conic_plane(c)
        assert len(c.points) == 4
        assert len(part.internal) == 3
        assert len(part.external) == 6


def test_plane_lines_are_shared_and_immutable(model):
    # the lines of each conic plane are derived once, however many caps are built
    plane_lines.cache_clear()
    first = [capmod.build_cap(model, p).points for p in model.points]
    second = [capmod.build_cap(model, p).points for p in model.points]
    assert first == second
    assert plane_lines.cache_info().misses == 13
    lines = plane_lines(model.conics[0].plane)
    assert lines is plane_lines(model.conics[0].plane)
    assert isinstance(lines, tuple) and all(isinstance(line, frozenset) for line in lines)


def test_partition_by_brute_force_over_plane_lines(model):
    # independent tally: for every plane point count tangents and bisecants
    for c in model.conics:
        lines = plane_lines(c.plane)
        tangents = [l for l in lines if len(l & c.points) == 1]
        bisecants = [l for l in lines if len(l & c.points) == 2]
        assert len(tangents) == 4
        assert len(bisecants) == 6
        part = classify_conic_plane(c)
        for p in part.internal:
            assert sum(1 for t in tangents if p in t) == 0
            assert sum(1 for b in bisecants if p in b) == 2
        for p in part.external:
            assert sum(1 for t in tangents if p in t) == 2


def test_bisecant_contains_exactly_one_internal_point(model):
    for c in model.conics:
        internal = classify_conic_plane(c).internal
        for a, b in itertools.combinations(sorted(c.points), 2):
            line = pg.line_through(a, b)
            assert sum(1 for p in line if p in internal) == 1


def test_internal_points_are_the_diagonal_points(model):
    # the quadrangle's three diagonal points: intersections of opposite sides
    for c in model.conics:
        a, b, d, e = sorted(c.points)
        diagonals = set()
        for (p, q), (r, s) in (((a, b), (d, e)), ((a, d), (b, e)), ((a, e), (b, d))):
            common = set(pg.line_through(p, q)) & set(pg.line_through(r, s))
            assert len(common) == 1
            diagonals |= common
        assert diagonals == classify_conic_plane(c).internal


def test_singleton_surface_sections_per_point(model):
    # for each surface point, exactly 3 primes meet the surface in it alone,
    # and they are the dual-cap primes other than the 9 osculating ones
    surface = set(model.points)
    for p in model.points:
        singletons = {
            h
            for h in pg.enumerate_hyperplanes(5)
            if all((q == p) == pg.incident(q, h) for q in surface)
        }
        assert len(singletons) == 3
        osculating = {
            model.osculating_primes[c] for c in model.conics if p not in c.points
        }
        assert len(osculating) == 9
        assert singletons == capmod.build_dual_cap(model, p).primes - osculating


def test_singleton_section_iff_tangent_line_sections(model):
    # a prime meets the surface in exactly one point iff it cuts every conic
    # plane through that point precisely in the tangent line there
    surface = set(model.points)
    tangent_at = {}
    for p in model.points:
        for c in model.conics_through(p):
            tangent_at[(p, c)] = tangent_lines(c)[p]
    plane_pts = {c: pg.flat_points(c.plane) for c in model.conics}
    for p in model.points:
        through = model.conics_through(p)
        for h in pg.enumerate_hyperplanes(5):
            singleton = all((q == p) == pg.incident(q, h) for q in surface)
            tangential = all(
                {x for x in plane_pts[c] if pg.incident(x, h)} == tangent_at[(p, c)]
                for c in through
            )
            assert singleton == tangential


def test_chordal_cubic_on_surface_and_off(model):
    for p in model.points:
        assert chordal_cubic_contains(p)
    assert not chordal_cubic_contains((1, 0, 0, 1, 0, 1))  # identity matrix point


def symmetric_matrix(y):
    """Read a PG(5,3) coordinate tuple as a symmetric 3x3 matrix."""
    y0, y1, y2, y3, y4, y5 = (v % 3 for v in y)
    return ((y0, y1, y2), (y1, y3, y4), (y2, y4, y5))


def test_chordal_cubic_matches_rank_condition():
    for y in pg.enumerate_points(5):
        assert chordal_cubic_contains(y) == (gf3.rank(symmetric_matrix(y)) <= 2)


def test_lift_identity():
    assert lift_collineation(gf3.identity(3)) == gf3.identity(6)


def test_lift_intertwines_the_map():
    rng = random.Random(9)
    mats = []
    while len(mats) < 10:
        m = tuple(tuple(rng.randrange(3) for _ in range(3)) for _ in range(3))
        if gf3.rank(m) == 3:
            mats.append(m)
    for a in mats:
        lifted = lift_collineation(a)
        points = pg.enumerate_points(2)
        moved = pg.apply_collineation(a, points)
        assert tuple(map(veronese_map, moved)) == pg.apply_collineation(
            lifted, [veronese_map(x) for x in points]
        )


def test_lift_is_a_homomorphism_on_random_pairs():
    rng = random.Random(10)
    pairs = []
    while len(pairs) < 100:
        a = tuple(tuple(rng.randrange(3) for _ in range(3)) for _ in range(3))
        b = tuple(tuple(rng.randrange(3) for _ in range(3)) for _ in range(3))
        if gf3.rank(a) == 3 and gf3.rank(b) == 3:
            pairs.append((a, b))
    for a, b in pairs:
        assert lift_collineation(gf3.mat_mul(a, b)) == pg.compose(
            lift_collineation(a), lift_collineation(b)
        )


def test_lift_rejects_singular():
    with pytest.raises(ValueError):
        lift_collineation(((1, 1, 0), (1, 1, 0), (0, 0, 1)))


def test_lift_fixing_base_preimage_permutes_conics_through_base(model, base):
    a = gf3.mat([(1, 0, 0), (0, 0, 1), (0, 1, 0)])  # fixes (1,0,0)
    lifted = lift_collineation(a)
    assert pg.apply_collineation(lifted, [base]) == (base,)
    through = model.conics_through(base)
    images = []
    for c in through:
        image = frozenset(pg.apply_collineation(lifted, tuple(c.points)))
        images.append(image)
    assert set(images) == {c.points for c in through}


def test_conic_stores_its_preimage_line(model):
    for c in model.conics:
        back = {x for x in pg.enumerate_points(2) if pg.incident(x, c.preimage_line)}
        assert {veronese_map(x) for x in back} == c.points

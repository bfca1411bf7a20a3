import itertools
import random

import pytest

from wittcap import cosets, gf3, pg
from wittcap.veronese import veronese_map

# the space elation used throughout: adds the last coordinate to the first
MU = pg.collineation(
    (
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0),
        (0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 1, 0),
        (1, 0, 0, 0, 0, 1),
    )
)


@pytest.mark.parametrize("n,count", [(2, 13), (4, 121), (5, 364)])
def test_point_and_hyperplane_counts(n, count):
    assert len(pg.enumerate_points(n)) == count
    assert len(pg.enumerate_hyperplanes(n)) == count
    assert count == (3 ** (n + 1) - 1) // 2


def test_points_are_canonical_and_distinct():
    pts = pg.enumerate_points(5)
    assert len(set(pts)) == 364
    for p in pts:
        assert next(x for x in p if x) == 1
    assert list(pts) == sorted(pts)  # lexicographic enumeration order


def test_canonical_point_normalizes_scalars():
    assert pg.canonical_point((2, 1, 0)) == (1, 2, 0)
    assert pg.canonical_point((0, 2, 2)) == (0, 1, 1)
    with pytest.raises(ValueError):
        pg.canonical_point((0, 0, 0))


def test_point_text_round_trip():
    p = (1, 0, 2, 1, 0, 2)
    assert pg.parse_point(pg.format_point(p)) == p


def test_parse_point_rejects_digits_outside_0_1_2():
    with pytest.raises(ValueError, match="'3'"):
        pg.parse_point("1:0:3")


def test_incidence_duality():
    pts = pg.enumerate_points(2)
    for p, h in itertools.product(pts, pts):
        assert pg.incident(p, h) == pg.incident(h, p)


def test_every_hyperplane_of_pg53_has_121_points():
    masks = pg.hyperplane_point_masks(5)
    assert all(m.bit_count() == 121 for m in masks.values())


@pytest.mark.parametrize("n", [2, 5])
def test_incidence_table_matches_brute_force_dot_products(n):
    # one byte per point, lowest byte first: 1 on the hyperplane, 0 off it
    pts = pg.enumerate_points(n)
    table = pg.hyperplane_point_masks(n)
    assert tuple(table) == pg.enumerate_hyperplanes(n)
    for h, row in table.items():
        assert row.to_bytes(len(pts), "little") == bytes(
            int(sum(a * b for a, b in zip(p, h)) % 3 == 0) for p in pts
        )


@pytest.mark.parametrize("repeats", [0, 3])
def test_section_sizes_match_brute_force_incidence(repeats):
    rng = random.Random(7)
    pts = rng.sample(pg.enumerate_points(5), 12)
    pts += pts[:repeats]
    sizes = tuple(
        sum(1 for p in set(pts) if pg.incident(p, h))
        for h in pg.enumerate_hyperplanes(5)
    )
    assert pg.section_sizes(5, pts) == bytes(sizes)
    for k in set(sizes):
        assert pg.hyperplanes_meeting(5, pts, k) == tuple(
            h for h, size in zip(pg.enumerate_hyperplanes(5), sizes) if size == k
        )
        sections = pg.sections(5, pts, k)
        assert tuple(sections) == pg.hyperplanes_meeting(5, pts, k)
        for h, section in sections.items():
            assert section == {p for p in pts if pg.incident(p, h)}


@pytest.mark.parametrize("n", [2, 5])
def test_section_sizes_of_the_whole_space(n):
    # every hyperplane of PG(n,3) holds (3^n - 1)/2 points: 4 for a line of
    # PG(2,3), 121 for a prime of PG(5,3), the fullest a byte lane gets
    pts = pg.enumerate_points(n)
    sizes = tuple(
        sum(1 for p in pts if pg.incident(p, h)) for h in pg.enumerate_hyperplanes(n)
    )
    assert sizes == (len(pg.enumerate_points(n - 1)),) * len(pts)
    assert pg.section_sizes(n, reversed(pts)) == bytes(sizes)


def test_section_sizes_refuses_hyperplanes_wider_than_a_byte_lane():
    # a hyperplane of PG(6,3) holds 364 points, which would carry out of its
    # lane; the refusal must come before any table for n = 6 is built
    masks_before = pg.hyperplane_point_masks.cache_info().currsize
    points_before = pg.enumerate_points.cache_info().currsize
    with pytest.raises(ValueError, match="255"):
        pg.section_sizes(6, [(1, 0, 0, 0, 0, 0, 0)])
    assert pg.hyperplane_point_masks.cache_info().currsize == masks_before
    assert pg.enumerate_points.cache_info().currsize == points_before


def test_sections_and_meetings_of_no_points():
    # with no points every prime carries none, each with the empty section
    primes = pg.enumerate_hyperplanes(5)
    assert pg.sections(5, [], 0) == dict.fromkeys(primes, frozenset())
    assert tuple(pg.sections(5, [], 0)) == pg.hyperplanes_meeting(5, [], 0) == primes
    assert pg.sections(5, [], 1) == {} and pg.hyperplanes_meeting(5, [], 1) == ()


@pytest.mark.parametrize("k", [-1, 256, 10**6])
def test_hyperplanes_meeting_a_count_outside_a_byte(k):
    # no byte lane holds such a count, so no hyperplane carries it
    pts = pg.enumerate_points(2)
    assert pg.hyperplanes_meeting(2, pts, 4) == pg.enumerate_hyperplanes(2)
    assert pg.hyperplanes_meeting(2, pts, k) == ()
    assert pg.sections(2, pts, k) == {}


def _common_points(hs):
    """Reference: the points of the flat cut out by the hyperplanes, sorted."""
    f = pg.flat_from_dual(hs)
    return tuple(sorted(pg.flat_points(f))) if f else ()


def test_hyperplanes_meeting_reads_the_common_points_of_hyperplanes():
    # hyperplanes given in place of points: the "hyperplanes" carrying all m
    # of them are the points on every one, in enumeration order
    rng = random.Random(12)
    pts = pg.enumerate_points(5)
    cases = [rng.sample(pts, m) for m in (1, 2, 7, 12)]
    for d in range(5):
        f = pg.span(rng.sample(pts, d + 1))
        through = [h for h in pts if all(pg.incident(p, h) for p in f)]
        cases.append(rng.sample(through, min(len(through), 7 - len(f))))
        cases.append(through)      # all primes through a point, a line, ...
    sizes = set()
    for hs in cases:
        want = _common_points(hs)
        assert pg.hyperplanes_meeting(5, hs, len(hs)) == want
        assert pg.common_points(5, hs) == want
        sizes.add(len(want))
    assert {0, 1, 4} <= sizes and max(sizes) > 4


@pytest.mark.parametrize("n", [2, 5])
def test_common_points_match_a_brute_force_dot_scan(n):
    # the AND of the hyperplanes' table rows, against every point tested
    # with gf3.dot; a repeated hyperplane cuts nothing more, and with no
    # hyperplanes every point is common
    rng = random.Random(34 + n)
    pts = pg.enumerate_points(n)
    cases = [[], [pts[0]], pts[:2], pts] + [rng.sample(pts, m) for m in range(1, n + 2)]
    cases += [hs + hs[:1] for hs in cases[4:]]
    for hs in cases:
        want = tuple(p for p in pts if all(gf3.dot(p, h) == 0 for h in hs))
        assert pg.common_points(n, hs) == want
    assert pg.common_points(n, []) == pts


def test_common_points_refuses_a_hyperplane_that_is_not_canonical():
    with pytest.raises(ValueError, match="2:0:0:0:0:0 is not a canonical hyperplane of PG"):
        pg.common_points(5, [(1, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0)])


def test_hyperplanes_of_size_reads_sizes_from_section_sizes():
    # the selector behind hyperplanes_meeting, given the sizes directly
    pts = random.Random(9).sample(pg.enumerate_points(5), 12)
    sizes = pg.section_sizes(5, pts)
    for k in range(13):
        assert pg.hyperplanes_of_size(5, sizes, k) == pg.hyperplanes_meeting(5, pts, k)
    with pytest.raises(ValueError, match="363 section sizes for the 364 hyperplanes"):
        pg.hyperplanes_of_size(5, sizes[1:], 6)


def test_line_through_examples():
    a = (1, 0, 0, 0, 0, 0)
    b = (0, 0, 0, 1, 0, 0)
    line = pg.line_through(a, b)
    assert set(line) == {a, b, (1, 0, 0, 1, 0, 0), (1, 0, 0, 2, 0, 0)}
    with pytest.raises(ValueError):
        pg.line_through(a, a)


def test_every_line_has_four_points():
    pts = pg.enumerate_points(2)
    rng = random.Random(4)
    for _ in range(50):
        a, b = rng.sample(pts, 2)
        line = pg.line_through(a, b)
        assert len(set(line)) == 4
        for p in line:
            assert pg.span([a, b, p]) == pg.span([a, b])


def test_span_of_one_point_is_that_point():
    f = pg.span([(0, 2, 0, 0, 0, 1)])
    assert len(f) == 1
    assert f == ((0, 1, 0, 0, 0, 2),)


def test_meet_of_two_hyperplanes_has_dimension_three():
    f = pg.flat_from_dual([(1, 0, 0, 0, 0, 0)])
    g = pg.flat_from_dual([(0, 1, 0, 0, 0, 0)])
    assert len(f) == 5
    common = set(pg.flat_points(f)) & set(pg.flat_points(g))
    assert len(common) == 40  # the points of a PG(3,3)
    assert len(pg.span(common)) == 4


def test_span_meet_dimension_formula_on_samples():
    rng = random.Random(5)
    pts = pg.enumerate_points(5)
    for _ in range(30):
        a = pg.span(rng.sample(pts, 3))
        b = pg.span(rng.sample(pts, 3))
        union = pg.span(list(a) + list(b))
        inter = set(pg.flat_points(a)) & set(pg.flat_points(b))
        # dim(a meet b) = dim a + dim b - dim(a join b), with dim = len - 1,
        # and a flat of len k has (3^k - 1) / 2 points
        assert len(inter) == (3 ** (len(a) + len(b) - len(union)) - 1) // 2


def test_four_flats_lie_in_exactly_one_hyperplane():
    rng = random.Random(6)
    pts = pg.enumerate_points(5)
    found = 0
    while found < 20:
        f = pg.span(rng.sample(pts, 5))
        if len(f) != 5:
            continue
        found += 1
        pts = pg.flat_points(f)
        assert len(pg.hyperplanes_meeting(5, pts, len(pts))) == 1


def test_flat_points_and_coordinates_round_trip():
    f = pg.span([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)])
    pts = pg.flat_points(f)
    assert len(pts) == 13
    assert len(set(pts)) == 13
    for p, c in zip(pts, pg.enumerate_points(2)):
        assert pg.span(list(f) + [p]) == f
        assert p == pg.canonical_point(gf3.mat_mul((c,), f)[0])


def _normalised(v):
    lead = next(x for x in v if x)
    return tuple((lead * x) % 3 for x in v)   # 1 and 2 are their own inverses


def _flat_points_reference(f):
    """Coefficient combinations of the rref rows, in enumeration order."""
    out = []
    for coeff in pg.enumerate_points(len(f) - 1):
        v = [0] * len(f[0])
        for c, row in zip(coeff, f):
            for j in range(len(v)):
                v[j] = (v[j] + c * row[j]) % 3
        out.append(_normalised(v))
    return tuple(out)


def test_flat_points_match_coefficient_combination_reference():
    rng = random.Random(9)
    pts = pg.enumerate_points(5)
    flats = [pg.flat_from_dual([h]) for h in pg.enumerate_hyperplanes(2)]
    flats.append(gf3.identity(3))   # the lines and the plane of PG(2,3)
    for k in range(1, 7):
        found = 0
        while found < 8:
            f = pg.span(rng.sample(pts, k))
            if len(f) == k:
                found += 1
                flats.append(f)
    for f in flats:
        got = pg.flat_points(f)
        assert got == _flat_points_reference(f)
        # rref rows have unit pivots, so a point's entries in the pivot
        # columns are its coefficients, up to the scalar both normalise away
        pivots = [row.index(1) for row in f]
        for p, coeff in zip(got, pg.enumerate_points(len(f) - 1), strict=True):
            assert _normalised([p[j] for j in pivots]) == coeff


def test_flat_points_of_bases_outside_rref():
    # a basis not in rref can combine to a point that leads with 2, which
    # must be scaled; dependent rows combine to the zero vector somewhere
    rng = random.Random(21)
    pts = pg.enumerate_points(5)
    for k in range(1, 5):
        f = pg.span(rng.sample(pts, k))
        doubled = (gf3.vec_scale(2, f[0]),) + f[1:]
        for basis in (doubled, tuple(reversed(f)), tuple(reversed(doubled))):
            assert pg.flat_points(basis) == _flat_points_reference(basis)
        assert set(pg.flat_points(doubled)) == set(pg.flat_points(f))
        with pytest.raises(ValueError, match="zero vector"):
            pg.flat_points(f + (gf3.vec_scale(2, f[0]),))


def test_apply_identity_fixes_every_point():
    eye = gf3.identity(6)
    points = pg.enumerate_points(5)
    assert pg.apply_collineation(eye, points) == points


def test_space_elation_point_images():
    assert pg.apply_collineation(MU, [(0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0)]) == (
        (1, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0))


def test_apply_collineation_maps_every_point_as_one_product():
    # the whole-sequence image equals each point's own image x * c, scaled
    # by the one normaliser
    rng = random.Random(18)
    points = pg.enumerate_points(5)
    found = 0
    while found < 20:
        c = tuple(tuple(rng.randrange(3) for _ in range(6)) for _ in range(6))
        if gf3.rank(c) < 6:
            continue
        found += 1
        per_point = tuple(
            pg._lead_one(tuple(sum(x[i] * c[i][j] for i in range(6)) % 3 for j in range(6)))
            for x in points
        )
        assert pg.apply_collineation(c, points) == per_point
    singular = gf3.mat(c[:5] + (gf3.vec_add(c[0], c[1]),))
    with pytest.raises(ValueError, match="zero vector"):
        pg.apply_collineation(singular, points)


def test_collineation_rejects_singular():
    with pytest.raises(ValueError):
        pg.collineation(((1, 1), (1, 1)))


def test_every_route_to_a_point_refuses_the_zero_vector():
    # canonical points, collineation images and flat points scale through one
    # normaliser, so each refuses the zero vector with the same message
    singular = gf3.mat(((1, 1, 0), (1, 1, 0), (0, 0, 1)))   # kernel holds (1,2,0)
    dependent = gf3.mat(((1, 0, 1), (0, 1, 1), (1, 1, 2)))  # (1,1,2) combines to zero
    with pytest.raises(ValueError, match="zero vector"):
        pg.canonical_point((0, 0, 0))
    with pytest.raises(ValueError, match="zero vector"):
        pg.canonical_point((3, 0, 6))
    with pytest.raises(ValueError, match="zero vector"):
        pg.apply_collineation(singular, [(1, 0, 0), (1, 2, 0)])
    with pytest.raises(ValueError, match="zero vector"):
        pg.flat_points(dependent)


def test_compose_and_inverse():
    rng = random.Random(8)
    eye = gf3.identity(6)
    found = 0
    while found < 10:
        m = tuple(tuple(rng.randrange(3) for _ in range(6)) for _ in range(6))
        if gf3.rank(m) < 6:
            continue
        found += 1
        c = pg.canonical_collineation(m)
        assert pg.compose(c, pg.canonical_collineation(_inverse(c))) == eye


def _inverse(m):
    """The inverse of an invertible matrix: the right block of rref([m | I])."""
    eye = gf3.identity(len(m))
    reduced, _ = gf3.rref(tuple(row + e for row, e in zip(m, eye)))
    assert tuple(row[:len(m)] for row in reduced) == eye, m
    return tuple(row[len(m):] for row in reduced)


def _pgl33():
    """Every canonical invertible 3x3 matrix over GF(3): the 5,616 elements
    of PGL(3,3)."""
    return [
        m
        for entries in itertools.product((0, 1, 2), repeat=9)
        if next((x for x in entries if x), 0) == 1   # canonical: leading entry 1
        and gf3.rank(m := (entries[:3], entries[3:6], entries[6:])) == 3
    ]


def test_determines_collineations_matches_brute_force_over_pgl33():
    group = _pgl33()
    assert len(group) == 5616
    points = pg.enumerate_points(2)
    eye = gf3.identity(3)
    # the fixed points of each non-identity collineation, as a point mask
    fixed = {
        sum(1 << i for i, (p, q) in enumerate(zip(points, pg.apply_collineation(g, points)))
            if p == q)
        for g in group
        if g != eye
    }
    rng = random.Random(15)
    answers = set()
    for k in range(1, len(points) + 1):
        for _ in range(40):
            subset = tuple(rng.sample(points, k))
            mask = sum(1 << points.index(p) for p in subset)
            only_identity = not any(mask & f == mask for f in fixed)
            assert pg.determines_collineations(subset) == only_identity, subset
            answers.add(only_identity)
    assert answers == {True, False}


def _greedy_determines_collineations(points):
    """determines_collineations by a basis picked point by point with
    gf3.rank and each point's coordinates read through the basis inverse."""
    basis = ()
    for p in points:
        if gf3.rank(basis + (p,)) > len(basis):
            basis += (p,)
    if not points or len(basis) < len(points[0]):
        return False
    inv = _inverse(basis)
    supports = [{i for i, c in enumerate(x) if c} for x in gf3.mat_mul(points, inv)]
    linked = {0}
    for _ in basis:
        linked = linked.union(*(s for s in supports if s & linked))
    return len(linked) == len(basis)


def _seeded_point_sets(n, seed, count):
    """Tuples of 0 to 20 points of PG(n,3): either drawn with repeats, or a
    random basis topped up with combinations inside the two parts of a split
    of it (which span the space but may leave the parts unlinked, and often
    repeat a point), shuffled."""
    rng = random.Random(seed)
    pts = pg.enumerate_points(n)
    for _ in range(count):
        k = rng.randint(0, 20)
        if rng.random() < 0.5:
            yield tuple(rng.choice(pts) for _ in range(k))
            continue
        while gf3.rank(m := tuple(rng.choice(pts) for _ in range(n + 1))) <= n:
            pass
        cut = rng.randint(1, n + 1)
        combos = list(m)
        while len(combos) < k:
            part = rng.choice((range(cut), range(cut, n + 1)))   # the second may be empty
            coeffs = [rng.randrange(3) if i in part else 0 for i in range(n + 1)]
            if any(coeffs):
                combos.append(pg.apply_collineation(m, [coeffs])[0])
        rng.shuffle(combos)
        yield tuple(combos)


def test_determines_collineations_matches_the_greedy_basis(model):
    cases = [*_seeded_point_sets(2, 16, 200), *_seeded_point_sets(5, 17, 200)]
    for pre in pg.enumerate_points(2):
        layers = cosets.conic_layers(model, veronese_map(pre))
        cases.append(tuple(sorted(set().union(*layers.plane_points.values()))))
    cases.append(tuple(gf3.identity(6)) + ((1,) * 6,))
    answers = [pg.determines_collineations(s) for s in cases]
    assert answers == [_greedy_determines_collineations(s) for s in cases]
    assert all(answers[-14:])
    assert {True, False} <= set(answers[:200]) and {True, False} <= set(answers[200:400])


def test_determines_collineations_refuses_points_of_different_lengths():
    for points in (((1, 0, 0), (0, 1)), ((0, 1), (1, 0, 0))):
        with pytest.raises(ValueError, match="ragged"):
            pg.determines_collineations(points)


def test_coordinate_points_do_not_determine_collineations():
    # every diagonal matrix fixes the six coordinate points; adding the
    # all-ones point completes a frame, which only the identity fixes
    coordinate_points = tuple(gf3.identity(6))
    assert not pg.determines_collineations(coordinate_points)
    assert pg.determines_collineations(coordinate_points + ((1,) * 6,))
    assert not pg.determines_collineations(())

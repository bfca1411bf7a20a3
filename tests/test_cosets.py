import dataclasses
import itertools
import random
import re
from collections import Counter

import pytest

from wittcap import cap as capmod
from wittcap import cosets, gf3, pg
from wittcap.veronese import (
    chordal_cubic_contains,
    classify_conic_plane,
    lift_collineation,
    plane_lines,
    tangent_lines,
    veronese_map,
)

# frozen regression fixtures: full 364-prime histograms per class
SURFACE_PROFILE = {0: 3, 1: 36, 3: 76, 4: 171, 6: 42, 7: 36}
CAP_PROFILE = {0: 12, 3: 220, 6: 132}
EXOTIC_PROFILE = {0: 3, 2: 90, 3: 76, 5: 144, 6: 42, 8: 9}

# every (base preimage, label); the default base (1,0,0) keeps the bare label
# as its id
BASE_LABELS = [
    pytest.param(
        pre, k, id=name if pre == (1, 0, 0) else f"{pg.format_point(pre)}-{name}"
    )
    for pre in pg.enumerate_points(2)
    for k, name in zip(cosets.LABEL_ORDER, cosets.LABEL_NAMES)
]


@pytest.fixture(scope="module")
def system(model, base):
    return cosets.conic_layers(model, base)


def _points(system, indices):
    """The support points at the given indices."""
    return tuple(map(system.support.__getitem__, indices))


def _layer_elation(system, k):
    """The layer elation of label k as a point map on its conic plane."""
    return dict(zip(system.plane_points[k], _points(system, system.elation_powers[k][1])))


def test_labels_follow_the_direction_rule(model, base, system):
    # label k belongs to the conic over the line through (1,0,0) and (0,1,k),
    # with (0,0,1) for label 3 ("inf")
    directions = {0: (0, 1, 0), 1: (0, 1, 1), 2: (0, 1, 2), 3: (0, 0, 1)}
    for k, direction in directions.items():
        line = system.conics[k].preimage_line
        assert pg.incident((1, 0, 0), line)
        assert pg.incident(direction, line)


def test_every_layer_has_three_points(system):
    for k in cosets.LABEL_ORDER:
        for j in (0, 1, 2):
            assert len(system.layers[(k, j)]) == 3


def test_layers_partition_plane_minus_base_and_tangent(base, system):
    for k in cosets.LABEL_ORDER:
        plane_pts = set(pg.flat_points(system.conics[k].plane))
        union = (
            system.layers[(k, 0)] | system.layers[(k, 1)] | system.layers[(k, 2)]
        )
        assert len(union) == 9
        assert union == plane_pts - ({base} | tangent_lines(system.conics[k])[base])


def test_layer_one_is_the_internal_point_set(system):
    for k in cosets.LABEL_ORDER:
        part = classify_conic_plane(system.conics[k])
        assert system.layers[(k, 1)] == part.internal


def test_layers_rejects_non_surface_base(model):
    with pytest.raises(ValueError):
        cosets.conic_layers(model, (1, 1, 0, 0, 0, 0))


@pytest.mark.parametrize("pre, k", BASE_LABELS)
def test_elation_fixes_base_and_tangent(model, pre, k):
    base = veronese_map(pre)
    system = cosets.conic_layers(model, base)
    kappa = _layer_elation(system, k)
    assert kappa[base] == base
    for p in tangent_lines(system.conics[k])[base]:
        assert kappa[p] == p


@pytest.mark.parametrize("pre, k", BASE_LABELS)
def test_elation_cycles_layers_and_cubes_to_identity(model, pre, k):
    base = veronese_map(pre)
    system = cosets.conic_layers(model, base)
    kappa = _layer_elation(system, k)
    for j in (0, 1, 2):
        source = system.layers[(k, j)]
        assert {kappa[p] for p in source} == system.layers[(k, (j + 1) % 3)]
    assert all(kappa[kappa[kappa[p]]] == p for p in kappa)
    assert len(kappa) == 13


@pytest.mark.parametrize("pre, k", BASE_LABELS)
def test_elation_restricted_to_conic_agrees_with_internal_partner(
    model, internal_partner, pre, k
):
    base = veronese_map(pre)
    system = cosets.conic_layers(model, base)
    kappa = _layer_elation(system, k)
    for y in system.layers[(k, 0)]:
        assert kappa[y] == internal_partner(base, y)


@pytest.mark.parametrize("pre", pg.enumerate_points(2), ids=pg.format_point)
def test_record_agrees_with_the_closed_form(model, pre):
    # a second route to the record: layer j of conic k is conic k minus the
    # base moved by y -> y + j base, and the space elation of label k fixes
    # its osculating prime pointwise and sends each surface point off conic k
    # to the cap point of its preimage
    base = veronese_map(pre)
    system = cosets.conic_layers(model, base)
    for k, conic in system.conics.items():
        for j in (0, 1, 2):
            assert system.layers[(k, j)] == {
                pg.canonical_point(gf3.vec_add(y, gf3.vec_scale(j, base)))
                for y in conic.points - {base}
            }
        mu = system.space_elations[k]
        axis = model.osculating_primes[conic]
        on_axis = [p for p in pg.enumerate_points(5) if pg.incident(p, axis)]
        assert pg.apply_collineation(mu, on_axis) == tuple(on_axis)
        off = [x for x in pg.enumerate_points(2) if not pg.incident(x, conic.preimage_line)]
        assert pg.apply_collineation(mu, [veronese_map(x) for x in off]) == tuple(
            capmod.cap_map(x, base) for x in off
        )


@pytest.mark.parametrize("pre", pg.enumerate_points(2), ids=pg.format_point)
def test_layer_elation_is_the_restriction_of_the_previous_extension(model, pre):
    base = veronese_map(pre)
    system = cosets.conic_layers(model, base)
    for k in cosets.LABEL_ORDER:
        kappa = _layer_elation(system, k)
        mu = system.space_elations[(k - 1) % 4]
        points = system.plane_points[k]
        assert tuple(map(kappa.__getitem__, points)) == pg.apply_collineation(mu, points)


@pytest.mark.parametrize("pre", pg.enumerate_points(2), ids=pg.format_point)
def test_record_elation_powers_compose_the_layer_elation(model, pre):
    system = cosets.conic_layers(model, veronese_map(pre))
    for k in cosets.LABEL_ORDER:
        kappa = _layer_elation(system, k)
        power = system.plane_points[k]
        for e in (0, 1, 2):
            assert _points(system, system.elation_powers[k][e]) == power
            power = tuple(kappa[p] for p in power)
        assert power == system.plane_points[k]
        assert len(system.elation_powers[k]) == 3


def _labels_by_preimage(model, base):
    # the labelling rule read off the base preimage found by search
    (pre,) = [x for x in pg.enumerate_points(2) if veronese_map(x) == base]
    through = model.conics_through(base)
    if pg.incident(pre, (1, 0, 0)):
        rest = sorted(
            (c for c in through if c.preimage_line != (1, 0, 0)),
            key=lambda c: c.preimage_line,
        )
        (omega,) = [c for c in through if c.preimage_line == (1, 0, 0)]
        return {**dict(zip((0, 1, 2), rest)), 3: omega}
    out = {}
    for c in through:
        a = c.preimage_line
        direction = pg.canonical_point((0, a[2], (-a[1]) % 3))
        out[3 if direction[1] == 0 else direction[2]] = c
    return out


def test_labels_at_every_base(model):
    degenerate = 0
    for pre in pg.enumerate_points(2):
        base = veronese_map(pre)
        want = _labels_by_preimage(model, base)
        assert dict(cosets.conic_layers(model, base).conics) == want
        degenerate += pre[0] == 0
    assert degenerate == 4


def test_layer_elation_rejects_swapped_layers(model, base, monkeypatch):
    # with layers 1 and 2 of conic 3 swapped, the inverse elation would still
    # cycle them; the closed form I + a^T base sends each conic point y to
    # y + base, the true layer 1, so the cycle check fails.
    # The swap is forged at the partition the record is built from.
    true = cosets.conic_layers(model, base)
    conic = true.conics[3]
    tangent = tangent_lines(conic)[base]
    swapped = dataclasses.replace(
        classify_conic_plane(conic),
        internal=true.layers[(3, 2)],
        external=true.layers[(3, 1)] | (tangent - {base}),
    )
    monkeypatch.setattr(
        cosets,
        "classify_conic_plane",
        lambda c: swapped if c == conic else classify_conic_plane(c),
    )
    cosets.conic_layers.cache_clear()
    try:
        with pytest.raises(ValueError, match="conic inf "):
            cosets.conic_layers(model, base)
    finally:
        cosets.conic_layers.cache_clear()


def test_cached_geometry_is_read_only(model, base, system):
    x = min(system.layers[(0, 0)])
    with pytest.raises(TypeError):
        system.layers[(0, 0)] = frozenset()
    with pytest.raises(TypeError):
        system.elation_powers[0] = ()
    with pytest.raises(TypeError):
        system.space_elations[0] = system.space_elations[1]
    assert _points(system, cosets.conic_layers(model, base).elation_powers[0][0]) == (
        system.plane_points[0])
    s = cosets.twelve_set(model, base, (2, 0, 0, 0))
    target = system.target
    first = cosets.project_from_base(model, base, s, target)
    first.lines[0] = ()
    assert cosets.project_from_base(model, base, s, target).lines[0] != ()
    with pytest.raises(TypeError):
        cosets._projection_frame(model, base, target)[3][x] = x
    profiles = system.profiles
    with pytest.raises(TypeError):
        profiles[0][3] = 0
    with pytest.raises(TypeError):
        profiles[0] = {}
    prime = model.osculating_primes[system.conics[1]]
    with pytest.raises(TypeError):
        model.osculating_primes[system.conics[0]] = prime
    with pytest.raises(TypeError):
        model.tangent_planes[base] = ()
    surface = cosets.twelve_set(model, base, (0, 0, 0, 0))
    assert cosets.classify(model, base, surface) == "surface"


def test_next_layer_is_internal_points_of_previous_layer_conic(
    model, base, system
):
    # each layer, together with the base, is itself a 4-point conic of its
    # plane; its internal points are the next layer
    for k in cosets.LABEL_ORDER:
        lines = plane_lines(system.conics[k].plane)
        plane_pts = pg.flat_points(system.conics[k].plane)
        for j in (0, 1, 2):
            quad = system.layers[(k, j)] | {base}
            tangents = [l for l in lines if len(l & quad) == 1]
            internal = {
                p
                for p in plane_pts
                if p not in quad and not any(p in t for t in tangents)
            }
            assert internal == system.layers[(k, (j + 1) % 3)]


def test_base_extension_is_the_expected_literal(system, base_extension):
    mu0 = system.space_elations[0]
    assert mu0 == base_extension
    assert pg.apply_collineation(mu0, [(0, 0, 0, 0, 0, 1)]) == ((1, 0, 0, 0, 0, 1),)


def test_base_extension_fixes_its_conic_plane_pointwise(system):
    mu0 = system.space_elations[0]
    plane = pg.flat_points(system.conics[0].plane)
    assert pg.apply_collineation(mu0, plane) == plane


def _plane_action(system, mu):
    """The collineation's action on the 49 points of the four conic planes,
    as indices into the support."""
    support = system.support
    assert support == tuple(sorted(set().union(*system.plane_points.values())))
    return tuple(map(support.index, pg.apply_collineation(mu, support)))


def test_base_extension_restricts_to_first_powers_elsewhere(model, base, system):
    act = _plane_action(system, system.space_elations[0])
    assert cosets.induced_layer_powers(model, base, act) == (0, 1, 1, 1)


def test_induced_layer_powers_refuses_an_action_off_the_support(model, base, system):
    # an action lists one support index per support point; a partial one,
    # or one holding a stray entry, is refused with a witness, while a
    # well-formed action that moves a point off its plane induces nothing
    act = _plane_action(system, system.space_elations[0])
    with pytest.raises(ValueError, match="^an action on the 49 support points lists 13 images$"):
        cosets.induced_layer_powers(model, base, act[:13])
    for stray in (49, -1, None):
        with pytest.raises(ValueError, match=f"^entry 48 of the action is {stray}, not an index"):
            cosets.induced_layer_powers(model, base, act[:-1] + (stray,))
    i = system.support.index(min(system.layers[(0, 0)]))
    j = system.support.index(min(system.layers[(1, 0)]))
    moved = list(act)
    moved[i], moved[j] = moved[j], moved[i]
    assert cosets.induced_layer_powers(model, base, tuple(moved)) is None


@pytest.mark.parametrize("k", cosets.LABEL_ORDER, ids=cosets.LABEL_NAMES)
def test_extended_elations_have_expected_restriction_shape(model, base, system, k):
    act = _plane_action(system, system.space_elations[k])
    powers = cosets.induced_layer_powers(model, base, act)
    pos = cosets.LABEL_ORDER.index(k)
    assert powers is not None
    assert powers[pos] == 0
    assert all(e != 0 for i, e in enumerate(powers) if i != pos)
    assert sum(powers) % 3 == 0


@pytest.mark.parametrize("k", cosets.LABEL_ORDER, ids=cosets.LABEL_NAMES)
def test_extended_elation_is_a_perspectivity(model, base, system, k):
    # fixes the osculating prime of conic k pointwise and the base linewise
    mu = system.space_elations[k]
    axis = model.osculating_primes[system.conics[k]]
    points = pg.enumerate_points(5)
    for p, q in zip(points, pg.apply_collineation(mu, points)):
        if pg.incident(p, axis):
            assert q == p
        elif q != p:
            assert q in pg.line_through(base, p)


def test_twelve_set_base_cases(model, base, cap):
    s0 = cosets.twelve_set(model, base, (0, 0, 0, 0))
    assert s0.points == set(model.points) - {base}
    s1 = cosets.twelve_set(model, base, (1, 1, 1, 1))
    assert s1.points == cap.points


@pytest.mark.parametrize("quad", [(1, 1, 1), (1, 0, 0, 0, 2)], ids=["3", "5"])
def test_twelve_set_rejects_a_quadruple_of_the_wrong_length(model, base, quad):
    with pytest.raises(ValueError, match=re.escape(str(quad))):
        cosets.twelve_set(model, base, quad)


def test_all_81_twelve_sets_have_12_points(model, base):
    for q in cosets.all_quadruples():
        assert len(cosets.twelve_set(model, base, q).points) == 12


def test_class_sizes_are_27_each():
    sums = [sum(q) % 3 for q in cosets.all_quadruples()]
    assert sums.count(0) == sums.count(1) == sums.count(2) == 27


@pytest.mark.parametrize("pre", pg.enumerate_points(2), ids=pg.format_point)
def test_reference_profiles_frozen_values(model, pre):
    base = veronese_map(pre)
    system = cosets.conic_layers(model, base)
    assert system.profiles[0] == SURFACE_PROFILE
    assert system.profiles[1] == CAP_PROFILE
    assert system.profiles[2] == EXOTIC_PROFILE
    assert system.target == pg.hyperplanes_meeting(5, [base], 0)[0]


def test_profile_identities(model, base):
    for q in [(0, 0, 0, 0), (1, 1, 1, 1), (2, 0, 0, 0)]:
        profile = cosets.hyperplane_profile(cosets.twelve_set(model, base, q))
        assert sum(profile.values()) == 364
        assert sum(size * count for size, count in profile.items()) == 12 * 121


def _counted_profile(points):
    return dict(sorted(Counter(tuple(pg.section_sizes(5, points))).items()))


@pytest.mark.parametrize("pre", pg.enumerate_points(2), ids=pg.format_point)
def test_profile_of_every_layer_set_matches_a_counter_histogram(model, pre):
    base = veronese_map(pre)
    for q in cosets.all_quadruples():
        s = cosets.twelve_set(model, base, q)
        want = _counted_profile(s.points)
        assert list(cosets.hyperplane_profile(s).items()) == list(want.items())


def test_profile_of_random_sets_matches_a_counter_histogram():
    rng = random.Random(15)
    for _ in range(30):
        s = cosets.TwelveSet(
            points=frozenset(rng.sample(pg.enumerate_points(5), 12)), quadruple=(0, 0, 0, 0)
        )
        want = _counted_profile(s.points)
        assert list(cosets.hyperplane_profile(s).items()) == list(want.items())


def test_cap_profile_pins_todd_and_block_counts(model, base):
    profile = cosets.hyperplane_profile(cosets.twelve_set(model, base, (1, 1, 1, 1)))
    assert profile[0] == 12
    assert profile[6] == 132


def test_every_exotic_set_has_42_six_point_primes(model, base):
    for q in cosets.all_quadruples():
        if sum(q) % 3 == 2:
            profile = cosets.hyperplane_profile(cosets.twelve_set(model, base, q))
            assert profile[6] == 42


def test_classify_all_81_against_profiles(model, base):
    names = {0: "surface", 1: "cap", 2: "exotic"}
    for q in cosets.all_quadruples():
        s = cosets.twelve_set(model, base, q)
        assert cosets.classify(model, base, s) == names[sum(q) % 3]
        assert cosets.hyperplane_profile(s) == cosets.conic_layers(
            model, base
        ).profiles[sum(q) % 3]


def test_classify_rejects_mismatched_quadruple(model, base):
    s = cosets.twelve_set(model, base, (1, 1, 1, 1))
    forged = cosets.TwelveSet(points=s.points, quadruple=(0, 0, 0, 0))
    with pytest.raises(ValueError, match="mismatch"):
        cosets.classify(model, base, forged)


def test_a_relabelled_set_is_judged_by_its_own_points(model, base):
    # the section sizes are cached per set object, and a dataclasses.replace'd
    # copy starts with nothing cached: the cap's points under the surface's
    # quadruple are refused with the cap's profile, whichever set the copy
    # was made from
    surface = cosets.twelve_set(model, base, (0, 0, 0, 0))
    cap = cosets.twelve_set(model, base, (1, 1, 1, 1))
    assert cosets.classify(model, base, surface) == "surface"
    assert cosets.classify(model, base, cap) == "cap"
    assert "section_sizes" in vars(cap)
    for forged in (dataclasses.replace(cap, quadruple=(0, 0, 0, 0)),
                   dataclasses.replace(surface, points=cap.points)):
        assert "section_sizes" not in vars(forged)
        with pytest.raises(ValueError, match=re.escape(
            f"(0, 0, 0, 0): {CAP_PROFILE} != {SURFACE_PROFILE}"
        )):
            cosets.classify(model, base, forged)


def test_one_exotic_set_scans_the_primes_once(model, base, system, monkeypatch):
    # classify, hyperplane_profile and analyze_exotic all read the sizes the
    # set scanned once; the per-base record is built before counting
    scans = []
    section_sizes = pg.section_sizes
    monkeypatch.setattr(
        pg, "section_sizes", lambda n, pts: scans.append(n) or section_sizes(n, pts))
    s = cosets.twelve_set(model, base, (2, 0, 0, 0))
    assert cosets.classify(model, base, s) == "exotic"
    assert cosets.hyperplane_profile(s) == EXOTIC_PROFILE
    assert len(cosets.analyze_exotic(model, base, s).six_point_primes) == 42
    assert scans == [5]


@pytest.mark.parametrize("pre", pg.enumerate_points(2), ids=pg.format_point)
def test_six_point_primes_of_every_exotic_set_meet_in_the_base(model, pre):
    base = veronese_map(pre)
    for q in cosets.all_quadruples():
        if sum(q) % 3 == 2:
            primes = pg.hyperplanes_meeting(5, cosets.twelve_set(model, base, q).points, 6)
            assert len(primes) == 42
            assert pg.common_points(5, primes) == (base,)


def test_all_81_sets_lie_on_the_chordal_cubic(model, base):
    for q in cosets.all_quadruples():
        s = cosets.twelve_set(model, base, q)
        assert all(chordal_cubic_contains(p) for p in s.points)


def test_orbit_report(model, base):
    report = cosets.verify_orbit_equivalence(model, base)
    assert report.group_order == 27
    assert report.powers_sum_zero
    assert report.powers_bijective
    assert not report.joint_unit_extension
    assert report.surface_complete
    assert report.cap_complete
    assert len(report.surface_witnesses) == 27
    assert len(report.cap_witnesses) == 27


def test_orbit_verdicts_are_read_from_the_witnesses(model, base):
    # the report holds the order and three maps; each verdict is recomputed
    # from the maps, so an edited map changes it
    report = cosets.verify_orbit_equivalence(model, base)
    assert [f.name for f in dataclasses.fields(report)] == [
        "group_order", "induced_quadruples", "surface_witnesses", "cap_witnesses"]
    induced = report.induced_quadruples
    g, h = list(induced)[:2]
    verdicts = ("powers_sum_zero", "powers_bijective", "joint_unit_extension",
                "surface_complete", "cap_complete")
    for change, flipped in (
        ({"induced_quadruples": {**induced, g: (1, 0, 0, 0)}}, {"powers_sum_zero"}),
        ({"induced_quadruples": {**induced, g: induced[h]}}, {"powers_bijective"}),
        # (1,1,1,1) sums to 1, so it also breaks the sum-0 verdict
        ({"induced_quadruples": {**induced, g: (1, 1, 1, 1)}},
         {"joint_unit_extension", "powers_sum_zero"}),
        ({"surface_witnesses": dict(list(report.surface_witnesses.items())[1:])},
         {"surface_complete"}),
        ({"cap_witnesses": {**report.cap_witnesses, (0, 0, 0, 0): g}}, {"cap_complete"}),
    ):
        edited = dataclasses.replace(report, **change)
        assert {v for v in verdicts if getattr(edited, v) != getattr(report, v)} == flipped
    # the bijection is judged against the map, not against the stated order
    assert dataclasses.replace(report, group_order=26).powers_bijective


def test_orbit_witnesses_actually_witness(model, base):
    report = cosets.verify_orbit_equivalence(model, base)
    start0 = tuple(cosets.twelve_set(model, base, (0, 0, 0, 0)).points)
    for quad, g in report.surface_witnesses.items():
        assert set(pg.apply_collineation(g, start0)) == cosets.twelve_set(
            model, base, quad
        ).points
    start1 = tuple(cosets.twelve_set(model, base, (1, 1, 1, 1)).points)
    for quad, g in report.cap_witnesses.items():
        assert set(pg.apply_collineation(g, start1)) == cosets.twelve_set(
            model, base, quad
        ).points


def test_induced_power_quadruples_are_exactly_the_sum_zero_subgroup(model, base):
    report = cosets.verify_orbit_equivalence(model, base)
    induced = set(report.induced_quadruples.values())
    subgroup = {
        q for q in itertools.product((0, 1, 2), repeat=4) if sum(q) % 3 == 0
    }
    assert induced == subgroup


def _inverse(m):
    """The inverse of an invertible matrix: the right block of rref([m | I])."""
    eye = gf3.identity(len(m))
    reduced, _ = gf3.rref(tuple(row + e for row, e in zip(m, eye)))
    assert tuple(row[:len(m)] for row in reduced) == eye, m
    return tuple(row[len(m):] for row in reduced)


def test_every_conic_permutation_is_realized_by_a_lift(model, base, system):
    # the stabilizer of the base preimage induces the full symmetric group on
    # the four conics; collect the 24 induced permutations constructively
    pencil = {k: system.conics[k].preimage_line for k in cosets.LABEL_ORDER}
    realized = {}
    for entries in itertools.product((0, 1, 2), repeat=4):
        m = gf3.mat([(1, 0, 0), (0,) + entries[:2], (0,) + entries[2:]])
        if gf3.rank(m) != 3:
            continue
        back = gf3.transpose(m)
        perm = {}
        for k, line in pencil.items():
            (image_line,) = pg.apply_collineation(_inverse(back), [line])
            target = next(
                kk for kk, l2 in pencil.items() if l2 == image_line
            )
            perm[k] = target
        realized[tuple(perm[k] for k in cosets.LABEL_ORDER)] = m
    assert len(realized) == 24


def test_rearranged_quadruples_are_witnessed_equivalent(model, base, system):
    # a lifted plane map fixing the base and permuting the conics carries each
    # layer to the same-index layer of the image conic
    swap = gf3.mat([(1, 0, 0), (0, 0, 1), (0, 1, 0)])
    lifted = lift_collineation(swap)
    # read the induced label permutation off the plane action itself
    perm = {}
    for k in cosets.LABEL_ORDER:
        image = frozenset(pg.apply_collineation(lifted, tuple(system.conics[k].points)))
        perm[k] = next(
            kk for kk in cosets.LABEL_ORDER if system.conics[kk].points == image
        )
    for quad in [(0, 1, 2, 0), (2, 1, 0, 1), (1, 1, 2, 2)]:
        s = cosets.twelve_set(model, base, quad)
        image_pts = set(pg.apply_collineation(lifted, tuple(s.points)))
        permuted = [0, 0, 0, 0]
        for i, k in enumerate(cosets.LABEL_ORDER):
            permuted[cosets.LABEL_ORDER.index(perm[k])] = quad[i]
        expected = cosets.twelve_set(model, base, tuple(permuted))
        assert image_pts == expected.points


def test_exotic_analysis(model, base):
    s = cosets.twelve_set(model, base, (2, 0, 0, 0))
    report = cosets.analyze_exotic(model, base, s)
    assert len(report.six_point_primes) == 42
    assert report.common_point == base
    # the 42 primes have no further common point
    stacked = gf3.mat(report.six_point_primes)
    assert len(gf3.nullspace(stacked)) == 1


def test_exotic_analysis_all_27(model, base):
    for q in cosets.all_quadruples():
        if sum(q) % 3 != 2:
            continue
        s = cosets.twelve_set(model, base, q)
        report = cosets.analyze_exotic(model, base, s)
        assert len(report.six_point_primes) == 42
        assert report.common_point == base


def test_exotic_rejects_other_classes(model, base):
    s = cosets.twelve_set(model, base, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        cosets.analyze_exotic(model, base, s)


def test_exotic_profile_differs_from_every_other_class(model, base):
    # the exotic sets are equivalent neither to the cap nor to a punctured
    # surface: the profile invariant separates them
    assert EXOTIC_PROFILE != CAP_PROFILE
    assert EXOTIC_PROFILE != SURFACE_PROFILE
    assert EXOTIC_PROFILE[6] == 42 and CAP_PROFILE[6] == 132


def test_projection_geometry(model, base):
    s = cosets.twelve_set(model, base, (2, 0, 0, 0))
    target = cosets.conic_layers(model, base).target
    assert target == (1, 0, 0, 0, 0, 0)
    proj = cosets.project_from_base(model, base, s, target)
    lines = [set(proj.lines[k]) for k in cosets.LABEL_ORDER]
    assert all(len(l) == 4 for l in lines)
    for a, b in itertools.combinations(lines, 2):
        assert not a & b
    trans = set(proj.transversal)
    assert len(trans) == 4
    for l in lines:
        assert len(trans & l) == 1
    images = set(proj.image_points)
    assert len(images) == 12
    assert images == set().union(*lines) - trans


def test_projection_transversal_is_unique(model, base):
    # no other line of the target prime meets all four projected lines
    s = cosets.twelve_set(model, base, (2, 0, 0, 0))
    proj = cosets.project_from_base(
        model, base, s, cosets.conic_layers(model, base).target
    )
    lines = [set(proj.lines[k]) for k in cosets.LABEL_ORDER]
    carrier = sorted(set().union(*lines))
    transversals = set()
    for a, b in itertools.combinations(carrier, 2):
        line = pg.line_through(a, b)
        if all(len(set(line) & l) == 1 for l in lines):
            transversals.add(tuple(sorted(line)))
    assert transversals == {tuple(sorted(proj.transversal))}


@pytest.mark.parametrize("pre", pg.enumerate_points(2), ids=pg.format_point)
def test_closed_form_projection_matches_line_through(model, pre):
    # x (b.h) I - x h^T b = (b.h) x - (x.h) b is the one point of the line from
    # the base through x that lies on the target, for all 363 points x off the
    # base, and the base itself goes to zero
    b = veronese_map(pre)
    h = cosets.conic_layers(model, b).target
    rest = [x for x in pg.enumerate_points(5) if x != b]
    projection = cosets._projection_matrix(b, h)
    assert not any(gf3.mat_mul([b], projection)[0])
    for x, y in zip(rest, gf3.mat_mul(rest, projection), strict=True):
        (hit,) = [p for p in pg.line_through(b, x) if pg.incident(p, h)]
        assert pg.canonical_point(y) == hit


def test_projection_rejects_a_point_projected_off_the_target(model, base, monkeypatch):
    # the frame reads the projection matrix once per target: build it from an
    # identity, which leaves each set point where it is, and drop the forged
    # frame afterwards
    s = cosets.twelve_set(model, base, (2, 0, 0, 0))
    target = cosets.conic_layers(model, base).target
    stray = min(s.points - cosets._projection_frame(model, base, target)[2])
    assert not pg.incident(stray, target)
    monkeypatch.setattr(cosets, "_projection_matrix", lambda b, h: gf3.identity(6))
    cosets._projection_frame.cache_clear()
    try:
        with pytest.raises(ValueError, match=f"differ at {pg.format_point(stray)}$"):
            cosets.project_from_base(model, base, s, target)
    finally:
        cosets._projection_frame.cache_clear()


@pytest.mark.parametrize("stray", ["tangent", "base"])
def test_projection_rejects_a_point_outside_the_layers(model, base, system, stray):
    # a twelve-set holds only layer points; the base and the rest of its
    # tangent line project nowhere on the lines off the transversal
    s = cosets.twelve_set(model, base, (2, 0, 0, 0))
    x = base if stray == "base" else min(tangent_lines(system.conics[0])[base] - {base})
    forged = cosets.TwelveSet(points=s.points - {min(s.points)} | {x}, quadruple=s.quadruple)
    with pytest.raises(ValueError, match=f"^{pg.format_point(x)} lies in no layer"):
        cosets.project_from_base(model, base, forged, system.target)


def _meet_frame(model, base, target):
    """The frame by solving for it: each plane met with the target prime."""

    def cut(plane):
        meet = pg.flat_from_dual(gf3.nullspace(plane) + [target])
        return tuple(sorted(pg.flat_points(meet)))

    system = cosets.conic_layers(model, base)
    lines = {k: cut(system.conics[k].plane) for k in cosets.LABEL_ORDER}
    return lines, cut(model.tangent_planes[base])


@pytest.mark.parametrize("pre", pg.enumerate_points(2), ids=pg.format_point)
def test_projection_frame_matches_meeting_the_planes_with_the_target(model, pre):
    base = veronese_map(pre)
    off_base = pg.hyperplanes_meeting(5, [base], 0)
    rng = random.Random(pg.enumerate_points(2).index(pre))
    layer_points = set().union(*cosets.conic_layers(model, base).layers.values())
    assert len(layer_points) == 36
    for target in [cosets.conic_layers(model, base).target, *rng.sample(off_base, 5)]:
        lines, transversal, off, images = cosets._projection_frame(model, base, target)
        assert (dict(lines), transversal) == _meet_frame(model, base, target)
        assert off == set().union(*lines.values()) - set(transversal)
        assert images.keys() == layer_points
        for x, y in images.items():
            assert {y} == _line_projection(base, target, [x]) and y in off
    # the frame is the one per-target cache beside the per-base record
    assert {name for name, fn in vars(cosets).items()
            if hasattr(fn, "cache_info") and fn.__module__ == cosets.__name__
            } == {"conic_layers", "_projection_frame"}


@pytest.mark.parametrize("pre", pg.enumerate_points(2), ids=pg.format_point)
def test_every_exotic_set_projects_onto_other_targets(model, pre):
    # the image is read from the frame's table: check it against the planes
    # met with the target, on three primes off the base besides the default
    base = veronese_map(pre)
    off_base = pg.hyperplanes_meeting(5, [base], 0)
    rng = random.Random(100 + pg.enumerate_points(2).index(pre))
    targets = rng.sample(off_base[1:], 3)       # off_base[0] is the default target
    for target in targets:
        lines, transversal = _meet_frame(model, base, target)
        want = tuple(sorted(set().union(*lines.values()) - set(transversal)))
        for q in cosets.all_quadruples():
            if sum(q) % 3 == 2:
                s = cosets.twelve_set(model, base, q)
                proj = cosets.project_from_base(model, base, s, target)
                assert (proj.lines, proj.transversal) == (lines, transversal)
                assert proj.image_points == want


def test_projection_rejects_target_through_base(model, base):
    s = cosets.twelve_set(model, base, (2, 0, 0, 0))
    with pytest.raises(ValueError):
        cosets.project_from_base(model, base, s, (0, 0, 0, 0, 0, 1))


def test_everything_works_at_a_non_default_base(model):
    # projective homogeneity: run the full layer machinery somewhere else,
    # including a base whose preimage lies on the degenerate-label line
    for pre in [(1, 2, 1), (0, 1, 2)]:
        base2 = veronese_map(pre)
        system2 = cosets.conic_layers(model, base2)
        for k in cosets.LABEL_ORDER:
            kappa = _layer_elation(system2, k)
            assert kappa[base2] == base2
            act = _plane_action(system2, system2.space_elations[k])
            powers = cosets.induced_layer_powers(model, base2, act)
            assert powers is not None and powers[cosets.LABEL_ORDER.index(k)] == 0
        report = cosets.verify_orbit_equivalence(model, base2)
        assert report.group_order == 27
        assert report.surface_complete and report.cap_complete
        s = cosets.twelve_set(model, base2, (2, 0, 0, 0))
        exotic = cosets.analyze_exotic(model, base2, s)
        assert len(exotic.six_point_primes) == 42
        assert exotic.common_point == base2


def _coordinate_permutation(perm):
    """The 6x6 matrix sending coordinate i to coordinate perm[i]."""
    return tuple(tuple(int(j == perm[i]) for j in range(6)) for i in range(6))


def _reference_closure(generators, points):
    """The closure keyed by matrix: every product multiplied out, each new
    element's action composed point by point."""
    gens = []
    for g in generators:
        g = pg.canonical_collineation(g)
        gens.append((g, {p: _apply(g, p) for p in points}))
    found = {gf3.identity(len(gens[0][0])): {p: p for p in points}, **dict(gens)}
    frontier = list(found.items())
    while frontier:
        fresh = []
        for g, act_g in frontier:
            for h, act_h in gens:
                gh = pg.compose(g, h)
                if gh not in found:
                    found[gh] = {p: act_h[q] for p, q in act_g.items()}
                    fresh.append((gh, found[gh]))
        frontier = fresh
    return found


def _point_maps(closure, points):
    """group_closure's index actions as point maps on the points."""
    points = tuple(dict.fromkeys(points))
    return {g: dict(zip(points, map(points.__getitem__, act))) for g, act in closure.items()}


def _conic_plane_support(model, base):
    return sorted(set().union(*cosets.conic_layers(model, base).plane_points.values()))


# a transposition and a 3-cycle of the first three coordinates generate S3,
# where g h != h g, so a reversed composition would carry the wrong action
SWAP = _coordinate_permutation((1, 0, 2, 3, 4, 5))
CYCLE = _coordinate_permutation((1, 2, 0, 3, 4, 5))
# the six coordinate points and the all-ones point: a frame, invariant under
# every coordinate permutation
FRAME = tuple(gf3.identity(6)) + ((1,) * 6,)


def test_group_closure_carries_the_action_of_a_non_abelian_group():
    # the point set, every point of PG(5,3), is invariant
    assert pg.compose(SWAP, CYCLE) != pg.compose(CYCLE, SWAP)
    points = pg.enumerate_points(5)
    closure = _point_maps(cosets.group_closure([SWAP, CYCLE], points), points)
    assert len(closure) == 6
    for g, act in closure.items():
        assert act == dict(zip(points, pg.apply_collineation(g, points)))
    assert list(closure.items()) == list(_reference_closure([SWAP, CYCLE], points).items())


def test_group_closure_of_a_non_abelian_group_on_a_frame_matches_the_reference():
    closure = _point_maps(cosets.group_closure([SWAP, CYCLE], FRAME), FRAME)
    assert len(closure) == 6
    assert list(closure.items()) == list(_reference_closure([SWAP, CYCLE], FRAME).items())


@pytest.mark.parametrize("pre", pg.enumerate_points(2), ids=pg.format_point)
def test_group_closure_at_every_base_matches_the_reference(model, pre):
    base = veronese_map(pre)
    support = _conic_plane_support(model, base)
    assert pg.determines_collineations(tuple(support))
    system = cosets.conic_layers(model, base)
    mus = [system.space_elations[k] for k in cosets.LABEL_ORDER]
    closure = _point_maps(cosets.group_closure(mus, support), support)
    assert len(closure) == 27
    assert list(closure.items()) == list(_reference_closure(mus, support).items())


def test_group_closure_of_no_generators_is_the_trivial_group():
    points = pg.enumerate_points(2)
    closure = _point_maps(cosets.group_closure([], points), points)
    assert closure == {gf3.identity(3): {p: p for p in points}}


def test_group_closure_of_a_one_point_set_is_a_tuple_action():
    # only in PG(0,3) does one point determine collineations; the group is
    # trivial, and its one action maps the point to itself
    closure = _point_maps(cosets.group_closure([((2,),)], [(1,)]), [(1,)])
    assert closure == {((1,),): {(1,): (1,)}}


def test_group_closure_refuses_points_that_do_not_determine_collineations():
    # a diagonal matrix fixes every coordinate point, so its action there is
    # the identity's, and keying the group by actions would lose it
    diagonal = pg.collineation(
        tuple(tuple(int(i == j) * (2 if i == 1 else 1) for j in range(6)) for i in range(6))
    )
    with pytest.raises(ValueError, match="other than the identity fixes every point"):
        cosets.group_closure([diagonal], tuple(gf3.identity(6)))


def test_group_closure_names_a_generator_that_leaves_the_point_set():
    swap = _coordinate_permutation((3, 1, 2, 0, 4, 5))
    points = [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)]
    with pytest.raises(ValueError, match=re.escape(
        f"generator {swap} sends 1:0:0:0:0:0 to 0:0:0:1:0:0, off the point set"
    )):
        cosets.group_closure([swap], points)


def test_group_closure_names_a_generator_that_does_not_permute_the_point_set():
    # a singular matrix, defined off its kernel point (0,0,1): it sends the
    # other 12 points of PG(2,3) onto the 4 points of the line {x2 = 0}, all
    # inside the set, and used to close into a "group" of order 2
    singular = ((1, 0, 0), (0, 1, 0), (0, 0, 0))
    points = [p for p in pg.enumerate_points(2) if p != (0, 0, 1)]
    with pytest.raises(ValueError, match=re.escape(
        f"generator {singular} sends 0:1:1 to 0:1:0, the image of 0:1:0 too"
    )):
        cosets.group_closure([singular], points)


# Per-point reference routines: each collineation image by an explicit
# sum over the matrix entries, elation powers by composing the permutation,
# prime sections by pg.incident, projections by searching pg.line_through.


def _apply(g, p):
    return pg.canonical_point(sum(x * row[j] for x, row in zip(p, g)) for j in range(len(g)))


def _induced_powers(model, base, g):
    system = cosets.conic_layers(model, base)
    out = []
    for k in cosets.LABEL_ORDER:
        kappa = _layer_elation(system, k)
        perm = {p: _apply(g, p) for p in pg.flat_points(system.conics[k].plane)}
        power = {p: p for p in kappa}
        for e in (0, 1, 2):
            if perm == power:
                out.append(e)
                break
            power = {p: kappa[q] for p, q in power.items()}
        else:
            return None
    return tuple(out)


def _line_projection(base, target, pts):
    out = set()
    for x in pts:
        (hit,) = [p for p in pg.line_through(base, x) if pg.incident(p, target)]
        out.add(hit)
    return out


@pytest.mark.parametrize("pre", pg.enumerate_points(2), ids=pg.format_point)
def test_orbit_and_exotic_reports_match_per_point_routines(model, pre):
    base = veronese_map(pre)
    system = cosets.conic_layers(model, base)
    support = sorted(set().union(*system.plane_points.values()))
    group = sorted(
        cosets.group_closure(
            [system.space_elations[k] for k in cosets.LABEL_ORDER], support
        )
    )
    report = cosets.verify_orbit_equivalence(model, base)
    assert report.group_order == len(group) == 27
    assert list(report.induced_quadruples.items()) == [
        (g, _induced_powers(model, base, g)) for g in group
    ]
    by_points = {
        cosets.twelve_set(model, base, q).points: q for q in cosets.all_quadruples()
    }
    for rep, got in (((0, 0, 0, 0), report.surface_witnesses),
                     ((1, 1, 1, 1), report.cap_witnesses)):
        start = cosets.twelve_set(model, base, rep).points
        want = {}
        for g in group:
            q = by_points.get(frozenset(_apply(g, p) for p in start))
            if q is not None and q not in want:
                want[q] = g
        assert list(got.items()) == list(want.items())

    # incidence of every point of the 81 sets with every prime, point by point
    on = {
        p: [pg.incident(p, h) for h in pg.enumerate_hyperplanes(5)]
        for layer in system.layers.values()
        for p in layer
    }
    target = system.target
    assert not pg.incident(base, target)
    lines = {
        k: tuple(sorted(_line_projection(base, target, set(system.plane_points[k]) - {base})))
        for k in cosets.LABEL_ORDER
    }
    transversal = tuple(sorted(_line_projection(
        base, target, set(pg.flat_points(model.tangent_planes[base])) - {base}
    )))
    for q in cosets.all_quadruples():
        if sum(q) % 3 != 2:
            continue
        s = cosets.twelve_set(model, base, q)
        sizes = [sum(col) for col in zip(*(on[p] for p in s.points))]
        er = cosets.analyze_exotic(model, base, s)
        assert er.six_point_primes == tuple(
            h for h, n in zip(pg.enumerate_hyperplanes(5), sizes) if n == 6
        )
        assert er.common_point == base
        assert all(pg.incident(base, h) for h in er.six_point_primes)
        proj = er.projection
        assert proj.target == target
        assert proj.lines == lines
        assert proj.transversal == transversal
        assert proj.image_points == tuple(sorted(_line_projection(base, target, s.points)))

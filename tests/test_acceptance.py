"""Acceptance suite: one test per criterion, all exact, full scale.

Every check runs over the complete object (364 primes, 792 five-subsets,
729 codewords, 81 quadruples); nothing is sampled and no tolerances apply.
Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import itertools
import random

import pytest

from wittcap import cap as capmod
from wittcap import cosets, gf3, golay, pg
from wittcap.veronese import (
    chordal_cubic_contains,
    classify_conic_plane,
    lift_collineation,
    veronese_map,
)


def _report(num, ok, description):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, description


@pytest.mark.parametrize("pre", pg.enumerate_points(2), ids=pg.format_point)
def test_criterion_01_cap_construction_agreement(model, pre):
    base = veronese_map(pre)
    cap = capmod.build_cap(model, base)
    formula_points = {capmod.cap_map(x, base) for x in capmod.cap_domain(base)}
    ok = (
        len(cap.points) == 12
        and len(formula_points) == 12
        and cap.points == formula_points
    )
    _report(1, ok, "both cap constructions agree pointwise, 12 = 12")


def test_criterion_02_witt_design(design):
    sizes_ok = all(len(b.points) == 6 for b in design.blocks)
    block_sets = [b.points for b in design.blocks]
    cover_ok = True
    count = 0
    for five in itertools.combinations(sorted(design.points), 5):
        count += 1
        if sum(1 for b in block_sets if set(five) <= b) != 1:
            cover_ok = False
            break
    ok = len(design.blocks) == 132 and sizes_ok and cover_ok and count == 792
    _report(2, ok, "132 six-point blocks; each of 792 five-subsets in exactly one")


def test_criterion_03_twelve_empty_primes_match_dual_construction(
    model, base, cap, dual_cap
):
    missed = capmod.missed_primes(cap)
    literals = {
        pg.canonical_point(v)
        for v in [(0, 0, 0, 1, 0, 1), (0, 0, 0, 2, 2, 1), (0, 0, 0, 2, 1, 1)]
    }
    ok = (
        len(missed) == 12
        and set(missed) == dual_cap.primes
        and literals <= dual_cap.primes
    )
    _report(3, ok, "exactly 12 empty primes, equal to the dual cap with its literals")


def test_criterion_04_no_incidence_between_cap_and_dual(cap, dual_cap):
    incidences = sum(
        1 for p in cap.points for h in dual_cap.primes if pg.incident(p, h)
    )
    _report(4, incidences == 0, "zero incidences between cap points and dual primes")


def test_criterion_05_automorphism_order(design):
    order = capmod.automorphism_order(design)
    _report(5, order == 95040, f"design automorphism group order {order}")


def test_criterion_06_golay_code(code, design):
    words = golay.enumerate_codewords(code)
    dist = golay.weight_distribution(code)
    supports = golay.weight6_supports(code)
    ok = (
        golay.code_rank(code) == 6
        and len(words) == 729
        and golay.minimum_distance(code) == 6
        and golay.is_self_dual(code)
        and dist.get(6) == 264
        and supports == {b.points for b in design.blocks}
        and len(supports) == 132
    )
    _report(6, ok, "[12,6,6] self-dual code; weight-6 supports are the 132 blocks")


def test_criterion_07_spanning_vector_identities():
    ok = capmod.vector_identity_check()
    # recheck the quantifier range explicitly: 8 directions x 3 shifts
    checked = 0
    v_inf = (1, 0, 0, 0, 0, 0)
    for x1, x2 in itertools.product((0, 1, 2), repeat=2):
        if (x1, x2) == (0, 0):
            continue
        v = {
            u: tuple(
                t % 3 for t in (u * u, u * x1, u * x2, x1 * x1, x1 * x2, x2 * x2)
            )
            for u in (0, 1, 2)
        }
        for u in (0, 1, 2):
            checked += 1
            lhs = gf3.vec_add(v[u], v_inf)
            rhs = gf3.vec_scale(2, gf3.vec_add(v[(u + 1) % 3], v[(u + 2) % 3]))
            ok = ok and lhs == rhs
    _report(7, ok and checked == 24, "spanning-vector and rescaling identities hold")


def test_criterion_08_layer_elations_and_their_extension(model, base):
    system = cosets.conic_layers(model, base)
    ok = True
    for k in cosets.LABEL_ORDER:
        kappa = system.layer_elations[k]
        for j in (0, 1, 2):
            image = {kappa[p] for p in system.layers[(k, j)]}
            ok = ok and image == system.layers[(k, (j + 1) % 3)]
    mu0 = system.space_elations[0]
    ok = ok and mu0 == cosets.BASE_EXTENSION
    support = set().union(*system.plane_points.values())
    act = {p: pg.apply_collineation(mu0, p) for p in support}
    ok = ok and cosets.induced_layer_powers(model, base, act) == (0, 1, 1, 1)
    for p in pg.flat_points(system.conics[0].plane):
        ok = ok and pg.apply_collineation(mu0, p) == p
    _report(8, ok, "elations cycle the layers; the literal extension restricts right")


def test_criterion_09_coset_scan_and_orbit_structure(model, base):
    sums = [sum(q) % 3 for q in cosets.all_quadruples()]
    ok = sums.count(0) == sums.count(1) == sums.count(2) == 27
    report = cosets.verify_orbit_equivalence(model, base)
    ok = ok and report.group_order == 27
    ok = ok and report.powers_sum_zero and report.powers_bijective
    ok = ok and report.surface_complete and report.cap_complete
    ok = ok and not report.joint_unit_extension
    _report(9, ok, "27 per class; extension group of order 27 sweeps both orbits")


def test_criterion_10_exotic_sets(model, base):
    ok = True
    for q in cosets.all_quadruples():
        if sum(q) % 3 != 2:
            continue
        s = cosets.twelve_set(model, base, q)
        report = cosets.analyze_exotic(model, base, s)
        ok = ok and len(report.six_point_primes) == 42
        ok = ok and report.common_point == base
        proj = report.projection
        lines = [set(proj.lines[k]) for k in cosets.LABEL_ORDER]
        for a, b in itertools.combinations(lines, 2):
            ok = ok and not a & b
        trans = set(proj.transversal)
        ok = ok and all(len(trans & l) == 1 for l in lines)
        ok = ok and len(proj.image_points) == 12
        ok = ok and set(proj.image_points) == set().union(*lines) - trans
    _report(10, ok, "42 six-point primes meeting only at the base; projection shape")


def test_criterion_11_chordal_cubic(model, base):
    ok = all(chordal_cubic_contains(p) for p in model.points)
    for q in cosets.all_quadruples():
        s = cosets.twelve_set(model, base, q)
        ok = ok and all(chordal_cubic_contains(p) for p in s.points)
    _report(11, ok, "all 13 surface points and all 81 twelve-sets on the cubic")


def test_criterion_12_property_suite(model):
    ok = True
    for c in model.conics:
        union = []
        for p in sorted(c.points):
            union.extend(model.tangent_planes[p])
        ok = ok and pg.span(union) == pg.flat_from_dual([model.osculating_primes[c]])
    for p in model.points:
        primes = [model.osculating_primes[c] for c in model.conics_through(p)]
        on_all = {x for x in pg.enumerate_points(5) if all(pg.incident(x, h) for h in primes)}
        ok = ok and on_all == set(pg.flat_points(model.tangent_planes[p]))
    for c in model.conics:
        part = classify_conic_plane(c)
        ok = ok and (len(part.on_conic), len(part.internal), len(part.external)) == (
            4,
            3,
            6,
        )
    rng = random.Random(12)
    pairs = []
    while len(pairs) < 100:
        a = tuple(tuple(rng.randrange(3) for _ in range(3)) for _ in range(3))
        b = tuple(tuple(rng.randrange(3) for _ in range(3)) for _ in range(3))
        if gf3.rank(a) == 3 and gf3.rank(b) == 3:
            pairs.append((a, b))
    for a, b in pairs:
        ok = ok and lift_collineation(gf3.mat_mul(a, b)) == pg.compose(
            lift_collineation(a), lift_collineation(b)
        )
    _report(12, ok, "contact-structure equalities, partitions, lift homomorphism")

import random

import pytest

from wittcap import cap as capmod
from wittcap import design as designmod
from wittcap import golay as golaymod
from wittcap import pg
from wittcap.veronese import build_model, classify_conic_plane, veronese_map


@pytest.fixture(scope="session")
def model():
    return build_model()


@pytest.fixture(scope="session")
def base(model):
    return veronese_map((1, 0, 0))


@pytest.fixture(scope="session")
def base_extension():
    """The space elation fixing the prime {y22 = 0} pointwise and the base
    point (1,0,0,0,0,0) linewise that extends the label-0 layer elation
    trivially and the other three in their cycling direction: it adds y22 to
    y00.  It is the paper's reference matrix; the label-0 space elation of
    cosets.conic_layers must reproduce it at that base."""
    return pg.collineation(
        (
            (1, 0, 0, 0, 0, 0),
            (0, 1, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 1, 0),
            (1, 0, 0, 0, 0, 1),
        )
    )


@pytest.fixture(scope="session")
def internal_partner(model):
    """The reference the closed forms are checked against: the internal
    point of the conic through the base and the surface point y that lies on
    the line through them, found by search; there must be exactly one."""

    def partner(base, y):
        conic = next(c for c in model.conics if {base, y} <= c.points)
        internal = classify_conic_plane(conic).internal
        hits = [p for p in pg.line_through(base, y) if p in internal]
        assert len(hits) == 1, f"{len(hits)} internal points on the line {base} {y}"
        return hits[0]

    return partner


@pytest.fixture(scope="session")
def cap(model, base):
    return capmod.build_cap(model, base)


@pytest.fixture(scope="session")
def design(cap):
    return capmod.blocks(cap)


@pytest.fixture(scope="session")
def dual_cap(model, base):
    return capmod.build_dual_cap(model, base)


@pytest.fixture(scope="session")
def code(model):
    return golaymod.generator_matrix(capmod.build_cap_from_formula(model))


@pytest.fixture(scope="session")
def small_block_systems():
    """Block systems (masks, n) on at most 7 points, bit i for point i:
    hand-picked edge cases, then seeded random systems with empty, repeated
    and nested blocks."""
    cases = [
        # a map sending {0} into the larger block {0,1,2} is no automorphism
        ((0b1, 0b111), 3),
        ((), 5),
        ((0,), 4),
        ((0b11, 0b11, 0b100), 5),
        ((0b111, 0b1, 0, 0b110), 6),
    ]
    rng = random.Random(4)
    for i in range(120):
        n = 7 if i % 8 == 0 else rng.randint(1, 6)
        masks = [
            sum(1 << j for j in rng.sample(range(n), rng.randint(0, n)))
            for _ in range(rng.randint(0, 5))
        ]
        if masks and rng.random() < 0.3:
            masks.append(masks[0])
        cases.append((tuple(masks), n))
    return cases


@pytest.fixture(scope="session")
def checked_chain():
    """design.stabiliser_chain(masks, n), each generator checked: it permutes
    range(n), maps the set of blocks onto itself, fixes base[:depth]
    pointwise and moves base[depth].  Returns the orbit lengths and the
    generators' permutations."""

    def chain(masks, n):
        base, orbit_lengths, gens = designmod.stabiliser_chain(masks, n)
        assert sorted(base) == list(range(n)) and len(orbit_lengths) == n
        blocks = set(masks)
        for depth, g in gens:
            assert sorted(g) == list(range(n))
            assert {sum(1 << g[i] for i in range(n) if m >> i & 1) for m in blocks} == blocks
            assert all(g[b] == b for b in base[:depth]), (depth, g)
            assert g[base[depth]] != base[depth], (depth, g)
        return orbit_lengths, [g for _, g in gens]

    return chain

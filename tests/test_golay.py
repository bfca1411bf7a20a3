import dataclasses
import itertools
import random

import pytest

from wittcap import cap as capmod
from wittcap import gf3, golay, pg
from wittcap.veronese import veronese_map

# frozen regression fixture: full weight enumeration of the 729 codewords
EXPECTED_WEIGHTS = {0: 1, 6: 264, 9: 440, 12: 24}

# golden generator matrix (columns = cap points in parameter lex order)
GOLDEN_GENERATOR = (
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (0, 0, 0, 0, 0, 0, 2, 2, 2, 1, 1, 1),
    (0, 0, 0, 0, 2, 1, 0, 2, 1, 0, 2, 1),
    (0, 1, 1, 1, 0, 0, 2, 2, 2, 2, 2, 2),
    (0, 0, 1, 2, 0, 0, 0, 2, 1, 0, 1, 2),
    (1, 0, 1, 1, 2, 2, 0, 2, 2, 0, 2, 2),
)


def test_generator_matrix_golden(code):
    assert code.generator == GOLDEN_GENERATOR


@pytest.mark.parametrize("pre", pg.enumerate_points(2), ids=pg.format_point)
def test_generator_matrix_at_every_base(model, pre):
    cap = capmod.build_cap(model, veronese_map(pre))
    code = golay.generator_matrix(cap)
    assert golay.code_rank(code) == 6
    assert golay.is_self_dual(code)
    assert golay.weight_distribution(code) == EXPECTED_WEIGHTS
    assert golay.weight6_supports(code) == {b.points for b in capmod.blocks(cap).blocks}
    if pre == (1, 0, 0):
        assert code.generator == GOLDEN_GENERATOR


def test_generator_matrix_names_a_stray_point(cap):
    p = min(cap.points)
    q = next(x for x in pg.enumerate_points(5) if x not in cap.points)
    moved = dataclasses.replace(cap, points=cap.points - {p} | {q})
    with pytest.raises(ValueError) as err:
        golay.generator_matrix(moved)
    assert str(min(p, q)) in str(err.value)


def test_columns_are_distinct_cap_points(code, cap):
    assert len(set(code.column_points)) == 12
    assert set(code.column_points) == cap.points


def test_column_for_a_known_preimage(code):
    i = capmod.cap_domain().index((0, 1, 0))
    column = tuple(row[i] for row in code.generator)
    assert column == (1, 0, 0, 1, 0, 0)


def test_rank_is_six(code):
    assert golay.code_rank(code) == 6


def test_codeword_enumeration(code):
    words = golay.enumerate_codewords(code)
    assert len(words) == 729
    assert (0,) * 12 in words
    as_set = set(words)
    assert len(as_set) == 729
    # closed under negation
    for w in words:
        assert tuple((2 * x) % 3 for x in w) in as_set


def _rank5_code(code):
    """Seeded 6x12 code of rank 5: the last row is the sum of the first two."""
    rng = random.Random(5)
    rows = ()
    while gf3.rank(rows) != 5:
        rows = tuple(tuple(rng.randrange(3) for _ in range(12)) for _ in range(5))
    return golay.TernaryCode(
        generator=rows + (gf3.vec_add(rows[0], rows[1]),),
        column_points=code.column_points,
    )


@pytest.mark.parametrize("rank5", [False, True], ids=["golay", "rank5"])
def test_codeword_order_is_coefficient_lex_order(code, rank5):
    if rank5:
        code = _rank5_code(code)
    expected = gf3.mat_mul(tuple(itertools.product((0, 1, 2), repeat=6)), code.generator)
    words = golay.enumerate_codewords(code)
    assert words == expected  # element by element, duplicates included
    assert len(set(words)) == (243 if rank5 else 729)
    # weight6_supports reads one word of each negation pair, by position
    assert golay.weight6_supports(code) == {
        frozenset(p for p, x in zip(code.column_points, w) if x)
        for w in expected if w.count(0) == 6
    }


def _random_rows(seed, k, n, entries):
    rng = random.Random(seed)
    return tuple(tuple(rng.choice(entries) for _ in range(n)) for _ in range(k))


@pytest.mark.parametrize(
    "rows",
    [
        ((2,) * 12,) * 6,  # the largest lane sums
        _random_rows(1, 3, 5, (0, 1, 2)),
        ((2,),),
        _random_rows(2, 4, 12, (-4, -1, 0, 1, 2, 3, 5, 7)),  # unreduced entries
    ],
    ids=["all_2", "3x5", "1x1", "unreduced"],
)
def test_lane_encoding_matches_the_direct_product(code, rows):
    # the reference reduces each entry's sum mod 3, so unreduced rows are fine
    expected = tuple(
        tuple(sum(x * row[j] for x, row in zip(a, rows)) % 3 for j in range(len(rows[0])))
        for a in itertools.product((0, 1, 2), repeat=len(rows))
    )
    lanes = golay.enumerate_codewords(dataclasses.replace(code, generator=rows))
    assert lanes == expected  # element by element


def test_weight_distribution_by_independent_enumeration(model):
    # oracle: recompute every codeword directly from coefficient tuples, at
    # every base, for the weights and the weight-6 supports
    for pre in pg.enumerate_points(2):
        code = golay.generator_matrix(capmod.build_cap(model, veronese_map(pre)))
        counts, supports = {}, set()
        for coeffs in itertools.product((0, 1, 2), repeat=6):
            word = [0] * 12
            for c, row in zip(coeffs, code.generator):
                for j, x in enumerate(row):
                    word[j] = (word[j] + c * x) % 3
            support = frozenset(p for p, x in zip(code.column_points, word) if x)
            counts[len(support)] = counts.get(len(support), 0) + 1
            if len(support) == 6:
                supports.add(support)
        assert counts == EXPECTED_WEIGHTS, pre
        assert golay.weight_distribution(code) == EXPECTED_WEIGHTS, pre
        assert golay.weight6_supports(code) == supports, pre


def test_minimum_distance_is_six(code):
    assert golay.minimum_distance(code) == 6


def test_weights_come_in_negation_pairs(code):
    for w, count in golay.weight_distribution(code).items():
        if w:
            assert count % 2 == 0


def test_self_dual(code):
    assert golay.is_self_dual(code)


def test_self_dual_rejects_counterexample(code):
    # rank-6 matrix with a self-non-orthogonal first row
    rows = tuple(
        tuple(1 if i == j else 0 for j in range(12)) for i in range(6)
    )
    assert gf3.rank(rows) == 6
    bad = golay.TernaryCode(
        generator=rows,
        column_points=code.column_points,
    )
    assert not golay.is_self_dual(bad)


def test_self_dual_reads_every_generator_row(code):
    # rows 0-5 are pairwise orthogonal and span rank 6 with the 7th row, but
    # the 7th row has dot 1 with itself
    g = code.generator
    unit = (1,) + (0,) * 11
    rows = (g[0],) + g[:5] + (unit,)
    assert gf3.rank(rows) == 6 and gf3.dot(unit, unit) == 1
    bad = golay.TernaryCode(generator=rows, column_points=code.column_points)
    assert not golay.is_self_dual(bad)


@pytest.mark.parametrize("extra", [1, 2], ids=["odd length 13", "dimension 6 of 14"])
def test_self_dual_needs_rank_half_the_length(code, extra):
    # zero columns keep every row orthogonal, but the row space is no longer
    # its own dual: its dimension must be half the length
    rows = tuple(row + (0,) * extra for row in code.generator)
    bad = golay.TernaryCode(generator=rows, column_points=code.column_points)
    assert not golay.is_self_dual(bad)


def test_hyperplane_incidence_vectors_are_codewords(code):
    # with self-duality, zero patterns of codewords match prime sections:
    # for every prime, the vector of its values at the columns is a codeword
    from wittcap import pg

    words = set(golay.enumerate_codewords(code))
    for h in pg.enumerate_hyperplanes(5):
        vec = tuple(gf3.dot(p, h) for p in code.column_points)
        assert vec in words


def test_weight6_supports_are_the_design_blocks(code, design):
    supports = golay.weight6_supports(code)
    assert len(supports) == 132  # 264 words in negation pairs
    assert supports == {b.points for b in design.blocks}


def test_codewords_are_enumerated_once_per_code(code, design):
    assert golay.enumerate_codewords(code) is golay.enumerate_codewords(code)
    # a replaced code or design is a new object, with nothing cached
    assert len(design._block_masks) == 132
    for obj, memo in ((code, "_words"), (design, "_block_masks")):
        assert memo in vars(obj)
        assert memo not in vars(dataclasses.replace(obj))


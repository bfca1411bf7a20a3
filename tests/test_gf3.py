import itertools
import random

import pytest

from wittcap import gf3

F = (0, 1, 2)


def test_field_axioms_exhaustive():
    # the whole field fits in a triple loop, so check everything
    for a, b in itertools.product(F, F):
        assert (a + b) % 3 == (b + a) % 3
        assert (a * b) % 3 == (b * a) % 3
    for a, b, c in itertools.product(F, F, F):
        assert ((a + b) + c) % 3 == (a + (b + c)) % 3
        assert ((a * b) * c) % 3 == (a * (b * c)) % 3
        assert (a * (b + c)) % 3 == (a * b + a * c) % 3
    for a in F:
        assert (a + (3 - a)) % 3 == 0
    assert (2 * 2) % 3 == 1  # 2 is its own multiplicative inverse


def test_rref_identity():
    eye = gf3.identity(3)
    assert gf3.rref(eye) == (eye, 3)


def test_rref_dependent_rows():
    m = gf3.mat([(1, 2, 0), (2, 1, 0)])
    reduced, rank = gf3.rref(m)
    assert rank == 1
    assert reduced[0] == (1, 2, 0)
    assert reduced[1] == (0, 0, 0)


def test_rref_already_reduced():
    m = gf3.mat([(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)])
    reduced, rank = gf3.rref(m)
    assert rank == 2
    assert reduced == m


def _row_space(m):
    """Brute-force row space: all GF(3) combinations of the rows."""
    vectors = set()
    for coeffs in itertools.product(F, repeat=len(m)):
        v = [0] * len(m[0])
        for c, row in zip(coeffs, m):
            for j, x in enumerate(row):
                v[j] = (v[j] + c * x) % 3
        vectors.add(tuple(v))
    return vectors


def _elimination_transform(m):
    """Row-reduce [m | I] to recover the transform matrix, independently of
    gf3.rref's internals."""
    n = len(m)
    aug = gf3.mat([tuple(row) + tuple(1 if i == j else 0 for j in range(n))
                   for i, row in enumerate(m)])
    reduced, _ = gf3.rref(aug)
    width = len(m[0])
    return tuple(row[width:] for row in reduced)


def test_rref_preserves_row_space_and_is_idempotent():
    rng = random.Random(0)
    for _ in range(50):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 7)
        m = gf3.mat([[rng.randrange(3) for _ in range(cols)] for _ in range(rows)])
        reduced, rank = gf3.rref(m)
        assert _row_space(m) == _row_space(reduced)
        assert gf3.rref(reduced) == (reduced, rank)
        assert rank == sum(1 for r in reduced if any(r))


def test_transform_matrix_reproduces_rref():
    rng = random.Random(1)
    for _ in range(25):
        m = gf3.mat([[rng.randrange(3) for _ in range(4)] for _ in range(3)])
        t = _elimination_transform(m)
        assert gf3.mat_mul(t, m) == gf3.rref(m)[0]


def test_nullspace_zero_matrix():
    basis = gf3.nullspace(gf3.mat([(0, 0, 0)]))
    assert len(basis) == 3


def test_nullspace_full_rank():
    assert gf3.nullspace(gf3.identity(3)) == []


def test_nullspace_single_row_six_columns():
    basis = gf3.nullspace(gf3.mat([(1, 0, 0, 0, 0, 0)]))
    assert len(basis) == 5
    assert all(v[0] == 0 for v in basis)


def test_nullspace_is_annihilated():
    rng = random.Random(2)
    for _ in range(30):
        m = gf3.mat([[rng.randrange(3) for _ in range(5)] for _ in range(3)])
        basis = gf3.nullspace(m)
        assert len(basis) == 5 - gf3.rank(m)
        for v in basis:
            assert all(gf3.dot(row, v) == 0 for row in m)


def _mat_mul_reference(a, b):
    """Triple-loop product, independent of gf3's row/column iteration."""
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            s = 0
            for k in range(len(b)):
                s += a[i][k] * b[k][j]
            row.append(s % 3)
        out.append(tuple(row))
    return tuple(out)


def _random_mat(rng, rows, cols):
    return gf3.mat([[rng.randrange(3) for _ in range(cols)] for _ in range(rows)])


def test_products_match_triple_loop_reference():
    rng = random.Random(11)
    shapes = [(1, 1, 1), (6, 6, 12), (1, 6, 12)]
    shapes += [(rng.randrange(1, 7), rng.randrange(1, 7), rng.randrange(1, 13)) for _ in range(60)]
    for r, k, c in shapes:
        a, b = _random_mat(rng, r, k), _random_mat(rng, k, c)
        assert gf3.mat_mul(a, b) == _mat_mul_reference(a, b)
        for x in a:
            assert gf3.mat_mul((x,), b) == _mat_mul_reference((x,), b)
    # 6x6 collineations, as pg composes and applies them
    found = 0
    while found < 10:
        m, t = _random_mat(rng, 6, 6), _random_mat(rng, 6, 6)
        if gf3.rank(m) < 6 or gf3.rank(t) < 6:
            continue
        found += 1
        assert gf3.mat_mul(m, t) == _mat_mul_reference(m, t)
        x = tuple(rng.randrange(3) for _ in range(6))
        assert gf3.mat_mul((x,), m) == _mat_mul_reference((x,), m)


def test_dot_matches_triple_loop_reference():
    # a dot product is the 1 x n by n x 1 matrix product
    rng = random.Random(13)
    for n in range(1, 13):
        for _ in range(20):
            u, v = (tuple(rng.randrange(3) for _ in range(n)) for _ in range(2))
            assert gf3.dot(u, v) == _mat_mul_reference((u,), tuple((b,) for b in v))[0][0]


@pytest.mark.parametrize("delta", [-1, 1])
def test_products_reject_mismatched_inner_dimension(delta):
    rng = random.Random(12)
    a, b = _random_mat(rng, 3, 4), _random_mat(rng, 4 + delta, 5)
    with pytest.raises(ValueError, match="inner dimensions differ"):
        gf3.mat_mul(a, b)
    with pytest.raises(ValueError, match="inner dimensions differ"):
        gf3.mat_mul(a[:1], b)
    with pytest.raises(ValueError, match="vector lengths differ"):
        gf3.dot(a[0], gf3.transpose(b)[0])


def test_mat_mul_at_the_largest_inner_dimension():
    # all-2 entries fill every byte lane to 4 * 63 = 252, the most it holds
    rng = random.Random(14)
    a = ((2,) * 63,) * 3 + (_random_mat(rng, 1, 63)[0],)
    b = ((2,) * 5,) * 63
    assert gf3.mat_mul(a, b) == _mat_mul_reference(a, b)
    with pytest.raises(ValueError, match="inner dimension 64"):
        gf3.mat_mul(((2,) * 64,), ((2,),) * 64)


@pytest.mark.parametrize(
    "a, b, message",
    [
        (((1, 0), (1,)), ((1,), (1,)), "inner dimensions differ"),        # ragged a
        (((1, -1),), ((1,), (1,)), "entries must be 0, 1 or 2"),
        (((1, 1),), ((1,), (-1,)), "entries must be 0, 1 or 2"),
        (((1, 3),), ((1,), (1,)), "entries must be 0, 1 or 2"),
        (((1, 1),), ((1, 0), (1,)), "ragged matrix"),        # zip(*b) would truncate
    ],
    ids=["ragged", "negative_left", "negative_right", "unreduced", "ragged_right"],
)
def test_mat_mul_refuses_bad_shapes_and_entries(a, b, message):
    with pytest.raises(ValueError, match=message):
        gf3.mat_mul(a, b)


@pytest.mark.parametrize("kernel", [gf3.rref, gf3.rank, gf3.row_basis, gf3.nullspace],
                         ids=["rref", "rank", "row_basis", "nullspace"])
@pytest.mark.parametrize(
    "m, message",
    [
        (((1,), (1, 2)), "ragged matrix"),        # the longer row was truncated
        (((1, 2), (1,)), "ragged matrix"),        # an IndexError past the shorter row
        (((1, 2), (0,)), "ragged matrix"),
        (((5, 0), (0, 1)), "entries must be 0, 1 or 2"),   # the 5 was kept
        (((1, -1),), "entries must be 0, 1 or 2"),
        (((0, 3),), "entries must be 0, 1 or 2"),
    ],
    ids=["long_last", "short_last", "short_zero", "five", "negative", "unreduced"],
)
def test_elimination_refuses_bad_shapes_and_entries(kernel, m, message):
    with pytest.raises(ValueError, match=message):
        kernel(m)

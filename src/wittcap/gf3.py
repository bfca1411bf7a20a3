"""Exact arithmetic and small dense linear algebra over GF(3) = {0, 1, 2}.

Vectors are tuples of ints in {0,1,2}, matrices are tuples of row tuples.
Everything is an immutable value; every operation returns a new value.
Scale is tiny (nothing bigger than 6x12), so plain ints mod 3 beat any
table or array machinery.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable, Sequence

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


def vec(entries: Iterable[int]) -> Vector:
    return tuple(e % 3 for e in entries)


def mat(rows: Iterable[Iterable[int]]) -> Matrix:
    m = tuple(vec(r) for r in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def vec_add(u: Sequence[int], v: Sequence[int]) -> Vector:
    return tuple((a + b) % 3 for a, b in zip(u, v, strict=True))


def vec_scale(c: int, u: Sequence[int]) -> Vector:
    return tuple((c * a) % 3 for a in u)


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError("vector lengths differ")
    return sum(map(mul, u, v)) % 3


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple([vec_mat(row, b) for row in a])


def vec_mat(x: Sequence[int], m: Matrix) -> Vector:
    """Row-vector action x * m (the convention used project-wide)."""
    if len(x) != len(m):
        raise ValueError("inner dimensions differ")
    # lists, not generators: tuple() grows a generator's tuple by realloc,
    # and each freed result would then park on the tuple free list
    return tuple([sum(map(mul, x, col)) % 3 for col in zip(*m)])


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form over GF(3) plus the rank.

    Shape is preserved; zero rows sink to the bottom.  Inverses are free:
    the only nonzero scalars are 1 and 2, and 2 is its own inverse.
    """
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(ncols):
        pivot = next((r for r in range(pivot_row, nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        if rows[pivot_row][col] == 2:
            rows[pivot_row] = [(2 * x) % 3 for x in rows[pivot_row]]
        for r in range(nrows):
            if r != pivot_row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % 3 for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == nrows:
            break
    return tuple(tuple(r) for r in rows), pivot_row


def row_basis(m: Matrix) -> Matrix:
    """Nonzero rows of rref(m): the canonical basis of the row space."""
    reduced, rank = rref(m)
    return reduced[:rank]


def rank(m: Matrix) -> int:
    return rref(m)[1]


def nullspace(m: Matrix) -> list[Vector]:
    """Basis of {x : m . x = 0}, one vector per free column, deterministic."""
    if not m:
        return []
    ncols = len(m[0])
    reduced, rk = rref(m)
    pivot_cols = []
    for r in range(rk):
        pivot_cols.append(next(c for c in range(ncols) if reduced[r][c]))
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        x = [0] * ncols
        x[f] = 1
        for r, p in enumerate(pivot_cols):
            x[p] = (-reduced[r][f]) % 3
        basis.append(tuple(x))
    return basis


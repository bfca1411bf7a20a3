"""Exact arithmetic and small dense linear algebra over GF(3) = {0, 1, 2}.

Vectors are tuples of ints in {0,1,2}, matrices are tuples of row tuples.
Everything is an immutable value; every operation returns a new value.
Scale is tiny (nothing wider than 12 columns), so plain ints mod 3 beat any
array machinery; mat_mul packs a whole column into one int, so a product
over hundreds of rows costs a few big-int sums.
"""

from __future__ import annotations

from itertools import chain
from operator import mul
from typing import Iterable, Sequence

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]

_DIGITS = b"\x00\x01\x02"
_MOD3 = bytes(i % 3 for i in range(256))   # translate table: byte -> byte mod 3


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


def _entries(m: Matrix) -> bytes:
    """The entries of m row by row, a byte each; ValueError unless every
    entry is 0, 1 or 2."""
    try:
        flat = bytes(chain.from_iterable(m))
    except ValueError:      # bytes() takes only 0..255
        flat = b"\xff"
    if flat.translate(None, _DIGITS):
        raise ValueError("matrix entries must be 0, 1 or 2")
    return flat


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a * b for entries 0, 1, 2, on byte lanes: column i of a is one int with
    a byte per row, column j of the product is the sum of b[i][j] times
    column i, and one translate reduces every byte mod 3.  A byte then holds
    at most 4k for inner dimension k, so k > 63 is refused."""
    k = len(b)
    if set(map(len, a)) - {k}:
        raise ValueError("inner dimensions differ")
    if len(set(map(len, b))) > 1:
        raise ValueError("ragged matrix")
    if k > 63:
        raise ValueError(f"inner dimension {k} overflows a byte lane (at most 63)")
    lanes = _entries(a)
    _entries(b)
    n = len(a)
    columns = [int.from_bytes(lanes[i::k], "little") for i in range(k)]
    sums = [sum(map(mul, col, columns)).to_bytes(n, "little") for col in zip(*b)]
    flat = b"".join(sums).translate(_MOD3)
    return tuple([tuple(flat[r::n]) for r in range(n)])


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form over GF(3) plus the rank.

    Shape is preserved; zero rows sink to the bottom.  Inverses are free:
    the only nonzero scalars are 1 and 2, and 2 is its own inverse.  A
    ragged matrix, or an entry other than 0, 1 or 2, is refused (ValueError).
    """
    if len(set(map(len, m))) > 1:
        raise ValueError("ragged matrix")
    _entries(m)
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


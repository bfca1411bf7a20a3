"""Projective spaces PG(n,3) as fully enumerable incidence structures.

A point is a nonzero coordinate tuple over GF(3), stored in canonical form:
the first nonzero coordinate equals 1, so every point has exactly one stored
representative and sets of points compare by value.  Hyperplanes use the same
canonical tuples read as dual coordinates; a point lies on a hyperplane iff
the dot product vanishes.  Flats are canonical rref bases, collineations are
invertible matrices acting on row vectors (x -> x * M), identified up to
scalar by normalizing the first nonzero entry in row-major order to 1.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from . import gf3
from .gf3 import Matrix, Vector

Point = Vector
Hyperplane = Vector
Flat = Matrix          # nonzero rref rows; projective dimension = len - 1
Collineation = Matrix


def _lead_one(v: Vector) -> Point:
    """v (entries already reduced mod 3) scaled so its first nonzero entry is 1."""
    for x in v:
        if x:
            return v if x == 1 else tuple([(2 * y) % 3 for y in v])
    raise ValueError("zero vector has no projective point")


def canonical_point(v: Sequence[int]) -> Point:
    return _lead_one(gf3.vec(v))


def format_point(p: Sequence[int]) -> str:
    return ":".join(str(x) for x in p)


def parse_point(text: str) -> Point:
    """Read a point written with digits 0/1/2 and ':' or ',' separators."""
    tokens = text.split(":" if ":" in text else ",")
    bad = next((t for t in tokens if t not in ("0", "1", "2")), None)
    if bad is not None:
        raise ValueError(f"coordinate {bad!r} is not a digit 0, 1 or 2")
    return canonical_point(int(t) for t in tokens)


@lru_cache(maxsize=None)
def enumerate_points(n: int) -> tuple[Point, ...]:
    """All (3^(n+1)-1)/2 canonical points of PG(n,3), in lexicographic order."""
    pts = [
        v
        for v in itertools.product((0, 1, 2), repeat=n + 1)
        if next((x for x in v if x), None) == 1
    ]
    return tuple(pts)


def enumerate_hyperplanes(n: int) -> tuple[Hyperplane, ...]:
    return enumerate_points(n)


def incident(p: Sequence[int], h: Sequence[int]) -> bool:
    return gf3.dot(p, h) == 0


@lru_cache(maxsize=None)
def hyperplane_point_masks(n: int) -> Mapping[Hyperplane, int]:
    """The point-prime incidence table: for each hyperplane (enumeration
    order), an int holding one byte per point (enumeration order, lowest byte
    first), 1 if the point lies on it.  Incidence is symmetric and hyperplanes
    are enumerated like points, so the entry of h, read with h taken as a
    point, is that point's lane over the hyperplanes."""
    points = enumerate_points(n)
    rows = {
        h: int.from_bytes(bytes(gf3.dot(p, h) == 0 for p in points), "little")
        for h in enumerate_hyperplanes(n)
    }
    return MappingProxyType(rows)


def section_sizes(n: int, pts: Iterable[Point]) -> bytes:
    """|h and pts| for every hyperplane, in enumeration order, one byte each.
    A repeated point counts once; a point that is not canonical in PG(n,3)
    raises ValueError.  Needs n <= 5: a byte must hold a whole hyperplane's
    (3^n - 1)/2 points without carrying."""
    if (3**n - 1) // 2 > 255:
        raise ValueError(f"PG({n},3) hyperplanes hold more than 255 points")
    rows = hyperplane_point_masks(n)
    if not isinstance(pts, (set, frozenset)):
        pts = set(pts)
    try:
        return sum(map(rows.__getitem__, pts)).to_bytes(len(rows), "little")
    except KeyError as e:
        bad = format_point(e.args[0])
        raise ValueError(f"{bad} is not a canonical point of PG({n},3)") from None


# bytes(255) + b"\x01" + bytes(255): slice [255 - k:511 - k] is the 256-byte
# translate table sending k to 1 and every other byte to 0
_ONE_HOT = bytes(255) + b"\x01" + bytes(255)


def hyperplanes_meeting(n: int, pts: Iterable[Point], k: int) -> tuple[Hyperplane, ...]:
    """The hyperplanes carrying exactly k of the points, in enumeration order.
    The table is symmetric, so it also reads dually: given m hyperplanes in
    place of the points and k = m, it returns the points on all of them."""
    sizes = section_sizes(n, pts)
    if not 0 <= k <= 255:
        return ()
    one_hot = _ONE_HOT[255 - k:511 - k]
    return tuple(itertools.compress(enumerate_hyperplanes(n), sizes.translate(one_hot)))


def sections(n: int, pts: Iterable[Point], k: int) -> dict[Hyperplane, frozenset[Point]]:
    """The hyperplanes carrying exactly k of the points, in enumeration order,
    each with the points it carries: by symmetry, a point lies on hyperplane j
    iff byte j of its own table entry is 1."""
    pts = tuple(set(pts))
    sizes = section_sizes(n, pts)
    rows = hyperplane_point_masks(n)
    lanes = [rows[p].to_bytes(len(rows), "little") for p in pts]
    # column j holds byte j of every lane; with no points, every column is empty
    columns = zip(*lanes) if lanes else itertools.repeat(())
    return {
        h: frozenset(itertools.compress(pts, col))
        for h, size, col in zip(enumerate_hyperplanes(n), sizes, columns)
        if size == k
    }


def line_through(a: Point, b: Point) -> tuple[Point, ...]:
    """The 4 points of the line through a and b, sorted canonically."""
    if len(a) != len(b):
        raise ValueError("points from different spaces")
    a = canonical_point(a)
    b = canonical_point(b)
    if a == b:
        raise ValueError("need two distinct points")
    pts = [a, b,
           canonical_point(gf3.vec_add(a, b)),
           canonical_point(gf3.vec_add(a, gf3.vec_scale(2, b)))]
    return tuple(sorted(pts))


def span(points: Iterable[Sequence[int]]) -> Flat:
    rows = gf3.mat(list(points))
    if not rows:
        raise ValueError("span of the empty set is undefined")
    return gf3.row_basis(rows)


def flat_points(f: Flat) -> tuple[Point, ...]:
    """All canonical points of a flat, ordered by coefficient enumeration: the
    i-th point combines the rref rows with coefficients enumerate_points(k-1)[i],
    so zip(flat_points(f), enumerate_points(k-1)) pairs points with their
    coordinates in the flat."""
    return tuple(map(_lead_one, gf3.mat_mul(enumerate_points(len(f) - 1), f)))


def flat_from_dual(constraints: Iterable[Sequence[int]]) -> Flat:
    stacked = gf3.mat(list(constraints))
    return gf3.row_basis(gf3.mat(gf3.nullspace(stacked)))


def canonical_collineation(m: Matrix) -> Collineation:
    lead = next((x for row in m for x in row if x), None)
    if lead is None:
        raise ValueError("zero matrix is not a collineation")
    return m if lead == 1 else tuple(gf3.vec_scale(2, row) for row in m)


@lru_cache(maxsize=None)
def determines_collineations(points: tuple[Point, ...]) -> bool:
    """Whether the identity is the only collineation fixing every point.  One
    fixing a basis taken from the points is diagonal over it, and a point
    with nonzero coordinates i and j over that basis forces entries i and j
    equal; so the answer is whether the supports of those coordinates link
    every basis index into one component.  With the points as the columns of
    one rref, the pivot columns are such a basis and column j holds point j's
    coordinates over it."""
    reduced, rank = gf3.rref(gf3.transpose(gf3.mat(points)))
    if not points or rank < len(points[0]):
        return False
    supports = [{i for i, c in enumerate(col) if c} for col in zip(*reduced)]
    linked = {0}
    for _ in range(rank):   # each pass links at least one more index, or none ever
        linked = linked.union(*(s for s in supports if s & linked))
    return len(linked) == rank


def collineation(rows: Iterable[Iterable[int]]) -> Collineation:
    m = gf3.mat(rows)
    if gf3.rank(m) != len(m):
        raise ValueError("collineation matrix must be invertible")
    return canonical_collineation(m)


def apply_collineation(c: Collineation, points: Sequence[Sequence[int]]) -> tuple[Point, ...]:
    """The image x * c of each point, in order, as one gf3.mat_mul."""
    return tuple(map(_lead_one, gf3.mat_mul(points, c)))


def compose(a: Collineation, b: Collineation) -> Collineation:
    """Apply a, then b (row-vector convention: x * (a b) = (x * a) * b)."""
    return canonical_collineation(gf3.mat_mul(a, b))

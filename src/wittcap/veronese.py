"""The Veronese surface in PG(5,3) and its contact structure.

The surface is the image of PG(2,3) under the degree-2 monomial map, with
monomials ordered (00, 01, 02, 11, 12, 22).  It has 13 points.  Images of
the 13 lines of the plane are conics: 4-point sets spanning a plane.  Along
every conic there is a unique osculating prime meeting the surface exactly
in that conic; at every surface point the tangent plane is the intersection
of the osculating primes through it.  Each conic plane carries the familiar
order-3 conic picture: 4 points on the conic, 3 internal points (on no
tangent line of the conic), 6 external points (on two tangent lines).

Points of PG(5,3) correspond to symmetric 3x3 matrices over GF(3); the
surface consists of the rank-1 classes and the chords sweep out the rank<=2
locus, a determinantal cubic hypersurface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

from . import gf3, pg
from .gf3 import Matrix
from .pg import Collineation, Flat, Hyperplane, Point

# Index pairs of the monomial basis x_i x_j, in the fixed project-wide order.
MONOMIALS: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def veronese_map(x: Sequence[int]) -> Point:
    """Image of a plane point: all degree-2 monomials of its coordinates."""
    x = pg.canonical_point(x)
    return pg.canonical_point(tuple(x[i] * x[j] for i, j in MONOMIALS))


def dual_veronese_map(line: Sequence[int]) -> Hyperplane:
    """The osculating prime along the image conic of a plane line.

    With dual coordinates (a0,a1,a2) the prime is
    (a0^2, 2a0a1, 2a0a2, a1^2, 2a1a2, a2^2): pairing it with veronese_map(x)
    gives (a.x)^2, so the prime meets the surface exactly where a.x = 0.
    """
    a = pg.canonical_point(line)
    return pg.canonical_point(
        tuple((a[i] * a[j] * (1 if i == j else 2)) % 3 for i, j in MONOMIALS)
    )


@dataclass(frozen=True)
class Conic:
    """A conic of the surface: its 4 points, its plane, and the plane line
    it is the image of."""

    points: frozenset[Point]
    plane: Flat
    preimage_line: Hyperplane


@dataclass(frozen=True, eq=False)
class VeroneseModel:
    points: tuple[Point, ...]                      # the 13 surface points
    conics: tuple[Conic, ...]                      # the 13 conics
    tangent_planes: Mapping[Point, Flat]
    osculating_primes: Mapping[Conic, Hyperplane]

    def is_surface_point(self, p: Point) -> bool:
        return p in self.tangent_planes

    def conics_through(self, p: Point) -> tuple[Conic, ...]:
        return tuple(c for c in self.conics if p in c.points)


@lru_cache(maxsize=None)
def build_model() -> VeroneseModel:
    """Construct the full surface model by enumeration.

    Osculating primes come from the dual map; tangent planes are computed as
    the meet of the four osculating primes through each surface point, which
    pins them without any extra formula.
    """
    surface = tuple(veronese_map(x) for x in pg.enumerate_points(2))
    conics = []
    for line in pg.enumerate_hyperplanes(2):
        pts = frozenset(
            veronese_map(x) for x in pg.enumerate_points(2) if pg.incident(x, line)
        )
        conics.append(Conic(points=pts, plane=pg.span(sorted(pts)), preimage_line=line))
    conics = tuple(conics)
    osculating = {c: dual_veronese_map(c.preimage_line) for c in conics}
    tangent = {}
    for p in surface:
        through = [c for c in conics if p in c.points]
        plane = pg.flat_from_dual([osculating[c] for c in through])
        tangent[p] = plane
    return VeroneseModel(
        points=surface,
        conics=conics,
        tangent_planes=MappingProxyType(tangent),
        osculating_primes=MappingProxyType(osculating),
    )


@dataclass(frozen=True)
class ConicPartition:
    """The split of a conic plane's 9 points off the conic (Conic.points)."""

    internal: frozenset[Point]
    external: frozenset[Point]


@lru_cache(maxsize=None)
def plane_lines(plane: Flat) -> tuple[frozenset[Point], ...]:
    """The 13 lines of a plane, as 4-point sets.

    The plane is coordinatized by its rref basis; lines correspond to dual
    vectors of that coefficient PG(2,3).
    """
    coeff_points = pg.enumerate_points(2)
    actual = pg.flat_points(plane)
    by_coeff = dict(zip(coeff_points, actual))
    lines = []
    for d in pg.enumerate_hyperplanes(2):
        lines.append(frozenset(by_coeff[c] for c in coeff_points if pg.incident(c, d)))
    return tuple(lines)


def tangent_lines(c: Conic) -> dict[Point, frozenset[Point]]:
    """Tangent line of the conic at each of its 4 points (the unique plane
    line meeting the conic only there)."""
    out = {}
    for line in plane_lines(c.plane):
        touch = line & c.points
        if len(touch) == 1:
            (p,) = touch
            out[p] = line
    return out


def classify_conic_plane(c: Conic) -> ConicPartition:
    """Partition the conic plane: internal points lie on no tangent line of
    the conic, external points on some (each on exactly two)."""
    touched = frozenset().union(*tangent_lines(c).values())
    rest = frozenset(pg.flat_points(c.plane)) - c.points
    return ConicPartition(internal=rest - touched, external=rest & touched)


def chordal_cubic_contains(y: Sequence[int]) -> bool:
    """True iff the point lies on a chord (bisecant or tangent) of the
    surface, i.e. its symmetric matrix has rank <= 2: the closed-form
    determinant of that matrix vanishes."""
    y0, y1, y2, y3, y4, y5 = y
    return (y0 * (y3 * y5 - y4 * y4) - y1 * (y1 * y5 - y2 * y4)
            + y2 * (y1 * y4 - y2 * y3)) % 3 == 0


def lift_collineation(a: Matrix) -> Collineation:
    """Lift an invertible 3x3 matrix to the 6x6 collineation intertwining the
    surface map: veronese_map(x . a) = veronese_map(x) . lift(a).

    Column (i,j) of the lift expands the quadratic form (x.a)_i (x.a)_j in
    the monomial basis.  The lift is exact on raw vectors, so it is a group
    homomorphism on the nose, not only up to scalar.
    """
    a = gf3.mat(a)
    if len(a) != 3 or gf3.rank(a) != 3:
        raise ValueError("need an invertible 3x3 matrix")
    cols = []
    for (i, j) in MONOMIALS:
        col = []
        for (k, l) in MONOMIALS:
            if k == l:
                col.append((a[k][i] * a[k][j]) % 3)
            else:
                col.append((a[k][i] * a[l][j] + a[l][i] * a[k][j]) % 3)
        cols.append(col)
    lifted = tuple(tuple(cols[c][r] for c in range(6)) for r in range(6))
    return pg.canonical_collineation(lifted)

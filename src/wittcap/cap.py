"""The 12-cap of internal points and its Witt design structure.

Fix a surface point P.  The four conics through P carry 3 internal points
each, and those 12 points form a cap: no three collinear, disjoint from the
surface.  Its 6-point hyperplane sections are the blocks of a 5-(12,6,1)
design, exactly 12 of the 364 primes miss the cap entirely, and those 12
primes are the 9 osculating primes along conics avoiding P together with the
3 primes meeting the surface in P alone.

At every base P = v(p) the cap also has a closed form on PG(2,3) minus p:
with P and v(x) written as canonical vectors, the internal point of the
secant through P and v(x) is v(x) + P.  At the paper's base
P = (1,0,0,0,0,0) this reads

    (x0, x1, x2)  ->  (x0^2 + 1, x0 x1, x0 x2, x1^2, x1 x2, x2^2)

The constant term is unambiguous because 1 is the only nonzero square in
GF(3).  Both routes are implemented and must agree point for point; the
closed form, in lexicographic order of the domain, also orders the cap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from . import gf3, pg
from .design import cover_counts, stabiliser_chain, subset_masks
from .pg import Hyperplane, Point
from .veronese import MONOMIALS, VeroneseModel, classify_conic_plane, veronese_map

DEFAULT_BASE: Point = veronese_map((1, 0, 0))


@dataclass(frozen=True)
class CapSet:
    points: frozenset[Point]
    base_point: Point


@dataclass(frozen=True)
class DualCap:
    primes: frozenset[Hyperplane]


@dataclass(frozen=True)
class Block:
    points: frozenset[Point]
    prime: Hyperplane


@dataclass(frozen=True)
class Design:
    points: tuple[Point, ...]
    blocks: tuple[Block, ...]

    @cached_property
    def _block_masks(self) -> tuple[int, ...]:
        """Each block as an int mask, bit i for points[i], in block order;
        built once per design, for `verify_witt` and `automorphism_order`.
        A block point outside points is ignored: it cannot change which
        subsets of the design's points the block contains.  A repeated
        design point is refused (ValueError naming the first point seen
        twice)."""
        bit: dict[Point, int] = {}
        for i, p in enumerate(self.points):
            if p in bit:
                raise ValueError(f"design point {pg.format_point(p)} is repeated")
            bit[p] = 1 << i
        return tuple(sum(map(bit.get, b.points, itertools.repeat(0))) for b in self.blocks)


@dataclass(frozen=True)
class WittReport:
    ok: bool
    first_violation: tuple[tuple[Point, ...], int] | None
    quad_cover_value: int | None


def cap_map(x: Sequence[int], base: Point = DEFAULT_BASE) -> Point:
    """Closed-form cap parametrization: x -> v(x) + base.

    Defined on PG(2,3) minus the preimage of the base; raises off the domain.
    """
    v = veronese_map(x)
    if v == base:
        raise ValueError("outside domain: the removed point of the dual affine plane")
    return pg.canonical_point(gf3.vec_add(v, base))


def cap_domain(base: Point = DEFAULT_BASE) -> tuple[Point, ...]:
    """The dual affine plane parametrizing the cap at a surface point, in
    lexicographic order."""
    domain = tuple(x for x in pg.enumerate_points(2) if veronese_map(x) != base)
    if len(domain) != 12:
        raise ValueError(
            f"{base} is not a surface point: the domain has {len(domain)} points"
        )
    return domain


def build_cap(model: VeroneseModel, base: Point) -> CapSet:
    """The cap as the union of the internal triples of the four conics
    through the base point."""
    if not model.is_surface_point(base):
        raise ValueError("base must be a surface point")
    pts: set[Point] = set()
    for conic in model.conics_through(base):
        pts |= classify_conic_plane(conic).internal
    return CapSet(points=frozenset(pts), base_point=base)


def build_cap_from_formula(model: VeroneseModel) -> CapSet:
    """The same cap via the closed-form parametrization (default base)."""
    return CapSet(
        points=frozenset(cap_map(x) for x in cap_domain()), base_point=DEFAULT_BASE
    )


def build_dual_cap(model: VeroneseModel, base: Point) -> DualCap:
    """The 12 primes dual to the cap: the 9 osculating primes along conics
    missing the base plus the 3 primes meeting the surface in the base only
    (found by a scan of all primes)."""
    if not model.is_surface_point(base):
        raise ValueError("base must be a surface point")
    primes = {model.osculating_primes[c] for c in model.conics if base not in c.points}
    primes |= {h for h in pg.hyperplanes_meeting(5, model.points, 1) if pg.incident(base, h)}
    return DualCap(primes=frozenset(primes))


def _point_set(cap: CapSet | Iterable[Point]) -> frozenset[Point]:
    return cap.points if isinstance(cap, CapSet) else frozenset(cap)


def blocks(cap: CapSet | Iterable[Point]) -> Design:
    """All 6-point hyperplane sections of a 12-point set, with carriers."""
    pts = tuple(sorted(_point_set(cap)))
    out = tuple(Block(points=s, prime=h) for h, s in pg.sections(5, pts, 6).items())
    return Design(points=pts, blocks=out)


def missed_primes(cap: CapSet | Iterable[Point]) -> tuple[Hyperplane, ...]:
    """The primes carrying no point of the set, in enumeration order."""
    return pg.hyperplanes_meeting(5, _point_set(cap), 0)


def is_cap(points: Iterable[Point]) -> bool:
    """No three of the points collinear.  A point that is not canonical
    raises ValueError: as written, it would never be found on a line."""
    pts = sorted(points)
    bad = next((p for p in pts if pg.canonical_point(p) != p), None)
    if bad is not None:
        space = f"PG({len(bad) - 1},3)"
        raise ValueError(f"{pg.format_point(bad)} is not a canonical point of {space}")
    for a, b, c in itertools.combinations(pts, 3):
        if c in pg.line_through(a, b):
            return False
    return True


def verify_witt(design: Design) -> WittReport:
    """Check the 5-(12,6,1) axioms by full enumeration of the 792 5-subsets.

    Cover counts are read from `cover_counts` over the design's `_block_masks`.
    Also reports the 4-subset covering number, which must be constant.  The
    first violating 5-subset (with its cover count) is recorded on failure.
    A design with a repeated point, on more than 16 points or with more
    than 255 blocks is refused (ValueError).
    """
    pts = design.points
    table = cover_counts(design._block_masks, len(pts))
    fives = bytes(map(table.__getitem__, subset_masks(len(pts), 5)))
    first = len(fives) - len(fives.lstrip(b"\x01"))   # the first count other than 1
    violation = None
    quad_counts = set()
    if first < len(fives):
        sub = next(itertools.islice(itertools.combinations(pts, 5), first, None))
        violation = (sub, fives[first])
    else:
        quad_counts = set(map(table.__getitem__, subset_masks(len(pts), 4)))
    sizes_ok = all(len(b.points) == 6 for b in design.blocks)
    return WittReport(
        ok=len(pts) == 12 and sizes_ok and violation is None,
        first_violation=violation,
        quad_cover_value=quad_counts.pop() if len(quad_counts) == 1 else None,
    )


def disjointness_check(cap: CapSet, dual: DualCap) -> bool:
    """True iff no cap point lies on any dual-cap prime."""
    return not any(
        pg.incident(p, h) for p in cap.points for h in dual.primes
    )


def vector_identity_check() -> bool:
    """Exhaustively verify the two identities behind the parametrization.

    For each direction (x1,x2) != (0,0) the conic through the base is spanned
    by v_u = (u^2, u x1, u x2, x1^2, x1 x2, x2^2) and v_inf = (1,0,0,0,0,0),
    and v_u + v_inf = 2 v_{u+1} + 2 v_{u+2} holds for every u.  Every
    coordinate function in play is also invariant under rescaling the
    argument, since 2^2 = 1.
    """
    # Raw, uncanonicalised maps: veronese_map and cap_map canonicalise their
    # argument, which would make the doubling half of the check vacuous.
    raw = {
        x: gf3.vec(x[i] * x[j] for i, j in MONOMIALS)
        for x in itertools.product((0, 1, 2), repeat=3)
    }
    # Since 2 = -1, the identity at every u says v_0 + v_1 + v_2 + v_inf = 0,
    # one sum per direction.  raw + v_inf is invariant under rescaling
    # exactly when raw is, so only raw is doubled.
    v_inf = (1, 0, 0, 0, 0, 0)
    for x1, x2 in itertools.product((0, 1, 2), repeat=2):
        v = [raw[u, x1, x2] for u in (0, 1, 2)]
        if (x1, x2) != (0, 0) and any(gf3.vec(map(sum, zip(v_inf, *v)))):
            return False
    return all(raw[x] == raw[tuple((2 * t) % 3 for t in x)] for x in raw)


def automorphism_order(design: Design) -> int:
    """Order of the group of permutations of the design's points that map
    the set of blocks onto itself (a repeated block counts once).

    Counted by `design.stabiliser_chain` over the design's `_block_masks`, so a
    design with a repeated point, on more than 16 points or with more than
    255 distinct blocks is refused (ValueError).
    """
    _, orbit_lengths, _ = stabiliser_chain(design._block_masks, len(design.points))
    return math.prod(orbit_lengths)

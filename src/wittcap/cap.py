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
from functools import lru_cache
from typing import Iterable, Sequence

from . import gf3, pg
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
    singletons = pg.sections(5, model.points, 1)
    primes |= {h for h, section in singletons.items() if section == {base}}
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
    """No three of the points collinear."""
    pts = sorted(points)
    for a, b, c in itertools.combinations(pts, 3):
        if c in pg.line_through(a, b):
            return False
    return True


@lru_cache(maxsize=None)
def _lane_masks(n: int) -> tuple[int, ...]:
    """low[i] holds 0xFF in every byte lane m of a 2^n-lane table whose
    index m has bit i clear, and 0 elsewhere."""
    return tuple(
        int.from_bytes((b"\xff" * (1 << i) + bytes(1 << i)) * (1 << (n - 1 - i)), "little")
        for i in range(n)
    )


def _cover_counts(masks: Sequence[int], n: int) -> bytes:
    """Entry m is the number of masks (subsets of n points, as ints) that
    contain subset m, for all 2^n subsets at once.

    One byte lane per subset, filled by the superset-sum transform: step i
    adds lane m + 2^i into lane m for every m with bit i clear.  A lane
    never exceeds len(masks), so no step carries into its neighbour.
    """
    if n > 16:
        raise ValueError(f"a cover table holds at most 16 points, not {n}")
    if len(masks) > 255:
        raise ValueError(f"a byte lane counts at most 255 blocks, not {len(masks)}")
    counts = bytearray(1 << n)
    for m in masks:
        counts[m] += 1
    x = int.from_bytes(counts, "little")
    for i, low in enumerate(_lane_masks(n)):
        x += (x >> (8 << i)) & low
    return x.to_bytes(1 << n, "little")


@lru_cache(maxsize=None)
def _subset_masks(n: int, k: int) -> tuple[int, ...]:
    """The k-subsets of range(n) as int masks, in itertools.combinations order."""
    return tuple(map(sum, itertools.combinations([1 << i for i in range(n)], k)))


def _block_masks(design: Design) -> list[int]:
    """Each block as an int mask, bit i for design.points[i], in block order.
    A block point outside design.points is ignored: it cannot change which
    subsets of the design's points the block contains.  A repeated design
    point is refused (ValueError naming the first point seen twice)."""
    bit: dict[Point, int] = {}
    for i, p in enumerate(design.points):
        if p in bit:
            raise ValueError(f"design point {pg.format_point(p)} is repeated")
        bit[p] = 1 << i
    return [sum(bit.get(p, 0) for p in b.points) for b in design.blocks]


def verify_witt(design: Design) -> WittReport:
    """Check the 5-(12,6,1) axioms by full enumeration of the 792 5-subsets.

    Cover counts are read from `_cover_counts` over the `_block_masks`.
    Also reports the 4-subset covering number, which must be constant.  The
    first violating 5-subset (with its cover count) is recorded on failure.
    A design with a repeated point, on more than 16 points or with more
    than 255 blocks is refused (ValueError).
    """
    pts = design.points
    table = _cover_counts(_block_masks(design), len(pts))
    fives = bytes(map(table.__getitem__, _subset_masks(len(pts), 5)))
    first = len(fives) - len(fives.lstrip(b"\x01"))   # the first count other than 1
    violation = None
    quad_counts = set()
    if first < len(fives):
        sub = next(itertools.islice(itertools.combinations(pts, 5), first, None))
        violation = (sub, fives[first])
    else:
        quad_counts = set(map(table.__getitem__, _subset_masks(len(pts), 4)))
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
    v_inf = (1, 0, 0, 0, 0, 0)
    for x1, x2 in itertools.product((0, 1, 2), repeat=2):
        if (x1, x2) == (0, 0):
            continue
        v = [raw[u, x1, x2] for u in (0, 1, 2)]
        for u in (0, 1, 2):
            lhs = gf3.vec_add(v[u], v_inf)
            rhs = gf3.vec_scale(2, gf3.vec_add(v[(u + 1) % 3], v[(u + 2) % 3]))
            if lhs != rhs:
                return False
    raw_quadratics = [raw.__getitem__, lambda x: gf3.vec_add(raw[x], v_inf)]
    for f in raw_quadratics:
        for x in raw:
            doubled = tuple((2 * t) % 3 for t in x)
            if f(x) != f(doubled):
                return False
    return True


def automorphism_order(design: Design) -> int:
    """Order of the group of permutations of the design's points that map
    the set of blocks onto itself (a repeated block counts once).

    Counted along a point-stabiliser chain, walked from the deepest base
    point up.  The base orders the points by block degree, since an image
    must lie on as many blocks as its preimage.  At depth d the group is the
    pointwise stabiliser of base[:d], and the orbit of base[d] under it
    starts as {base[d]}.  Each candidate image outside the orbit so far is
    settled by one prefix search with base[:d] held fixed: the image of
    every partially mapped block must stay inside some block, and a
    complete map counts only if it permutes the blocks.  A map found is
    kept as a generator, and the orbit is closed under every generator kept
    so far.

    This is exact.  Every generator was found at a depth >= d, so it fixes
    base[:d] pointwise, and the closed orbit lies inside the true orbit.
    Every candidate outside the closed orbit was searched directly.  The
    order is the product of the orbit lengths.

    Whether mapped points still lie in a common block is read from the
    `_cover_counts` table over the `_block_masks`, so a design with a
    repeated point, on more than 16 points or with more than 255 distinct
    blocks is refused (ValueError).
    """
    _, orbit_lengths, _ = _stabiliser_chain(design)
    return math.prod(orbit_lengths)


def _stabiliser_chain(
    design: Design,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, tuple[int, ...]], ...]]:
    """The search behind `automorphism_order`: (base, orbit_lengths,
    generators).  orbit_lengths[d] is the orbit length of base[d];
    generators holds (depth, perm) pairs in the order found, where perm[i]
    is the index of the image of design.points[i] and perm fixes base[:depth]
    pointwise but moves base[depth]."""
    n = len(design.points)
    block_masks = sorted(set(_block_masks(design)))
    blocks_of = tuple(
        tuple(bi for bi, bm in enumerate(block_masks) if bm >> i & 1) for i in range(n)
    )
    # coverable[m] is nonzero iff the points of m lie in a common block.
    coverable = _cover_counts(block_masks, n)
    # Constrained points first: order the base by block degree.  An image
    # must lie on as many blocks as its preimage.
    base = sorted(range(n), key=lambda i: (-len(blocks_of[i]), i))
    peers = tuple(
        tuple(v for v in range(n) if len(blocks_of[v]) == len(blocks_of[p]))
        for p in range(n)
    )
    # Every point starts fixed; the walk below releases one base point per depth.
    images = list(block_masks)
    used = (1 << n) - 1
    # assign[p] is the image of point p.  A search at depth d writes only
    # the points of base[d:], and depths are walked upwards, so the points
    # of base[:d] still map to themselves.
    assign = list(range(n))

    def places(depth: int, v: int, used: int) -> bool:
        """With base[:depth] mapped as `images` and `used` record, does
        sending base[depth] to v extend to a block permutation?"""
        bit = 1 << v
        mine = blocks_of[base[depth]]
        for bi in mine:
            if not coverable[images[bi] | bit]:
                return False
        for bi in mine:
            images[bi] |= bit
        assign[base[depth]] = v
        used |= bit
        if depth + 1 == n:
            found = sorted(images) == block_masks
        else:
            nxt = peers[base[depth + 1]]
            found = any(places(depth + 1, w, used) for w in nxt if not used >> w & 1)
        for bi in mine:
            images[bi] ^= bit
        return found

    gens: list[tuple[int, tuple[int, ...]]] = []
    orbit_lengths = [0] * n
    for depth in range(n - 1, -1, -1):
        # Release base[depth]: the state now holds base[:depth] fixed, since
        # `places` undoes its own writes to `images`.
        bit = 1 << base[depth]
        for bi in blocks_of[base[depth]]:
            images[bi] ^= bit
        used ^= bit
        orbit = {base[depth]}
        for v in peers[base[depth]]:
            if used >> v & 1 or v in orbit or not places(depth, v, used):
                continue
            gens.append((depth, tuple(assign)))
            frontier = list(orbit)
            while frontier:
                x = frontier.pop()
                for _, g in gens:
                    if g[x] not in orbit:
                        orbit.add(g[x])
                        frontier.append(g[x])
        orbit_lengths[depth] = len(orbit)
    del places  # the closure refers to itself: free it without the collector
    return tuple(base), tuple(orbit_lengths), tuple(gens)

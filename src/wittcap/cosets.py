"""Replacing conic layers: the 81 twelve-point sets around a surface point.

Each of the four conic planes through the base point splits, away from the
base and its tangent line, into three 3-point layers: the remaining conic
points (layer 0), the internal points (layer 1), and the external points off
the tangent (layer 2).  A unique plane elation with centre at the base and
axis the tangent cycles the layers 0 -> 1 -> 2 -> 0.  The conics carry the
labels 0, 1, 2, 3 (3 is displayed as "inf"), and a quadruple lists its
layer indices in label order.  Choosing one layer index per conic gives 81
twelve-point sets, indexed by quadruples in F^4:

  * quadruple sum 0 mod 3: projectively a punctured Veronese surface,
  * sum 1: a Witt-design cap,
  * sum 2: an exotic set with exactly 42 six-point primes, all sharing
    only the base point.

The layer elations of index quadruples summing to 0 extend jointly to
space collineations; the group of those extensions has order 27 and its
orbits sweep out the sum-0 and sum-1 classes.  The space elation of a
conic with osculating prime a is the matrix I + a^T base; each layer elation
is the restriction of the previous label's space elation to its conic plane.
conic_layers builds, once per base, the one record that all of this reads:
the labelled conics, their layers and plane points, the support (the 49
plane points, which the orbit check acts on by index), the space and layer
elations, the three class profiles and the default projection target.
Exotic sets are studied by projecting from the base point: the four conic
planes flatten to four mutually skew lines, the tangent plane to their
unique common transversal, and the twelve points land exactly on the lines
minus the transversal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from types import MappingProxyType
from typing import Collection, Iterable, Mapping, Sequence

from . import gf3, pg
from .pg import Collineation, Hyperplane, Point
from .veronese import (
    Conic,
    VeroneseModel,
    classify_conic_plane,
    tangent_lines,
)
# Unused here; bench/selftest.py checks that the tracer wraps these bindings.
from .veronese import lift_collineation, veronese_map  # noqa: F401

# A label is its own position; label 3 is the direction x1 = 0, shown as "inf".
LABEL_ORDER: tuple[int, ...] = (0, 1, 2, 3)
LABEL_NAMES: tuple[str, ...] = ("0", "1", "2", "inf")

Quadruple = tuple[int, int, int, int]

CLASS_NAMES = {0: "surface", 1: "cap", 2: "exotic"}

_PLANE_AT_INFINITY: Hyperplane = (1, 0, 0)   # line {x0 = 0} of the parameter plane


@dataclass(frozen=True, eq=False)
class LayerSystem:
    """Everything the 81 twelve-sets of one base share; see conic_layers."""
    conics: Mapping[int, Conic]
    layers: Mapping[tuple[int, int], frozenset[Point]]
    plane_points: Mapping[int, tuple[Point, ...]]   # pg.flat_points of each conic plane
    support: tuple[Point, ...]                      # the 49 plane points, sorted
    space_elations: Mapping[int, Collineation]      # by label
    # by label: the images of plane_points under the 0th, 1st and 2nd power
    # of the layer elation, as indices into support
    elation_powers: Mapping[int, tuple[tuple[int, ...], ...]]
    profiles: Mapping[int, Mapping[int, int]]       # hyperplane profile by class
    target: Hyperplane                              # first prime off the base


@dataclass(frozen=True)
class TwelveSet:
    points: frozenset[Point]
    quadruple: Quadruple

    @cached_property
    def section_sizes(self) -> bytes:
        """pg.section_sizes of the points, scanned once per set object; a
        dataclasses.replace'd copy scans its own points again."""
        return pg.section_sizes(5, self.points)


@dataclass(frozen=True, eq=False)
class OrbitReport:
    """The orbit check's witnesses; each verdict is recomputed from them."""
    group_order: int
    induced_quadruples: dict[Collineation, Quadruple]   # each element's power quadruple
    # each quadruple reached from (0,0,0,0), resp. (1,1,1,1), with an element reaching it
    surface_witnesses: dict[Quadruple, Collineation]
    cap_witnesses: dict[Quadruple, Collineation]

    @property
    def powers_sum_zero(self) -> bool:      # every power quadruple sums to 0 mod 3
        return all(sum(q) % 3 == 0 for q in self.induced_quadruples.values())

    @property
    def powers_bijective(self) -> bool:     # no two elements induce one quadruple
        return len(set(self.induced_quadruples.values())) == len(self.induced_quadruples)

    @property
    def joint_unit_extension(self) -> bool:     # some element induces all first powers
        return (1, 1, 1, 1) in self.induced_quadruples.values()

    @property
    def surface_complete(self) -> bool:     # (0,0,0,0) reaches the whole sum-0 class
        return set(self.surface_witnesses) == {q for q in all_quadruples() if sum(q) % 3 == 0}

    @property
    def cap_complete(self) -> bool:     # (1,1,1,1) reaches the whole sum-1 class
        return set(self.cap_witnesses) == {q for q in all_quadruples() if sum(q) % 3 == 1}


@dataclass(frozen=True, eq=False)
class ProjectionReport:
    target: Hyperplane
    lines: dict[int, tuple[Point, ...]]
    transversal: tuple[Point, ...]
    image_points: tuple[Point, ...]


@dataclass(frozen=True, eq=False)
class ExoticReport:
    six_point_primes: tuple[Hyperplane, ...]
    common_point: Point
    projection: ProjectionReport


def labeled_conics(model: VeroneseModel, base: Point) -> dict[int, Conic]:
    """The four conics through the base, labelled by the direction of their
    preimage lines: a line through the base preimage meets {x0 = 0} in one
    point (0, x1, x2), and the label is x2/x1, with 3 ("inf") for x1 = 0.

    If the base preimage itself lies on {x0 = 0} that rule degenerates; the
    line {x0 = 0} then takes the label 3 and the rest are labelled 0, 1, 2
    in lexicographic order of their dual coordinates.
    """
    through = model.conics_through(base)
    if len(through) != 4:
        raise ValueError(f"{len(through)} conics pass through {base}, not 4")
    out: dict[int, Conic] = {}
    # the base preimage lies on {x0 = 0} exactly when that line's conic
    # passes through the base
    if any(c.preimage_line == _PLANE_AT_INFINITY for c in through):
        rest = sorted(
            (c for c in through if c.preimage_line != _PLANE_AT_INFINITY),
            key=lambda c: c.preimage_line,
        )
        for label, c in zip((0, 1, 2), rest):
            out[label] = c
        (omega,) = [c for c in through if c.preimage_line == _PLANE_AT_INFINITY]
        out[3] = omega
    else:
        for c in through:
            a = c.preimage_line
            direction = pg.canonical_point((0, a[2], (-a[1]) % 3))
            # canonical form pins direction = (0, 1, k) or (0, 0, 1)
            out[3 if direction[1] == 0 else direction[2]] = c
    if len(out) != 4:
        raise ValueError(f"the conics through {base} take labels {sorted(out)}")
    return out


@lru_cache(maxsize=None)
def conic_layers(model: VeroneseModel, base: Point) -> LayerSystem:
    """The per-base record, built once and shared by every caller, so its
    mappings are read-only.

    For each conic through the base: layer 0 = conic minus base, layer 1 =
    internal points, layer 2 = external points off the tangent at the base.
    The space elation of label k is I + a^T base, with a the osculating
    prime of conic k: it fixes that prime pointwise, since base.a = 0, and
    sends each surface point y = v(x) off conic k to y + base, the internal
    point of the secant through the base and y, since y.a = (l.x)^2 = 1 for
    the conic's preimage line l (as canonical vectors, y and a each lead
    with a square).  The layer elation of label k is the previous label's
    space elation restricted to conic k's plane, where its axis meets the
    plane in the tangent; that it cycles layer 0 -> 1 -> 2 -> 0 is checked,
    not assumed.  The class profiles are read from the sets (c, 0, 0, 0) and
    must be pairwise distinct.
    """
    conics = labeled_conics(model, base)
    layers: dict[tuple[int, int], frozenset[Point]] = {}
    plane_points: dict[int, tuple[Point, ...]] = {}
    for k, c in conics.items():
        part = classify_conic_plane(c)
        layers[(k, 0)] = c.points - {base}
        layers[(k, 1)] = part.internal
        layers[(k, 2)] = part.external - tangent_lines(c)[base]
        plane_points[k] = pg.flat_points(c.plane)
    space_elations = {
        k: pg.collineation(
            (int(i == j) + a * b for j, b in enumerate(base))
            for i, a in enumerate(model.osculating_primes[conics[k]])
        )
        for k in LABEL_ORDER
    }
    support = tuple(sorted(set().union(*plane_points.values())))
    index = {p: i for i, p in enumerate(support)}
    elation_powers: dict[int, tuple[tuple[int, ...], ...]] = {}
    for k in LABEL_ORDER:
        mu = space_elations[(k - 1) % len(LABEL_ORDER)]
        images = pg.apply_collineation(mu, plane_points[k])
        perm = dict(zip(plane_points[k], images))
        for j in (0, 1, 2):
            if {perm[p] for p in layers[(k, j)]} != layers[(k, (j + 1) % 3)]:
                raise ValueError(
                    f"the elation of conic {LABEL_NAMES[k]} at {base} does not carry "
                    f"layer {j} onto layer {(j + 1) % 3}"
                )
        powers = (plane_points[k], images, tuple(map(perm.__getitem__, images)))
        elation_powers[k] = tuple(tuple(map(index.__getitem__, pts)) for pts in powers)
    profiles: dict[int, Mapping[int, int]] = {}
    for cls in (0, 1, 2):
        points = layers[(0, cls)] | layers[(1, 0)] | layers[(2, 0)] | layers[(3, 0)]
        s = TwelveSet(points=points, quadruple=(cls, 0, 0, 0))
        profiles[cls] = MappingProxyType(hyperplane_profile(s))
    if len({tuple(p.items()) for p in profiles.values()}) != 3:
        raise ValueError(f"class profiles at {base} are not distinct: {profiles}")
    return LayerSystem(
        conics=MappingProxyType(conics),
        layers=MappingProxyType(layers),
        plane_points=MappingProxyType(plane_points),
        support=support,
        space_elations=MappingProxyType(space_elations),
        elation_powers=MappingProxyType(elation_powers),
        profiles=MappingProxyType(profiles),
        target=pg.hyperplanes_meeting(5, [base], 0)[0],
    )


def induced_layer_powers(
    model: VeroneseModel, base: Point, act: Sequence[int]
) -> tuple[int, ...] | None:
    """Which power of each conic plane's layer elation a collineation induces,
    or None if it fails to preserve some conic plane or induces something
    else entirely.  The collineation is given by its action on the support,
    the points of the four conic planes, as group_closure returns it: act[i]
    is the index in support of the image of support[i].  An action that is
    not one index into the support per support point raises ValueError."""
    system = conic_layers(model, base)
    n = len(system.support)
    if len(act) != n:
        raise ValueError(f"an action on the {n} support points lists {len(act)} images")
    out = []
    for k in LABEL_ORDER:
        powers = system.elation_powers[k]
        try:
            out.append(powers.index(itemgetter(*powers[0])(act)))
        except ValueError:
            # every support point lies on some plane, so an action that all
            # four planes match holds only indices into the support
            bad = next((i for i, x in enumerate(act) if x not in range(n)), None)
            if bad is not None:
                raise ValueError(f"entry {bad} of the action is {act[bad]!r}, "
                                 f"not an index into the {n} support points") from None
            return None
    return tuple(out)


def all_quadruples() -> tuple[Quadruple, ...]:
    return tuple(itertools.product((0, 1, 2), repeat=4))


def twelve_set(model: VeroneseModel, base: Point, quad: Quadruple) -> TwelveSet:
    """Union of one layer per conic, as dictated by the quadruple."""
    if len(quad) != len(LABEL_ORDER):
        raise ValueError(f"quadruple {tuple(quad)} has {len(quad)} entries, not 4")
    quad = (quad[0] % 3, quad[1] % 3, quad[2] % 3, quad[3] % 3)
    a, b, c, d = quad
    layers = conic_layers(model, base).layers    # labels in LABEL_ORDER, (0, 1, 2, 3)
    points = layers[(0, a)] | layers[(1, b)] | layers[(2, c)] | layers[(3, d)]
    return TwelveSet(points=points, quadruple=quad)


def hyperplane_profile(s: TwelveSet) -> dict[int, int]:
    """Histogram of |prime and set| over all 364 primes of PG(5,3), in
    ascending order of the section size, read from the set's sizes."""
    sizes = s.section_sizes
    profile, left, k = {}, len(sizes), 0
    while left:             # stop once all 364 primes are counted
        if k in sizes:
            profile[k] = n = sizes.count(k)
            left -= n
        k += 1
    return profile


def classify(model: VeroneseModel, base: Point, s: TwelveSet) -> str:
    """Class of a twelve-set: quadruple sum mod 3, cross-validated against
    the hyperplane profile invariant."""
    cls = sum(s.quadruple) % 3
    expected = conic_layers(model, base).profiles[cls]
    actual = hyperplane_profile(s)
    if actual != expected:
        raise ValueError(
            f"profile/sum mismatch for quadruple {s.quadruple}: {actual} != {expected}"
        )
    return CLASS_NAMES[cls]


def group_closure(
    generators: Iterable[Collineation], points: Collection[Point]
) -> dict[Collineation, tuple[int, ...]]:
    """The group the collineations generate, each element (canonical matrix)
    with its action on the points as a tuple of indices: with the points
    taken in order and repeats dropped, act[i] is the index of the image of
    the i-th point.  Only the generators are applied; a product g h (g first)
    acts as p -> h(g(p)).  Every generator must permute the points; the first
    point it sends off them, or onto an earlier point's image, raises with
    both.  A product is multiplied out only when its action is new; the
    points must determine collineations, or that would not be exact."""
    points = tuple(dict.fromkeys(points))
    index = {p: i for i, p in enumerate(points)}
    gens = []
    for g in generators:
        g = pg.canonical_collineation(g)
        images = pg.apply_collineation(g, points)
        if index.keys() != set(images):     # not a permutation: name the first point at fault
            first: dict[Point, Point] = {}
            for p, q in zip(points, images):
                if q in first or q not in index:
                    why = (f"the image of {pg.format_point(first[q])} too" if q in first
                           else "off the point set")
                    raise ValueError(
                        f"generator {g} sends {pg.format_point(p)} to {pg.format_point(q)}, {why}")
                first[q] = p
        gens.append((g, tuple(map(index.__getitem__, images))))
    if not pg.determines_collineations(points):
        raise ValueError("a collineation other than the identity fixes every point")
    found = {tuple(range(len(points))): gf3.identity(len(points[0])),
             **{act: g for g, act in gens}}
    # one point determines collineations only in PG(0,3), whose group is
    # trivial; there itemgetter would return an int, not an action tuple
    frontier = list(found.items()) if len(points) > 1 else []
    while frontier:
        fresh = []
        for act_g, g in frontier:
            step = itemgetter(*act_g)
            for h, act_h in gens:
                act = step(act_h)
                if act not in found:
                    found[act] = pg.compose(g, h)
                    fresh.append((act, found[act]))
        frontier = fresh
    return {g: act for act, g in found.items()}


def verify_orbit_equivalence(model: VeroneseModel, base: Point) -> OrbitReport:
    """Generate the group of extended layer elations and record its action.

    The group must have order 27, each element must induce a quadruple of
    layer-elation powers summing to 0 mod 3 (bijectively), and its orbits on
    the base twelve-sets must cover the whole sum-0 class and the whole sum-1
    class.  No element induces the all-first-powers quadruple.  The report
    holds the power quadruples and the first element to reach each set from
    (0,0,0,0) and from (1,1,1,1), read from each element's action on the four
    conic planes, as group_closure carries it; its verdicts read those maps.
    """
    system = conic_layers(model, base)
    support = system.support
    mus = [system.space_elations[k] for k in LABEL_ORDER]
    group = sorted(group_closure(mus, support).items())     # (matrix, action) pairs
    induced = {g: induced_layer_powers(model, base, act) for g, act in group}
    for k, mu in zip(LABEL_ORDER, mus):
        expected = tuple(int(i != k) for i in LABEL_ORDER)
        if induced[mu] != expected:
            raise ValueError(
                f"extension of conic {LABEL_NAMES[k]} at {base} induces powers "
                f"{induced[mu]}, not {expected}"
            )
    for g, powers in induced.items():
        if powers is None:
            raise ValueError(f"group element {g} does not induce layer elations")
    sets_by_points = {twelve_set(model, base, q).points: q for q in all_quadruples()}
    index = {p: i for i, p in enumerate(support)}
    witnesses: dict[int, dict[Quadruple, Collineation]] = {0: {}, 1: {}}
    for cls, rep in ((0, (0, 0, 0, 0)), (1, (1, 1, 1, 1))):
        start = itemgetter(*map(index.__getitem__, twelve_set(model, base, rep).points))
        for g, act in group:
            q = sets_by_points.get(frozenset(map(support.__getitem__, start(act))))
            if q is not None and q not in witnesses[cls]:
                witnesses[cls][q] = g
    return OrbitReport(
        group_order=len(group),
        induced_quadruples=induced,
        surface_witnesses=witnesses[0],
        cap_witnesses=witnesses[1],
    )


@lru_cache(maxsize=None)
def _projection_frame(
    model: VeroneseModel, base: Point, target: Hyperplane
) -> tuple[Mapping[int, tuple[Point, ...]], tuple[Point, ...], frozenset[Point],
           Mapping[Point, Point]]:
    """The set-independent part of the projection from the base onto the
    target: the four lines cut by the conic planes (read-only), the
    transversal cut by the tangent plane, the line points off the
    transversal, and the image of each of the 36 layer points, the only
    points a twelve-set holds, under one product with the projection matrix
    (read-only).  Each cut is read as the plane's points on the target.  The
    lines must be mutually skew and each must meet the transversal once; a
    violation raises."""
    if pg.incident(base, target):
        raise ValueError("target prime contains the base point")
    system = conic_layers(model, base)
    lines = {
        k: tuple(sorted(p for p in system.plane_points[k] if pg.incident(p, target)))
        for k in LABEL_ORDER
    }
    tangent = pg.flat_points(model.tangent_planes[base])
    transversal = tuple(sorted(p for p in tangent if pg.incident(p, target)))
    if len(transversal) != 4 or any(len(l) != 4 for l in lines.values()):
        raise ValueError("projection did not produce lines")
    for a, b in itertools.combinations(LABEL_ORDER, 2):
        if set(lines[a]) & set(lines[b]):
            raise ValueError("projected conic planes are not skew")
    for k in LABEL_ORDER:
        if len(set(transversal) & set(lines[k])) != 1:
            raise ValueError("transversal fails to meet a projected line once")
    off_transversal = frozenset().union(*lines.values()) - set(transversal)
    points = [x for layer in system.layers.values() for x in layer]
    projected = gf3.mat_mul(points, _projection_matrix(base, target))
    images = dict(zip(points, map(pg.canonical_point, projected)))
    return MappingProxyType(lines), transversal, off_transversal, MappingProxyType(images)


def _projection_matrix(base: Point, target: Hyperplane) -> gf3.Matrix:
    """The projection from the base b onto the target prime h as the matrix
    (b.h) I - h^T b: it sends x to (b.h) x - (x.h) b, the point where the line
    from b through x != b meets h, and its kernel is the base."""
    bh = gf3.dot(base, target)
    return gf3.mat((bh * (i == j) - a * b for j, b in enumerate(base))
                   for i, a in enumerate(target))


def project_from_base(
    model: VeroneseModel, base: Point, s: TwelveSet, target: Hyperplane
) -> ProjectionReport:
    """Project the set through the base point onto a prime off the base.

    The four conic planes land on four mutually skew lines, the tangent plane
    on their unique common transversal, and the twelve points on exactly the
    line points off the transversal, which all lie on the target.  A violation
    raises naming a set point in no layer (such as the base), else a stray
    image, else a missed line point.
    """
    lines, transversal, off_transversal, images = _projection_frame(model, base, target)
    try:
        image = set(map(images.__getitem__, s.points))
    except KeyError:
        outside = min(s.points - images.keys())
        raise ValueError(f"{pg.format_point(outside)} lies in no layer of the base") from None
    if image != off_transversal:
        stray = pg.format_point(min(image - off_transversal or off_transversal - image))
        raise ValueError(f"the image and the line points off the transversal differ at {stray}")
    return ProjectionReport(
        target=target,
        lines=dict(lines),
        transversal=transversal,
        image_points=tuple(sorted(image)),
    )


def analyze_exotic(
    model: VeroneseModel, base: Point, s: TwelveSet, target: Hyperplane | None = None
) -> ExoticReport:
    """Full analysis of a sum-2 set: its 42 six-point primes, their unique
    common point, and the projection picture from that point."""
    if classify(model, base, s) != "exotic":
        raise ValueError("not an exotic (sum 2 mod 3) twelve-set")
    primes = pg.hyperplanes_of_size(5, s.section_sizes, 6)
    common = pg.common_points(5, primes)
    if len(common) != 1:
        raise ValueError("six-point primes do not meet in a single point")
    if target is None:
        target = conic_layers(model, base).target
    projection = project_from_base(model, base, s, target)
    return ExoticReport(
        six_point_primes=primes, common_point=common[0], projection=projection
    )

"""The rational apartment of a maximal split torus and its sphere at infinity."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from typing import List, Sequence, Tuple, Union

from .polyhedra import QPolyhedron, rref
from .qvec import Vector, dot, primitive, qvec, sub
from .rootdata import RelativeDatum
from .valfield import PuiseuxElement


@dataclass(frozen=True)
class ApartmentPoint:
    """A rational point of the apartment, in primal coordinates."""

    coords: Vector

    def __post_init__(self):
        object.__setattr__(self, "coords", qvec(self.coords))


PointLike = Union[ApartmentPoint, Sequence]


def point_coords(z: PointLike) -> Vector:
    return z.coords if isinstance(z, ApartmentPoint) else qvec(z)


@dataclass(frozen=True)
class InfinityPoint:
    """A direction at infinity; equal iff positively proportional."""

    direction: Vector

    def __post_init__(self):
        # canonical primitive integer form; positive scaling preserved
        object.__setattr__(self, "direction", primitive(qvec(self.direction)))

    def antipode(self) -> "InfinityPoint":
        return InfinityPoint(tuple(-a for a in self.direction))


def nu(entries: Sequence[PuiseuxElement], rel: RelativeDatum) -> ApartmentPoint:
    """Apartment point of a diagonal torus element, via valuations of its entries."""
    n = rel.datum.ambient_dim
    if len(entries) != n:
        raise ValueError(f"expected {n} diagonal entries, got {len(entries)}")
    vals = []
    for i, s in enumerate(entries):
        if not s:
            raise ValueError(f"diagonal entry {i} is zero")
        vals.append(s.valuation())
    if rel.datum.family == "A":
        det = entries[0]
        for s in entries[1:]:
            det = det * s
        if det != PuiseuxElement.one():
            raise ValueError("diagonal entries must have product 1")
    # solve <restrict(e_i), z> = -v(s_i) for all ambient coordinates e_i
    rows: List[List[Q]] = []
    for i in range(n):
        e_i = tuple(Q(1) if j == i else Q(0) for j in range(n))
        rows.append(list(rel.restrict(e_i)) + [-Q(vals[i])])
    reduced, pivots = rref(rows)
    z = [Q(0)] * rel.rank
    for r, p in enumerate(pivots):
        if p == rel.rank:
            raise ValueError("entry valuations are inconsistent with the torus")
        z[p] = reduced[r][rel.rank]
    return ApartmentPoint(tuple(z))


def _positive_side(alpha: Vector) -> bool:
    for a in alpha:
        if a != 0:
            return a > 0
    return False


def simplex_id(z: PointLike, rel: RelativeDatum) -> Tuple[Tuple[Vector, Q, int], ...]:
    """Signs of the nearest affine-root walls around z; zeros cut out its carrier."""
    zc = point_coords(z)
    out = []
    for alpha, step in rel.gamma:
        if not _positive_side(alpha):
            continue  # one functional per +/- pair
        val = dot(alpha, zc)
        # walls alpha(z) + n = 0 with n in step*Z bounding the cell around z
        lo = -step * (val // step)  # n with val + n in [0, step)
        for n in (lo, lo - step) if val + lo > 0 else (lo,):
            v = val + n
            sign = 0 if v == 0 else (1 if v > 0 else -1)
            out.append((alpha, n, sign))
    return tuple(sorted(out))


def is_vertex(z: PointLike, rel: RelativeDatum) -> bool:
    """Whether the carrier simplex of z is a single point."""
    zero_walls = [alpha for alpha, _, s in simplex_id(z, rel) if s == 0]
    if len(zero_walls) < rel.rank:
        return False
    _, pivots = rref([list(a) for a in zero_walls])
    return len(pivots) == rel.rank


@dataclass(frozen=True)
class SphereHull:
    """Hull of directions at infinity: a cone, or bare points for antipodal pairs."""

    kind: str  # "points" or "cone"
    directions: Tuple[Vector, ...]


def semi_convex_hull_sphere(points: Sequence[InfinityPoint],
                            rel: RelativeDatum) -> SphereHull:
    """Smallest join-closed set of directions containing the given ones."""
    if not points:
        raise ValueError("empty set of directions")
    dirs = []
    for p in points:
        if p.direction not in dirs:
            dirs.append(p.direction)
    dim = len(dirs[0])
    antipodal = any(tuple(-a for a in d) in dirs for d in dirs)
    if len(dirs) == 1:
        return SphereHull("cone", (dirs[0],))
    if antipodal and len(dirs) == 2:
        return SphereHull("points", tuple(sorted(dirs)))  # no join for antipodes
    if dim <= 2:
        # on a circle the join closure is the image of the conic hull
        return SphereHull("cone", tuple(dirs))
    if antipodal:
        raise ValueError("antipodal directions in rank > 2 are not supported")
    # no functional >= 1 on every direction: no open half-space holds them
    if QPolyhedron([(d, Q(1)) for d in dirs], dim).is_empty():
        raise ValueError("directions not in an open half-space; unsupported in rank > 2")
    return SphereHull("cone", tuple(dirs))


def distance(z1: PointLike, z2: PointLike, rel: RelativeDatum) -> Q:
    """Squared invariant distance between two apartment points."""
    d = sub(point_coords(z1), point_coords(z2))
    return sum(d[i] * dot(rel.gram[i], d) for i in range(len(d)))

"""Intervals of torus semistability in the apartment, with walls and shifts."""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Sequence, Tuple

from .apartment import ApartmentPoint, InfinityPoint
from .polyhedra import (Generators, QPolyhedron, cone_generators, minimax_face,
                        polar_cone)
from .qvec import Vector, dot, is_zero, primitive, qvec
from .rootdata import RelativeDatum, weyl_orbit
from .torusgit import WeightedPoint, mu_K, point_data, stability_status
from .valfield import INF


@dataclass(frozen=True)
class IntervalResult:
    """Semistable locus of the apartment for one point: the argmax face of a
    minimax, with its points, recession rays and lines.  The point keeps it, so the
    wall bounds are read-only."""

    polyhedron: Optional[QPolyhedron]
    c_star: object  # rational, or INF when the locus is empty
    bounded: bool
    singleton: Optional[ApartmentPoint]
    wall_bounds: Mapping[Vector, object]
    generators: Optional[Generators]

    def is_empty(self) -> bool:
        return self.polyhedron is None

    def contains(self, z: Sequence) -> bool:
        return self.polyhedron is not None and self.polyhedron.contains(qvec(z))

    def chi_optimum(self, chi: Sequence):
        """Optimal character value over the locus and the face attaining it."""
        if self.is_empty():
            raise ValueError("the interval is empty")
        chiv = qvec(chi)
        n = self.generators.support(chiv)
        if n == INF:
            return INF, None
        return n, self.polyhedron.with_equality(chiv, n)


def interval_A(x: WeightedPoint, rel: RelativeDatum) -> IntervalResult:
    """Apartment points where the reduction of x stays semistable.

    The locus is the argmax face of sup_z min_w (v_w + w . z) over the
    restricted weights w of x and their least valuations v_w.  One double
    description of the hypograph (minimax_face) gives the face and its
    generators, with no LP; every wall bound is the face's support function,
    read off those generators.  The face is bounded when it has no recession
    ray or line, and then a point when it has one generator point.  The
    relative roots are symmetric and span the dual space, so this is the
    shape their wall bounds show.  The point keeps the result for the datum
    last asked, so asking again describes nothing.
    """
    data = point_data(x, rel)
    if data.interval is None:
        data.interval = _interval(data.profile, rel)
    return data.interval


def _interval(profile: Mapping[Vector, object], rel: RelativeDatum) -> IntervalResult:
    res = minimax_face(sorted(profile.items()))
    if res.value == INF:
        return IntervalResult(None, INF, False, None, MappingProxyType({}), None)
    gens = res.generators
    bounds = {a: gens.support(a) for a in rel.relative_roots}
    bounded = not (gens.rays or gens.lines)
    singleton = None
    if bounded and len(gens.points) == 1:
        singleton = ApartmentPoint(gens.points[0])
    return IntervalResult(res.face, res.value, bounded, singleton,
                          MappingProxyType(bounds), gens)


def lambda_A(x: WeightedPoint, rel: RelativeDatum) -> Tuple[InfinityPoint, ...]:
    """Directions at infinity along which every support weight is nonpositive."""
    cone = polar_cone(mu_K(x, rel).points)
    gens = [g for g in cone_generators(cone) if not is_zero(g)]
    return tuple(InfinityPoint(g) for g in sorted(set(primitive(g) for g in gens)))


def interval_A_chi(x: WeightedPoint, rel: RelativeDatum, chi: Sequence):
    """Optimal character value over the interval and the face attaining it."""
    return interval_A(x, rel).chi_optimum(chi)


def fixed_locus_possible(lam: Sequence, rel: RelativeDatum) -> bool:
    """Whether some Weyl translate of the weight restricts to zero."""
    lamv = qvec(lam)
    return any(is_zero(rel.restrict(w)) for w in weyl_orbit(rel.datum, lamv))


def destabilizing_1ps(x: WeightedPoint, rel: RelativeDatum) -> Optional[Vector]:
    """A cocharacter nonpositive on every support weight, or none when stable."""
    status = stability_status(x, rel)
    if status == "stable":
        return None
    verts = mu_K(x, rel).points
    gens = [g for g in cone_generators(polar_cone(verts)) if not is_zero(g)]
    if status == "unstable":
        for g in gens:
            if any(dot(v, g) < 0 for v in verts):
                return primitive(g)
        raise AssertionError("no strictly destabilizing direction found")
    return primitive(gens[0])

"""Rank-one tree computations and finite apartment families for bigger groups."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import combinations
from math import lcm
from operator import mul
from typing import Optional, Sequence, Tuple

from .apartment import ApartmentPoint
from .interval import interval_A_chi
from .models import (ModelPoint, act, adjugate, determinant, model_relative,
                     model_spec, p_epsilon_member, weighted_coordinates)
from .polyhedra import (QPolyhedron, cone_generators, min_enclosing_ball,
                        polyhedron_generators)
from .qvec import Vector, is_zero, primitive_ints, qvec
from .rootdata import RelativeDatum, fundamental_rays, relative_weyl_orbit
from .valfield import (INF, ONE, PuiseuxElement, ZERO, _canonical,
                       format_rational)

# the rank-one tree is the building of SL2, which acts on the projective line
TREE_MODEL = "proj(2)"


@dataclass(frozen=True)
class TreePoint:
    """Point of the rank-one tree: a branch coordinate and a height."""

    b: PuiseuxElement
    u: Q

    def __init__(self, b: PuiseuxElement, u):
        u = u if isinstance(u, Q) else Q(u)
        # points at height u only remember the branch coordinate above 2u
        object.__setattr__(self, "b", b.truncate(2 * u))
        object.__setattr__(self, "u", u)

    def is_vertex(self) -> bool:
        return (2 * self.u).denominator == 1

    def to_json(self) -> dict:
        return {"b": self.b.to_json(), "u": format_rational(self.u)}


def tree_canonicalize(b: PuiseuxElement, u) -> TreePoint:
    return TreePoint(b, u)


@dataclass(frozen=True)
class ApartmentChart:
    """A group element carrying the standard apartment onto another one."""

    g: Tuple[Tuple[PuiseuxElement, ...], ...]

    @staticmethod
    def identity(n: int = 2) -> "ApartmentChart":
        return ApartmentChart(tuple(tuple(ONE if i == j else ZERO
                                          for j in range(n)) for i in range(n)))

    @staticmethod
    def branch(b: PuiseuxElement) -> "ApartmentChart":
        """Lower-unipotent chart whose apartment runs to the end over b."""
        return ApartmentChart(((ONE, ZERO), (b, ONE)))

    @staticmethod
    def swap() -> "ApartmentChart":
        return ApartmentChart(((ZERO, ONE), (-ONE, ZERO)))


@dataclass(frozen=True)
class TreeInterval:
    """Semistable locus on the tree, with a certificate of how it was closed."""

    points: Tuple[TreePoint, ...]
    certificate: str  # "exact" or "radius_limited"
    witness: Optional[ApartmentChart] = None
    radius: Optional[Q] = None

    def is_empty(self) -> bool:
        return not self.points


def _proj2_coords(x: ModelPoint) -> Tuple[PuiseuxElement, PuiseuxElement]:
    if x.model != TREE_MODEL:
        raise ValueError(f"tree operations need a point of {TREE_MODEL}")
    return x.data[0][0], x.data[0][1]


def ss_at(x: ModelPoint, z: TreePoint) -> bool:
    """Semistability of the reduction of x at a tree point."""
    if z.is_vertex():
        # reductions of representable coordinates are always rational over the
        # residue field, and rational reductions are destabilized at vertices
        return False
    x0, x1 = _proj2_coords(x)
    if not x0:
        return False
    return (x1 - z.b * x0).valuation() - x0.valuation() == 2 * z.u


def interval_tree(x: ModelPoint, R=Q(4)) -> TreeInterval:
    """Walk the tree toward x, splitting one residue digit per vertex.

    The branch coordinate b grows by one digit per step; the walk keeps
    rem = x1 - b * x0 up to date instead of b, and builds b at the exit.
    Each digit cancels the leading term of rem, so the digits' exponents
    strictly increase: this is power-series long division (Knuth, TAOCP
    vol. 2, 4.7).  The walk runs on integer exponents over one common
    denominator D of x0's and x1's exponents: rem is a table from exponent
    times D to coefficient, updated in place.  x0's further terms are
    divided by its leading coefficient once, so each digit costs that one
    division and one multiply-add per further term of x0.  The digits'
    exponents become Fractions once, at the exit.
    """
    R = R if isinstance(R, Q) else Q(R)
    x0, x1 = _proj2_coords(x)
    if not x0:
        return TreeInterval((), "exact", witness=ApartmentChart.swap())
    D = lcm(*(q.denominator for q, _ in x0.terms + x1.terms))
    (v0, lead), *tail = [(q.numerator * (D // q.denominator), c)
                         for q, c in x0.terms]
    # rem loses c * x0 / lead when its leading coefficient c is cancelled
    tail = [(n - v0, -c / lead) for n, c in tail]
    rem = {q.numerator * (D // q.denominator): c for q, c in x1.terms}
    # the largest digit exponent inside the radius, times D
    depth = 2 * R.numerator * D // R.denominator
    digits = []
    while rem:
        n = min(rem)
        e = n - v0
        if e % D or e > depth:
            break
        c0 = rem.pop(n)
        digits.append((e, c0 / lead))
        for off, m in tail:
            k = n + off
            if k in rem:
                r = rem[k] + c0 * m
                if r:
                    rem[k] = r
                else:
                    del rem[k]
            else:
                rem[k] = c0 * m
    b = _canonical(tuple((Q(e // D), d) for e, d in digits))
    if not rem:
        return TreeInterval((), "exact", witness=ApartmentChart.branch(b))
    if e % D:
        return TreeInterval((TreePoint(b, Q(e, 2 * D)),), "exact")
    return TreeInterval((), "radius_limited", radius=R,
                        witness=ApartmentChart.branch(b))


def act_tree(g, z: TreePoint) -> TreePoint:
    """Image of a tree point under a fractional-linear chart matrix."""
    m = tuple(tuple(c if isinstance(c, PuiseuxElement) else PuiseuxElement.const(c)
                    for c in row) for row in g)
    (p, q2), (r, s) = m
    det = p * s - q2 * r
    if not det:
        raise ValueError("chart matrix is singular")
    den = p + q2 * z.b
    if not den:
        raise ValueError("the chart pole sits on the branch coordinate")
    vden = den.valuation()
    if q2 and vden >= q2.valuation() + 2 * z.u:
        raise ValueError("the chart pole lies inside the point's disc")
    u2 = z.u + Q(det.valuation() - 2 * vden, 2)
    num = r + s * z.b
    if not num:
        return TreePoint(ZERO, u2)
    prec = 2 * u2 - num.valuation() + 2 * vden
    b2 = (num * den.truncated_inverse(prec)).truncate(2 * u2)
    return TreePoint(b2, u2)


def tree_distance(z1: TreePoint, z2: TreePoint) -> Q:
    """Path length between two tree points in apartment units."""
    split = (z1.b - z2.b).valuation()
    branch = min(z1.u, z2.u) if split == INF else min(z1.u, z2.u, split / 2)
    return (z1.u - branch) + (z2.u - branch)


def tree_midpoint(z1: TreePoint, z2: TreePoint) -> TreePoint:
    """Midpoint of the geodesic between two tree points."""
    split = (z1.b - z2.b).valuation()
    branch = min(z1.u, z2.u) if split == INF else min(z1.u, z2.u, split / 2)
    half = ((z1.u - branch) + (z2.u - branch)) / 2
    if half <= z1.u - branch:
        return TreePoint(z1.b, z1.u - half)
    return TreePoint(z2.b, branch + (half - (z1.u - branch)))


def circumcenter_tree(points: Sequence[TreePoint]) -> TreePoint:
    """Midpoint of a diameter of a finite set of tree points."""
    if not points:
        raise ValueError("empty set of tree points")
    best = (Q(0), points[0], points[0])
    for a, b in combinations(points, 2):
        d = tree_distance(a, b)
        if d > best[0]:
            best = (d, a, b)
    return tree_midpoint(best[1], best[2])


def circumcenter(region, gram: Optional[Sequence[Vector]] = None):
    """Center of the smallest ball around a tree interval or apartment polyhedron."""
    if isinstance(region, TreeInterval):
        if region.is_empty():
            raise ValueError("empty interval")
        return circumcenter_tree(region.points)
    if isinstance(region, QPolyhedron):
        # a nonempty region is bounded when it has no rays or lines, and then
        # its points are its vertices
        gens = polyhedron_generators(region)
        if not gens.points:
            raise ValueError("empty region")
        if gens.rays or gens.lines:
            raise ValueError("unbounded region")
        center, _ = min_enclosing_ball(gens.points, gram=gram)
        return ApartmentPoint(center)
    raise ValueError("unsupported region type")


def invariant_monomials(model: str, degree: Optional[int] = None):
    """Exponent vectors of the weight-zero coordinate monomials of a degree."""
    spec = model_spec(model)
    if len(spec.factors) != 1:
        raise ValueError("invariants are only tabulated for one-factor models")
    rel = spec.relative
    wp_weights = [rel.restrict(w) for w in spec.factor_weights[0]]
    n = len(wp_weights)
    degrees = [degree] if degree is not None else range(1, n + 1)
    for d in degrees:
        found = []
        for expo in _compositions(d, n):
            total = tuple(sum(e * w[k] for e, w in zip(expo, wp_weights))
                          for k in range(rel.rank))
            if is_zero(total):
                found.append(expo)
        if found:
            return d, found
    raise ValueError(f"no invariant monomials for {model} at the given degree")


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _eval_monomials(coords, monomials):
    """The valuation of each monomial in the coordinates, with no product
    formed: valuation is additive and the ring has no zero divisors, so a
    zero coordinate's INF gives INF."""
    vals = [c.valuation() for c in coords]
    return [sum((e * v for v, e in zip(vals, expo) if e > 0), Q(0))
            for expo in monomials]


def r_log(x: ModelPoint, chart: ApartmentChart, degree: Optional[int] = None) -> Q:
    """Valuation-scale comparison of invariant sizes between two apartments."""
    d, monomials = invariant_monomials(x.model, degree)
    m = chart.g
    if determinant(m) != ONE:
        raise ValueError("chart determinant must be 1")
    moved = act(adjugate(m), x).data[0]
    here = min(_eval_monomials(x.data[0], monomials))
    there = min(_eval_monomials(moved, monomials))
    if here == INF or there == INF:
        raise ValueError("point is unstable in one of the two apartments")
    return here - there


def r_tilde_estimate(x: ModelPoint, family: Sequence[ApartmentChart],
                     degree: Optional[int] = None):
    """Family minimum of the apartment comparison, with the minimizing charts."""
    if not family:
        raise ValueError("empty chart family")
    values = [r_log(x, g, degree) for g in family]
    best = min(values)
    argmin = tuple(g for g, v in zip(family, values) if v == best)
    return best, argmin


def f_chi_tree(z: TreePoint, chi) -> Q:
    """Character height of a tree point, folded onto the standard apartment."""
    c = chi[0] if isinstance(chi, (tuple, list)) else chi
    c = c if isinstance(c, Q) else Q(c)
    if not z.b:
        return c * z.u
    u_b = Q(z.b.valuation(), 1) / 2
    return c * u_b - abs(c) * (z.u - u_b)


def interval_chi(x: ModelPoint, chi, R=Q(4), rel: Optional[RelativeDatum] = None):
    """Argmax of the character height over the semistable locus."""
    if x.model == TREE_MODEL:
        res = interval_tree(x, R)
        if res.is_empty():
            raise ValueError("the point has no semistable locus within the radius")
        z = res.points[0]
        return f_chi_tree(z, chi), res.points
    rel = rel or model_relative(x.model)
    wp = weighted_coordinates(x)
    n, face = interval_A_chi(wp, rel, chi)
    if n == INF:
        return INF, None
    return n, face


def _chamber_rays(rel: RelativeDatum):
    """Root lines, and the rays of every chamber of their arrangement by sign vector.

    The chambers are the Weyl translates of the fundamental one, so their
    rays are the orbit images of its rays, as primitive integer vectors, and
    their sign vectors those of the images' sums.  They are listed with +
    before - in each sign, root by root.
    """
    lines = []
    for a in rel.relative_roots:
        if a not in lines and tuple(-c for c in a) not in lines:
            lines.append(a)
    keys = [primitive_ints(a) for a in lines]
    rays = {}
    for imgs in relative_weyl_orbit(rel, [tuple(fundamental_rays(rel))]):
        inside = [sum(c) for c in zip(*imgs)]
        rays[tuple(1 if sum(map(mul, a, inside)) > 0 else -1 for a in keys)] = imgs
    return lines, {s: rays[s] for s in sorted(rays, reverse=True)}


def _chamber_cone(signs: Tuple[int, ...], lines: Sequence[Vector]) -> Tuple:
    """Halfspaces of the chamber on the given sides of the root lines."""
    return tuple((tuple(x * c for c in a), Q(0)) for x, a in zip(signs, lines))


@dataclass(frozen=True)
class PChiData:
    """Parabolic subgroup attached to a character: chambers, face, test direction."""

    chambers: Tuple[Tuple[int, ...], ...]
    tau: QPolyhedron
    delta: Vector


def p_chi_data(chi: Sequence, rel: RelativeDatum) -> PChiData:
    """Chambers at infinity where the character stays nonnegative, and their face."""
    chiv = qvec(chi) if isinstance(chi, (tuple, list)) else (Q(chi),)
    if is_zero(chiv):
        raise ValueError("the character must be nonzero")
    if len(chiv) != rel.rank:
        raise ValueError("dimension mismatch")
    lines, rays = _chamber_rays(rel)
    # the rays are read only through signs, so chi is scaled to integers
    c = primitive_ints(chiv)
    kept = [s for s, gens in rays.items()
            if all(sum(map(mul, c, g)) >= 0 for g in gens)]
    if not kept:
        raise AssertionError("the character is negative on every chamber")
    # the kept chambers' halfspaces, built once per root line and side
    sides = {(i, x) for s in kept for i, x in enumerate(s)}
    halves = {(tuple(x * c for c in lines[i]), Q(0)) for i, x in sides}
    tau = QPolyhedron(tuple(sorted(halves)))
    delta = tuple(sum(g[i] for g in cone_generators(tau)) or Q(0)
                  for i in range(rel.rank))
    return PChiData(tuple(kept), tau, delta)


def chi_parabolic_member(data: PChiData, g, model: str,
                         rel: RelativeDatum) -> bool:
    """Membership in the character's parabolic, via its generic direction."""
    return p_epsilon_member(g, data.delta, model, rel)

"""Exact rational convex geometry: hull membership, cones, minimax faces, balls.

Everything is computed exactly, in Fraction arithmetic or, inside the double
description, on Python ints; no floating point is used anywhere.  Cone
generators, cone facets, polyhedron generators (points, recession rays and
lines, and so vertices and the support function), hull skeletons, hull
membership, minimax faces and linear programs all come from one
double-description routine, with no simplex and no subset enumeration; hull
membership and hull skeletons read its integer lines and rays directly, with
no Fraction and no rank test, and a polytope keeps that description once it
is built; its hull_cone and tangent cone are read off the same kept
description.  Every other reader builds each Fraction of the integer lines
and rays once.  Minimal enclosing balls come from Welzl's algorithm, with no
subset scan.  A minimax face and its generators are read off one description
of the homogenized hypograph.  QPolyhedron.sup_linear and is_empty read the
generators of the polyhedron's homogenization; solve_lp, which nothing in
the package calls, reads its optimum or improving direction off the
generators of the feasible set.  The environment variable BTGIT_DD_RAY_LIMIT
caps the number of rays a description may hold after any row (default:
unlimited); it is the only work budget.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .qvec import (Vector, add, as_fractions, dot, is_zero, neg, primitive,
                   primitive_ints, qvec, reduced_ints, scale, sub, zero)
from .valfield import INF


class WorkLimitExceeded(RuntimeError):
    """A computation ran past a work budget set in the environment."""


def _env_limit(name: str) -> Optional[int]:
    """A work budget from the environment; unset means unlimited."""
    raw = os.environ.get(name)
    return int(raw) if raw else None


# ---------------------------------------------------------------------------
# linear algebra over Q


def rref(rows: Sequence[Sequence[Q]]) -> Tuple[List[List[Q]], List[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = [list(r) for r in rows]
    pivots: List[int] = []
    r = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][col]
        m[r] = [x / p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


# ---------------------------------------------------------------------------
# convex bodies


@dataclass(frozen=True)
class QPolytope:
    """V-representation: the convex hull of finitely many rational points."""

    points: Tuple[Vector, ...]

    def __init__(self, points: Sequence[Sequence]):
        pts = sorted({qvec(p) for p in points})
        if not pts:
            raise ValueError("a polytope needs at least one point")
        dims = {len(p) for p in pts}
        if len(dims) != 1:
            raise ValueError("points of mixed dimension")
        object.__setattr__(self, "points", tuple(pts))

    @property
    def dim(self) -> int:
        return len(self.points[0])

    @cached_property
    def _lifted_description(self):
        """Integer lines and rays of the double description of hull_cone,
        kept with the polytope so that it is described once."""
        return _integer_double_description([pt + (Q(1),) for pt in self.points],
                                           self.dim + 1)


@dataclass(frozen=True)
class QPolyhedron:
    """H-representation: halfspaces (normal, offset) meaning normal . z >= offset."""

    halfspaces: Tuple[Tuple[Vector, Q], ...]
    dim: int

    def __init__(self, halfspaces: Sequence[Tuple[Sequence, object]], dim: Optional[int] = None):
        hs = tuple((qvec(nrm), off if isinstance(off, Q) else Q(off)) for nrm, off in halfspaces)
        if dim is None:
            if not hs:
                raise ValueError("dimension needed for an unconstrained polyhedron")
            dim = len(hs[0][0])
        object.__setattr__(self, "halfspaces", hs)
        object.__setattr__(self, "dim", dim)

    def contains(self, z: Sequence) -> bool:
        z = qvec(z)
        return all(dot(nrm, z) >= off for nrm, off in self.halfspaces)

    def with_equality(self, normal: Sequence, value) -> "QPolyhedron":
        normal = qvec(normal)
        value = value if isinstance(value, Q) else Q(value)
        return QPolyhedron(
            list(self.halfspaces) + [(normal, value), (neg(normal), -value)], self.dim
        )

    def sup_linear(self, c: Sequence):
        """sup of c . z over the polyhedron; INF if unbounded, None if empty."""
        return polyhedron_generators(self).support(c)

    def is_empty(self) -> bool:
        """Whether no point satisfies every halfspace: the homogenization
        has no ray at height t > 0 (polyhedron_generators)."""
        return not polyhedron_generators(self).points


# ---------------------------------------------------------------------------
# hull membership


def hull_cone(p: QPolytope) -> QPolyhedron:
    """Facets of the cone over the points lifted to height 1.

    q lies in the hull when q lifted the same way lies in this cone, and in
    the hull's interior (relative to the full ambient space) when strictly
    inside every halfspace; a lower-dimensional hull shows up as equality
    pairs, which never hold strictly.  The facets are read off p's kept
    integer description, so building them describes nothing.
    """
    return _h_rep(p._lifted_description, p.dim + 1)


def _lifted_ints(q: Vector) -> Tuple[int, ...]:
    """q lifted to height 1 and scaled to integers by the lcm of its
    denominators: a positive multiple, so every sign test keeps its sign."""
    den = lcm(*(x.denominator for x in q))
    return tuple(x.numerator * (den // x.denominator) for x in q) + (den,)


def hull_member(p: QPolytope, q: Sequence, mode: str = "closure") -> bool:
    """Exact membership of q in conv(points), in the closure or the interior.

    The sign tests of hull_cone's halfspaces, read off the integer lines and
    rays of its double description (which p keeps after the first query)
    against q lifted to height 1 and scaled to integers by the lcm of its
    denominators: q is in the closure when every line vanishes on it and
    every ray is >= 0, and in the interior when there is no line and every
    ray is > 0.  Positive rescaling keeps the signs, so the lift is not
    reduced further.

    p keeps the answer to its last query, so asking an equal q in the same
    mode again, as a residue sweep asks each kept polytope, tests nothing.
    A q that is not a tuple is copied into one first, so changing it later
    cannot change the kept answer.
    """
    key = q if type(q) is tuple else tuple(q)
    last = p.__dict__.get("_last_query")
    if last is not None and (last[0] is key or last[0] == key) and last[1] == mode:
        return last[2]
    qv = qvec(key)
    if len(qv) != p.dim:
        raise ValueError("dimension mismatch")
    if mode not in ("closure", "interior"):
        raise ValueError(f"unknown mode {mode!r}")
    lines, rays = p._lifted_description
    v = _lifted_ints(qv)
    if mode == "closure":
        answer = (all(sum(map(mul, l, v)) == 0 for _, l in lines)
                  and all(sum(map(mul, r, v)) >= 0 for r in rays))
    else:
        answer = not lines and all(sum(map(mul, r, v)) > 0 for r in rays)
    p.__dict__["_last_query"] = (key, mode, answer)
    return answer


def hull_member_bruteforce(points: Sequence[Sequence], q: Sequence) -> bool:
    """Oracle: Caratheodory search over affinely independent subsets."""
    pts = [qvec(p) for p in points]
    q = qvec(q)
    d = len(q)
    for size in range(1, d + 2):
        for sub_pts in combinations(pts, size):
            # solve sum mu_i p_i = q, sum mu = 1 exactly, then check mu >= 0
            rows = [[pt[i] for pt in sub_pts] for i in range(d)]
            rows.append([Q(1)] * size)
            rhs = list(q) + [Q(1)]
            aug = [row + [rhs[i]] for i, row in enumerate(rows)]
            red, pivots = rref(aug)
            if size in pivots:
                continue  # inconsistent
            if len(pivots) < size:
                continue  # underdetermined; a smaller subset will witness it
            mu = [Q(0)] * size
            for r, col in enumerate(pivots):
                mu[col] = red[r][size]
            if all(x >= 0 for x in mu):
                return True
    return False


# ---------------------------------------------------------------------------
# cones


def _combine(c: int, u: Tuple[int, ...], d: int, w: Tuple[int, ...]) -> Tuple[int, ...]:
    """c u - d w, divided by the gcd of its entries."""
    return reduced_ints([c * x - d * y for x, y in zip(u, w)])


def _integer_double_description(rows: Sequence[Vector], dim: int
                                ) -> Tuple[List[Tuple[int, Tuple[int, ...]]],
                                           List[Tuple[int, ...]]]:
    """Lines and primitive extreme rays of the cone {x : a . x >= 0 for every row a},
    as integer vectors; each line comes with its free coordinate.

    Double description (Motzkin et al. 1953; Fukuda-Prodon 1996): start from
    the whole space and add the inequalities one at a time, tracking the rows
    tight on each ray.  A pair of rays on opposite sides of the new row is
    combined when they are adjacent: they share at least dim - len(lines) - 2
    tight rows (checked first, as it is cheap) and no third ray is tight on
    all of those.  The lines span the kernel of the rows, each one
    nonzero at its own free coordinate and zero at the other lines' free
    coordinates, and every ray vanishes on all the free coordinates.

    The work is done on Python ints: each row is scaled to a primitive
    integer vector, and lines and rays are kept as integer vectors divided
    by the gcd of their entries after every combination.  Only the signs of
    a . x matter, and positive rescaling keeps them.

    The ray count after each row is checked against BTGIT_DD_RAY_LIMIT;
    past it, WorkLimitExceeded is raised.
    """
    limit = _env_limit("BTGIT_DD_RAY_LIMIT")
    lines = [(i, tuple(int(j == i) for j in range(dim))) for i in range(dim)]
    rays: List[Tuple[Tuple[int, ...], frozenset]] = []  # (ray, indices of rows tight on it)
    for k, row in enumerate(rows):
        if len(row) != dim:
            raise ValueError("dimension mismatch")
        a = [(j, x) for j, x in enumerate(primitive_ints(row)) if x]

        def val(v: Tuple[int, ...]) -> int:
            return sum(x * v[j] for j, x in a)

        vals = [val(l) for _, l in lines]
        at = next((m for m, v in enumerate(vals) if v), None)
        if at is not None:
            # the line leaves as a ray on the side a > 0; everything else is
            # moved along it onto a = 0
            _, pivot = lines.pop(at)
            ap = vals.pop(at)
            if ap < 0:
                pivot, ap = tuple(-x for x in pivot), -ap
            lines = [(i, _combine(ap, l, v, pivot) if v else l)
                     for (i, l), v in zip(lines, vals)]
            rays = [(_combine(ap, r, v, pivot) if v else r, z | {k})
                    for v, (r, z) in zip([val(r) for r, _ in rays], rays)]
            rays.append((pivot, frozenset(range(k))))
        else:
            vals = [val(r) for r, _ in rays]
            kept = [(r, z | {k} if v == 0 else z) for v, (r, z) in zip(vals, rays) if v >= 0]
            # two adjacent rays span a 2-face, whose tight rows have rank
            # dim - len(lines) - 2, so they share at least that many
            least = dim - len(lines) - 2
            for i, (vp, (p, zp)) in enumerate(zip(vals, rays)):
                if vp <= 0:
                    continue
                for j, (vn, (n, zn)) in enumerate(zip(vals, rays)):
                    if vn >= 0:
                        continue
                    common = zp & zn
                    # adjacent: no third ray is tight wherever both are
                    if len(common) >= least and not any(
                            common <= z for m, (_, z) in enumerate(rays)
                            if m not in (i, j)):
                        kept.append((_combine(vp, n, vn, p), common | {k}))
            rays = kept
        if limit is not None and len(rays) > limit:
            raise WorkLimitExceeded("double description ray limit exceeded")
    return lines, [r for r, _ in rays]


def _h_rep(description, dim: int) -> QPolyhedron:
    """The cone dual to an integer double description: its lines, each
    divided by its entry at its free coordinate, become equality pairs and
    its rays, sorted, halfspaces through 0."""
    lines, rays = description
    lines = [tuple(Q(x, l[i]) for x in l) for i, l in lines]
    halfspaces = [(w, Q(0)) for v in lines for w in (v, neg(v))]
    return QPolyhedron(halfspaces + [(r, Q(0)) for r in as_fractions(sorted(rays))], dim)


def cone_h_rep(generators: Sequence[Sequence], dim: int) -> QPolyhedron:
    """H-representation of the conic hull of finitely many generators.

    The facet normals are the extreme rays of the dual cone
    {n : n . g >= 0 for every generator g}; its lines, the directions
    orthogonal to the span, become equality pairs.
    """
    return _h_rep(_integer_double_description([qvec(g) for g in generators], dim), dim)


def tangent_cone(p: QPolytope) -> QPolyhedron:
    """Tangent cone of the hull at the origin, which must lie in it: the
    facets of hull_cone through the lifted origin, those with last entry 0."""
    if not hull_member(p, zero(p.dim)):
        raise ValueError("tangent cone requested at a point outside the hull")
    return QPolyhedron([(nrm[:-1], off) for nrm, off in hull_cone(p).halfspaces
                        if nrm[-1] == 0], p.dim)


def polar_cone(generators: Sequence[Sequence]) -> QPolyhedron:
    """The cone of directions nonpositive against every generator."""
    gens = [qvec(g) for g in generators]
    if not gens:
        raise ValueError("dimension needed for an empty generator list")
    return QPolyhedron([(neg(g), Q(0)) for g in gens if not is_zero(g)], len(gens[0]))


def cone_generators(cone: QPolyhedron) -> List[Vector]:
    """Generators (extreme rays plus a lineality basis with both signs).

    Assumes every offset is zero.  Returns [] exactly when the cone is {0}.
    """
    if any(off != 0 for _, off in cone.halfspaces):
        raise ValueError("not a cone")
    lines, rays = _integer_double_description([nrm for nrm, _ in cone.halfspaces],
                                              cone.dim)
    # each line and ray is already a primitive integer vector
    return sorted({tuple(Q(s * x) for x in l) for _, l in lines for s in (1, -1)}
                  | set(as_fractions(rays)))


def cone_contains(cone: QPolyhedron, v: Sequence) -> bool:
    return cone.contains(qvec(v))


# ---------------------------------------------------------------------------
# minimax


@dataclass
class MinimaxResult:
    value: object  # Q or INF
    face: Optional[QPolyhedron]  # argmax set; None when value is INF
    ray: Optional[Vector] = None  # an improving direction when value is INF
    generators: Optional["Generators"] = None  # the face's; None when value is INF


def minimax_face(affine_forms: Sequence[Tuple[Sequence, object]]) -> MinimaxResult:
    """sup_z min_i (offset_i + normal_i . z) with its exact argmax face.

    The affine forms are (normal, offset) pairs.  When the sup is infinite the
    result carries a witness direction along which every form increases.

    One double description of the homogenized hypograph, the cone
    {(z, s, t) : normal_i . z - s + offset_i t >= 0 for every form, t >= 0},
    answers both the value and the face (Motzkin et al. 1953; Fukuda-Prodon
    1996).  The row t >= 0 goes in first and the forms after it by ascending
    offset, ties broken by normal, which keeps the intermediate descriptions
    small.  The sup is infinite when a line has s != 0 or a ray at t = 0 has
    s > 0; otherwise it is the largest s / t over the rays with t > 0, and
    the face is generated by those rays with s / t at it (divided by t), the
    rays at t = 0 with s = 0 and all the lines, each with s and t dropped.
    """
    forms = [(qvec(nrm), off if isinstance(off, Q) else Q(off)) for nrm, off in affine_forms]
    if not forms:
        raise ValueError("need at least one affine form")
    d = len(forms[0][0])
    rows = [zero(d) + (Q(0), Q(1))]
    rows += [nrm + (Q(-1), off)
             for nrm, off in sorted(forms, key=lambda f: (f[1], f[0]))]
    lines, rays = _integer_double_description(rows, d + 2)
    for _, l in lines:
        if l[d]:
            sign = 1 if l[d] > 0 else -1
            return MinimaxResult(INF, None, ray=tuple(Q(sign * x) for x in l[:d]))
    for r in rays:
        if r[d + 1] == 0 and r[d] > 0:
            return MinimaxResult(INF, None, ray=tuple(map(Q, r[:d])))
    points = [(Q(r[d], r[d + 1]), r) for r in rays if r[d + 1]]
    cstar = max(s for s, _ in points)
    gens = Generators(
        tuple(sorted(tuple(Q(x, r[d + 1]) for x in r[:d])
                     for s, r in points if s == cstar)),
        tuple(tuple(map(Q, r[:d])) for r in rays if r[d + 1] == 0 and r[d] == 0),
        tuple(tuple(Q(x, l[i]) for x in l[:d]) for i, l in lines))
    face = QPolyhedron([(nrm, cstar - off) for nrm, off in forms], d)
    return MinimaxResult(cstar, face, generators=gens)


# ---------------------------------------------------------------------------
# minimal enclosing balls


def min_enclosing_ball(points: Sequence[Sequence], gram=None) -> Tuple[Vector, Q]:
    """Exact minimal enclosing ball; returns (center, squared radius).

    The metric may be twisted by a symmetric positive-definite rational Gram
    matrix.  Welzl's algorithm (1991), over the points sorted: the smallest
    ball around the first k points with a given support on its boundary is
    grown point by point, and a point outside the current ball joins the
    support and restarts the ball on the points before it.  A support of
    d + 1 points fixes its ball, so the recursion is at most d + 1 deep.
    Each support is affinely independent, since every ball with the support
    on its boundary meets the support's affine hull in the same ball: a
    point outside the current ball but on the boundary of the next lies off
    that hull.  So each support's ball is its circumball.
    """
    pts = sorted({qvec(p) for p in points})
    if not pts:
        raise ValueError("need at least one point")
    d = len(pts[0])
    if gram is None:
        gram = [[Q(1) if i == j else Q(0) for j in range(d)] for i in range(d)]

    def gdot(x: Vector, y: Vector) -> Q:
        return sum(x[i] * gram[i][j] * y[j] for i in range(d) for j in range(d))

    def circumball(support: List[Vector]) -> Tuple[Vector, Q]:
        p0 = support[0]
        ds = [sub(p, p0) for p in support[1:]]
        red, pivots = rref([[2 * gdot(a, b) for b in ds] + [gdot(a, a)] for a in ds])
        assert pivots == list(range(len(ds))), "affinely dependent support"
        x = zero(d)
        for row, a in zip(red, ds):
            x = add(x, scale(row[-1], a))
        return add(p0, x), gdot(x, x)

    def ball(k: int, support: List[Vector]) -> Tuple[Vector, Q]:
        # with no support, the ball of the first point starts it
        center, r2 = circumball(support or pts[:1])
        if len(support) <= d:
            for i, p in enumerate(pts[:k]):
                if gdot(sub(p, center), sub(p, center)) > r2:
                    center, r2 = ball(i, support + [p])
        return center, r2

    return ball(len(pts), [])


# ---------------------------------------------------------------------------
# hull skeleton


def hull_skeleton(p: QPolytope):
    """Vertices and edges (with primitive directions) of the hull; dim <= 4.

    Both are read off the rays of p's kept integer description, the facets
    of the cone over the points lifted to height 1: each point gets the bit
    mask of the facets through it.  That cone is pointed and each of its
    faces is generated by the points it holds, so a point is a vertex when
    no other point's mask contains its mask, and two vertices span an edge
    when no third vertex's mask contains the meet of theirs (the
    combinatorial adjacency test; Fukuda-Prodon 1996).
    """
    if p.dim > 4:
        raise ValueError("hull skeleton supported up to ambient dimension 4")
    _, rays = p._lifted_description
    masks = []
    for pt in p.points:
        v = _lifted_ints(pt)
        masks.append(sum(1 << k for k, r in enumerate(rays) if not sum(map(mul, r, v))))
    tight = {pt: m for i, (pt, m) in enumerate(zip(p.points, masks))
             if not any(n & m == m for j, n in enumerate(masks) if j != i)}
    vertices = list(tight)
    edges = []
    for va, vb in combinations(vertices, 2):
        meet = tight[va] & tight[vb]
        if not any(m & meet == meet for v, m in tight.items()
                   if v is not va and v is not vb):
            edges.append((va, vb, primitive(sub(vb, va))))
    return vertices, edges


# ---------------------------------------------------------------------------
# vertex enumeration for H-polyhedra


@dataclass(frozen=True)
class Generators:
    """A polyhedron as conv(points) + cone(rays) + span(lines).

    It has no points exactly when it is empty.  Without lines the points are
    its vertices; with lines they are one point of each minimal face.
    """

    points: Tuple[Vector, ...]
    rays: Tuple[Vector, ...]
    lines: Tuple[Vector, ...]

    def support(self, c: Sequence):
        """sup of c . z over the polyhedron; INF if unbounded, None if empty."""
        if not self.points:
            return None
        c = qvec(c)
        if any(dot(c, l) for l in self.lines) or any(dot(c, r) > 0 for r in self.rays):
            return INF
        return max(dot(c, p) for p in self.points)


def polyhedron_generators(poly: QPolyhedron) -> Generators:
    """Points, recession rays and lines of a polyhedron from one double
    description of its homogenization.

    n . z >= o becomes n . z - o t >= 0 together with t >= 0.  Its rays at
    height t > 0, divided by t, are the points, those at t = 0 the recession
    rays; t >= 0 puts every line at t = 0.
    """
    rows = [nrm + (-off,) for nrm, off in poly.halfspaces]
    rows.append(zero(poly.dim) + (Q(1),))
    lines, rays = _integer_double_description(rows, poly.dim + 1)
    return Generators(
        tuple(sorted(tuple(Q(x, r[-1]) for x in r[:-1]) for r in rays if r[-1] > 0)),
        as_fractions(r[:-1] for r in rays if r[-1] == 0),
        tuple(tuple(Q(x, l[i]) for x in l[:-1]) for i, l in lines))


def polyhedron_vertices(poly: QPolyhedron) -> List[Vector]:
    """Vertices of a polyhedron; one that contains a line has none."""
    gens = polyhedron_generators(poly)
    return [] if gens.lines else list(gens.points)


# ---------------------------------------------------------------------------
# linear programs


@dataclass
class LPResult:
    status: str  # optimal | unbounded | infeasible
    value: Optional[Q] = None
    x: Optional[Vector] = None
    ray: Optional[Vector] = None  # an improving direction when unbounded


def solve_lp(objective: Sequence[Q], eq=(), ub=(), maximize: bool = True) -> LPResult:
    """Optimize a linear functional of free rational variables, read off the
    generators of the feasible set (polyhedron_generators).

    eq: pairs (row, rhs) with row . x == rhs
    ub: pairs (row, rhs) with row . x <= rhs

    An optimal x is the first best point in the generators' sorted order;
    an unbounded result carries a line or ray along which the objective
    improves.
    """
    obj = qvec(objective)
    sense = obj if maximize else neg(obj)
    halves = [(neg(row), -rhs) for row, rhs in ub]
    for row, rhs in eq:
        halves += [(row, rhs), (neg(row), -rhs)]
    gens = polyhedron_generators(QPolyhedron(halves, len(obj)))
    if not gens.points:
        return LPResult("infeasible")
    directions = [d for line in gens.lines for d in (line, neg(line))] + list(gens.rays)
    ray = next((d for d in directions if dot(sense, d) > 0), None)
    if ray is not None:
        return LPResult("unbounded", ray=ray)
    x = max(gens.points, key=lambda p: dot(sense, p))
    return LPResult("optimal", value=dot(obj, x), x=x)

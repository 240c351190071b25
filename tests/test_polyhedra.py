"""Exact convex geometry: membership, cones, minimax faces, enclosing balls."""

from fractions import Fraction as Q
from itertools import combinations

import pytest
from helpers import (double_description_by_fractions, hull_member_by_lp,
                     is_empty_by_lp, line_rep, rng, single_point,
                     solve_lp_by_simplex, sup_linear_by_lp)

from btgit.polyhedra import (QPolyhedron, QPolytope, WorkLimitExceeded,
                             _double_description, cone_contains,
                             cone_generators, cone_h_rep, hull_member,
                             hull_member_bruteforce, hull_skeleton,
                             min_enclosing_ball, minimax_face, polar_cone,
                             polyhedron_generators, polyhedron_vertices, rref,
                             solve_lp, tangent_cone)
from btgit.qvec import dot, neg, primitive, qvec, scale, sub
from btgit.valfield import INF


def test_hull_member_examples():
    tri = QPolytope([(1, 0), (-1, 1), (0, -1)])
    assert hull_member(tri, (0, 0), "interior")
    assert not hull_member(QPolytope([(1, 0), (0, 1)]), (0, 0), "closure")
    seg = QPolytope([(1, 1), (-1, -1)])
    assert hull_member(seg, (0, 0), "closure")
    assert not hull_member(seg, (0, 0), "interior")


def test_hull_member_matches_bruteforce():
    r = rng(23)
    for _ in range(300):
        dim = r.randint(1, 3)
        pts = [tuple(Q(r.randint(-3, 3), r.randint(1, 2)) for _ in range(dim))
               for _ in range(r.randint(1, 6))]
        q = tuple(Q(r.randint(-3, 3), r.randint(1, 2)) for _ in range(dim))
        assert hull_member(QPolytope(pts), q, "closure") == \
            hull_member_bruteforce(pts, q)


def test_hull_member_closure_on_degenerate_hulls():
    # lower-dimensional point sets, repeated points, and q on a vertex or an
    # edge, where the simplex pivots are degenerate
    r = rng(29)
    for _ in range(300):
        dim = r.randint(2, 4)
        base = [tuple(Q(r.randint(-2, 2)) for _ in range(dim))
                for _ in range(r.randint(1, 3))]
        pts = [base[r.randrange(len(base))] for _ in range(r.randint(1, 7))]
        a, b = pts[0], pts[-1]
        q = r.choice([a, tuple((x + y) / 2 for x, y in zip(a, b)),
                      tuple(Q(r.randint(-2, 2), 2) for _ in range(dim))])
        assert hull_member(QPolytope(pts), q, "closure") == \
            hull_member_bruteforce(pts, q)


def test_hull_member_matches_lp_oracle():
    # full-dimensional, lower-dimensional and repeated point sets, with q at
    # a point, an edge midpoint, the centroid or anywhere; one polytope
    # answers several queries, alternating closure and interior, from the
    # description it keeps
    r = rng(31)
    seen = set()
    for _ in range(200):
        dim = r.randint(1, 4)
        span = r.choice((dim + 1, r.randint(1, dim)))
        base = [tuple(Q(r.randint(-3, 3), r.randint(1, 2)) for _ in range(dim))
                for _ in range(span)]
        pts = []
        for _ in range(r.randint(1, 7)):
            w = [Q(r.randint(0, 3)) for _ in base]
            w[r.randrange(span)] += 1
            pts.append(tuple(sum(c * b[i] for c, b in zip(w, base)) / sum(w)
                             for i in range(dim)))
        if r.random() < 0.3:
            pts += r.sample(pts, r.randint(1, len(pts)))
        poly = QPolytope(pts)
        before = (hash(poly), repr(poly))
        for k in range(2):
            a, b = r.choice(pts), r.choice(pts)
            q = r.choice([a, tuple((x + y) / 2 for x, y in zip(a, b)),
                          tuple(sum(c) / len(pts) for c in zip(*pts)),
                          tuple(Q(r.randint(-3, 3), r.randint(1, 2))
                                for _ in range(dim))])
            for mode in (("closure", "interior") if k % 2 else ("interior", "closure")):
                got = hull_member(poly, q, mode)
                if k == 0:
                    assert got == hull_member_by_lp(poly, q, mode), (pts, q, mode)
                assert got == hull_member(QPolytope(pts), q, mode), (pts, q, mode)
                if mode == "closure":
                    assert got == hull_member_bruteforce(poly.points, q), (pts, q)
                seen.add((mode, got))
        assert poly == QPolytope(pts)
        assert (hash(poly), repr(poly)) == before
    assert len(seen) == 4


def test_hull_member_keeps_last_answer():
    # a polytope keeps the answer to its last query; repeats, alternating q
    # and modes, lists and tuples, ints and Fractions, and a list changed in
    # place between two queries all answer as a fresh polytope would
    r = rng(37)
    seen = set()
    for _ in range(60):
        dim = r.randint(1, 3)
        pts = [_rand_vec(r, dim) for _ in range(r.randint(1, 5))]
        poly = QPolytope(pts)
        before = (hash(poly), repr(poly))
        qs = [tuple(Q(r.randint(-2, 2)) for _ in range(dim)), _rand_vec(r, dim)]
        for _ in range(8):
            q = qs[r.randrange(2)]
            mode = r.choice(("closure", "interior"))
            form = r.randrange(3)
            if form == 1:
                q = list(q)
            elif form == 2 and all(x.denominator == 1 for x in q):
                q = tuple(int(x) for x in q)
            got = hull_member(poly, q, mode)
            if mode == "closure":
                assert got == hull_member_bruteforce(pts, q), (pts, q)
            else:
                assert got == hull_member_by_lp(QPolytope(pts), q, mode), (pts, q)
            assert hull_member(poly, q, mode) == got
            seen.add((mode, got))
            if isinstance(q, list):
                q[0] += 1
                assert hull_member(poly, q, "closure") == \
                    hull_member_bruteforce(pts, q), (pts, q)
        assert poly == QPolytope(pts)
        assert (hash(poly), repr(poly)) == before
    assert len(seen) == 4


def test_is_empty_matches_lp_oracle():
    # the polyhedron kinds of the support-function test, and the direction
    # sets semi_convex_hull_sphere asks about: d . z >= 1 for every direction
    r = rng(43)
    seen = set()
    for _ in range(12):
        for kind in ("empty", "bounded", "unbounded", "line"):
            poly = _random_polyhedron(r, r.randint(1, 4), kind)
            assert poly.is_empty() == is_empty_by_lp(poly) == (kind == "empty")
        dim = r.randint(2, 4)
        dirs = [_rand_vec(r, dim) for _ in range(r.randint(1, 2 * dim))]
        poly = QPolyhedron([(d, Q(1)) for d in dirs], dim)
        assert poly.is_empty() == is_empty_by_lp(poly), dirs
        seen.add(poly.is_empty())
    assert QPolyhedron([], 2).is_empty() is False
    assert seen == {True, False}


def test_tangent_cone_examples():
    line = tangent_cone(QPolytope([(1, 1), (-1, -1)]))
    assert cone_contains(line, (5, 5)) and cone_contains(line, (-5, -5))
    assert not cone_contains(line, (1, 0))
    full = tangent_cone(QPolytope([(1, 0), (0, 1), (-1, -1)]))
    assert all(cone_contains(full, v) for v in ((3, -7), (-1, 0), (2, 2)))
    quad = tangent_cone(QPolytope([(0, 0), (1, 0), (0, 1)]))
    assert cone_contains(quad, (2, 3))
    assert not cone_contains(quad, (-1, 0))


def test_polar_cone_examples():
    half = polar_cone([(1, 0)])
    assert cone_contains(half, (-2, 5)) and not cone_contains(half, (1, 0))
    line = polar_cone([(1, 0), (-1, 0)])
    assert cone_contains(line, (0, 7)) and not cone_contains(line, (1, 1))
    origin = polar_cone([(1, 0), (0, 1), (-1, -1)])
    assert cone_generators(origin) == []


def test_minimax_face_examples():
    # forms u and 1 - u equalize at 1/2
    res = minimax_face([((Q(1),), Q(0)), ((Q(-1),), Q(1))])
    assert res.value == Q(1, 2)
    assert single_point(res.face) == (Q(1, 2),)
    # normals whose hull misses 0 strictly: the min grows forever
    res = minimax_face([((Q(1), Q(0)), Q(0)), ((Q(0), Q(1)), Q(0))])
    assert res.value == float("inf") and res.ray is not None
    res = minimax_face([((Q(1),), Q(0)), ((Q(-1),), Q(0))])
    assert res.value == 0 and single_point(res.face) == (Q(0),)


def test_min_enclosing_ball_examples():
    c, r2 = min_enclosing_ball([(0, 0), (2, 0)])
    assert c == (1, 0) and r2 == 1
    assert min_enclosing_ball([(0, 0)]) == ((Q(0), Q(0)), Q(0))
    c, r2 = min_enclosing_ball([(0, 0), (2, 0), (1, 1)])
    assert c == (1, 0) and r2 == 1


def test_min_enclosing_ball_support_condition():
    r = rng(29)
    for _ in range(60):
        pts = [tuple(Q(r.randint(-4, 4)) for _ in range(2))
               for _ in range(r.randint(1, 5))]
        c, r2 = min_enclosing_ball(pts)
        d2 = [sum((a - b) ** 2 for a, b in zip(p, c)) for p in pts]
        assert max(d2) == r2  # radius is attained and no point lies outside


def test_hull_skeleton_examples():
    tri = QPolytope([(1, 0), (0, 1), (-1, -1)])
    verts, edges = hull_skeleton(tri)
    assert len(verts) == 3 and len(edges) == 3
    seg = QPolytope([(0, 0), (3, 3)])
    assert len(hull_skeleton(seg)[1]) == 1
    assert hull_skeleton(QPolytope([(2, 2)]))[1] == []


def test_edge_directions_are_canonical():
    verts, edges = hull_skeleton(QPolytope([(0, 0), (2, 0), (0, 2)]))
    dirs = {line_rep(d) for _, _, d in edges}
    assert dirs <= {line_rep(qvec(v)) for v in ((1, 0), (0, 1), (1, -1))}


def test_polyhedron_vertices_of_box():
    from btgit.polyhedra import QPolyhedron
    box = QPolyhedron((((Q(1),), Q(0)), ((Q(-1),), Q(-1))))
    assert sorted(polyhedron_vertices(box)) == [(Q(0),), (Q(1),)]


def test_dd_ray_limit_env(monkeypatch):
    square = QPolyhedron([((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)])
    assert len(polyhedron_vertices(square)) == 4
    monkeypatch.setenv("BTGIT_DD_RAY_LIMIT", "3")
    with pytest.raises(WorkLimitExceeded):
        polyhedron_vertices(square)


def _rand_vec(r, dim):
    return tuple(Q(r.randint(-3, 3), r.randint(1, 2)) for _ in range(dim))


def _rand_points(r, dim):
    """Random points; half the time they lie in a lower-dimensional flat."""
    if r.random() < 0.5:
        return [_rand_vec(r, dim) for _ in range(r.randint(1, 7))]
    base = _rand_vec(r, dim)
    dirs = [_rand_vec(r, dim) for _ in range(r.randint(0, dim - 1))]
    return [tuple(b + sum(r.randint(-2, 2) * d[i] for d in dirs)
                  for i, b in enumerate(base)) for _ in range(r.randint(1, 7))]


def _is_edge_by_lp(va, vb, vertices):
    """Some functional is maximal on va and vb and on no other vertex."""
    others = [v for v in vertices if v not in (va, vb)]
    if not others:
        return True
    d = len(va)
    # vars: c (d), delta; maximize delta <= 1 with c.va = c.vb >= c.r + delta
    eq = [(sub(va, vb) + (Q(0),), Q(0))]
    ub = [(sub(v, va) + (Q(1),), Q(0)) for v in others]
    ub.append(((Q(0),) * d + (Q(1),), Q(1)))
    res = solve_lp_by_simplex([Q(0)] * d + [Q(1)], eq=eq, ub=ub)
    return res.value > 0


def _basic_feasible_points(poly):
    """Points of the polyhedron where dim independent facets are tight."""
    out = set()
    for subset in combinations(poly.halfspaces, poly.dim):
        red, pivots = rref([list(n) + [o] for n, o in subset])
        if len(pivots) == poly.dim and poly.dim not in pivots:
            v = tuple(row[poly.dim] for row in red)
            if poly.contains(v):
                out.add(v)
    return sorted(out)


def test_double_description_routines_match_independent_oracles():
    r = rng(31)
    for _ in range(80):
        dim = r.randint(1, 4)

        pts = sorted(set(_rand_points(r, dim)))
        verts, edges = hull_skeleton(QPolytope(pts))
        assert verts == [p for p in pts if not hull_member_bruteforce(
            [q for q in pts if q != p], p)]
        want = [(a, b) for a, b in combinations(verts, 2)
                if _is_edge_by_lp(a, b, verts)]
        assert [(a, b) for a, b, _ in edges] == want
        assert all(d == primitive(sub(b, a)) for a, b, d in edges)

        halves = [(_rand_vec(r, dim), Q(r.randint(-4, 1)))
                  for _ in range(r.randint(0, 6))]
        if r.random() < 0.5:  # a box makes it bounded
            for i in range(dim):
                e = tuple(Q(1) if j == i else Q(0) for j in range(dim))
                halves += [(e, Q(-2)), (neg(e), Q(-2))]
        poly = QPolyhedron(halves, dim)
        assert polyhedron_vertices(poly) == _basic_feasible_points(poly)

        # fewer rows than dim, or a row with its negative, give lineality
        rows = [_rand_vec(r, dim) for _ in range(r.randint(0, dim + 2))]
        if rows and r.random() < 0.3:
            rows.append(neg(rows[0]))
        cone = QPolyhedron([(a, 0) for a in rows], dim)
        gens = cone_generators(cone)
        back = cone_h_rep(gens, dim)
        probes = [_rand_vec(r, dim) for _ in range(10)]
        probes += [tuple(sum(r.randint(0, 1) * g[i] for g in gens)
                         for i in range(dim)) for _ in range(10)]
        for v in probes:
            assert back.contains(v) == cone.contains(v)


def test_integer_double_description_matches_fraction_oracle():
    # rational rows with mixed denominators, plus zero, repeated, negated and
    # rescaled rows, and as many as dim + 3 rows or as few as none
    r = rng(37)
    for _ in range(400):
        dim = r.randint(1, 5)
        rows = []
        for _ in range(r.randint(0, dim + 3)):
            a = tuple(Q(r.randint(-5, 5), r.choice((1, 2, 3, 4, 6)))
                      if r.random() < 0.7 else Q(0) for _ in range(dim))
            rows.append(a)
            pick = r.random()
            if pick < 0.1:
                rows.append(a)
            elif pick < 0.2:
                rows.append(neg(a))
            elif pick < 0.3:
                rows.append((Q(0),) * dim)
            elif pick < 0.4:
                rows.append(tuple(Q(r.randint(1, 5), r.randint(1, 5)) * x
                                  for x in a))
        lines, rays = _double_description(rows, dim)
        want_lines, want_rays = double_description_by_fractions(rows, dim)
        assert lines == want_lines
        assert rays == want_rays
        assert all(type(x) is Q for v in lines + rays for x in v)
    for short_or_long in ([(Q(1),)], [(Q(1), Q(2), Q(3))]):
        with pytest.raises(ValueError):
            _double_description(short_or_long, 2)


def _random_polyhedron(r, dim, kind):
    """A polyhedron of the given kind around a random point x0: its
    halfspaces hold at x0, a box bounds it, normals orthogonal to d leave
    the line through d, normals nonnegative on d leave the ray along d, and
    a pair a . z >= a . x0 + 1, a . z <= a . x0 empties it."""
    x0 = _rand_vec(r, dim)
    d = _rand_vec(r, dim)
    while not any(d):
        d = _rand_vec(r, dim)
    normals = [_rand_vec(r, dim) for _ in range(r.randint(0, 2 * dim + 1))]
    if kind == "line":
        normals = [sub(a, scale(dot(a, d) / dot(d, d), d)) for a in normals]
    elif kind == "unbounded":
        normals = [neg(a) if dot(a, d) < 0 else a for a in normals]
    halves = [(a, dot(a, x0) - Q(r.randint(0, 2))) for a in normals]
    if kind == "bounded":
        for i in range(dim):
            e = tuple(Q(int(j == i)) for j in range(dim))
            halves += [(e, x0[i] - 2), (neg(e), -x0[i] - 2)]
    elif kind == "empty":
        halves += [(d, dot(d, x0) + 1), (neg(d), -dot(d, x0))]
    return QPolyhedron(halves, dim)


def test_support_function_matches_lp_oracle():
    r = rng(41)
    seen = set()
    for _ in range(12):
        for kind in ("empty", "bounded", "unbounded", "line"):
            dim = r.randint(1, 4)
            poly = _random_polyhedron(r, dim, kind)
            gens = polyhedron_generators(poly)
            assert bool(gens.points) == (kind != "empty")
            if kind == "bounded":
                assert not gens.rays and not gens.lines
            if kind == "line":
                assert gens.lines
            if kind == "unbounded":
                assert gens.rays or gens.lines
            assert all(poly.contains(p) for p in gens.points)
            for nrm, _ in poly.halfspaces:
                assert all(dot(nrm, v) >= 0 for v in gens.rays)
                assert all(dot(nrm, v) == 0 for v in gens.lines)
            assert polyhedron_vertices(poly) == ([] if gens.lines else list(gens.points))
            normals = [nrm for nrm, _ in poly.halfspaces]
            probes = [_rand_vec(r, dim) for _ in range(4)] + normals
            for c in probes + [neg(c) for c in normals]:
                want = sup_linear_by_lp(poly, c)
                assert gens.support(c) == want, (kind, poly, c)
                assert poly.sup_linear(c) == want, (kind, poly, c)
                seen.add(want if want is None or want == INF else "finite")
    assert seen == {None, INF, "finite"}


def test_solve_lp_matches_simplex_oracle():
    """Seeded LPs in up to 4 variables with up to 2 equalities and 6
    inequalities, both senses: solve_lp agrees with the simplex on status
    and value, its x is feasible and attains the value, and its ray
    improves the objective within the recession cone."""
    r = rng(1701)
    statuses = set()
    for _ in range(600):
        n = r.randint(1, 4)
        eq = [(_rand_vec(r, n), Q(r.randint(-3, 3))) for _ in range(r.randint(0, 2))]
        ub = [(_rand_vec(r, n), Q(r.randint(-3, 3))) for _ in range(r.randint(0, 6))]
        obj = _rand_vec(r, n)
        maximize = r.random() < 0.5
        got = solve_lp(obj, eq=eq, ub=ub, maximize=maximize)
        want = solve_lp_by_simplex(obj, eq=eq, ub=ub, maximize=maximize)
        case = (obj, eq, ub, maximize)
        assert (got.status, got.value) == (want.status, want.value), case
        statuses.add(got.status)
        if got.status == "optimal":
            assert all(dot(row, got.x) == rhs for row, rhs in eq), case
            assert all(dot(row, got.x) <= rhs for row, rhs in ub), case
            assert dot(obj, got.x) == got.value, case
        if got.status == "unbounded":
            gain = dot(obj, got.ray)
            assert (gain > 0 if maximize else gain < 0), case
            assert all(dot(row, got.ray) == 0 for row, _ in eq), case
            assert all(dot(row, got.ray) <= 0 for row, _ in ub), case
    assert statuses == {"optimal", "unbounded", "infeasible"}

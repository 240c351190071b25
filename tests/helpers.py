"""Deterministic samplers shared across the test modules."""

from __future__ import annotations

import random
from fractions import Fraction as Q
from functools import lru_cache
from itertools import combinations, permutations
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from btgit.models import make_point, model_relative, symplectic_form
from btgit.polyhedra import (LPResult, MinimaxResult, QPolyhedron, QPolytope,
                             _integer_double_description, cone_h_rep,
                             polyhedron_generators, rref)
from btgit.qvec import (Vector, add, as_fractions, dot, neg, primitive,
                        primitive_ints, qvec, scale, sub)
from btgit.rootdata import (Ray, RelativeDatum, build_root_system,
                            preset_relative, reflection_closure, simple_shuffles)
from btgit.torusgit import mu_K
from btgit.treebuilding import (ApartmentChart, TreeInterval, TreePoint,
                                _proj2_coords)
from btgit.valfield import INF, ONE, ZERO, PuiseuxElement, _canonical


def line_rep(x: Vector) -> Vector:
    """Primitive form with positive first nonzero entry (dedupes +/- pairs)."""
    p = primitive(x)
    for a in p:
        if a != 0:
            return p if a > 0 else neg(p)
    return p


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_rational(r: random.Random, den: int = 6) -> Q:
    return Q(r.randint(-8, 8), r.randint(1, den))


def random_element(r: random.Random, max_terms: int = 3, denom: int = 2,
                   nonzero: bool = False, lo: int = -2, hi: int = 3
                   ) -> PuiseuxElement:
    """Random finite sum of terms c * t^q with exponents in (1/denom) * Z."""
    while True:
        k = r.randint(1 if nonzero else 0, max_terms)
        exps = r.sample([Q(n, denom) for n in range(lo * denom, hi * denom + 1)],
                        k) if k else []
        out = ZERO
        for q in exps:
            c = 0
            while c == 0:
                c = r.randint(-4, 4)
            out = out + PuiseuxElement.monomial(c, q)
        if out or not nonzero:
            return out


def random_monomial(r: random.Random, denom: int = 2) -> PuiseuxElement:
    c = 0
    while c == 0:
        c = r.randint(-4, 4)
    return PuiseuxElement.monomial(c, Q(r.randint(-2, 4), denom))


def random_proj_point(r: random.Random, n: int, denom: int = 2):
    while True:
        coords = [random_element(r, denom=denom) for _ in range(n)]
        if any(bool(c) for c in coords):
            return make_point(f"proj({n})", coords)


def random_grass24_point(r: random.Random, denom: int = 2):
    while True:
        rows = [[random_element(r, max_terms=2, denom=denom) for _ in range(4)]
                for _ in range(2)]
        try:
            return make_point("grass(2,4)", rows)
        except ValueError:
            continue


def random_sp4_flag(r: random.Random):
    """Isotropic plane through a basis with one pivot coordinate kept monomial."""
    while True:
        u = [random_element(r, max_terms=2, denom=1) for _ in range(3)]
        u.append(random_monomial(r, denom=1))
        q4, c4 = u[3].terms[0]
        v = [ZERO] + [random_element(r, max_terms=2, denom=1) for _ in range(3)]
        # solve u1*v4 - u4*v1 + u2*v3 - u3*v2 = 0 for v1
        v[0] = (u[0] * v[3] + u[1] * v[2] - u[2] * v[1]).monomial_div(c4, q4)
        try:
            p = make_point("sp4_flag", (tuple(u), tuple(v)))
        except ValueError:
            continue
        assert not symplectic_form(p.data[0], p.data[1])
        return p


def random_su3_pair(r: random.Random, all_nonzero: bool = False):
    """Pair with x_1 tau(y_1) + x_2 tau(y_2) + x_3 tau(y_3) = 0 by construction."""
    while True:
        x = [random_element(r, max_terms=2, denom=2, nonzero=True)
             for _ in range(2)]
        x.append(random_monomial(r, denom=2))
        y = [random_element(r, max_terms=2, denom=2, nonzero=all_nonzero)
             for _ in range(2)]
        s = x[0] * y[0].tau_twist() + x[1] * y[1].tau_twist()
        q3, c3 = x[2].terms[0]
        y3 = (-s).monomial_div(c3, q3).tau_twist()
        if all_nonzero and not y3:
            continue
        if not (any(bool(c) for c in y[:2]) or y3):
            continue
        try:
            return make_point("su3_pair", (tuple(x), (y[0], y[1], y3)))
        except ValueError:
            continue


def random_sl3_flag(r: random.Random, denom: int = 1):
    """Vector-covector pair with a monomial pivot to keep the pairing zero."""
    while True:
        v = [random_element(r, max_terms=2, denom=denom, nonzero=True),
             random_element(r, max_terms=2, denom=denom),
             random_monomial(r, denom=denom)]
        phi = [random_element(r, max_terms=2, denom=denom) for _ in range(2)]
        q3, c3 = v[2].terms[0]
        phi3 = (-(v[0] * phi[0] + v[1] * phi[1])).monomial_div(c3, q3)
        if not (any(bool(c) for c in phi) or phi3):
            continue
        return make_point("sl3_flag", (tuple(v), (phi[0], phi[1], phi3)))


def random_p1_point(r: random.Random, rational_over_base: Optional[bool] = None):
    """Point of the projective line; optionally force (non-)integer exponents."""
    while True:
        denom = 1 if rational_over_base else r.choice((2, 3, 4))
        x0 = ONE
        x1 = random_element(r, max_terms=3, denom=denom, nonzero=True)
        if rational_over_base is True and not x1.is_base():
            continue
        if rational_over_base is False and x1.is_base():
            continue
        return make_point("proj(2)", (x0, x1))


def grid_points(rank: int, step: Q = Q(1, 2), radius: int = 2) -> List[tuple]:
    """Rational grid around the origin of a rank-dimensional apartment."""
    ticks = [step * k for k in range(-int(radius / step), int(radius / step) + 1)]
    out = [()]
    for _ in range(rank):
        out = [p + (t,) for p in out for t in ticks]
    return out


def chamber_presets(max_rank: Optional[int] = None):
    """Relative data of every preset family at the ranks the chamber oracles
    can still scan, optionally capped at a relative rank."""
    rels = [preset_relative("split", datum=build_root_system(f, r))
            for f, ranks in (("A", range(1, 7)), ("B", range(2, 5)),
                             ("C", range(2, 4)), ("D", range(2, 6)))
            for r in ranks]
    rels.append(preset_relative("su3"))
    rels += [preset_relative("nonsplit_C", rank=r) for r in range(2, 8)]
    rels += [preset_relative("sl_skew", s=s, d=d)
             for s, d in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 2))]
    return [rel for rel in rels if max_rank is None or rel.rank <= max_rank]


def integer_layer_data():
    """chamber_presets(), and the relative data of the point models: proj(n)
    for n up to 10, grass(2,4), grass(3,6) and the two-factor models."""
    models = [f"proj({n})" for n in range(2, 11)]
    models += ["grass(2,4)", "grass(3,6)", "su3_pair", "sl3_flag", "sp4_flag"]
    return chamber_presets() + [model_relative(m) for m in models]


def reflect(v: Vector, alpha: Vector) -> Vector:
    """Reflection of v in the hyperplane orthogonal to alpha."""
    return sub(v, scale(2 * dot(v, alpha) / dot(alpha, alpha), alpha))


def roots_by_reflection(datum) -> Tuple[Vector, ...]:
    """Reference oracle: the closure of the simple roots under the
    reflections in them, sorted."""
    maps = [lambda v, a=a: reflect(v, a) for a in datum.simple_roots]
    return tuple(sorted(reflection_closure(datum.simple_roots, maps)))


def orbit_by_reflection(datum, weights: Sequence[Vector]):
    """Reference oracle: the joint Weyl orbit of a tuple of weights, by
    reflecting each weight in the simple roots."""
    maps = [lambda tup, a=a: tuple(reflect(v, a) for v in tup)
            for a in datum.simple_roots]
    return reflection_closure([tuple(weights)], maps)


def weights_by_solve(datum) -> Tuple[Vector, ...]:
    """Reference oracle: the fundamental weights as the solutions of
    2(w_i, a_j)/(a_j, a_j) = delta_ij inside the span of the simple roots
    (for family A that span is the sum-zero space), by one rref."""
    simple = datum.simple_roots
    n = len(simple)
    rows = [[2 * dot(ak, aj) / dot(aj, aj) for ak in simple]
            + [Q(int(i == j)) for j in range(n)] for i, aj in enumerate(simple)]
    red, _ = rref(rows)
    weights = []
    for k in range(n):
        w = (Q(0),) * datum.ambient_dim
        for i, a in enumerate(simple):
            w = tuple(x + red[i][n + k] * y for x, y in zip(w, a))
        weights.append(w)
    return tuple(weights)


def root_hyperplanes_by_subsets(rel):
    """Reference oracle: the kernel line of every set of rank - 1 independent
    root lines.

    Sets are grown one line at a time in lexicographic order with the kernel
    kept up to date; a line that does not cut the kernel down makes the set
    dependent, and such a set is not extended."""
    rank = rel.rank
    lines = sorted({line_rep(a) for a in rel.relative_roots})
    normals = set()

    def extend(start, kernel):
        if len(kernel) == 1:
            normals.add(line_rep(kernel[0]))
            return
        for i in range(start, len(lines)):
            a = lines[i]
            p = next((v for v in kernel if dot(a, v) != 0), None)
            if p is not None:
                extend(i + 1, [sub(v, scale(dot(a, v) / dot(a, p), p))
                               for v in kernel if v is not p])

    extend(0, [tuple(Q(int(i == j)) for j in range(rank)) for i in range(rank)])
    return tuple(sorted(normals))


def chamber_cone(signs: Tuple[int, ...], lines: Sequence[Vector]) -> Tuple:
    """Halfspaces of the chamber on the given sides of the root lines."""
    return tuple((tuple(x * c for c in a), Q(0)) for x, a in zip(signs, lines))


def weyl_chambers(rel: RelativeDatum):
    """Full-dimensional sign cones of the relative root arrangement: the
    chambers the zero character keeps, which are all of them."""
    lines = list(as_fractions(rel._chamber_lines))
    return lines, [(s, QPolyhedron(chamber_cone(s, lines)))
                   for s in rel.nonnegative_chambers((0,) * rel.rank)]


def _pivot(rows: List[List[Q]], r: int, col: int) -> None:
    """Scale row r to a unit entry in col and clear col from the other rows.

    The tableau is mostly zeros, so zero entries are passed over."""
    p = rows[r][col]
    piv = [x / p if x else x for x in rows[r]]
    rows[r] = piv
    nz = [j for j, y in enumerate(piv) if y]
    for i, row in enumerate(rows):
        f = row[col]
        if i != r and f:
            row = row[:]
            for j in nz:
                row[j] -= f * piv[j]
            rows[i] = row


def solve_lp_by_simplex(objective: Sequence[Q], eq=(), ub=(), maximize: bool = True) -> LPResult:
    """Reference oracle: optimize a linear functional of free rational
    variables by a two-phase simplex with Bland's rule, so it terminates.

    eq: pairs (row, rhs) with row . x == rhs
    ub: pairs (row, rhs) with row . x <= rhs
    """
    n = len(objective)
    obj = [x if isinstance(x, Q) else Q(x) for x in objective]
    if not maximize:
        obj = [-x for x in obj]
    n_slack = len(ub)
    m = len(eq) + len(ub)
    width = 2 * n + n_slack + m  # +/- split, slacks, artificials
    rows: List[List[Q]] = []
    all_rows = [(list(r), Q(rhs) if not isinstance(rhs, Q) else rhs, False) for r, rhs in eq]
    all_rows += [(list(r), Q(rhs) if not isinstance(rhs, Q) else rhs, True) for r, rhs in ub]
    for k, (r, rhs, slack) in enumerate(all_rows):
        row = [Q(0)] * (width + 1)
        for j, a in enumerate(r):
            a = a if isinstance(a, Q) else Q(a)
            row[j] = a
            row[n + j] = -a
        if slack:
            row[2 * n + (k - len(eq))] = Q(1)
        row[-1] = rhs
        if rhs < 0:
            row = [-x for x in row]
        rows.append(row)
    art0 = 2 * n + n_slack
    basis = []
    for i in range(m):
        rows[i][art0 + i] = Q(1)
        basis.append(art0 + i)

    def run(costs: List[Q], banned: set) -> Tuple[str, Optional[int]]:
        while True:
            # reduced costs over the rows whose basic variable has a cost
            priced = [(costs[b], rows[i]) for i, b in enumerate(basis) if costs[b]]
            entering = None
            in_basis = set(basis)
            for j in range(width):
                if j in banned or j in in_basis:
                    continue
                rc = costs[j] - sum(c * row[j] for c, row in priced if row[j])
                if rc > 0:
                    entering = j
                    break
            if entering is None:
                return "optimal", None
            leaving = None
            best = None
            for i in range(len(rows)):
                if rows[i][entering] > 0:
                    ratio = rows[i][-1] / rows[i][entering]
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                        best = ratio
                        leaving = i
            if leaving is None:
                return "unbounded", entering
            _pivot(rows, leaving, entering)
            basis[leaving] = entering

    # phase 1: drive the artificials to zero
    costs1 = [Q(0)] * width
    for j in range(art0, art0 + m):
        costs1[j] = Q(-1)
    run(costs1, banned=set())
    if sum(rows[i][-1] for i in range(len(rows)) if basis[i] >= art0) != 0:
        return LPResult("infeasible")
    # pivot remaining artificials out of the basis; drop redundant rows
    keep = []
    for i in range(len(rows)):
        if basis[i] >= art0:
            col = next((j for j in range(art0) if rows[i][j] != 0), None)
            if col is None:
                continue  # redundant constraint
            _pivot(rows, i, col)
            basis[i] = col
        keep.append(i)
    rows[:] = [rows[i] for i in keep]
    basis[:] = [basis[i] for i in keep]

    costs2 = [Q(0)] * width
    for j in range(n):
        costs2[j] = obj[j]
        costs2[n + j] = -obj[j]
    status, entering = run(costs2, banned=set(range(art0, art0 + m)))

    def extract(vals_from_col) -> Vector:
        full = [Q(0)] * width
        for i, b in enumerate(basis):
            full[b] = vals_from_col(i)
        return tuple(full[j] - full[n + j] for j in range(n))

    if status == "unbounded":
        ray_full = [Q(0)] * width
        ray_full[entering] = Q(1)
        for i, b in enumerate(basis):
            ray_full[b] = -rows[i][entering]
        ray = tuple(ray_full[j] - ray_full[n + j] for j in range(n))
        return LPResult("unbounded", ray=ray)
    x = extract(lambda i: rows[i][-1])
    value = sum(o * xi for o, xi in zip(obj, x))
    return LPResult("optimal", value=value if maximize else -value, x=x)


def sup_linear_by_lp(poly: QPolyhedron, c: Sequence):
    """Reference oracle: sup of c . z over the polyhedron by the simplex;
    INF if unbounded, None if empty."""
    res = solve_lp_by_simplex(qvec(c), ub=[(neg(nrm), -off) for nrm, off in poly.halfspaces])
    if res.status == "infeasible":
        return None
    if res.status == "unbounded":
        return INF
    return res.value


def weyl_chambers_by_sign_patterns(rel):
    """Reference oracle: the sign patterns on the root lines whose open cone
    is nonempty, by one LP per pattern, listed in itertools.product order.

    Patterns are extended one line at a time and a prefix whose open cone
    is already empty is not extended."""
    lines = []
    for a in rel.relative_roots:
        if a not in lines and tuple(-c for c in a) not in lines:
            lines.append(a)

    def extend(signs):
        ub = [(tuple(-s * c for c in a), Q(-1)) for s, a in zip(signs, lines)]
        if solve_lp_by_simplex((Q(0),) * rel.rank, ub=ub).status == "infeasible":
            return []
        if len(signs) == len(lines):
            halves = tuple((tuple(s * c for c in a), Q(0))
                           for s, a in zip(signs, lines))
            return [(signs, QPolyhedron(halves))]
        return extend(signs + (1,)) + extend(signs + (-1,))

    return lines, extend(())


def is_bounded(poly: QPolyhedron) -> bool:
    """Reference oracle: boundedness by two LPs along each coordinate axis."""
    for i in range(poly.dim):
        e = tuple(Q(1) if j == i else Q(0) for j in range(poly.dim))
        if sup_linear_by_lp(poly, e) == INF or sup_linear_by_lp(poly, neg(e)) == INF:
            return False
    return True


def is_empty_by_lp(poly: QPolyhedron) -> bool:
    """Reference oracle: emptiness as the infeasibility of one LP with a zero
    objective."""
    res = solve_lp_by_simplex([Q(0)] * poly.dim,
                   ub=[(neg(nrm), -off) for nrm, off in poly.halfspaces])
    return res.status != "optimal"


def single_point(poly: QPolyhedron) -> Optional[Vector]:
    """Reference oracle: the unique point of the polyhedron, or None, by two
    LPs along each coordinate axis."""
    coords = []
    for i in range(poly.dim):
        e = tuple(Q(1) if j == i else Q(0) for j in range(poly.dim))
        hi = sup_linear_by_lp(poly, e)
        lo = sup_linear_by_lp(poly, neg(e))
        if hi is None or lo is None:
            return None
        if hi == INF or lo == INF or hi != -lo:
            return None
        coords.append(hi)
    return tuple(coords)


def wall_h_rep(bounds: Dict[Vector, object]) -> QPolyhedron:
    """Polyhedron cut out by the finite wall bounds alone."""
    halves = []
    for a, n in bounds.items():
        if n != INF:
            halves.append((tuple(-c for c in a), -n))
    return QPolyhedron(tuple(halves))


def hull_member_by_lp(p: QPolytope, q, mode: str = "closure") -> bool:
    """Reference oracle: hull membership by linear programs.

    Closure is one feasibility LP over convex weights; interior asks, for
    both signs of every axis, for a positive step from q that stays in the
    hull."""
    q = qvec(q)
    pts = p.points
    k = len(pts)
    nonneg = [(tuple(Q(-1) if j == i else Q(0) for j in range(k)), Q(0))
              for i in range(k)]
    if mode == "closure":
        eq = [(tuple(pt[i] for pt in pts), q[i]) for i in range(p.dim)]
        eq.append((tuple(Q(1) for _ in pts), Q(1)))
        return solve_lp_by_simplex([Q(0)] * k, eq=eq, ub=nonneg).status == "optimal"
    for axis in range(p.dim):
        for sign in (1, -1):
            d = tuple(Q(sign) if j == axis else Q(0) for j in range(p.dim))
            # vars: lambda_1..k, eps; maximize eps
            eq = [(tuple(pt[i] for pt in pts) + (-d[i],), q[i])
                  for i in range(p.dim)]
            eq.append((tuple(Q(1) for _ in pts) + (Q(0),), Q(1)))
            ub = [(row + (Q(0),), rhs) for row, rhs in nonneg]
            res = solve_lp_by_simplex([Q(0)] * k + [Q(1)], eq=eq, ub=ub)
            if res.status != "optimal" or res.value <= 0:
                return False
    return True


def min_enclosing_ball_by_scan(points: Sequence[Sequence], gram=None) -> Tuple[Vector, Q]:
    """Reference oracle: the minimal enclosing ball as the smallest covering
    circumball over every affinely independent subset of at most d + 1
    points."""
    pts = sorted({qvec(p) for p in points})
    if not pts:
        raise ValueError("need at least one point")
    d = len(pts[0])
    if gram is None:
        gram = [[Q(1) if i == j else Q(0) for j in range(d)] for i in range(d)]

    def gdot(x: Vector, y: Vector) -> Q:
        return sum(x[i] * gram[i][j] * y[j] for i in range(d) for j in range(d))

    best: Optional[Tuple[Q, Vector]] = None
    for size in range(1, min(len(pts), d + 1) + 1):
        for subset in combinations(pts, size):
            p0 = subset[0]
            ds = [sub(p, p0) for p in subset[1:]]
            if ds:
                m = [[2 * gdot(a, b) for b in ds] for a in ds]
                rhs = [gdot(a, a) for a in ds]
                aug = [row + [rhs[i]] for i, row in enumerate(m)]
                red, pivots = rref(aug)
                if len(pivots) < len(ds) or len(ds) in pivots:
                    continue  # affinely dependent subset
                mu = [red[r][len(ds)] for r in range(len(ds))]
                x = tuple(Q(0) for _ in range(d))
                for c, a in zip(mu, ds):
                    x = add(x, scale(c, a))
                center = add(p0, x)
                r2 = gdot(x, x)
            else:
                center, r2 = p0, Q(0)
            if all(gdot(sub(p, center), sub(p, center)) <= r2 for p in pts):
                if best is None or r2 < best[0]:
                    best = (r2, center)
    assert best is not None
    return best[1], best[0]


def minimax_face_by_lp(affine_forms) -> MinimaxResult:
    """Oracle: sup_z min_i (offset_i + normal_i . z) and its argmax face by the
    minimax simplex: maximize s subject to s <= offset_i + normal_i . z."""
    forms = [(qvec(nrm), Q(off)) for nrm, off in affine_forms]
    if not forms:
        raise ValueError("need at least one affine form")
    d = len(forms[0][0])
    obj = [Q(0)] * d + [Q(1)]
    ub = [(tuple(neg(nrm)) + (Q(1),), off) for nrm, off in forms]
    res = solve_lp_by_simplex(obj, ub=ub)
    if res.status == "unbounded":
        return MinimaxResult(INF, None, ray=tuple(res.ray[:d]))
    cstar = res.value
    face = QPolyhedron([(nrm, cstar - off) for nrm, off in forms], d)
    return MinimaxResult(cstar, face)


def interval_by_lp(profile, rel: RelativeDatum):
    """Oracle: c*, the face and its wall bounds by the minimax simplex, then
    one double description of the face it found, with the face's rows in
    weight order.  The face and the bounds are None when c* is INF."""
    res = minimax_face_by_lp(sorted(profile.items()))
    if res.value == INF:
        return INF, None, None
    gens = polyhedron_generators(res.face)
    return res.value, res.face, {a: gens.support(a) for a in rel.relative_roots}


def mu_residue_recomputed(x, rel: RelativeDatum, z) -> QPolytope:
    """Oracle: the residue polytope from a valuation profile built afresh on
    every call, restricting every weight again and shifting in Fractions."""
    profile: Dict[Vector, Q] = {}
    for w, _, c in x.entries:
        if c:
            rw = rel.restrict(w)
            v = c.valuation()
            if rw not in profile or v < profile[rw]:
                profile[rw] = v
    zc = qvec(z)
    shifted = {rw: n + dot(rw, zc) for rw, n in profile.items()}
    m = min(shifted.values())
    return QPolytope([rw for rw, v in shifted.items() if v == m])


def matrix_rank(rows: Sequence[Sequence[Q]]) -> int:
    return len(rref(rows)[0])


def hull_cone_by_h_rep(p: QPolytope) -> QPolyhedron:
    """Reference oracle: polyhedra.hull_cone from a fresh cone_h_rep of the
    points lifted to height 1, not from the description p keeps."""
    return cone_h_rep([pt + (Q(1),) for pt in p.points], p.dim + 1)


def origin_facets(hull: QPolyhedron) -> QPolyhedron:
    """The facets of a hull_cone through the lifted origin, those with last
    entry 0, with that entry dropped: the tangent cone at the origin."""
    return QPolyhedron([(nrm[:-1], off) for nrm, off in hull.halfspaces
                        if nrm[-1] == 0], hull.dim - 1)


def _strictly_inside(cone: QPolyhedron, v: Vector) -> bool:
    return all(dot(nrm, v) > off for nrm, off in cone.halfspaces)


def stability_status_by_h_rep(x, rel: RelativeDatum) -> str:
    """Reference oracle: torusgit.stability_status by halfspace tests on a
    fresh cone_h_rep of the lifted mu_K points: stable when the lifted
    origin is strictly inside every halfspace, strictly semistable when it
    is inside them all."""
    hull = hull_cone_by_h_rep(mu_K(x, rel))
    origin = (Q(0),) * rel.rank + (Q(1),)
    if _strictly_inside(hull, origin):
        return "stable"
    if hull.contains(origin):
        return "strictly_semistable"
    return "unstable"


def chi_status_by_h_rep(x, rel: RelativeDatum, chi) -> str:
    """Reference oracle: torusgit.chi_status by halfspace tests on a fresh
    cone_h_rep of the lifted mu_K points and on its facets with last entry 0."""
    hull = hull_cone_by_h_rep(mu_K(x, rel))
    if not hull.contains((Q(0),) * rel.rank + (Q(1),)):
        return "unstable"
    cone = origin_facets(hull)
    target = neg(qvec(chi))
    if not cone.contains(target):
        return "unstable"
    if _strictly_inside(cone, target):
        return "stable"
    return "semistable"


def hull_skeleton_by_rank(p: QPolytope):
    """Reference oracle: polyhedra.hull_skeleton by rank tests on the Fraction
    facets of a fresh cone_h_rep of the lifted points.

    A point is a vertex when the facets through it have rank dim, and two
    vertices span an edge when the facets through both have rank dim - 1.
    """
    if p.dim > 4:
        raise ValueError("hull skeleton supported up to ambient dimension 4")
    facets = [nrm for nrm, _ in hull_cone_by_h_rep(p).halfspaces]
    tight = {}
    for pt in p.points:
        q = pt + (Q(1),)
        through = frozenset(i for i, nrm in enumerate(facets) if dot(nrm, q) == 0)
        if matrix_rank([facets[i] for i in through]) == p.dim:
            tight[pt] = through
    vertices = list(tight)
    edges = [(va, vb, primitive(sub(vb, va)))
             for va, vb in combinations(vertices, 2)
             if matrix_rank([facets[i] for i in tight[va] & tight[vb]]) == p.dim - 1]
    return vertices, edges


def _fraction_dot(x, y) -> Q:
    return sum((a * b for a, b in zip(x, y)), Q(0))


def double_description_by_fractions(rows: Sequence[Vector], dim: int
                                    ) -> Tuple[List[Vector], List[Vector]]:
    """Reference oracle: the double description carried out in Fraction
    arithmetic, with the same row order, pivot choice and adjacency test as
    polyhedra._integer_double_description, so its lines and rays match
    integer_description_in_fractions in order; its adjacency test scans every
    pair, with no count of shared tight rows first.

    Lines stay the reduced kernel basis of the rows, one unit entry per free
    coordinate; rays are rescaled to primitive integer vectors."""
    lines = [tuple(Q(int(j == i)) for j in range(dim)) for i in range(dim)]
    rays = []  # (ray, indices of rows tight on it)
    for k, a in enumerate(rows):
        pivot = next((l for l in lines if _fraction_dot(a, l) != 0), None)
        if pivot is not None:
            lines.remove(pivot)
            ap = _fraction_dot(a, pivot)
            if ap < 0:
                pivot, ap = neg(pivot), -ap
            lines = [sub(l, scale(_fraction_dot(a, l) / ap, pivot)) for l in lines]
            rays = [(primitive(sub(r, scale(_fraction_dot(a, r) / ap, pivot))),
                     z | {k}) for r, z in rays]
            rays.append((primitive(pivot), frozenset(range(k))))
            continue
        vals = [_fraction_dot(a, r) for r, _ in rays]
        kept = [(r, z | {k} if v == 0 else z)
                for v, (r, z) in zip(vals, rays) if v >= 0]
        for i, (vp, (p, zp)) in enumerate(zip(vals, rays)):
            if vp <= 0:
                continue
            for j, (vn, (n, zn)) in enumerate(zip(vals, rays)):
                if vn >= 0:
                    continue
                common = zp & zn
                if not any(common <= z for m, (_, z) in enumerate(rays)
                           if m not in (i, j)):
                    kept.append((primitive(sub(scale(vp, n), scale(vn, p))),
                                 common | {k}))
        rays = kept
    return lines, [r for r, _ in rays]


def integer_description_in_fractions(rows: Sequence[Vector], dim: int
                                    ) -> Tuple[List[Vector], List[Vector]]:
    """polyhedra._integer_double_description read in Fractions, as the
    Fraction oracle keeps it: each line divided by its entry at its free
    coordinate, so the lines are the reduced kernel basis of the rows, and
    the rays as they are."""
    lines, rays = _integer_double_description(rows, dim)
    return ([tuple(Q(x, l[i]) for x in l) for i, l in lines],
            [tuple(map(Q, r)) for r in rays])


def puiseux_by_dict_merge(pairs) -> Tuple[Tuple[Q, Q], ...]:
    """Reference oracle: canonical terms of a sum of (exponent, coefficient)
    pairs, merged in a dict keyed by exponent, sorted, zeros dropped."""
    merged: Dict[Q, Q] = {}
    for q, c in pairs:
        q = Q(q)
        merged[q] = merged.get(q, Q(0)) + Q(c)
    return tuple((q, c) for q, c in sorted(merged.items()) if c != 0)


def determinant_by_permutations(m: Sequence[Sequence[PuiseuxElement]]
                                ) -> PuiseuxElement:
    """Reference oracle: the determinant as the signed sum over all n!
    permutations."""
    n = len(m)
    out = ZERO
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(n), 2))
        term = ONE
        for i in range(n):
            term = term * m[i][perm[i]]
        out = out + (-term if inversions % 2 else term)
    return out


def eval_monomials_by_products(coords: Sequence[PuiseuxElement],
                               monomials: Sequence[Sequence[int]]) -> list:
    """Reference oracle: each monomial built by repeated products of the
    coordinates, then its valuation read (INF for zero)."""
    vals = []
    for expo in monomials:
        term = ONE
        for c, e in zip(coords, expo):
            for _ in range(e):
                term = term * c
        vals.append(term.valuation() if term else INF)
    return vals


def plucker_relations_by_all_subsets(vec: Sequence[PuiseuxElement], j: int,
                                     n: int) -> bool:
    """Reference oracle: every quadratic Plucker relation of grass(j,n),
    sum_l (-1)^l p[I + m_l] p[J - m_l] = 0 over all (j-1)-subsets I and
    (j+1)-subsets J, with p of an unsorted index list the sorted minor times
    the sign of the sorting permutation, and 0 on a repeated index."""
    p = dict(zip(combinations(range(n), j), vec))

    def signed(idx):
        if len(set(idx)) < len(idx):
            return ZERO
        inversions = sum(a > b for a, b in combinations(idx, 2))
        minor = p[tuple(sorted(idx))]
        return -minor if inversions % 2 else minor

    for I in combinations(range(n), j - 1):
        for J in combinations(range(n), j + 1):
            total = ZERO
            for l, m in enumerate(J):
                term = signed(I + (m,)) * signed(J[:l] + J[l + 1:])
                total = total - term if l % 2 else total + term
            if total:
                return False
    return True


def restricted_by_fractions(datum, dual: Sequence[Vector]):
    """Reference oracle: the relative roots and their steps, by restricting
    every absolute root through every dual row in Fractions and sorting the
    Fraction tuples."""
    images = {tuple(dot(r, a) for r in dual) for a in datum.all_roots}
    roots = tuple(sorted(v for v in images if any(v)))
    gamma = tuple((a, Q(1, 2) if scale(2, a) in images else Q(1)) for a in roots)
    return roots, gamma


def cartan_by_pairings(datum) -> Tuple[Tuple[int, ...], ...]:
    """Reference oracle: the pairings of the simple roots, which are
    integral."""
    simple = datum.simple_roots
    return tuple(tuple(int(dot(a, b)) for b in simple) for a in simple)


def relative_weyl_orbit_by_fractions(rel: RelativeDatum, seeds):
    """Reference oracle: the relative Weyl orbit of tuples of Fraction
    points, each simple root a reflecting z to z - (a . z) a^vee with the
    coroot a^vee = 2x/(a . x), gram x = a."""
    n = rel.rank
    red, _ = rref([list(r) + [a[i] for a in rel.relative_simple]
                   for i, r in enumerate(rel.gram)])
    maps = []
    for k, a in enumerate(rel.relative_simple):
        x = tuple(red[i][n + k] for i in range(n))
        coroot = scale(2 / dot(a, x), x)
        maps.append(lambda zs, a=a, c=coroot:
                    tuple(_reflect_by(z, dot(a, z), c) for z in zs))
    return reflection_closure(seeds, maps)


def _reflect_by(z: Vector, d: Q, coroot: Vector) -> Vector:
    """z - d coroot; a point on the mirror (d = 0) is its own image."""
    return sub(z, scale(d, coroot)) if d else z


def to_type(rel: RelativeDatum, z):
    """A primal point in the relative type's ambient coordinates, the
    inverse of RelativeDatum._from_type: z itself for B, C and D, and
    x = (z_1, z_2 - z_1, ..., z_s - z_{s-1}, -z_s) for A_s."""
    if rel.relative_type.family != "A":
        return z
    return tuple(b - a for a, b in zip((0,) + z, z + (0,)))


def coroots_by_gram_solve(rel: RelativeDatum) -> Tuple[Vector, ...]:
    """Reference oracle: the coroot 2x/(a . x) of each relative simple root
    a, with gram x = a from one Fraction solve of the gram."""
    n = rel.rank
    columns = zip(*rel.relative_simple)
    red, _ = rref([list(r) + list(c) for r, c in zip(rel.gram, columns)])
    xs = [tuple(red[i][n + k] for i in range(n)) for k in range(n)]
    return tuple(scale(2 / dot(a, x), x) for a, x in zip(rel.relative_simple, xs))


def simplex_id_by_scan(z: Vector, rel: RelativeDatum):
    """Reference oracle: apartment.simplex_id over relative_roots, finding
    each root's step by a gamma_of scan."""
    out = []
    for alpha in rel.relative_roots:
        if next(c for c in alpha if c) < 0:
            continue
        step = rel.gamma_of(alpha)
        val = dot(alpha, z)
        lo = -step * (val // step)
        for n in (lo, lo - step) if val + lo > 0 else (lo,):
            v = val + n
            out.append((alpha, n, (v > 0) - (v < 0)))
    return tuple(sorted(out))


def fundamental_rays(rel: RelativeDatum) -> List[Ray]:
    """The rays of the fundamental chamber {z : a . z >= 0, a relative
    simple}, sorted: the relative type's fundamental weights, each
    orthogonal to all simple roots but one, made primitive and read in
    primal coordinates.  For A_s the k-th is ((s+1) min(j, k) - jk)_j over
    its gcd."""
    return sorted(rel._from_type(primitive_ints(w))
                  for w in rel.relative_type.fundamental_weights)


def fundamental_points_by_fractions(rel: RelativeDatum) -> Tuple[Vector, ...]:
    """Reference oracle: the fundamental chamber's rays as the Fraction
    points the Fraction orbits start from, each z_k with a_i . z_k = [i = k]
    on the relative simple roots a_i: the columns of the inverse of the
    relative_simple matrix, from one Fraction rref of it beside the
    identity.  Sorted as their primitive rays are (fundamental_rays)."""
    n = rel.rank
    red, _ = rref([list(a) + [Q(int(i == k)) for k in range(n)]
                   for i, a in enumerate(rel.relative_simple)])
    columns = [tuple(red[i][n + k] for i in range(n)) for k in range(n)]
    return tuple(sorted(columns, key=primitive_ints))


@lru_cache(maxsize=None)
def root_hyperplanes_by_fractions(rel: RelativeDatum) -> Tuple[Vector, ...]:
    """Reference oracle: the line representatives of the Fraction orbit of
    the fundamental points, sorted (kept per datum, since the classify
    oracle asks for each datum once per subset of nodes)."""
    orbit = relative_weyl_orbit_by_fractions(
        rel, [(z,) for z in fundamental_points_by_fractions(rel)])
    return tuple(sorted({line_rep(z) for (z,) in orbit}))


@lru_cache(maxsize=None)
def chamber_points_by_fractions(rel: RelativeDatum):
    """The Fraction orbit of the tuple of fundamental points: one tuple per
    chamber (kept per datum, since several oracles read it)."""
    return relative_weyl_orbit_by_fractions(rel, [fundamental_points_by_fractions(rel)])


def chamber_rays_by_fractions(rel: RelativeDatum):
    """Reference oracle: the root lines, and every chamber's rays by sign
    vector, from the Fraction orbit of the fundamental points, with Fraction
    sign tests."""
    lines = []
    for a in rel.relative_roots:
        if a not in lines and neg(a) not in lines:
            lines.append(a)
    rays = {}
    for imgs in chamber_points_by_fractions(rel):
        inside = tuple(sum(c) for c in zip(*imgs))
        rays[tuple(1 if dot(a, inside) > 0 else -1 for a in lines)] = imgs
    return lines, {s: rays[s] for s in sorted(rays, reverse=True)}


def classify_regular_weights_by_fractions(family=None, rank=None, J=(),
                                          preset="split", s=None, d=None):
    """Reference oracle: classify_regular_weights with both orbits closed on
    Fraction weights, pairing each restricted weight with every Fraction
    hyperplane.  The first orbit's pairings are kept per distinct weight, and
    the base is taken over all of them at one common denominator."""
    J = sorted(set(int(j) for j in J))
    if preset == "split":
        rel = preset_relative("split", datum=build_root_system(family, rank))
        node_count, step = rank, 1
    elif preset == "su3":
        rel = preset_relative("su3")
        node_count, step = 2, 1
    elif preset == "nonsplit_C":
        rel = preset_relative("nonsplit_C", rank=rank)
        node_count, step = rank, 1
    else:
        rel = preset_relative("sl_skew", s=s, d=d)
        node_count, step = s, d
    datum = rel.datum
    if J == list(range(1, node_count + 1)):
        table = True
    elif preset == "nonsplit_C" and J == list(range(1, rank)):
        table = True
    elif preset == "sl_skew" or (preset == "split" and family == "A"):
        table = gcd(node_count + 1, *J) == 1
    else:
        table = False
    omegas = [datum.fundamental_weights[j * step - 1] for j in J]
    hyps = root_hyperplanes_by_fractions(rel)
    reflections = [lambda tup, f=f: tuple(f(v) for v in tup)
                   for f in simple_shuffles(datum)]
    pairings: Dict[Vector, List[Q]] = {}
    for tup in reflection_closure([tuple(omegas)], reflections):
        for v in tup:
            if v not in pairings:
                rv = rel.restrict(v)
                pairings[v] = [dot(h, rv) for h in hyps]
        if any(all(c == 0 for c in coeffs)
               for coeffs in zip(*(pairings[v] for v in tup))):
            return table, False
    den = lcm(*(c.denominator for cs in pairings.values() for c in cs))
    base = 1 + max(abs(c.numerator) * (den // c.denominator)
                   for cs in pairings.values() for c in cs)
    lam = (Q(0),) * datum.ambient_dim
    for k, w in enumerate(omegas):
        lam = add(lam, scale(Q(base) ** k, w))
    for (v,) in reflection_closure([(lam,)], reflections):
        rv = rel.restrict(v)
        if any(dot(h, rv) == 0 for h in hyps):
            return table, False
    return table, True


def restrict_by_dot(rel: RelativeDatum, beta: Vector) -> Vector:
    """Reference oracle: the restriction of a weight as one dense dot
    product per dual row."""
    return tuple(dot(row, beta) for row in rel.dual_matrix)


def interval_tree_by_series(x, R=Q(4)) -> TreeInterval:
    """Reference oracle: the tree walk on Puiseux elements, one digit
    element and one product with x0 per step, keeping rem = x1 - b * x0."""
    R = R if isinstance(R, Q) else Q(R)
    x0, x1 = _proj2_coords(x)
    if not x0:
        return TreeInterval((), "exact", witness=ApartmentChart.swap())
    v0, lead = x0.valuation(), x0.leading_coefficient()
    digits = []
    rem = x1
    depth = 2 * R  # the walk leaves the radius past this digit exponent
    while rem:
        q0, c0 = rem.terms[0]
        e = q0 - v0
        if e.denominator != 1 or e > depth:
            break
        term = (e, c0 / lead)
        digits.append(term)
        rem = rem - _canonical((term,)) * x0
    b = _canonical(tuple(digits))
    if not rem:
        return TreeInterval((), "exact", witness=ApartmentChart.branch(b))
    if e.denominator != 1:
        return TreeInterval((TreePoint(b, e / 2),), "exact")
    return TreeInterval((), "radius_limited", radius=R,
                        witness=ApartmentChart.branch(b))

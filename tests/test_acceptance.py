"""End-to-end acceptance checks, one test per release criterion."""

import itertools
import time
from fractions import Fraction as Q

from helpers import (grid_points, random_element, random_grass24_point,
                     random_p1_point, random_proj_point, random_sl3_flag,
                     random_sp4_flag, random_su3_pair, rng, single_point,
                     sup_linear_by_lp)

from btgit.interval import interval_A, interval_A_chi
from btgit.models import (act, make_point, model_relative, project,
                          weighted_coordinates)
from btgit.polyhedra import QPolyhedron, hull_member, hull_skeleton
from btgit.qvec import add, dot, neg, primitive, qvec, scale
from btgit.rootdata import weyl_orbit
from btgit.torusgit import (chamber_leq, classify_regular_weights, mu_K,
                            mu_residue, root_hyperplanes, stability_status)
from btgit.treebuilding import (ApartmentChart, act_tree, f_chi_tree,
                                interval_tree, r_log, r_tilde_estimate,
                                tree_canonicalize, tree_midpoint)
from btgit.valfield import INF, ONE, ZERO, PuiseuxElement

P = PuiseuxElement


def poly_subset(a, b):
    """Whether polyhedron a (possibly None for empty) is contained in b."""
    if a is None:
        return True
    for n, o in b.halfspaces:
        s = sup_linear_by_lp(a, neg(n))
        if s is None:
            return True  # a turned out to be empty
        if s == INF or -s < o:
            return False
    return True


def ample_weight(rel, lam):
    """Restricted weight of the ample class with coefficients lam."""
    fw = rel.datum.fundamental_weights
    out = scale(lam[0], fw[0])
    for c, w in zip(lam[1:], fw[1:]):
        out = add(out, scale(c, w))
    return rel.restrict(out)


def test_criterion_1_interval_membership_matches_residue_oracle():
    start = time.monotonic()
    cases = [
        ("proj(2)", lambda r: random_proj_point(r, 2),
         grid_points(1, Q(1, 25), 4)),
        ("proj(3)", lambda r: random_proj_point(r, 3),
         grid_points(2, Q(1, 2), 4)),
        ("grass(2,4)", random_grass24_point, grid_points(3, Q(1, 3), 1)),
    ]
    r = rng(1)
    for model, sampler, grid in cases:
        assert len(grid) >= 200
        rel = model_relative(model)
        origin = (Q(0),) * rel.rank
        for _ in range(20):
            wp = weighted_coordinates(sampler(r))
            res = interval_A(wp, rel)
            for z in grid:
                direct = hull_member(mu_residue(wp, rel, z), origin, "closure")
                assert res.contains(z) == direct
    assert time.monotonic() - start < 10


def test_criterion_2_tree_singletons_with_exact_certificates():
    start = time.monotonic()
    r = rng(2)
    for _ in range(50):
        x = random_p1_point(r, rational_over_base=False)
        res = interval_tree(x)
        assert res.certificate == "exact" and len(res.points) == 1
    # a base-field unipotent must carry the interval point along
    g = ((ONE, ZERO), (ONE, ONE))
    x = make_point("proj(2)", (ONE, P.t_power(Q(1, 2))))
    base = interval_tree(x).points[0]
    moved = interval_tree(act(g, x)).points[0]
    assert act_tree(g, base) == moved
    assert moved.b == ONE and moved.u == Q(1, 4)
    assert time.monotonic() - start < 5


def test_criterion_3_regular_weight_table_matches_scan():
    start = time.monotonic()
    fams = [("A", 1), ("A", 2), ("A", 3), ("A", 4),
            ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 4)]
    for fam, rank in fams:
        for size in range(1, rank + 1):
            for J in itertools.combinations(range(1, rank + 1), size):
                table, scan = classify_regular_weights(fam, rank, J)
                assert table == scan, (fam, rank, J)
    for preset, rank in (("su3", None), ("nonsplit_C", 2)):
        for size in (1, 2):
            for J in itertools.combinations((1, 2), size):
                table, scan = classify_regular_weights(rank=rank, J=J,
                                                       preset=preset)
                assert table == scan, (preset, J)
    assert time.monotonic() - start < 60


def test_criterion_4_hull_vertices_in_orbit_and_edges_along_roots():
    cases = [
        ("proj(2)", lambda r: random_proj_point(r, 2), (0,), None),
        ("proj(3)", lambda r: random_proj_point(r, 3), (0,), None),
        ("grass(2,4)", random_grass24_point, (1,), None),
        ("sp4_line", lambda r: project(random_sp4_flag(r), 1), (0,), None),
        ("sp4_quadric", lambda r: project(random_sp4_flag(r), 2), (1,), None),
        ("sp4_flag", random_sp4_flag, (0, 1), (1, 1)),
        ("su3_pair", random_su3_pair, (0, 1), (1, 1)),
        ("sl3_flag", random_sl3_flag, (0, 1), (1, 1)),
    ]
    for model, sampler, idx, lam in cases:
        rel = model_relative(model)
        fw = rel.datum.fundamental_weights
        amb = fw[idx[0]]
        for i in idx[1:]:
            amb = add(amb, fw[i])
        allowed = {rel.restrict(w) for w in weyl_orbit(rel.datum, amb)}
        roots = {primitive(a) for a in rel.relative_roots}
        r = rng(4)
        for _ in range(100):
            p = sampler(r)
            wp = weighted_coordinates(p, lam=lam) if lam else \
                weighted_coordinates(p)
            verts, edges = hull_skeleton(mu_K(wp, rel))
            for v in verts:
                assert tuple(v) in allowed, (model, v)
            for _, _, d in edges:
                assert d in roots or tuple(neg(d)) in roots, (model, d)


def test_criterion_5_boundedness_singletons_and_family_divergence():
    r = rng(5)
    rel = model_relative("proj(3)")
    origin = (Q(0), Q(0))
    grid = grid_points(2, Q(1, 2), 2)
    for _ in range(40):
        wp = weighted_coordinates(random_proj_point(r, 3))
        res = interval_A(wp, rel)
        status = stability_status(wp, rel)
        assert res.is_empty() == (status == "unstable")
        if res.is_empty():
            continue
        assert res.bounded == (status == "stable")
        if res.singleton is not None:
            assert hull_member(mu_residue(wp, rel, res.singleton.coords),
                               origin, "interior")
        else:
            # no apartment point can make the reduction stable
            assert not any(res.contains(z) and
                           hull_member(mu_residue(wp, rel, z), origin,
                                       "interior")
                           for z in grid)
    # deeper and deeper charts around a base-field point diverge linearly
    count = 0
    while count < 10:
        c = random_element(r, denom=1)
        if not c:
            continue
        x = make_point("proj(2)", (ONE, c))
        depth = int(max(q for q, _ in c.terms)) + 1
        charts = [ApartmentChart.branch(c + P.t_power(depth + k))
                  for k in range(1, 5)]
        vals = [r_log(x, ch) for ch in charts]
        assert all(a > b for a, b in zip(vals, vals[1:])), vals
        best, _ = r_tilde_estimate(x, charts)
        assert best == vals[-1] == min(vals)
        count += 1


def test_criterion_6_wall_crossing_monotonicity_and_connectivity():
    cases = [
        ("sl3_flag", random_sl3_flag, [((1, 1), (2, 1)), ((1, 1), (1, 2))]),
        ("sp4_flag", random_sp4_flag, [((1, 0), (1, 1)), ((0, 1), (1, 1))]),
    ]
    for model, sampler, pairs in cases:
        rel = model_relative(model)
        hyps = root_hyperplanes(rel)
        for wall, inner in pairs:
            assert chamber_leq(ample_weight(rel, wall),
                               ample_weight(rel, inner), hyps)
        r = rng(11)
        for _ in range(20):
            p = sampler(r)
            st, res = {}, {}
            for lam in {l for pr in pairs for l in pr}:
                wp = weighted_coordinates(p, lam=lam)
                st[lam] = stability_status(wp, rel)
                res[lam] = interval_A(wp, rel)
            for wall, inner in pairs:
                # semistable sets only grow toward the wall class
                if st[inner] != "unstable":
                    assert st[wall] != "unstable"
                if st[wall] == "stable":
                    assert st[inner] == "stable"
                if not res[inner].is_empty():
                    assert poly_subset(res[inner].polyhedron,
                                       res[wall].polyhedron)
    # on the projective line the union of intervals stays one convex piece
    rel1 = model_relative("proj(2)")
    r = rng(13)
    for _ in range(15):
        res = interval_A(weighted_coordinates(random_proj_point(r, 2)), rel1)
        inside = [z for z in grid_points(1, Q(1, 4), 3) if res.contains(z)]
        for a, b in itertools.combinations(inside, 2):
            assert res.contains((Q(a[0] + b[0], 2),))


def test_criterion_7_sp4_flag_interval_is_intersection_of_factors():
    r = rng(17)
    rel = model_relative("sp4_flag")
    for _ in range(30):
        f = random_sp4_flag(r)
        st, res = {}, {}
        for lam in ((1, 0), (0, 1), (1, 1)):
            wp = weighted_coordinates(f, lam=lam)
            st[lam] = stability_status(wp, rel)
            res[lam] = interval_A(wp, rel)
        assert st[(1, 1)] != "strictly_semistable"
        factors = res[(1, 0)], res[(0, 1)]
        if res[(1, 1)].is_empty():
            if not any(b.is_empty() for b in factors):
                inter = QPolyhedron(factors[0].polyhedron.halfspaces +
                                    factors[1].polyhedron.halfspaces)
                assert inter.is_empty()
            continue
        assert not any(b.is_empty() for b in factors)
        inter = QPolyhedron(factors[0].polyhedron.halfspaces +
                            factors[1].polyhedron.halfspaces)
        assert poly_subset(res[(1, 1)].polyhedron, inter)
        assert poly_subset(inter, res[(1, 1)].polyhedron)
        assert single_point(res[(1, 1)].polyhedron) is not None


def test_criterion_8_su3_pair_intervals_meet_in_one_point():
    r = rng(19)
    rel = model_relative("su3_pair")
    for _ in range(20):
        p = random_su3_pair(r, all_nonzero=True)
        first = interval_A(weighted_coordinates(p, factor=1), rel)
        second = interval_A(weighted_coordinates(p, factor=2), rel)
        assert not first.is_empty() and not second.is_empty()
        inter = QPolyhedron(first.polyhedron.halfspaces +
                            second.polyhedron.halfspaces)
        assert single_point(inter) is not None


def test_criterion_9_character_shifted_intervals_and_tree_convexity():
    start = time.monotonic()
    rel3 = model_relative("proj(3)")
    chi2 = [(Q(1), Q(3)), (Q(2), Q(7)), (Q(-3), Q(1)), (Q(5), Q(-2)),
            (Q(1), Q(-4))]
    r = rng(9)
    done = 0
    while done < 10:
        wp = weighted_coordinates(random_proj_point(r, 3))
        res = interval_A(wp, rel3)
        if res.is_empty():
            continue
        for chi in chi2[:2]:
            n, face = interval_A_chi(wp, rel3, chi)
            if n == INF:
                assert face is None and not res.bounded
                continue
            for z in grid_points(2, Q(1, 2), 2):
                assert face.contains(z) == (res.contains(z) and
                                            dot(chi, z) == n)
        done += 1
    done = 0
    while done < 20:
        wp = weighted_coordinates(random_proj_point(r, 3))
        res = interval_A(wp, rel3)
        if res.is_empty() or not res.bounded:
            continue
        for chi in chi2:
            _, face = interval_A_chi(wp, rel3, chi)
            assert single_point(face) is not None
        done += 1
    relg = model_relative("grass(2,4)")
    chi3 = [(Q(1), Q(3), Q(9)), (Q(2), Q(7), Q(-3)), (Q(-3), Q(1), Q(5)),
            (Q(5), Q(-2), Q(11)), (Q(1), Q(-4), Q(2))]
    done = 0
    while done < 10:
        wp = weighted_coordinates(random_grass24_point(r))
        res = interval_A(wp, relg)
        if res.is_empty() or not res.bounded:
            continue
        for chi in chi3:
            _, face = interval_A_chi(wp, relg, chi)
            assert single_point(face) is not None
        done += 1
    # strictly semistable line: generic shifts are unbounded, aligned one full
    line = weighted_coordinates(make_point(
        "grass(2,4)", [ONE, ONE, ZERO, ZERO, -ONE, -ONE]))
    for chi in chi3:
        n, face = interval_A_chi(line, relg, chi)
        assert n == INF and face is None
    n, face = interval_A_chi(line, relg, relg.restrict((1, 1, 0, 0)))
    direction = primitive(qvec([1, 0, -1]))
    assert n == 0
    assert all(face.contains(scale(s, direction)) for s in (Q(-2), Q(0), Q(3)))
    r = rng(10)
    for _ in range(100):
        a = tree_canonicalize(random_element(r), Q(r.randint(1, 8), 2))
        b = tree_canonicalize(random_element(r), Q(r.randint(1, 8), 2))
        chi = Q(r.choice([-3, -2, -1, 1, 2, 3]))
        mid = tree_midpoint(a, b)
        assert f_chi_tree(mid, chi) >= min(f_chi_tree(a, chi),
                                           f_chi_tree(b, chi))
    assert time.monotonic() - start < 30

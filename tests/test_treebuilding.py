"""Rank-one tree computations and finite apartment-family certificates."""

from fractions import Fraction as Q

import pytest
from helpers import (chamber_presets, chamber_rays_by_fractions,
                     eval_monomials_by_products, integer_layer_data,
                     interval_tree_by_series, random_element, random_p1_point,
                     random_rational, rng, weyl_chambers,
                     weyl_chambers_by_sign_patterns)

from btgit.models import act, adjugate, make_point, model_relative
from btgit.polyhedra import QPolyhedron, cone_generators
from btgit.qvec import dot, primitive_ints
from btgit.rootdata import build_root_system, preset_relative
from btgit.treebuilding import (ApartmentChart, TreePoint, _chamber_cone,
                                _chamber_rays, _eval_monomials, act_tree,
                                chi_parabolic_member, circumcenter, f_chi_tree,
                                interval_chi, interval_tree,
                                invariant_monomials, p_chi_data, r_log,
                                r_tilde_estimate, ss_at, tree_canonicalize,
                                tree_distance, tree_midpoint)
from btgit.valfield import INF, ONE, ZERO, PuiseuxElement

P = PuiseuxElement
t = P.t_power(1)
th = P.t_power(Q(1, 2))
REL_A1 = preset_relative("split", datum=build_root_system("A", 1))


def _p1(x0, x1):
    return make_point("proj(2)", (x0, x1))


def test_canonicalize_examples():
    assert tree_canonicalize(t * t, Q(1)) == TreePoint(ZERO, Q(1))
    assert tree_canonicalize(ONE + t, Q(1, 2)) == TreePoint(ONE, Q(1, 2))
    z = tree_canonicalize(P.t_power(Q(1, 4)), Q(1, 2))
    assert z.b == P.t_power(Q(1, 4)) and z.u == Q(1, 2)


def test_vertex_detection():
    assert TreePoint(ZERO, Q(1, 2)).is_vertex()
    assert TreePoint(ZERO, Q(0)).is_vertex()
    assert not TreePoint(ZERO, Q(1, 4)).is_vertex()


def test_ss_at_examples():
    x = _p1(ONE, th)
    assert not ss_at(x, TreePoint(ZERO, Q(0)))
    assert ss_at(x, TreePoint(ZERO, Q(1, 4)))
    assert not ss_at(_p1(ONE, ONE + th), TreePoint(ZERO, Q(0)))
    assert ss_at(_p1(ONE, ONE + th), TreePoint(ONE, Q(1, 4)))


def test_interval_tree_examples():
    res = interval_tree(_p1(ONE, th))
    assert res.points == (TreePoint(ZERO, Q(1, 4)),)
    assert res.certificate == "exact"
    moved = interval_tree(_p1(ONE, ONE + th))
    assert moved.points == (TreePoint(ONE, Q(1, 4)),)
    rational = interval_tree(_p1(ONE, t))
    assert rational.is_empty() and rational.certificate == "exact"
    assert rational.witness.g[1][0] == t  # apartment running to the end [1:t]


def test_interval_tree_radius_certificate():
    deep = _p1(ONE, P.t_power(20))
    res = interval_tree(deep, R=Q(3))
    assert res.is_empty() and res.certificate == "radius_limited"
    assert res.radius == Q(3)


def test_interval_tree_point_at_infinity():
    res = interval_tree(_p1(ZERO, ONE))
    assert res.is_empty() and res.witness is not None


def _nonzero_rational(r):
    c = Q(0)
    while not c:
        c = random_rational(r)
    return c


def _oracle_walk_case(r):
    """A point [x0 : x1] and a radius for the walk-against-oracle test.

    x0 has 1 to 4 terms over a denominator up to 6, a leading coefficient
    among +-1, +-2 and 3/2, and a valuation that may be negative.  x1 is 0,
    an exact multiple b * x0 with integer-exponent digits b, such a multiple
    plus one term at a non-integer (mostly half-integer) offset, or a random
    element over its own denominator.  R is 0, a random fraction, or sits at
    or just below one of b's digit exponents halved.
    """
    den0 = r.randint(1, 6)
    v0 = Q(r.randint(-3 * den0, 3 * den0), den0)
    lead = r.choice((Q(1), Q(-1), Q(2), Q(-2), Q(3, 2)))
    offsets = r.sample(range(1, 4 * den0 + 1), r.randint(0, min(3, 4 * den0)))
    x0 = P([(v0, lead)] + [(v0 + Q(k, den0), _nonzero_rational(r))
                           for k in offsets])
    e0 = r.randint(-3, 3)
    exps = sorted(r.sample(range(e0, e0 + 12), r.randint(1, 6)))
    b = P([(q, _nonzero_rational(r)) for q in exps])
    kind = r.choice(("zero", "multiple", "half", "half", "random", "random"))
    if kind == "zero":
        x1 = ZERO
    elif kind == "multiple":
        x1 = b * x0
    elif kind == "half":
        den1 = r.choice((2, 2, 2, 3, 4, 5, 6))
        frac = Q(r.randint(1, den1 - 1), den1)
        x1 = b * x0 + P.monomial(_nonzero_rational(r),
                                 v0 + r.choice(exps) + r.randint(0, 3) + frac)
    else:
        den1 = r.randint(1, 6)
        x1 = P([(Q(r.randint(-4 * den1, 8 * den1), den1), _nonzero_rational(r))
                for _ in range(r.randint(1, 5))])
    which = r.choice(("zero", "fraction", "at", "below", "below", "far"))
    if which == "zero":
        R = Q(0)
    elif which == "fraction":
        R = Q(r.randint(0, 30), r.randint(1, 7))
    elif which == "far":
        R = Q(40)
    else:
        depth = Q(r.choice(exps), 2)
        R = depth if which == "at" else depth - Q(1, r.choice((2, 4, 12)))
    return _p1(x0, x1), R


def test_interval_tree_matches_series_oracle():
    r = rng(1301)
    exits = set()
    for _ in range(1500):
        x, R = _oracle_walk_case(r)
        res = interval_tree(x, R)
        want = interval_tree_by_series(x, R)
        # the dataclass compares points, certificate, witness and radius
        assert res == want, (x, R)
        for z in res.points:
            assert isinstance(z.u, Q)
        elements = [z.b for z in res.points]
        if res.witness is not None:
            elements += [c for row in res.witness.g for c in row]
        assert all(isinstance(q, Q) and isinstance(c, Q)
                   for e in elements for q, c in e.terms)
        exits.add((res.certificate, bool(res.points), res.witness is not None))
    # every way out of the walk was taken: a singleton, an exact end, the
    # radius; the point at infinity has its own test
    assert exits == {("exact", True, False), ("exact", False, True),
                     ("radius_limited", False, True)}


def test_r_log_examples():
    x = _p1(ONE, th)
    chart = ApartmentChart.branch(ONE)
    assert r_log(x, chart, 2) == Q(1, 2)
    assert r_log(x, ApartmentChart.identity(), 2) == 0


def test_r_log_antisymmetry():
    r = rng(103)
    for _ in range(20):
        x = random_p1_point(r, rational_over_base=False)
        # charts carry integer-exponent entries only
        g = ApartmentChart.branch(random_p1_point(r, True).data[0][1])
        ginv = tuple(tuple(row) for row in adjugate(g.g))
        y = act(ginv, x)
        assert r_log(x, g) == -r_log(y, ApartmentChart(ginv))


def test_monomial_valuations_match_products():
    r = rng(107)
    for _ in range(2000):
        n = r.randint(1, 4)
        coords = [random_element(r) for _ in range(n)]
        monomials = [tuple(r.randint(0, 3) for _ in range(n))
                     for _ in range(r.randint(1, 3))]
        assert (_eval_monomials(coords, monomials)
                == eval_monomials_by_products(coords, monomials))


def test_r_tilde_identity_family_is_zero():
    x = _p1(ONE, th)
    val, argmin = r_tilde_estimate(x, [ApartmentChart.identity()])
    assert val == 0 and argmin == (ApartmentChart.identity(),)


def test_r_tilde_diverges_on_rational_points():
    x = _p1(ONE, t)
    family = [ApartmentChart.identity()]
    seen = []
    for k in range(2, 6):
        family.append(ApartmentChart.branch(t + P.t_power(k)))
        val, _ = r_tilde_estimate(x, family)
        seen.append(val)
    assert seen == [Q(-1), Q(-2), Q(-3), Q(-4)]  # unbounded decrease


def test_r_tilde_monotone_under_family_growth():
    r = rng(107)
    for _ in range(10):
        x = random_p1_point(r, rational_over_base=False)
        small = [ApartmentChart.identity()]
        big = small + [ApartmentChart.branch(random_p1_point(r, True).data[0][1])]
        assert r_tilde_estimate(x, big)[0] <= r_tilde_estimate(x, small)[0]


def test_tree_distance_and_midpoint():
    z0, z1 = TreePoint(ZERO, Q(0)), TreePoint(ZERO, Q(1))
    assert tree_distance(z0, z1) == 1
    assert tree_midpoint(z0, z1) == TreePoint(ZERO, Q(1, 2))
    w = TreePoint(t, Q(1))
    assert tree_distance(w, z0) == 1 and tree_distance(w, z1) == 1
    assert tree_distance(w, w) == 0


def test_circumcenter_tree_examples():
    seg = interval_like = (TreePoint(ZERO, Q(0)), TreePoint(ZERO, Q(1)))
    from btgit.treebuilding import TreeInterval, circumcenter_tree
    assert circumcenter_tree(seg) == TreePoint(ZERO, Q(1, 2))
    tripod = (TreePoint(ZERO, Q(1)), TreePoint(ZERO, Q(0)), TreePoint(t, Q(1)))
    assert circumcenter_tree(tripod) == TreePoint(ZERO, Q(1, 2))
    assert circumcenter(TreeInterval(interval_like, "exact")) == \
        TreePoint(ZERO, Q(1, 2))


def test_circumcenter_apartment_triangle():
    tri = QPolyhedron((((Q(0), Q(1)), Q(0)), ((Q(1), Q(-1)), Q(0)),
                       ((Q(-1), Q(-1)), Q(-2))))
    assert circumcenter(tri).coords == (Q(1), Q(0))


def test_circumcenter_rejects_unbounded():
    half = QPolyhedron((((Q(1),), Q(0)),))
    with pytest.raises(ValueError):
        circumcenter(half)
    # the strip 0 <= x <= 1 holds every vertical line
    strip = QPolyhedron((((Q(1), Q(0)), Q(0)), ((Q(-1), Q(0)), Q(-1))))
    with pytest.raises(ValueError, match="unbounded region"):
        circumcenter(strip)
    # x >= 1 and x <= 0
    empty = QPolyhedron((((Q(1),), Q(1)), ((Q(-1),), Q(0))))
    with pytest.raises(ValueError, match="empty region"):
        circumcenter(empty)


def test_f_chi_tree_examples():
    chi = (Q(1),)
    assert f_chi_tree(TreePoint(ZERO, Q(1)), chi) == 1
    assert f_chi_tree(TreePoint(ONE, Q(1, 2)), chi) == Q(-1, 2)
    assert f_chi_tree(TreePoint(ZERO, Q(0)), chi) == 0


def test_f_chi_convexity_on_geodesics():
    r = rng(109)
    for _ in range(100):
        z1 = TreePoint(ZERO if r.random() < 0.5 else P.t_power(r.randint(0, 2)),
                       Q(r.randint(-4, 8), 4))
        z2 = TreePoint(ONE if r.random() < 0.5 else ZERO, Q(r.randint(-4, 8), 4))
        chi = (Q(r.choice((-3, -1, 1, 2))),)
        mid = tree_midpoint(z1, z2)
        assert f_chi_tree(mid, chi) >= min(f_chi_tree(z1, chi),
                                           f_chi_tree(z2, chi))


def test_f_chi_constant_offset_on_chi_parabolic_charts():
    chi = (Q(1),)
    diag = ((P.t_power(-1), ZERO), (ZERO, t))
    shear = ((ONE, ONE), (ZERO, ONE))
    samples = [TreePoint(ZERO, Q(u, 2)) for u in (1, 2, 3)]
    for g in (diag, shear):
        offsets = {f_chi_tree(act_tree(g, z), chi) - f_chi_tree(z, chi)
                   for z in samples}
        assert len(offsets) == 1


def test_act_tree_matches_point_action():
    g = ApartmentChart.branch(ONE)
    x = _p1(ONE, th)
    base = interval_tree(x).points[0]
    moved = interval_tree(act(g.g, x)).points[0]
    assert act_tree(g.g, base) == moved


def test_act_tree_equivariance_random():
    r = rng(113)
    count = 0
    while count < 25:
        x = random_p1_point(r, rational_over_base=False)
        b = random_p1_point(r, rational_over_base=True).data[0][1]
        g = ApartmentChart.branch(b).g
        base = interval_tree(x).points[0]
        try:
            img = act_tree(g, base)
        except ValueError:
            continue  # pole meets the point's disc; chart formula undefined
        assert interval_tree(act(g, x)).points == (img,)
        count += 1


def test_chart_restriction_agrees_with_tree_interval():
    # pulling the point back through a chart that carries it lands on the
    # standard-apartment interval of the pulled-back model point
    x = _p1(ONE, ONE + th)
    g = ApartmentChart.branch(ONE)
    pulled = act(adjugate(g.g), x)
    inner = interval_tree(pulled).points[0]
    assert act_tree(g.g, inner) == interval_tree(x).points[0]


def test_borel_family_suffices():
    # lower-triangular charts alone already locate the interval
    x = _p1(ONE, ONE + th)
    family = [ApartmentChart.identity(), ApartmentChart.branch(ONE),
              ApartmentChart.branch(ONE + t)]
    val, argmin = r_tilde_estimate(x, family)
    # every chart whose apartment meets the interval minimizes the comparison
    assert val == Q(-1, 2)
    assert set(argmin) == {ApartmentChart.branch(ONE),
                           ApartmentChart.branch(ONE + t)}
    pts = set()
    for chart in argmin:
        pulled = act(adjugate(chart.g), x)
        for z in interval_tree(pulled).points:
            pts.add(act_tree(chart.g, z))
    assert interval_tree(x).points[0] in pts


def test_drinfeld_single_point():
    r = rng(127)
    for _ in range(50):
        x = random_p1_point(r, rational_over_base=False)
        res = interval_tree(x)
        assert res.certificate == "exact" and len(res.points) == 1


def test_rational_points_always_rejected():
    r = rng(131)
    for _ in range(25):
        x = random_p1_point(r, rational_over_base=True)
        res = interval_tree(x, R=Q(40))
        assert res.is_empty() and res.witness is not None


def test_interval_chi_tree_singleton():
    x = _p1(ONE, th)
    base = interval_tree(x).points[0]
    for chi in ((Q(1),), (Q(-3),)):
        val, pts = interval_chi(x, chi)
        assert pts == (base,) and val == f_chi_tree(base, chi)


def test_interval_chi_family_examples():
    gr = make_point("grass(2,4)", [ONE, ONE, ZERO, ZERO, -ONE, -ONE])
    rel = model_relative("grass(2,4)")
    n, face = interval_chi(gr, rel.restrict((1, 1, 0, 0)))
    assert n == 0 and face is not None
    n, face = interval_chi(gr, rel.restrict((1, 0, 0, 0)))
    assert n == INF and face is None


def test_invariant_monomials_examples():
    d, mons = invariant_monomials("proj(2)")
    assert (d, mons) == (2, [(1, 1)])
    d, mons = invariant_monomials("grass(2,4)", 2)
    assert d == 2 and len(mons) == 3
    for expo in mons:
        assert sum(expo) == 2
    d, mons = invariant_monomials("proj(3)")
    assert (d, mons) == (3, [(1, 1, 1)])


def test_p_chi_data_sl2():
    data = p_chi_data((Q(1),), REL_A1)
    assert len(data.chambers) == 1
    assert dot((Q(1),), data.delta) > 0
    upper = ((ONE, ONE), (ZERO, ONE))
    lower = ((ONE, ZERO), (ONE, ONE))
    assert chi_parabolic_member(data, upper, "proj(2)", REL_A1)
    assert not chi_parabolic_member(data, lower, "proj(2)", REL_A1)


def test_p_chi_data_regular_character_rank_two():
    rel = preset_relative("split", datum=build_root_system("A", 2))
    chi = rel.restrict((5, -1, -4))
    data = p_chi_data(chi, rel)
    # a generic functional is nonnegative on exactly two of the six chambers,
    # and their shared wall is the stabilized ray
    assert len(data.chambers) == 2
    rays = cone_generators(data.tau)
    assert len(rays) == 1 and dot(chi, rays[0]) > 0


def test_p_chi_data_wall_character():
    rel = model_relative("grass(2,4)")
    chi = rel.restrict((1, 1, 0, 0))
    data = p_chi_data(chi, rel)
    assert len(data.chambers) > 1
    for g in cone_generators(data.tau):
        assert dot(chi, g) >= 0
    assert data.tau.contains(data.delta)


def test_weyl_chambers_match_sign_pattern_scan():
    for rel in chamber_presets(max_rank=3):
        assert weyl_chambers(rel) == weyl_chambers_by_sign_patterns(rel), rel.name


def test_chamber_rays_and_p_chi_data_match_fraction_oracle():
    """Up to rank 4: the root lines, the chambers' sign vectors in order
    (all that weyl_chambers reads), and their rays up to positive scaling;
    and for three seeded characters per datum, the kept chambers and their
    face."""
    r = rng(1201)
    for rel in integer_layer_data():
        if rel.rank > 4:
            continue
        lines, rays = _chamber_rays(rel)
        want_lines, want_rays = chamber_rays_by_fractions(rel)
        assert lines == want_lines and list(rays) == list(want_rays), rel.name
        for signs, gens in want_rays.items():
            assert rays[signs] == tuple(primitive_ints(g) for g in gens), rel.name
        for _ in range(3):
            chi = (Q(0),) * rel.rank
            while not any(chi):
                chi = tuple(random_rational(r) for _ in range(rel.rank))
            data = p_chi_data(chi, rel)
            kept = tuple(s for s, gens in want_rays.items()
                         if all(dot(chi, g) >= 0 for g in gens))
            halves = {h for s in kept for h in _chamber_cone(s, lines)}
            assert data.chambers == kept, (rel.name, chi)
            assert data.tau == QPolyhedron(tuple(sorted(halves))), (rel.name, chi)


def test_p_chi_data_rejects_zero():
    with pytest.raises(ValueError):
        p_chi_data((Q(0),), REL_A1)

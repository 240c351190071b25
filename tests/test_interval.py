"""Semistability intervals: faces, walls, directions at infinity, chi shifts."""

from fractions import Fraction as Q

import pytest
from helpers import (double_description_by_fractions, grid_points,
                     interval_by_lp, is_bounded, random_element,
                     random_grass24_point, random_proj_point, random_sl3_flag,
                     random_sp4_flag, random_su3_pair, rng, single_point,
                     sup_linear_by_lp, wall_h_rep)

from btgit import interval, polyhedra
from btgit.apartment import InfinityPoint, nu
from btgit.cli import run
from btgit.interval import (destabilizing_1ps, fixed_locus_possible,
                            interval_A, interval_A_chi, lambda_A)
from btgit.models import (make_point, model_relative, model_spec, project,
                          weighted_coordinates)
from btgit.polyhedra import hull_member, minimax_face
from btgit.qvec import add, dot, neg, primitive, qvec, scale
from btgit.rootdata import build_root_system, preset_relative
from btgit.torusgit import mu_residue, point_data, stability_status, translate
from btgit.valfield import INF, ONE, ZERO, PuiseuxElement, format_rational

P = PuiseuxElement
REL_A1 = preset_relative("split", datum=build_root_system("A", 1))
GR24_REL = model_relative("grass(2,4)")
GR24_LINE = weighted_coordinates(make_point(
    "grass(2,4)", [ONE, ONE, ZERO, ZERO, -ONE, -ONE]))
LINE_DIR = primitive(qvec([1, 0, -1]))


def _p1(x0, x1):
    return weighted_coordinates(make_point("proj(2)", (x0, x1)))


def test_interval_singleton_at_quarter():
    res = interval_A(_p1(ONE, P.t_power(Q(1, 2))), REL_A1)
    assert res.bounded and res.singleton.coords == (Q(1, 4),)
    assert res.c_star == Q(1, 4)  # equalized shifted valuations 0+u = 1/2-u


def test_interval_singleton_at_origin():
    res = interval_A(_p1(ONE, ONE), REL_A1)
    assert res.singleton.coords == (Q(0),)


def test_interval_gr24_line():
    res = interval_A(GR24_LINE, GR24_REL)
    assert res.c_star == 0 and not res.bounded and res.singleton is None
    for s in (Q(-3), Q(0), Q(1, 2), Q(7)):
        assert res.contains(scale(s, LINE_DIR))
    assert not res.contains((Q(1), Q(0), Q(0)))


def test_interval_empty_for_unstable():
    res = interval_A(_p1(ONE, ZERO), REL_A1)
    assert res.is_empty() and res.c_star == INF
    assert not res.contains((Q(0),))


def test_wall_bounds_examples():
    res = interval_A(_p1(ONE, P.t_power(Q(1, 2))), REL_A1)
    bounds = res.wall_bounds
    assert bounds[(Q(2),)] == Q(1, 2) and bounds[(Q(-2),)] == Q(-1, 2)
    zero = interval_A(_p1(ONE, ONE), REL_A1).wall_bounds
    assert all(n == 0 for n in zero.values())
    gr = interval_A(GR24_LINE, GR24_REL).wall_bounds
    # the interval is a full line, so any root not vanishing on it is unbounded
    for a, n in gr.items():
        assert (n == INF) == (dot(a, LINE_DIR) != 0)


def test_wall_h_rep_reconstructs_the_interval():
    res = interval_A(_p1(ONE, P.t_power(Q(1, 2))), REL_A1)
    poly = wall_h_rep(res.wall_bounds)
    for z in grid_points(1, Q(1, 4), 2):
        assert poly.contains(z) == res.contains(z)


def test_lambda_a_examples():
    ends = lambda_A(_p1(ONE, ZERO), REL_A1)
    assert ends == (InfinityPoint((Q(-1),)),)
    assert lambda_A(_p1(ONE, ONE), REL_A1) == ()
    gr = lambda_A(GR24_LINE, GR24_REL)
    assert set(gr) == {InfinityPoint(LINE_DIR), InfinityPoint(LINE_DIR).antipode()}


def test_interval_a_chi_examples():
    chi_line = GR24_REL.restrict((1, 1, 0, 0))
    n, face = interval_A_chi(GR24_LINE, GR24_REL, chi_line)
    assert n == 0
    for s in (Q(-2), Q(3)):
        assert face.contains(scale(s, LINE_DIR))
    n, face = interval_A_chi(GR24_LINE, GR24_REL, GR24_REL.restrict((1, 0, 0, 0)))
    assert n == INF and face is None
    base = interval_A(_p1(ONE, P.t_power(Q(1, 2))), REL_A1)
    n, face = interval_A_chi(_p1(ONE, P.t_power(Q(1, 2))), REL_A1, (Q(3),))
    assert single_point(face) == base.singleton.coords


def test_interval_a_chi_needs_nonempty_interval():
    with pytest.raises(ValueError):
        interval_A_chi(_p1(ONE, ZERO), REL_A1, (Q(1),))


def test_fixed_locus_possible_examples():
    rel_a2 = preset_relative("split", datum=build_root_system("A", 2))
    omega1 = rel_a2.datum.fundamental_weights[0]
    assert not fixed_locus_possible(omega1, rel_a2)
    su3 = preset_relative("su3")
    assert fixed_locus_possible(su3.datum.fundamental_weights[0], su3)
    assert fixed_locus_possible((Q(0),) * 3, rel_a2)


def test_destabilizing_1ps_examples():
    eps = destabilizing_1ps(_p1(ONE, ZERO), REL_A1)
    assert dot(REL_A1.restrict((1, 0)), eps) < 0
    assert destabilizing_1ps(_p1(ONE, ONE), REL_A1) is None
    gr = destabilizing_1ps(GR24_LINE, GR24_REL)
    assert gr in (LINE_DIR, tuple(-a for a in LINE_DIR))


def test_oracle_equivalence_on_grid():
    r = rng(43)
    rel = model_relative("proj(3)")
    origin = (Q(0),) * rel.rank
    grid = grid_points(2, Q(1, 2), 2)
    for _ in range(8):
        wp = weighted_coordinates(random_proj_point(r, 3))
        res = interval_A(wp, rel)
        for z in grid:
            direct = hull_member(mu_residue(wp, rel, z), origin, "closure")
            assert res.contains(z) == direct


def test_equivariance_under_torus_translation():
    r = rng(47)
    for _ in range(25):
        p = random_proj_point(r, 2)
        wp = weighted_coordinates(p)
        res = interval_A(wp, REL_A1)
        vals = (Q(r.randint(-2, 2)),)
        entries = [P.t_power(vals[0]), P.t_power(-vals[0])]
        shift = nu(entries, REL_A1).coords
        moved = interval_A(translate(wp, (vals[0], -vals[0])), REL_A1)
        assert res.is_empty() == moved.is_empty()
        if not res.is_empty():
            for z in grid_points(1, Q(1, 2), 3):
                assert res.contains(z) == moved.contains(add(z, shift))


def test_bounded_iff_stable_on_samples():
    r = rng(53)
    rel = model_relative("proj(3)")
    for _ in range(40):
        wp = weighted_coordinates(random_proj_point(r, 3))
        res = interval_A(wp, rel)
        status = stability_status(wp, rel)
        assert res.is_empty() == (status == "unstable")
        if not res.is_empty():
            assert res.bounded == (status == "stable")


def test_interval_shape_matches_lp_oracles():
    # bounded and singleton are read off the face's generators; is_bounded
    # and single_point decide them by LPs along the coordinate axes
    r = rng(59)
    single = {
        "proj(2)": lambda: random_proj_point(r, 2),
        "proj(3)": lambda: random_proj_point(r, 3),
        "proj(4)": lambda: random_proj_point(r, 4),
        "grass(2,4)": lambda: random_grass24_point(r),
        "sp4_line": lambda: project(random_sp4_flag(r), 1),
        "sp4_quadric": lambda: project(random_sp4_flag(r), 2),
    }
    pairs = {"sp4_flag": lambda: random_sp4_flag(r),
             "su3_pair": lambda: random_su3_pair(r),
             "sl3_flag": lambda: random_sl3_flag(r)}
    cases = [(m, draw, None) for m, draw in single.items()]
    cases += [(m, draw, lam) for m, draw in pairs.items()
              for lam in ((1, 1), (1, 0), (0, 1), (2, 1))]
    shapes = set()
    for model, draw, lam in cases:
        rel = model_relative(model)
        for _ in range(6):
            res = interval_A(weighted_coordinates(draw(), lam=lam), rel)
            if res.is_empty():
                shapes.add("empty")
                continue
            point = single_point(res.polyhedron)
            assert res.bounded == is_bounded(res.polyhedron), model
            assert (res.singleton.coords if res.singleton else None) == point, model
            shapes.add("point" if point else "bounded" if res.bounded else "unbounded")
    assert shapes == {"empty", "point", "bounded", "unbounded"}


def test_interval_and_character_run_one_lp(monkeypatch):
    # one double description of the hypograph finds the face and its
    # generators, with no LP; wall bounds, shape and the character optimum
    # are read off those generators
    lps, minimax = [], []

    def counting(real, calls):
        def wrapped(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(polyhedra, "solve_lp", counting(polyhedra.solve_lp, lps))
    monkeypatch.setattr(interval, "minimax_face",
                        counting(interval.minimax_face, minimax))

    def counts():
        return len(lps), len(minimax)

    r = rng(61)
    cases = [("proj(3)", lambda: random_proj_point(r, 3), None),
             ("grass(2,4)", lambda: random_grass24_point(r), None),
             ("sp4_flag", lambda: random_sp4_flag(r), (1, 1))]
    for model, draw, lam in cases:
        rel = model_relative(model)
        for _ in range(4):
            lps.clear()
            minimax.clear()
            wp = weighted_coordinates(draw(), lam=lam)
            res = interval_A(wp, rel)
            assert counts() == (0, 1), model
            if not res.is_empty():
                res.chi_optimum(rel.relative_roots[0])
                assert counts() == (0, 1), model
                # the point keeps its interval, also for an equal datum
                # built anew
                _, family, rank = model_spec(model).group
                fresh = preset_relative("split", datum=build_root_system(family, rank))
                assert fresh == rel and fresh is not rel
                for again in (rel, fresh):
                    interval_A_chi(wp, again, rel.relative_roots[0])
                    assert counts() == (0, 1), model
    chi = [format_rational(c) for c in GR24_REL.restrict((1, 1, 0, 0))]
    requests = [
        ("interval", {"model": "proj(2)", "point": ["1", "t^{1/2}"], "chi": ["3"]}),
        ("interval", {"model": "grass(2,4)", "point": ["1", "1", "0", "0", "-1", "-1"],
                      "chi": chi}),
        ("chi", {"model": "grass(2,4)", "point": ["1", "1", "0", "0", "-1", "-1"],
                 "chi": chi}),
        ("chi", {"model": "sp4_flag", "point": [["1", "0", "t", "0"], ["0", "1", "0", "t"]],
                 "chi": ["1", "0"]}),
    ]
    for command, payload in requests:
        lps.clear()
        minimax.clear()
        run(command, payload)
        assert counts() == (0, 1), (command, payload)


def _assert_interval_matches_oracle(wp, rel, chis=(), singleton_by_lp=True):
    """interval_A against the minimax simplex and a description of its face:
    c*, the face, the wall bounds, the singleton (by LPs along the axes, or
    else as the point every bound is attained at) and the character optimum
    (by an LP); an infinite c* has a witness ray along which every form
    increases."""
    got = interval_A(wp, rel)
    profile = point_data(wp, rel).profile
    c_star, face, bounds = interval_by_lp(profile, rel)
    assert got.c_star == c_star
    if c_star == INF:
        assert got.is_empty()
        ray = minimax_face(sorted(profile.items())).ray
        assert all(dot(w, ray) > 0 for w in profile)
        return
    assert got.polyhedron == face
    assert dict(got.wall_bounds) == bounds
    point = got.singleton.coords if got.singleton else None
    if singleton_by_lp:
        assert point == single_point(face)
    elif point is None:
        assert any(n == INF or n != -bounds[neg(a)] for a, n in bounds.items())
    else:
        assert all(dot(a, point) == n for a, n in bounds.items())
    for chi in chis:
        n, chi_face = got.chi_optimum(chi)
        want = sup_linear_by_lp(face, chi)
        assert n == want
        assert chi_face == (None if want == INF else face.with_equality(chi, want))


def _random_grass_point(r, j, n):
    while True:
        rows = [[random_element(r, max_terms=2) for _ in range(n)] for _ in range(j)]
        try:
            return make_point(f"grass({j},{n})", rows)
        except ValueError:
            continue


def test_minimax_face_matches_lp_oracle():
    r = rng(67)
    draws = [(f"proj({n})", lambda n=n: random_proj_point(r, n), None)
             for n in range(2, 9)]
    draws += [("grass(2,4)", lambda: random_grass24_point(r), None),
              ("grass(3,6)", lambda: _random_grass_point(r, 3, 6), None)]
    draws += [(m, draw, lam) for m, draw in (("su3_pair", lambda: random_su3_pair(r)),
                                             ("sl3_flag", lambda: random_sl3_flag(r)),
                                             ("sp4_flag", lambda: random_sp4_flag(r)))
              for lam in ((1, 1), (2, 1))]
    statuses = set()
    for model, draw, lam in draws:
        rel = model_relative(model)
        for _ in range(8):
            wp = weighted_coordinates(draw(), lam=lam)
            statuses.add(stability_status(wp, rel))
            chis = [tuple(Q(r.randint(-2, 2)) for _ in range(rel.rank))
                    for _ in range(3)]
            _assert_interval_matches_oracle(wp, rel, chis)
    assert statuses == {"stable", "strictly_semistable", "unstable"}


def _stress_rows(r, j, n):
    """j rows of n entries a*t^{b/2} + c*t^{d/3}."""
    coef = (-3, -2, -1, 1, 2, 3)
    return [[PuiseuxElement([(Q(r.randint(0, 4), 2), r.choice(coef)),
                             (Q(r.randint(0, 4), 3), r.choice(coef))])
             for _ in range(n)] for _ in range(j)]


def _stress_points(j, n, count):
    """count seeded points of grass(j,n) with _stress_rows."""
    r = rng(71 + j)
    for _ in range(count):
        while True:
            try:
                yield weighted_coordinates(make_point(f"grass({j},{n})",
                                                      _stress_rows(r, j, n)))
                break
            except ValueError:
                continue


@pytest.mark.parametrize("j,n,count,ray_limit,oracle", [
    (4, 8, 20, 100, True), (5, 10, 2, 250, False)], ids=["grass48", "grass510"])
def test_interval_description_stays_small(monkeypatch, j, n, count, ray_limit,
                                          oracle):
    # the hypograph's rows go in by ascending valuation, which keeps every
    # intermediate description under the limit (largest seen: 70 rays on
    # grass(4,8), 168 on grass(5,10)); the simplex oracle takes minutes on
    # grass(5,10), so there every face point is checked to attain c* instead.
    # Counting the shared tight rows before the adjacency scan drops no ray
    # and moves none: each hypograph's description equals the Fraction
    # oracle's, which scans every pair.
    described = []
    real = polyhedra._integer_double_description

    def recording(rows, dim):
        described.append((rows, dim))
        return real(rows, dim)

    monkeypatch.setattr(polyhedra, "_integer_double_description", recording)
    rel = model_relative(f"grass({j},{n})")
    for wp in _stress_points(j, n, count):
        # the limit covers interval_A alone: the oracle describes its face
        # with the rows in weight order
        described.clear()
        monkeypatch.setenv("BTGIT_DD_RAY_LIMIT", str(ray_limit))
        res = interval_A(wp, rel)
        monkeypatch.delenv("BTGIT_DD_RAY_LIMIT")
        assert not res.is_empty()
        ((rows, dim),) = described
        assert polyhedra._double_description(rows, dim) == \
            double_description_by_fractions(rows, dim)
        if oracle:
            _assert_interval_matches_oracle(wp, rel, singleton_by_lp=False)
            continue
        profile = point_data(wp, rel).profile
        for z in res.generators.points:
            assert res.contains(z)
            assert min(v + dot(w, z) for w, v in profile.items()) == res.c_star

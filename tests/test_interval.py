"""Semistability intervals: faces, walls, directions at infinity, chi shifts."""

from fractions import Fraction as Q

import pytest
from helpers import (grid_points, is_bounded, random_grass24_point,
                     random_proj_point, random_sl3_flag, random_sp4_flag,
                     random_su3_pair, rng, single_point, wall_h_rep)

from btgit import polyhedra
from btgit.apartment import InfinityPoint, nu
from btgit.cli import run
from btgit.interval import (destabilizing_1ps, fixed_locus_possible,
                            interval_A, interval_A_chi, lambda_A)
from btgit.models import make_point, model_relative, project, weighted_coordinates
from btgit.polyhedra import hull_member
from btgit.qvec import add, dot, primitive, qvec, scale
from btgit.rootdata import build_root_system, preset_relative
from btgit.torusgit import mu_residue, translate
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
    from btgit.torusgit import stability_status
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
    # bounded and singleton are read off the wall bounds; is_bounded and
    # single_point decide them by LPs along the coordinate axes
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
    # the minimax LP finds the face; wall bounds, shape and the character
    # optimum are read off the face's generators
    calls = []
    real = polyhedra.solve_lp

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(polyhedra, "solve_lp", counting)
    r = rng(61)
    cases = [("proj(3)", lambda: random_proj_point(r, 3), None),
             ("grass(2,4)", lambda: random_grass24_point(r), None),
             ("sp4_flag", lambda: random_sp4_flag(r), (1, 1))]
    for model, draw, lam in cases:
        rel = model_relative(model)
        for _ in range(4):
            calls.clear()
            wp = weighted_coordinates(draw(), lam=lam)
            res = interval_A(wp, rel)
            assert len(calls) == 1, model
            if not res.is_empty():
                res.chi_optimum(rel.relative_roots[0])
                assert len(calls) == 1, model
                # the point keeps its interval, also for an equal fresh datum
                for again in (rel, model_relative(model)):
                    interval_A_chi(wp, again, rel.relative_roots[0])
                    assert len(calls) == 1, model
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
        calls.clear()
        run(command, payload)
        assert len(calls) == 1, (command, payload)

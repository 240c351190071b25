"""Weight polytopes, stability statuses, chambers, and the regular-weight table."""

from fractions import Fraction as Q
from itertools import combinations, permutations

import pytest
import copy
import pickle

from helpers import (chamber_presets, chi_status_by_h_rep,
                     classify_regular_weights_by_fractions, grid_points,
                     hull_cone_by_h_rep, integer_layer_data,
                     mu_residue_recomputed, origin_facets, random_grass24_point,
                     random_proj_point, random_rational, random_sl3_flag,
                     random_sp4_flag, random_su3_pair, rng,
                     root_hyperplanes_by_fractions, root_hyperplanes_by_subsets,
                     stability_status_by_h_rep)

from btgit.models import (make_point, model_relative, project,
                          weighted_coordinates)
from btgit.polyhedra import hull_cone, hull_member, tangent_cone
from btgit.qvec import qvec
from btgit.rootdata import build_root_system, preset_relative
from btgit.interval import interval_A
from btgit.torusgit import (WeightedPoint, chamber_leq, chamber_of, chi_status,
                            classify_regular_weights, mu_K, mu_residue,
                            root_hyperplanes, stability_status, translate,
                            valuation_profile)
from btgit.valfield import ONE, ZERO, PuiseuxElement

P = PuiseuxElement
REL_A1 = preset_relative("split", datum=build_root_system("A", 1))
REL_A2 = preset_relative("split", datum=build_root_system("A", 2))
REL_C2 = preset_relative("split", datum=build_root_system("C", 2))


def _p1(x0, x1) -> WeightedPoint:
    return weighted_coordinates(make_point("proj(2)", (x0, x1)))


GR24_LINE = weighted_coordinates(make_point(
    "grass(2,4)", [ONE, ONE, ZERO, ZERO, -ONE, -ONE]))
GR24_REL = model_relative("grass(2,4)")


def test_weighted_point_scales_to_min_valuation_zero():
    x = WeightedPoint([((Q(1),), 0, P.t_power(2)), ((Q(-1),), 1, P.t_power(3))])
    assert min(c.valuation() for _, _, c in x.entries) == 0
    with pytest.raises(ValueError):
        WeightedPoint([((Q(1),), 0, ZERO)])


def test_weighted_point_json_round_trip():
    x = _p1(ONE, P.t_power(Q(1, 2)))
    assert WeightedPoint.from_json(x.to_json()) == x


def test_translate_shifts_valuations_by_weight_pairing():
    x = _p1(ONE, ONE)
    y = translate(x, (Q(1), Q(-1)))
    vals = {i: c.valuation() for _, i, c in y.entries}
    assert vals[1] - vals[0] == -2  # weights e1, e2 pair to +1 and -1


def test_mu_k_examples():
    hull = mu_K(_p1(ONE, ONE), REL_A1)
    assert set(hull.points) == {(Q(1),), (Q(-1),)}
    assert mu_K(_p1(ONE, ZERO), REL_A1).points == ((Q(1),),)
    pts = set(mu_K(GR24_LINE, GR24_REL).points)
    assert len(pts) == 4
    for v in pts:
        assert tuple(-a for a in v) in pts  # vertex pairs sum to zero


def test_mu_residue_examples():
    x = _p1(ONE, P.t_power(Q(1, 2)))
    assert mu_residue(x, REL_A1, (Q(0),)).points == ((Q(1),),)
    at_quarter = mu_residue(x, REL_A1, (Q(1, 4),))
    assert set(at_quarter.points) == {(Q(1),), (Q(-1),)}
    y = _p1(ONE, ONE)
    assert set(mu_residue(y, REL_A1, (Q(0),)).points) == set(mu_K(y, REL_A1).points)
    with pytest.raises(ValueError):
        mu_residue(y, REL_A1, (Q(0), Q(0)))


# acceptance criterion 1's apartment grid of each rank
CRITERION_1_GRIDS = {1: grid_points(1, Q(1, 25), 4), 2: grid_points(2, Q(1, 2), 4),
                     3: grid_points(3, Q(1, 3), 1)}


def test_mu_residue_matches_recomputed_oracle():
    # the kept profile, integer residue table and per-index-set polytopes
    # against a profile rebuilt in Fractions at every grid point
    r = rng(1103)
    cases = [("proj(2)", lambda: random_proj_point(r, 2), None),
             ("proj(3)", lambda: random_proj_point(r, 3), None),
             ("grass(2,4)", lambda: random_grass24_point(r), None),
             ("su3_pair", lambda: random_su3_pair(r), (1, 1)),
             ("sl3_flag", lambda: random_sl3_flag(r), (1, 1)),
             ("sp4_flag", lambda: random_sp4_flag(r), (1, 1))]
    for model, draw, lam in cases:
        rel = model_relative(model)
        for _ in range(3):
            wp = weighted_coordinates(draw(), lam=lam)
            for z in CRITERION_1_GRIDS[rel.rank]:
                assert mu_residue(wp, rel, z).points == \
                    mu_residue_recomputed(wp, rel, z).points, (model, z)


def test_point_memo_never_leaks_across_data():
    r = rng(1105)
    p = random_proj_point(r, 3)
    wp = weighted_coordinates(p)
    before = (wp.to_json(), hash(wp), repr(wp))
    for rel in (model_relative("proj(3)"), preset_relative("su3"),
                model_relative("proj(3)")):
        fresh = weighted_coordinates(p)
        assert valuation_profile(wp, rel) == valuation_profile(fresh, rel)
        assert interval_A(wp, rel) == interval_A(fresh, rel)
        assert stability_status(wp, rel) == stability_status(fresh, rel)
        for z in grid_points(rel.rank, Q(1, 2), 2):
            assert mu_residue(wp, rel, z).points == \
                mu_residue_recomputed(wp, rel, z).points, (rel.name, z)
        assert wp == fresh
    assert (wp.to_json(), hash(wp), repr(wp)) == before
    # what the point keeps is not part of its state
    for twin in (pickle.loads(pickle.dumps(wp)), copy.deepcopy(wp)):
        assert twin == wp and repr(twin) == repr(wp)


def test_valuation_profile_is_read_only():
    rel = model_relative("proj(3)")
    wp = weighted_coordinates(make_point("proj(3)", (ONE, P.t_power(Q(1, 2)), ZERO)))
    profile = valuation_profile(wp, rel)
    key = next(iter(profile))
    with pytest.raises(TypeError):
        profile[key] = Q(5)
    with pytest.raises(TypeError):
        interval_A(wp, rel).wall_bounds[key] = Q(5)
    assert valuation_profile(wp, rel) is profile


def test_stability_status_examples():
    assert stability_status(_p1(ONE, ONE), REL_A1) == "stable"
    assert stability_status(_p1(ONE, ZERO), REL_A1) == "unstable"
    assert stability_status(GR24_LINE, GR24_REL) == "strictly_semistable"


def test_chi_status_examples():
    chi_plus = GR24_REL.restrict((1, 1, 0, 0))
    chi_minus = GR24_REL.restrict((1, -1, 0, 0))
    assert chi_status(GR24_LINE, GR24_REL, chi_plus) == "semistable"
    assert chi_status(GR24_LINE, GR24_REL, chi_minus) == "unstable"
    stable = _p1(ONE, ONE)
    for chi in ((Q(1),), (Q(-2),)):
        assert chi_status(stable, REL_A1, chi) == "stable"


def test_chi_status_rejects_a_character_of_the_wrong_length():
    proj3 = model_relative("proj(3)")
    stable = weighted_coordinates(make_point("proj(3)", [ONE, ONE, ONE]))
    unstable = weighted_coordinates(make_point("proj(3)", [ONE, ONE, ZERO]))
    assert stability_status(stable, proj3) == "stable"
    assert stability_status(unstable, proj3) == "unstable"
    assert stability_status(GR24_LINE, GR24_REL) == "strictly_semistable"
    for x, rel in ((stable, proj3), (unstable, proj3), (GR24_LINE, GR24_REL)):
        for chi in ((Q(1),), tuple(Q(k) for k in range(1, 6))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                chi_status(x, rel, chi)


def test_status_chi_and_cones_match_h_rep_oracles():
    # every model, zero coordinates allowed; the two-factor models with three
    # product weights; chi random, zero, or a restricted weight of the point
    r = rng(43)
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
              for lam in ((1, 1), (1, 2), (2, 1))]
    statuses, chi_answers = set(), set()
    for model, draw, lam in cases:
        rel = model_relative(model)
        origin = (Q(0),) * rel.rank
        for _ in range(20):
            wp = weighted_coordinates(draw(), lam=lam)
            status = stability_status(wp, rel)
            assert status == stability_status_by_h_rep(wp, rel), model
            statuses.add(status)
            weights = mu_K(wp, rel).points
            for chi in (tuple(random_rational(r) for _ in range(rel.rank)),
                        origin, r.choice(weights)):
                answer = chi_status(wp, rel, chi)
                assert answer == chi_status_by_h_rep(wp, rel, chi), (model, chi)
                chi_answers.add(answer)
            want = hull_cone_by_h_rep(mu_K(wp, rel))
            # a fresh polytope before any hull_member query, then one queried
            for queried in (False, True):
                p = mu_K(wp, rel)
                if queried:
                    hull_member(p, r.choice(weights), "interior")
                for _ in range(2):
                    assert hull_cone(p) == want, model
                    if status == "unstable":
                        with pytest.raises(ValueError):
                            tangent_cone(p)
                    else:
                        assert tangent_cone(p) == origin_facets(want), model
    assert statuses == {"stable", "strictly_semistable", "unstable"}
    assert chi_answers == {"stable", "semistable", "unstable"}


def test_root_hyperplanes_counts():
    assert len(root_hyperplanes(REL_A2)) == 3
    assert len(root_hyperplanes(REL_C2)) == 4
    assert root_hyperplanes(REL_A1) == ((Q(1),),)


def test_root_hyperplanes_match_subset_scan():
    for rel in chamber_presets():
        assert root_hyperplanes(rel) == root_hyperplanes_by_subsets(rel), rel.name


def test_root_hyperplanes_match_fraction_oracle():
    for rel in integer_layer_data():
        assert root_hyperplanes(rel) == root_hyperplanes_by_fractions(rel), rel.name


def test_chamber_of_examples():
    hyps = root_hyperplanes(REL_A2)
    w12 = REL_A2.restrict(qvec([1, 0, -1]))  # omega1 + omega2
    on_wall = chamber_of(w12, hyps)
    assert len(on_wall.containing()) == 1
    w21 = REL_A2.restrict(qvec([Q(5, 3), Q(-1, 3), Q(-4, 3)]))  # 2*omega1+omega2
    assert chamber_of(w21, hyps).containing() == ()
    c_hyps = root_hyperplanes(REL_C2)
    e1 = REL_C2.restrict((1, 0))
    assert len(chamber_of(e1, c_hyps).containing()) == 1


def test_chamber_of_respects_ample_cone():
    hyps = root_hyperplanes(REL_A2)
    cone = [REL_A2.restrict(w) for w in
            (build_root_system("A", 2).fundamental_weights)]
    chamber_of(REL_A2.restrict(qvec([1, 0, -1])), hyps, cone=cone)
    with pytest.raises(ValueError):
        chamber_of((Q(-5), Q(0)), hyps, cone=cone)


def test_chamber_leq_examples():
    hyps = root_hyperplanes(REL_A2)
    wall = REL_A2.restrict(qvec([1, 0, -1]))
    up = REL_A2.restrict(qvec([Q(5, 3), Q(-1, 3), Q(-4, 3)]))
    down = REL_A2.restrict(qvec([Q(4, 3), Q(1, 3), Q(-5, 3)]))
    assert chamber_leq(wall, up, hyps)
    assert not chamber_leq(up, down, hyps)
    for lam in (wall, up, down):
        assert chamber_leq(lam, lam, hyps)


def test_classify_examples():
    assert classify_regular_weights("A", 3, [2]) == (False, False)
    assert classify_regular_weights("A", 3, [1]) == (True, True)
    assert classify_regular_weights("C", 2, [1]) == (False, False)
    assert classify_regular_weights(preset="su3", J=[1, 2]) == (True, True)
    assert classify_regular_weights(preset="nonsplit_C", rank=2, J=[1]) == \
        (True, True)


def _subsets(nodes, sizes):
    return [list(J) for k in sizes for J in combinations(range(1, nodes + 1), k)]


def test_classify_matches_fraction_oracle():
    """Split groups: every J of one or two nodes, and all nodes; the other
    presets: every J.  Where the absolute Weyl group has 1920 or more
    elements (D5, C5 under nonsplit_C of rank 5, A7 under sl_skew(3, 2)),
    only J of one or two nodes: the Fraction oracle takes about a second
    per larger J there."""
    def subsets(nodes, sizes):
        return [list(J) for k in sizes for J in combinations(range(1, nodes + 1), k)]

    def sizes(nodes, every):
        return range(1, nodes + 1) if every else (1, 2)

    cases = []
    for family, ranks in (("A", range(1, 6)), ("B", range(2, 5)),
                          ("C", range(2, 5)), ("D", range(4, 6))):
        for rank in ranks:
            Js = subsets(rank, (1, 2))
            if (family, rank) != ("D", 5):
                Js.append(list(range(1, rank + 1)))
            cases += [dict(family=family, rank=rank, J=J) for J in Js]
    cases += [dict(preset="su3", J=J) for J in subsets(2, (1, 2))]
    cases += [dict(preset="nonsplit_C", rank=rank, J=J) for rank in range(2, 6)
              for J in subsets(rank, sizes(rank, rank < 5))]
    cases += [dict(preset="sl_skew", s=s, d=d, J=J)
              for s, d in ((1, 2), (2, 2), (2, 3), (3, 2))
              for J in subsets(s, sizes(s, s < 3))]
    for case in cases:
        assert classify_regular_weights(**case) == \
            classify_regular_weights_by_fractions(**case), case


def test_classify_rejects_bad_j():
    with pytest.raises(ValueError):
        classify_regular_weights("A", 2, [])
    with pytest.raises(ValueError):
        classify_regular_weights("A", 2, [5])


def test_status_invariant_under_coordinate_permutation():
    r = rng(37)
    for _ in range(40):
        p = random_proj_point(r, 3)
        rel = model_relative("proj(3)")
        base = stability_status(weighted_coordinates(p), rel)
        for perm in permutations(range(3)):
            q = make_point("proj(3)", tuple(p.data[0][i] for i in perm))
            assert stability_status(weighted_coordinates(q), rel) == base


def test_status_matches_origin_membership():
    r = rng(41)
    rel = model_relative("proj(3)")
    for _ in range(60):
        wp = weighted_coordinates(random_proj_point(r, 3))
        hull = mu_K(wp, rel)
        origin = (Q(0),) * rel.rank
        status = stability_status(wp, rel)
        assert (status != "unstable") == hull_member(hull, origin, "closure")
        assert (status == "stable") == hull_member(hull, origin, "interior")

"""Apartment coordinates, torus valuations, carriers, and the sphere at infinity."""

from fractions import Fraction as Q

import pytest
from helpers import random_rational, rng, simplex_id_by_scan

from btgit.apartment import (ApartmentPoint, InfinityPoint, distance,
                             is_vertex, nu, semi_convex_hull_sphere,
                             simplex_id)
from btgit.qvec import add, qvec
from btgit.rootdata import build_root_system, preset_relative
from btgit.valfield import ONE, PuiseuxElement

P = PuiseuxElement
REL_A1 = preset_relative("split", datum=build_root_system("A", 1))
REL_A2 = preset_relative("split", datum=build_root_system("A", 2))
REL_A3 = preset_relative("split", datum=build_root_system("A", 3))


def test_nu_examples():
    z = nu([P.t_power(1), P.t_power(-1)], REL_A1)
    # the fundamental-weight coordinate of diag(t, 1/t) is -v(t) = -1
    assert z.coords == (Q(-1),)
    assert nu([ONE, ONE], REL_A1).coords == (Q(0),)
    z = nu([P.t_power(1), ONE, ONE, P.t_power(-1)], REL_A3)
    assert qvec(REL_A3.restrict((1, 0, 0, 0))) and \
        sum(c * r for c, r in zip(REL_A3.restrict((1, 0, 0, 0)), z.coords)) == -1
    assert sum(c * r for c, r in zip(REL_A3.restrict((0, 0, 0, 1)), z.coords)) == 1


def test_nu_rejects_bad_entries():
    with pytest.raises(ValueError):
        nu([P.zero(), ONE], REL_A1)
    with pytest.raises(ValueError):
        nu([P.t_power(1), P.t_power(1)], REL_A1)  # determinant is t^2, not 1


def test_nu_is_a_homomorphism():
    r = rng(31)
    for _ in range(100):
        a, b = Q(r.randint(-3, 3)), Q(r.randint(-3, 3))
        s1 = [P.t_power(a), P.t_power(-a)]
        s2 = [P.t_power(b), P.t_power(-b)]
        prod = [s1[0] * s2[0], s1[1] * s2[1]]
        assert nu(prod, REL_A1).coords == add(nu(s1, REL_A1).coords,
                                              nu(s2, REL_A1).coords)


def test_nu_kills_units():
    s = [ONE + P.t_power(1), (ONE + P.t_power(1)).truncated_inverse(10)]
    # entries with valuation zero act trivially up to the precision used
    assert nu([ONE, ONE], REL_A1).coords == (Q(0),)
    assert s[0].valuation() == 0


def test_simplex_id_and_vertices():
    assert is_vertex(ApartmentPoint((Q(1, 2),)), REL_A1)
    assert not is_vertex(ApartmentPoint((Q(1, 4),)), REL_A1)
    for rel in (REL_A1, REL_A2, REL_A3):
        assert is_vertex(ApartmentPoint((Q(0),) * rel.rank), rel)
    walls = simplex_id(ApartmentPoint((Q(1, 4),)), REL_A1)
    assert sorted(s for _, _, s in walls) == [-1, 1]  # open edge between 0, 1/2


def test_simplex_id_matches_gamma_scan():
    """Half steps (su3, nonsplit_C of odd rank) and full ones, on seeded
    points that often lie on walls."""
    r = rng(2207)
    rels = [preset_relative("su3"), preset_relative("nonsplit_C", rank=3),
            preset_relative("nonsplit_C", rank=5), REL_A2,
            preset_relative("split", datum=build_root_system("B", 2))]
    for rel in rels:
        for _ in range(60):
            z = tuple(random_rational(r, den=4) for _ in range(rel.rank))
            assert simplex_id(ApartmentPoint(z), rel) == simplex_id_by_scan(z, rel), \
                (rel.name, z)


def test_infinity_point_canonical_and_antipode():
    p = InfinityPoint((Q(2), Q(-4)))
    assert p == InfinityPoint((Q(1), Q(-2)))
    assert p.antipode().antipode() == p
    assert p.antipode() != p


def test_semi_convex_hull_examples():
    single = semi_convex_hull_sphere([InfinityPoint((1, 0))], REL_A2)
    assert single.kind == "cone" and single.directions == ((Q(1), Q(0)),)
    arc = semi_convex_hull_sphere(
        [InfinityPoint((1, 0)), InfinityPoint((0, 1))], REL_A2)
    assert arc.kind == "cone" and len(arc.directions) == 2
    pair = semi_convex_hull_sphere(
        [InfinityPoint((1, 1)), InfinityPoint((-1, -1))], REL_A2)
    assert pair.kind == "points" and len(pair.directions) == 2


def test_semi_convex_hull_idempotent_on_output():
    dirs = [InfinityPoint((1, 0)), InfinityPoint((1, 1))]
    hull = semi_convex_hull_sphere(dirs, REL_A2)
    again = semi_convex_hull_sphere([InfinityPoint(d) for d in hull.directions],
                                    REL_A2)
    assert set(again.directions) == set(hull.directions)


def test_distance_examples():
    z0 = ApartmentPoint((Q(0),))
    z1 = ApartmentPoint((Q(1),))
    assert distance(z0, z0, REL_A1) == 0
    assert distance(z0, z1, REL_A1) == 1
    w = (Q(5),)
    assert distance(ApartmentPoint(add(z0.coords, w)),
                    ApartmentPoint(add(z1.coords, w)), REL_A1) == 1


def test_distance_weyl_invariance_a2():
    # the metric is invariant under the restricted Weyl action on coordinates
    z1, z2 = ApartmentPoint((Q(1), Q(0))), ApartmentPoint((Q(0), Q(1)))
    d = distance(z1, z2, REL_A2)
    assert d == distance(z2, z1, REL_A2) and d > 0

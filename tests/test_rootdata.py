"""Root systems, Weyl orbits, and relative (restricted) data."""

from fractions import Fraction as Q

import pytest

from btgit.qvec import add, dot, primitive_ints, qvec, scale
from btgit.rootdata import (UnknownGroup, _ray_reflection, build_root_system,
                            dominant_weight, fundamental_rays, group_relative,
                            preset_relative, reflect, reflection_closure,
                            relative_weyl_orbit, simple_shuffles, weyl_orbit,
                            weyl_order)
from helpers import (chamber_points_by_fractions,
                     fundamental_points_by_fractions, integer_layer_data,
                     orbit_by_reflection, random_rational,
                     relative_weyl_orbit_by_fractions, restrict_by_dot,
                     restricted_by_fractions, rng, roots_by_reflection,
                     weights_by_solve)

ROOT_COUNTS = {"A": lambda l: l * (l + 1), "B": lambda l: 2 * l * l,
               "C": lambda l: 2 * l * l, "D": lambda l: 2 * l * (l - 1)}

CLOSED_FORM_CASES = ([("A", r) for r in range(1, 9)]
                     + [(f, r) for f in "BCD" for r in range(2, 8)])


def test_a2_has_six_roots():
    assert len(build_root_system("A", 2).all_roots) == 6


def test_c2_has_eight_roots_and_omega2():
    datum = build_root_system("C", 2)
    assert len(datum.all_roots) == 8
    assert datum.fundamental_weights[1] == qvec([1, 1])


def test_a1_roots_and_omega1():
    datum = build_root_system("A", 1)
    alpha = datum.simple_roots[0]
    assert set(datum.all_roots) == {alpha, tuple(-a for a in alpha)}
    assert datum.fundamental_weights[0] == scale(Q(1, 2), alpha)


def test_weyl_orbit_sizes():
    a2 = build_root_system("A", 2)
    assert len(weyl_orbit(a2, a2.fundamental_weights[0])) == 3
    assert weyl_orbit(a2, qvec([0, 0, 0])) == (qvec([0, 0, 0]),)
    c2 = build_root_system("C", 2)
    assert set(weyl_orbit(c2, qvec([1, 0]))) == {
        qvec([1, 0]), qvec([-1, 0]), qvec([0, 1]), qvec([0, -1])}


def test_weyl_order_classical_formulas():
    assert weyl_order(build_root_system("A", 3)) == 24
    assert weyl_order(build_root_system("B", 3)) == 48
    assert weyl_order(build_root_system("C", 2)) == 8
    assert weyl_order(build_root_system("D", 4)) == 192


@pytest.mark.parametrize("family,rank", CLOSED_FORM_CASES,
                         ids=[f"{f}{r}" for f, r in CLOSED_FORM_CASES])
def test_closed_forms_match_reflection_oracles(family, rank):
    datum = build_root_system(family, rank)
    assert len(datum.all_roots) == ROOT_COUNTS[family](rank)
    assert datum.all_roots == roots_by_reflection(datum)
    assert datum.fundamental_weights == weights_by_solve(datum)
    for w in datum.fundamental_weights:
        assert weyl_orbit(datum, w) == tuple(
            sorted(v for (v,) in orbit_by_reflection(datum, (w,))))
    # the joint orbit of a tuple of weights, as classify_regular_weights
    # lists it, for J = {1, 2} (J = {1} on A1)
    omegas = datum.fundamental_weights[:2]
    lifted = [lambda tup, f=f: tuple(f(v) for v in tup)
              for f in simple_shuffles(datum)]
    assert reflection_closure([omegas], lifted) == orbit_by_reflection(datum, omegas)
    # the orbit of rho is regular, so its size is the group order; the
    # reflection oracle lists it only while the group is small
    if weyl_order(datum) <= 1920:
        rho = datum.fundamental_weights[0]
        for w in datum.fundamental_weights[1:]:
            rho = add(rho, w)
        orbit = weyl_orbit(datum, rho)
        assert orbit == tuple(sorted(v for (v,) in orbit_by_reflection(datum, (rho,))))
        assert weyl_order(datum) == len(orbit)


def test_roots_closed_under_reflection():
    for family, rank in (("A", 2), ("B", 2), ("C", 3), ("D", 4)):
        datum = build_root_system(family, rank)
        roots = set(datum.all_roots)
        for a in roots:
            assert dot(a, a) > 0
            for b in roots:
                assert reflect(b, a) in roots


def test_split_restriction_is_injective_on_roots():
    datum = build_root_system("A", 2)
    rel = preset_relative("split", datum=datum)
    images = {rel.restrict(a) for a in datum.all_roots}
    assert len(images) == len(datum.all_roots)
    assert rel.relative_roots == tuple(sorted(images))


def test_su3_restriction_collapses_simples():
    rel = preset_relative("su3")
    a1, a2 = rel.datum.simple_roots
    assert rel.restrict(a1) == rel.restrict(a2) == (Q(1),)
    assert rel.restrict(tuple(x + y for x, y in zip(a1, a2))) == (Q(2),)
    assert rel.rank == 1
    assert rel.relative_roots == ((Q(-2),), (Q(-1),), (Q(1),), (Q(2),))
    assert rel.gamma_of((Q(1),)) == Q(1, 2)
    assert rel.gamma_of((Q(2),)) == Q(1)


def test_nonsplit_c2_preset():
    rel = preset_relative("nonsplit_C", rank=2)
    assert rel.rank == 1
    assert all(not any(rel.restrict(a)) or rel.restrict(a) in rel.relative_roots
               for a in rel.datum.all_roots)


def test_sl_skew_preset_matches_quotient_type():
    rel = preset_relative("sl_skew", s=2, d=2)
    assert rel.rank == 2
    small = preset_relative("split", datum=build_root_system("A", 2))
    assert sorted(rel.relative_roots) == sorted(small.relative_roots)


@pytest.mark.parametrize("args,unknown", [
    (("bogus", "G"), True),
    (("split", "G"), True),
    (("split", "E", None), True),
    (("split",), False),
    (("split", "A"), False),
    (("nonsplit_C",), False),
    (("sl_skew", None, None, 1), False),
    (("split", "B", 1), False),
    (("nonsplit_C", None, 1), False),
], ids=["unknown-preset", "unknown-family", "unknown-family-no-rank",
        "split-empty", "split-no-rank",
        "nonsplit_C-no-rank", "sl_skew-no-d", "B1", "nonsplit_C-1"])
def test_group_table_checks_in_one_order(args, unknown):
    # names outside the table before missing parameters, then the
    # constructor's own range checks
    with pytest.raises(ValueError) as info:
        group_relative(*args)
    assert isinstance(info.value, UnknownGroup) == unknown


def test_dominant_weight_examples():
    a2 = build_root_system("A", 2)
    w, ample = dominant_weight(a2, [1, 2], [1, 1])
    assert w == tuple(x + y for x, y in zip(*a2.simple_roots[:2]))
    assert ample
    c2 = build_root_system("C", 2)
    w, ample = dominant_weight(c2, [1], [1])
    assert w == qvec([1, 0]) and ample
    with pytest.raises(ValueError):
        dominant_weight(build_root_system("A", 3), [2], [0])


def test_restriction_matches_fraction_oracle():
    for rel in integer_layer_data():
        assert rel == restricted_by_fractions(rel.name, rel.datum, rel.dual_matrix,
                                              rel.relative_simple, rel.gram), rel.name


def test_restrict_matches_dense_dot_oracle():
    r = rng(1303)
    for rel in integer_layer_data():
        datum = rel.datum
        n = datum.ambient_dim
        weights = list(datum.all_roots) + list(datum.fundamental_weights)
        weights += [tuple(random_rational(r) if r.random() < 0.6 else Q(0)
                          for _ in range(n)) for _ in range(20)]
        weights += [qvec([0] * n), qvec(range(n))]
        for w in weights:
            got = rel.restrict(w)
            assert got == restrict_by_dot(rel, w), (rel.name, w)
            assert all(type(c) is Q for c in got)
        with pytest.raises(ValueError):
            rel.restrict(qvec([1] * (n + 1)))


def test_ray_orbits_are_point_orbits_up_to_scaling():
    """Up to rank 5, each ray orbit is the Fraction point orbit with every
    point made primitive, element for element: the orbit of each fundamental
    ray alone and, up to rank 4, the orbit of the tuple of all of them
    (test_root_hyperplanes_match_fraction_oracle covers the single orbits
    of the larger ranks through their lines)."""
    for rel in integer_layer_data():
        rays = fundamental_rays(rel)
        points = fundamental_points_by_fractions(rel)
        assert [tuple(primitive_ints(z)) for z in points] == rays
        if rel.rank > 5:
            continue
        cases = [((z,), relative_weyl_orbit_by_fractions(rel, [(q,)]))
                 for z, q in zip(rays, points)]
        if rel.rank <= 4:
            cases.append((tuple(rays), chamber_points_by_fractions(rel)))
        for seed, by_points in cases:
            orbit = relative_weyl_orbit(rel, [seed])
            assert len(orbit) == len(by_points), rel.name
            assert orbit == {tuple(primitive_ints(z) for z in tup)
                             for tup in by_points}, rel.name


def test_ray_reflection_rescales_off_the_lattice():
    """Every preset's reflections keep the integer lattice; a pair (A, X)
    that does not is reflected through (A . X) z - 2(A . z) X and the gcd,
    and agrees with the Fraction image made primitive."""
    A, X = (2, 1), (1, 1)
    reflect_ray = _ray_reflection(A, X)
    for z in ((1, 0), (0, 1), (1, -2), (3, 5)):
        t = Q(2 * (A[0] * z[0] + A[1] * z[1]), A[0] * X[0] + A[1] * X[1])
        image = tuple(Q(c) - t * x for c, x in zip(z, X))
        assert reflect_ray(z) == primitive_ints(image)
    assert reflect_ray((1, -2)) == (1, -2)

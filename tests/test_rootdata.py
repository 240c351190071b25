"""Root systems, Weyl orbits, and relative (restricted) data."""

from fractions import Fraction as Q

import pytest

from btgit.qvec import add, dot, qvec, scale
from btgit.rootdata import (build_root_system, dominant_weight, preset_relative,
                            reflect, reflection_closure, simple_shuffles,
                            weyl_orbit, weyl_order)
from helpers import orbit_by_reflection, roots_by_reflection, weights_by_solve

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

"""Root systems, Weyl orbits, and relative (restricted) data."""

import copy
import pickle
from fractions import Fraction as Q

import pytest

from btgit import torusgit
from btgit.cli import run
from btgit.models import model_relative
from btgit.qvec import add, as_fractions, dot, primitive_ints, qvec, scale, sub
from btgit.rootdata import (RelativeDatum, UnknownGroup, _cached_relative,
                            build_root_system, dominant_weight, group_relative,
                            preset_relative, simple_shuffles, tuple_orbit,
                            weyl_orbit, weyl_order)
from btgit.torusgit import classify_regular_weights, root_hyperplanes
from helpers import (cartan_by_pairings, chamber_presets,
                     coroots_by_gram_solve, fundamental_points_by_fractions,
                     fundamental_rays, integer_layer_data, orbit_by_reflection,
                     random_rational, reflect, restrict_by_dot,
                     restricted_by_fractions, rng, roots_by_reflection,
                     to_type, weights_by_solve)

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
    assert tuple_orbit(datum, [omegas]) == orbit_by_reflection(datum, omegas)
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


def test_fractional_dual_rows_are_refused():
    """Every preset's dual rows are integral, and restrict reads them as
    integers, so a fractional row is refused rather than truncated."""
    half = Q(1, 2)
    a1 = build_root_system("A", 1)
    rel = RelativeDatum("halved", a1, ((half, -half),), a1)
    with pytest.raises(ValueError, match="integral"):
        rel.restrict((Q(1), Q(-1)))


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


def test_status_builds_no_root_table():
    """A status request reads only the restriction and the rank: the shared
    datum builds neither the absolute nor the relative roots."""
    _cached_relative.cache_clear()
    n = 40
    run("status", {"model": f"proj({n})", "point": ["1"] + ["t"] * (n - 1)})
    rel = model_relative(f"proj({n})")
    assert not {"relative_roots", "gamma", "_root_keys"} & set(rel.__dict__)
    assert "all_roots" not in rel.datum.__dict__
    assert repr(rel.datum) == f"RootDatum(family='A', rank={n - 1})"


def test_restriction_matches_fraction_oracle():
    for rel in integer_layer_data():
        roots, gamma = restricted_by_fractions(rel.datum, rel.dual_matrix)
        assert rel.relative_roots == roots, rel.name
        assert rel.gamma == gamma, rel.name
        assert rel.rank == len(rel.relative_simple) == len(rel.gram), rel.name


def test_split_a_cartan_formula_matches_pairings():
    for rank in range(1, 13):
        rel = group_relative("split", "A", rank)
        cartan = cartan_by_pairings(rel.datum)
        assert rel.relative_simple == as_fractions(cartan)
        assert rel.gram == as_fractions(cartan, 2)


# each chamber preset's relative simple roots and gram, row by row, as
# recorded when the presets stored them
SIMPLE_AND_GRAM = {
    "split_A1": ("2",
                 "1"),
    "split_A2": ("2 -1; -1 2",
                 "1 -1/2; -1/2 1"),
    "split_A3": ("2 -1 0; -1 2 -1; 0 -1 2",
                 "1 -1/2 0; -1/2 1 -1/2; 0 -1/2 1"),
    "split_A4": ("2 -1 0 0; -1 2 -1 0; 0 -1 2 -1; 0 0 -1 2",
                 "1 -1/2 0 0; -1/2 1 -1/2 0; 0 -1/2 1 -1/2; 0 0 -1/2 1"),
    "split_A5": ("2 -1 0 0 0; -1 2 -1 0 0; 0 -1 2 -1 0; 0 0 -1 2 -1; 0 0 0 -1 2",
                 "1 -1/2 0 0 0; -1/2 1 -1/2 0 0; 0 -1/2 1 -1/2 0; 0 0 -1/2 1 -1/2; "
                 "0 0 0 -1/2 1"),
    "split_A6": ("2 -1 0 0 0 0; -1 2 -1 0 0 0; 0 -1 2 -1 0 0; 0 0 -1 2 -1 0; "
                 "0 0 0 -1 2 -1; 0 0 0 0 -1 2",
                 "1 -1/2 0 0 0 0; -1/2 1 -1/2 0 0 0; 0 -1/2 1 -1/2 0 0; "
                 "0 0 -1/2 1 -1/2 0; 0 0 0 -1/2 1 -1/2; 0 0 0 0 -1/2 1"),
    "split_B2": ("1 -1; 0 1",
                 "1 0; 0 1"),
    "split_B3": ("1 -1 0; 0 1 -1; 0 0 1",
                 "1 0 0; 0 1 0; 0 0 1"),
    "split_B4": ("1 -1 0 0; 0 1 -1 0; 0 0 1 -1; 0 0 0 1",
                 "1 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1"),
    "split_C2": ("1 -1; 0 2",
                 "1 0; 0 1"),
    "split_C3": ("1 -1 0; 0 1 -1; 0 0 2",
                 "1 0 0; 0 1 0; 0 0 1"),
    "split_D2": ("1 -1; 1 1",
                 "1 0; 0 1"),
    "split_D3": ("1 -1 0; 0 1 -1; 0 1 1",
                 "1 0 0; 0 1 0; 0 0 1"),
    "split_D4": ("1 -1 0 0; 0 1 -1 0; 0 0 1 -1; 0 0 1 1",
                 "1 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1"),
    "split_D5": ("1 -1 0 0 0; 0 1 -1 0 0; 0 0 1 -1 0; 0 0 0 1 -1; 0 0 0 1 1",
                 "1 0 0 0 0; 0 1 0 0 0; 0 0 1 0 0; 0 0 0 1 0; 0 0 0 0 1"),
    "su3": ("1",
            "1"),
    "nonsplit_C2": ("2",
                    "1"),
    "nonsplit_C3": ("1",
                    "1"),
    "nonsplit_C4": ("1 -1; 0 2",
                    "1 0; 0 1"),
    "nonsplit_C5": ("1 -1; 0 1",
                    "1 0; 0 1"),
    "nonsplit_C6": ("1 -1 0; 0 1 -1; 0 0 2",
                    "1 0 0; 0 1 0; 0 0 1"),
    "nonsplit_C7": ("1 -1 0; 0 1 -1; 0 0 1",
                    "1 0 0; 0 1 0; 0 0 1"),
    "sl_skew_1_2": ("2",
                    "1"),
    "sl_skew_2_2": ("2 -1; -1 2",
                    "1 -1/2; -1/2 1"),
    "sl_skew_2_3": ("2 -1; -1 2",
                    "1 -1/2; -1/2 1"),
    "sl_skew_3_2": ("2 -1 0; -1 2 -1; 0 -1 2",
                    "1 -1/2 0; -1/2 1 -1/2; 0 -1/2 1"),
}


def _rows(text):
    return tuple(tuple(Q(x) for x in row.split()) for row in text.split(";"))


def test_relative_simple_and_gram_match_recorded_values():
    rels = chamber_presets()
    assert {rel.name for rel in rels} == set(SIMPLE_AND_GRAM)
    for rel in rels:
        simple, gram = SIMPLE_AND_GRAM[rel.name]
        assert rel.relative_simple == _rows(simple), rel.name
        assert rel.gram == _rows(gram), rel.name


def test_shuffles_are_reflections_in_gram_solved_coroots():
    """Each simple shuffle of the relative type, read through the coordinate
    maps, is z -> z - (a . z) a^vee on primal coordinates, with a the
    relative simple root and a^vee its coroot from a Fraction gram solve."""
    r = rng(2511)
    for rel in integer_layer_data():
        shuffles = simple_shuffles(rel.relative_type)
        coroots = coroots_by_gram_solve(rel)
        assert len(shuffles) == len(coroots) == rel.rank, rel.name
        points = [tuple(int(i == j) for j in range(rel.rank)) for i in range(rel.rank)]
        points += [tuple(r.randint(-9, 9) for _ in range(rel.rank)) for _ in range(20)]
        for z in points:
            x = to_type(rel, z)
            assert len(x) == rel.relative_type.ambient_dim, rel.name
            assert rel._from_type(x) == z, rel.name
            for f, a, coroot in zip(shuffles, rel.relative_simple, coroots):
                got = rel._from_type(f(x))
                assert all(type(c) is int for c in got), rel.name
                assert qvec(got) == sub(qvec(z), scale(dot(a, qvec(z)), coroot)), rel.name


def _hyperplane_count(t):
    """The number of root hyperplanes of a relative type by formula: the
    orbits of its fundamental rays, up to sign."""
    l = t.rank
    if t.family == "A":
        return 2 ** l - 1
    if t.family == "D":
        return (3 ** l - 1 - l * 2 ** (l - 1)) // 2
    return (3 ** l - 1) // 2


def test_root_hyperplane_counts_match_formula():
    rels = chamber_presets() + [group_relative("split", f, l)
                                for f, l in (("A", 8), ("B", 6), ("D", 6))]
    for rel in rels:
        assert len(root_hyperplanes(rel)) == _hyperplane_count(rel.relative_type), rel.name


def test_chamber_count_is_the_relative_weyl_order():
    for rel in chamber_presets():
        chambers = rel.nonnegative_chambers((0,) * rel.rank)
        assert len(chambers) == weyl_order(rel.relative_type), rel.name


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
    """The fundamental rays, read through RelativeDatum._from_type, are the
    Fraction fundamental points, solved from relative_simple alone, made
    primitive, in order; the oracles start their Fraction orbits from those
    points (test_root_hyperplanes_match_fraction_oracle and
    test_chamber_rays_and_p_chi_data_match_fraction_oracle compare the
    orbits' lines and chambers)."""
    for rel in integer_layer_data():
        rays = fundamental_rays(rel)
        points = fundamental_points_by_fractions(rel)
        assert [tuple(primitive_ints(z)) for z in points] == rays


def test_weyl_tables_are_kept_per_datum(monkeypatch):
    """A datum that has built its Weyl tables and a fresh equal one answer
    alike; a datum with built tables round-trips through pickle and
    deepcopy; and no caller can change a kept table through an answer."""
    tables = {"_root_lines", "_chamber_lines", "_dual_ints", "_root_keys",
              "relative_roots", "gamma", "relative_simple", "gram"}
    datum_tables = {"simple_roots", "all_roots", "fundamental_weights"}
    for family, rank in (("A", 3), ("B", 3), ("C", 2), ("D", 4)):
        J = list(range(1, rank + 1, 2))
        built = group_relative("split", family, rank)
        answer = classify_regular_weights(family, rank, J)
        zero = (0,) * built.rank
        built.nonnegative_chambers(zero)
        assert built.gamma and built.datum.all_roots
        assert built.relative_simple and built.gram
        assert tables <= set(built.__dict__), family
        assert datum_tables <= set(built.datum.__dict__), family
        fresh = preset_relative("split", datum=build_root_system(family, rank))
        assert fresh is not built and not tables & set(fresh.__dict__)
        assert "all_roots" not in fresh.datum.__dict__
        assert fresh == built and hash(fresh) == hash(built)
        assert repr(fresh) == repr(built)
        for rel in (fresh, pickle.loads(pickle.dumps(built)), copy.deepcopy(built)):
            assert rel == built and repr(rel) == repr(built)
            assert rel.gamma == built.gamma
            assert (rel.relative_simple, rel.gram) == (built.relative_simple, built.gram)
            assert rel.datum.all_roots == built.datum.all_roots
            assert root_hyperplanes(rel) == root_hyperplanes(built)
            assert rel.nonnegative_chambers(zero) == built.nonnegative_chambers(zero)
            assert fundamental_rays(rel) == fundamental_rays(built)
        with monkeypatch.context() as m:
            m.setattr(torusgit, "group_relative", lambda *args: fresh)
            assert classify_regular_weights(family, rank, J) == answer
        chambers = built.nonnegative_chambers(zero)
        chambers.clear()
        assert built.nonnegative_chambers(zero) == fresh.nonnegative_chambers(zero)

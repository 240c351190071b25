"""Point models: validation, weights, group actions, parabolic membership."""

import json
from fractions import Fraction as Q
from itertools import combinations

import pytest
from helpers import (determinant_by_permutations,
                     plucker_relations_by_all_subsets, random_element,
                     random_grass24_point, random_proj_point, random_sl3_flag,
                     random_sp4_flag, random_su3_pair, rng)

from btgit import cli, models
from btgit.cli import main, run
from btgit.interval import destabilizing_1ps
from btgit.models import (_FIXED_MODELS, ModelPoint, UnknownModel, _plucker,
                          _plucker_relations_hold, act, adjugate, determinant,
                          make_point, model_relative, model_spec,
                          p_epsilon_member, project, symplectic_form,
                          weighted_coordinates)
from btgit.qvec import dot
from btgit.rootdata import build_root_system, group_relative, preset_relative
from btgit.torusgit import mu_K, stability_status
from btgit.valfield import ONE, ZERO, PuiseuxElement

P = PuiseuxElement
t = P.t_power(1)
th = P.t_power(Q(1, 2))


def test_model_table_tells_unknown_from_malformed_names():
    for name in ("flag(7)", "sp4_linex", "projx(2)", "proj"):
        with pytest.raises(UnknownModel):
            model_spec(name)
    for name in ("grass(x,4)", "proj(2", "grass(2)", "grass(2,4", "proj(1,2)"):
        with pytest.raises(ValueError) as info:
            model_spec(name)
        assert not isinstance(info.value, UnknownModel)


def test_model_tables_are_built_once_per_name(monkeypatch):
    names = (list(_FIXED_MODELS) + [f"proj({n})" for n in range(2, 8)]
             + [f"grass({j},{n})" for n in range(2, 7) for j in range(1, n)])
    for name in names:
        spec = model_spec(name)
        assert model_spec(name) is spec
        fresh = model_spec.__wrapped__(name)
        assert fresh == spec and fresh is not spec
        assert spec.defining_weights == fresh.defining_weights, name
        assert spec.factor_weights == fresh.factor_weights, name
        assert spec.factor_weights is spec.factor_weights
        assert all(type(a) is Q for ws in spec.factor_weights
                   for w in ws for a in w)
    # proj(n) and grass(j,n) make the names unbounded, so the cache is bounded
    maxsize = model_spec.cache_info().maxsize
    assert maxsize is not None and len(names) > maxsize
    assert model_spec.cache_info().currsize == maxsize
    # a refused name is refused again, not kept
    for name in ("flag(7)", "grass(2)", "proj(1)"):
        for _ in range(2):
            with pytest.raises(ValueError):
                model_spec(name)
    # points and their weights read the kept tables
    model_spec.cache_clear()
    built = []
    weigh = models._weigh
    monkeypatch.setattr(models, "_weigh",
                        lambda how, *rest: built.append(how) or weigh(how, *rest))
    for _ in range(3):
        weighted_coordinates(make_point("grass(2,5)", [[ONE, t, ZERO, ONE, th],
                                                      [ZERO, ONE, t, t, ONE]]))
        weighted_coordinates(make_point("sl3_flag", [[ONE, t, ONE],
                                                     [ONE, ONE, -ONE - t]]),
                             lam=(1, 1))
    assert built == ["wedge", "defining", "dual"]


def test_model_relative_is_one_datum_per_group(monkeypatch):
    # equal names, and models of one group, share one datum
    assert model_relative("proj(3)") is model_relative("proj(3)")
    assert model_relative("proj(3)") is model_relative("sl3_flag")
    assert model_relative("su3_pair") is model_relative("su3_pair")
    assert model_relative("grass(2,4)") is model_relative("proj(4)")
    assert model_relative("proj(2)") is not model_relative("proj(3)")
    # every call form of one group reaches the same datum
    su3 = group_relative("su3")
    assert su3 is group_relative("su3", None, None, None, None)
    assert su3 is group_relative(preset="su3")
    assert su3 is preset_relative("su3") is model_relative("su3_pair")
    assert group_relative("split", "A", 2) is group_relative(
        family="A", rank=2)
    read = []
    hyperplanes = cli.root_hyperplanes
    monkeypatch.setattr(cli, "root_hyperplanes",
                        lambda rel: read.append(rel) or hyperplanes(rel))
    run("rootsys", {"family": "A", "rank": 2})
    assert len(read) == 1 and read[0] is model_relative("proj(3)")
    # a given split datum is restricted afresh
    fresh = preset_relative("split", datum=build_root_system("C", 2))
    assert model_relative("sp4_line") == fresh
    assert model_relative("sp4_line") is not fresh


def test_grass_rows_to_plucker():
    p = make_point("grass(2,4)", [(ONE, ZERO, ZERO, ONE), (ZERO, ONE, ONE, ZERO)])
    assert p.data[0] == (ONE, ONE, ZERO, ZERO, -ONE, -ONE)


def test_su3_pair_example_is_valid():
    make_point("su3_pair", ((ONE, th, ONE), (ONE, th, t - ONE)))


def test_grass_relation_violation():
    with pytest.raises(ValueError):
        make_point("grass(2,4)", [ONE, ZERO, ZERO, ZERO, ZERO, ONE])


def test_sp4_flag_requires_isotropic_span():
    with pytest.raises(ValueError):
        make_point("sp4_flag", [(ONE, ZERO, ZERO, ZERO), (ZERO, ZERO, ZERO, ONE)])
    with pytest.raises(ValueError):
        make_point("sp4_flag", [(ONE, ZERO, ZERO, ZERO), (t, ZERO, ZERO, ZERO)])


def test_model_point_json_round_trip():
    r = rng(59)
    for sampler in (lambda: random_proj_point(r, 3),
                    lambda: random_grass24_point(r),
                    lambda: random_sp4_flag(r),
                    lambda: random_su3_pair(r),
                    lambda: random_sl3_flag(r)):
        for _ in range(5):
            p = sampler()
            assert ModelPoint.from_json(p.to_json()) == p


@pytest.mark.parametrize("j,n", [(2, 5), (3, 5), (3, 6)])
def test_grass_minors_round_trip_and_perturbation(tmp_path, capsys, j, n):
    r = rng(67 + 10 * j + n)
    model = f"grass({j},{n})"
    for _ in range(3):
        rows = [[random_element(r, max_terms=2, nonzero=True).to_json() for _ in range(n)]
                for _ in range(j)]
        doc = run("models", {"model": model, "point": rows})["point"]
        p = ModelPoint.from_json(doc)
        assert p.to_json() == doc
        minors = list(p.data[0])
        k = next(i for i, c in enumerate(minors) if c)
        minors[k] = minors[k] + ONE
        with pytest.raises(ValueError):
            make_point(model, minors)
        req = tmp_path / "req.json"
        req.write_text(json.dumps({"model": model, "point": [c.to_json() for c in minors]}))
        assert main(["--command", "models", "--in", str(req)]) == 2
        assert capsys.readouterr().out == ""


def test_plucker_check_matches_every_relation():
    # the relations through one nonzero minor decide as all of them do, on
    # points of the Grassmannian, on points with zero minors, and off it
    r = rng(71)
    verdicts = []
    for j, n in ((1, 3), (2, 4), (2, 5), (3, 5), (3, 6)):
        for _ in range(6):
            rows = [[random_element(r, max_terms=1, lo=0, hi=1) for _ in range(n)]
                    for _ in range(j)]
            try:
                minors = list(make_point(f"grass({j},{n})", rows).data[0])
            except ValueError:  # rows of rank < j
                continue
            for k in r.sample(range(len(minors)), 3):
                changed = list(minors)
                changed[k] = changed[k] + random_element(r, max_terms=1, nonzero=True)
                for vec in (minors, changed):
                    want = plucker_relations_by_all_subsets(vec, j, n)
                    assert _plucker_relations_hold(tuple(vec), j, n) == want, (j, n, vec)
                    verdicts.append((vec is changed, want))
    assert set(verdicts) == {(False, True), (True, True), (True, False)}


def _sparse_matrix(r, rows, cols, max_terms=2):
    """Random Puiseux entries, about a third of them zero."""
    return [[ZERO if r.random() < 0.3 else
             random_element(r, max_terms=max_terms, nonzero=True)
             for _ in range(cols)] for _ in range(rows)]


def _oracle_minors(rows, j, n):
    return tuple(determinant_by_permutations([[row[c] for c in cols] for row in rows])
                 for cols in combinations(range(n), j))


def test_minors_match_permutation_oracle():
    r = rng(107)
    for _ in range(30):
        n = r.randint(1, 6)
        m = _sparse_matrix(r, n, n)
        det = determinant_by_permutations(m)
        assert determinant(m) == det
        adj = adjugate(m)
        for i in range(n):
            for k in range(n):
                entry = sum((m[i][l] * adj[l][k] for l in range(n)), ZERO)
                assert entry == (det if i == k else ZERO), (m, i, k)
    for _ in range(20):
        n = r.randint(1, 6)
        j = r.randint(1, n)
        rows = _sparse_matrix(r, j, n)
        assert _plucker(rows, j, n) == _oracle_minors(rows, j, n)
    for j, n in ((2, 4), (3, 6)):
        subsets = list(combinations(range(n), j))
        for _ in range(2):
            # a product of unitriangular matrices has determinant one
            lower = _sparse_matrix(r, n, n, max_terms=1)
            upper = _sparse_matrix(r, n, n, max_terms=1)
            for a in range(n):
                lower[a][a] = upper[a][a] = ONE
                for b in range(a):
                    lower[b][a] = upper[a][b] = ZERO
            g = [[sum((lower[a][k] * upper[k][b] for k in range(n)), ZERO)
                  for b in range(n)] for a in range(n)]
            while True:
                try:
                    p = make_point(f"grass({j},{n})",
                                   _sparse_matrix(r, j, n, max_terms=1))
                    break
                except ValueError:  # rows of rank < j
                    continue
            # the exterior power of g has the j x j minors of g as entries
            wedge = [_oracle_minors([g[a] for a in rows_idx], j, n) for rows_idx in subsets]
            want = tuple(sum((x * c for x, c in zip(row, p.data[0])), ZERO)
                         for row in wedge)
            assert act(g, p).data[0] == want


def test_weighted_coordinates_examples():
    p = make_point("proj(2)", (ONE, th))
    wp = weighted_coordinates(p)
    assert [(w, c) for w, _, c in wp.entries] == \
        [((Q(1), Q(0)), ONE), ((Q(0), Q(1)), th)]
    g = random_grass24_point(rng(61))
    assert len(weighted_coordinates(g).entries) == 6
    f = random_sp4_flag(rng(67))
    second = weighted_coordinates(f, factor=2)
    weights = {w for w, _, _ in second.entries}
    assert (Q(0), Q(0)) in {model_relative("sp4_flag").restrict(w)
                            for w in weights}
    assert len(second.entries) == 5


def test_weighted_coordinates_product_matches_direct_powers():
    a, b = 3, 2
    for r, sampler in ((rng(71), random_sl3_flag), (rng(73), random_su3_pair),
                       (rng(79), random_sp4_flag)):
        for _ in range(3):
            p = sampler(r)
            first = weighted_coordinates(p, factor=1).entries
            second = weighted_coordinates(p, factor=2).entries
            want = [(tuple(a * x + b * y for x, y in zip(w1, w2)),
                     c1 * c1 * c1 * c2 * c2)
                    for w1, _, c1 in first for w2, _, c2 in second]
            got = weighted_coordinates(p, lam=(a, b)).entries
            assert [(w, c) for w, _, c in got] == want
            assert [k for _, k, _ in got] == list(range(len(want)))


def test_act_unipotent_on_p1():
    x = make_point("proj(2)", (ONE, ONE + th))
    g = ((ONE, ZERO), (-ONE, ONE))
    assert act(g, x).data[0] == (ONE, th)
    ident = ((ONE, ZERO), (ZERO, ONE))
    assert act(ident, x) == x


def test_act_requires_determinant_one():
    x = make_point("proj(2)", (ONE, t))
    with pytest.raises(ValueError):
        act(((P.const(2), ZERO), (ZERO, ONE)), x)


def test_act_preserves_grass_relation():
    r = rng(71)
    for _ in range(10):
        p = random_grass24_point(r)
        g = [[ONE, random_monomial_or_zero(r), ZERO, ZERO],
             [ZERO, ONE, ZERO, ZERO],
             [ZERO, ZERO, ONE, random_monomial_or_zero(r)],
             [ZERO, ZERO, ZERO, ONE]]
        q = act(g, p)
        c = q.data[0]
        assert c[0] * c[5] - c[1] * c[4] + c[2] * c[3] == ZERO


def random_monomial_or_zero(r):
    if r.random() < 0.3:
        return ZERO
    return P.monomial(r.randint(1, 3), r.randint(0, 2))


def test_act_preserves_sp4_form():
    r = rng(73)
    for _ in range(10):
        p = random_sp4_flag(r)
        f = random_monomial_or_zero(r)
        # root-group elements for the form pairing indices (0,3) and (1,2)
        long_root = [[ONE, ZERO, ZERO, f],
                     [ZERO, ONE, ZERO, ZERO],
                     [ZERO, ZERO, ONE, ZERO],
                     [ZERO, ZERO, ZERO, ONE]]
        short_root = [[ONE, f, ZERO, ZERO],
                      [ZERO, ONE, ZERO, ZERO],
                      [ZERO, ZERO, ONE, -f],
                      [ZERO, ZERO, ZERO, ONE]]
        for g in (long_root, short_root):
            q = act(g, p)
            assert symplectic_form(q.data[0], q.data[1]) == ZERO


def test_act_su3_preserves_relation():
    r = rng(79)
    # signed permutation matrices of determinant one are unitary for the form
    mats = [
        ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)),
        ((ZERO, ONE, ZERO), (ZERO, ZERO, ONE), (ONE, ZERO, ZERO)),
        ((ZERO, -ONE, ZERO), (ONE, ZERO, ZERO), (ZERO, ZERO, ONE)),
    ]
    for _ in range(10):
        p = random_su3_pair(r)
        for g in mats:
            q = act(g, p)
            s = ZERO
            for a, b in zip(q.data[0], q.data[1]):
                s = s + a * b.tau_twist()
            assert s == ZERO


def test_act_su3_rejects_non_unitary():
    p = random_su3_pair(rng(83))
    shear = ((ONE, ONE, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE))
    with pytest.raises(ValueError):
        act(shear, p)


def test_p_epsilon_member_examples():
    rel = model_relative("proj(2)")
    eps = (Q(-1),)
    lower = ((ONE, ZERO), (ONE, ONE))
    upper = ((ONE, ONE), (ZERO, ONE))
    ident = ((ONE, ZERO), (ZERO, ONE))
    assert p_epsilon_member(lower, eps, "proj(2)", rel)
    assert not p_epsilon_member(upper, eps, "proj(2)", rel)
    assert p_epsilon_member(ident, eps, "proj(2)", rel)
    assert p_epsilon_member(ident, (Q(5),), "proj(2)", rel)


def test_project_examples():
    r = rng(89)
    f = random_sp4_flag(r)
    line = project(f, 1)
    assert line.model == "sp4_line" and line.data[0] == f.data[0]
    quad = project(f, 2)
    c = quad.data[0]
    assert c[0] * c[3] - c[1] * c[2] - c[4] * c[4] == ZERO
    with pytest.raises(ValueError):
        project(f, 3)


def test_project_equivariant_under_torus():
    r = rng(97)
    s = [[t, ZERO, ZERO, ZERO], [ZERO, ONE, ZERO, ZERO],
         [ZERO, ZERO, ONE, ZERO], [ZERO, ZERO, ZERO, P.t_power(-1)]]
    # plane coordinates scale by the first torus coordinate with these exponents
    exps = (1, 1, -1, -1, 0)
    for _ in range(5):
        f = random_sp4_flag(r)
        left = project(act(s, f), 2).data[0]
        base = project(f, 2).data[0]
        for k, e in enumerate(exps):
            assert left[k] == P.t_power(e) * base[k]


def test_instability_persists_under_parabolic_unipotents():
    r = rng(101)
    rel = model_relative("proj(3)")
    count = 0
    while count < 50:
        p = random_proj_point(r, 3)
        wp = weighted_coordinates(p)
        if stability_status(wp, rel) != "unstable":
            continue
        eps = destabilizing_1ps(wp, rel)
        # keep only strictly destabilized samples: eps < 0 on every vertex
        if any(dot(v, eps) >= 0 for v in mu_K(wp, rel).points):
            continue
        lam = tuple(-a for a in eps)
        # constant-entry unipotents in P(lam) can only raise support pairings
        i, j = r.sample(range(3), 2)
        g = [[ONE if a == b else ZERO for b in range(3)] for a in range(3)]
        g[i][j] = P.const(r.randint(1, 3))
        if not p_epsilon_member(g, lam, "proj(3)", rel):
            continue
        moved = weighted_coordinates(act(g, p))
        assert stability_status(moved, rel) == "unstable"
        count += 1

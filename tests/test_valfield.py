"""Field arithmetic: exactness, valuations, twists, and serialization."""

from fractions import Fraction as Q

import pytest
from helpers import (puiseux_by_dict_merge, random_element, random_monomial,
                     random_rational, rng)

from btgit.valfield import (INF, ONE, ZERO, PuiseuxElement, format_rational,
                            parse_puiseux, parse_rational)

P = PuiseuxElement
t = P.t_power(1)
th = P.t_power(Q(1, 2))


def test_product_difference_of_squares():
    assert (ONE + t) * (ONE - t) == ONE - P.t_power(2)


def test_sum_cancellation():
    assert (t + th) + (-th) == t


def test_product_exponent_addition():
    assert P.monomial(2, Q(1, 2)) * P.monomial(3, Q(1, 2)) == P.monomial(6, 1)


def test_valuation_examples():
    assert (P.monomial(2, Q(1, 2)) + P.monomial(3, 1)).valuation() == Q(1, 2)
    assert ZERO.valuation() == INF
    assert ((ONE + t) * (ONE - t)).valuation() == 0


def test_monomial_div_examples():
    assert (t + P.t_power(2)).monomial_div(1, 1) == ONE + t
    assert P.monomial(6, Q(3, 2)).monomial_div(2, 1) == P.monomial(3, Q(1, 2))
    assert ZERO.monomial_div(5, 2) == ZERO


def test_residue_examples():
    assert (P.const(3) + P.t_power(Q(1, 3))).residue() == 3
    assert th.residue() == 0
    with pytest.raises(ValueError):
        P.t_power(-1).residue()


def test_tau_twist_examples():
    assert (ONE + th + t).tau_twist() == ONE - th + t
    assert (t - ONE).tau_twist() == t - ONE
    a = P.monomial(2, Q(1, 2))
    assert a.tau_twist().tau_twist() == a
    with pytest.raises(ValueError):
        P.t_power(Q(1, 3)).tau_twist()


def test_truncate_drops_high_exponents():
    a = ONE + th + t + P.t_power(2)
    assert a.truncate(1) == ONE + th
    assert a.truncate(Q(1, 2)) == ONE


def test_ring_axioms_on_random_triples():
    r = rng(11)
    for _ in range(1000):
        a = random_element(r, denom=3)
        b = random_element(r, denom=3)
        c = random_element(r, denom=3)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_valuation_is_multiplicative_and_ultrametric():
    r = rng(13)
    for _ in range(1000):
        a = random_element(r, denom=4)
        b = random_element(r, denom=4)
        if a and b:
            assert (a * b).valuation() == a.valuation() + b.valuation()
        s = a + b
        if s:
            assert s.valuation() >= min(a.valuation(), b.valuation())


def test_truncated_inverse_precision_guarantee():
    r = rng(17)
    for _ in range(200):
        a = random_element(r, denom=2, nonzero=True)
        for prec in (Q(1), Q(3), Q(7, 2)):
            inv = a.truncated_inverse(prec)
            err = a * inv - ONE
            assert (not err) or err.valuation() >= prec - a.valuation()


def test_json_round_trip():
    r = rng(19)
    for _ in range(100):
        a = random_element(r, denom=6)
        assert P.from_json(a.to_json()) == a


def test_rational_codec():
    assert format_rational(Q(3, 6)) == "1/2"
    assert format_rational(INF) == "inf"
    assert parse_rational("-7/2") == Q(-7, 2)
    assert parse_rational("inf") == INF


def test_parse_puiseux_strings():
    assert parse_puiseux("1 + t^{1/2}") == ONE + th
    assert parse_puiseux("2*t^3/2 - 1/3") == P.monomial(2, Q(3, 2)) - P.const(Q(1, 3))
    assert parse_puiseux("0") == ZERO
    with pytest.raises(ValueError):
        parse_puiseux("nonsense")


def _is_canonical(terms) -> bool:
    """Strictly increasing Fraction exponents, nonzero Fraction coefficients."""
    return (all(type(q) is Q and type(c) is Q and c != 0 for q, c in terms)
            and all(a[0] < b[0] for a, b in zip(terms, terms[1:])))


def _operand_pairs(seed: int, count: int):
    """Seeded operand pairs: zero, equal, one-term and cancelling operands
    besides generic ones."""
    r = rng(seed)
    for i in range(count):
        a = random_element(r, max_terms=5, denom=r.choice((1, 2, 3, 6)))
        kind = i % 5
        if kind == 0:
            b = ZERO
        elif kind == 1:
            b = a
        elif kind == 2:
            b = random_monomial(r)
        elif kind == 3:
            # the negatives of some of a's terms: sums cancel at those exponents
            keep = r.randint(0, len(a.terms))
            b = P([(q, -c) for q, c in a.terms[:keep]]
                  + list(random_element(r, denom=2).terms))
        else:
            b = random_element(r, max_terms=5, denom=r.choice((1, 2, 3)))
        yield a, b


def _oracle_inverse(a, precision):
    """truncated_inverse's geometric series in dict-merge arithmetic."""
    q0, c0 = a.terms[0]
    minus_u = puiseux_by_dict_merge([(0, 1)]
                                    + [(q - q0, -c / c0) for q, c in a.terms])
    bound = precision - q0
    inv = acc = ((Q(0), Q(1)),)
    while True:
        acc = tuple((q, c) for q, c in puiseux_by_dict_merge(
            (qa + qb, ca * cb) for qa, ca in acc for qb, cb in minus_u)
            if q < bound)
        if not acc:
            return puiseux_by_dict_merge((q - q0, c / c0) for q, c in inv)
        inv = puiseux_by_dict_merge(inv + acc)


def test_arithmetic_matches_dict_merge_oracle():
    r = rng(29)
    for a, b in _operand_pairs(23, 500):
        assert _is_canonical(a.terms) and _is_canonical(b.terms)
        for x, y in ((a, b), (b, a)):
            coef, expo, cut = (random_rational(r) for _ in range(3))
            cases = [
                (x + y, x.terms + y.terms),
                (x - y, x.terms + tuple((q, -c) for q, c in y.terms)),
                (-x, [(q, -c) for q, c in x.terms]),
                (x * y, [(qa + qb, ca * cb)
                         for qa, ca in x.terms for qb, cb in y.terms]),
                (x.truncate(cut), [(q, c) for q, c in x.terms if q < cut]),
            ]
            if coef:
                cases.append((x.monomial_div(coef, expo),
                              [(q - expo, c / coef) for q, c in x.terms]))
            if x.in_half_lattice():
                cases.append((x.tau_twist(),
                              [(q, -c if q.denominator == 2 else c)
                               for q, c in x.terms]))
            for got, pairs in cases:
                assert got.terms == puiseux_by_dict_merge(pairs)
                assert _is_canonical(got.terms)
            if x:
                prec = Q(r.randint(-2, 8), 2)
                got = x.truncated_inverse(prec)
                assert got.terms == _oracle_inverse(x, prec)
                assert _is_canonical(got.terms)


def test_equality_and_hash_ignore_input_order():
    r = rng(31)
    for a, b in _operand_pairs(37, 200):
        for x in (a + b, a - b, a * b, a - a):
            # split every coefficient in two, add pairs that cancel, shuffle
            pairs = [(q, c - 1) for q, c in x.terms] + [(q, 1) for q, _ in x.terms]
            pairs += [(Q(k, 3), s) for k in range(3) for s in (2, -2)]
            r.shuffle(pairs)
            y = P(pairs)
            assert _is_canonical(y.terms)
            assert y == x and hash(y) == hash(x)


def test_shift_matches_product_by_t_power():
    r = rng(83)
    for _ in range(300):
        x = random_element(r)
        q = random_rational(r) if r.random() < 0.7 else r.randint(-3, 3)
        got = x.shift(q)
        assert got == x * P.t_power(q)
        assert _is_canonical(got.terms)
        assert got.shift(-q) == x


def test_first_power_is_the_element():
    r = rng(89)
    for _ in range(50):
        x = random_element(r)
        assert x ** 1 == x and x ** 1 is x
        assert x ** 0 == ONE and x ** 2 == x * x

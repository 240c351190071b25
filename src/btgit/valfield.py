"""Exact arithmetic in a computable dense subfield of the working valued field.

Elements are finite formal sums sum_i c_i * t^{q_i} with rational coefficients
and rational exponents.  The valuation of a nonzero element is its smallest
exponent; the base local field consists of the elements whose exponents are
all integers, with uniformizer t of valuation 1 and residue field Q.

Every element keeps its terms in one canonical form: exponents strictly
increase, every exponent and coefficient is a `Fraction`, and no coefficient
is zero.  Only outside input is canonicalised, by the public constructor
`PuiseuxElement(terms)`, which merges repeated exponents and sorts.  The
ring operations build their results in canonical form directly (sums as one
linear merge of two sorted term tuples) and wrap them with `_canonical`.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction as Q
from operator import itemgetter
from typing import Iterable, List, Sequence, Tuple, Union

Rational = Union[int, Q]

INF = float("inf")  # distinguished value of the valuation of 0


def _q(x: Rational) -> Q:
    return x if isinstance(x, Q) else Q(x)


Terms = Tuple[Tuple[Q, Q], ...]


class PuiseuxElement:
    """A finite sum of rational powers of t, kept in canonical form.

    `terms` holds (exponent, coefficient) pairs of `Fraction`s with strictly
    increasing exponents and nonzero coefficients.  The constructor accepts
    any iterable of rational pairs, in any order and with repeats, and
    canonicalises it; results of arithmetic come from `_canonical` instead.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Tuple[Rational, Rational]] = ()):
        merged: dict = {}
        for q, c in terms:
            q = _q(q)
            c = merged.get(q, Q(0)) + _q(c)
            merged[q] = c
        self.terms: Terms = tuple(
            (q, c) for q, c in sorted(merged.items()) if c != 0
        )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "PuiseuxElement":
        return PuiseuxElement()

    @staticmethod
    def one() -> "PuiseuxElement":
        return PuiseuxElement([(0, 1)])

    @staticmethod
    def const(c: Rational) -> "PuiseuxElement":
        return PuiseuxElement([(0, c)])

    @staticmethod
    def monomial(c: Rational, q: Rational) -> "PuiseuxElement":
        return PuiseuxElement([(q, c)])

    @staticmethod
    def t_power(q: Rational) -> "PuiseuxElement":
        return PuiseuxElement([(q, 1)])

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "PuiseuxElement") -> "PuiseuxElement":
        return _canonical(_merge(self.terms, other.terms))

    def __neg__(self) -> "PuiseuxElement":
        return _canonical(tuple((q, -c) for q, c in self.terms))

    def __sub__(self, other: "PuiseuxElement") -> "PuiseuxElement":
        return _canonical(_merge(self.terms,
                                 tuple((q, -c) for q, c in other.terms)))

    def __mul__(self, other: "PuiseuxElement") -> "PuiseuxElement":
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return ZERO
        # one row per term of the shorter operand: the longer one shifted by
        # its exponent and scaled by its coefficient, so already sorted
        out: Terms = ()
        for qa, ca in a:
            out = _merge(out, tuple((qa + qb, ca * cb) for qb, cb in b))
        return _canonical(out)

    def __pow__(self, n: int) -> "PuiseuxElement":
        if n < 0:
            raise ValueError("negative powers are not supported")
        if n == 1:
            return self
        out = PuiseuxElement.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PuiseuxElement) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({c})t^({q})" for q, c in self.terms)

    # -- valuation-theoretic structure --------------------------------------

    def valuation(self):
        """Smallest exponent, or INF for the zero element."""
        if not self.terms:
            return INF
        return self.terms[0][0]

    def leading_coefficient(self) -> Q:
        if not self.terms:
            raise ValueError("the zero element has no leading coefficient")
        return self.terms[0][1]

    def coefficient_at(self, q: Rational) -> Q:
        q = _q(q)
        for qq, c in self.terms:
            if qq == q:
                return c
        return Q(0)

    def monomial_div(self, c: Rational, q: Rational) -> "PuiseuxElement":
        """Exact division by the monomial c * t^q; c must be nonzero."""
        c = _q(c)
        if c == 0:
            raise ValueError("division by a zero monomial")
        q = _q(q)
        return _canonical(tuple((qq - q, cc / c) for qq, cc in self.terms))

    def shift(self, q: Rational) -> "PuiseuxElement":
        """The product by t^q: every exponent moved by q, coefficients kept."""
        q = _q(q)
        if not q:
            return self
        return _canonical(tuple((qq + q, c) for qq, c in self.terms))

    def residue(self) -> Q:
        """Image in the residue field; requires valuation >= 0."""
        if self.terms and self.terms[0][0] < 0:
            raise ValueError("residue of an element of negative valuation")
        return self.coefficient_at(0)

    def truncate(self, q: Rational) -> "PuiseuxElement":
        """Drop every term whose exponent is >= q."""
        terms = self.terms
        k = bisect_left(terms, _q(q), key=_exponent)
        return self if k == len(terms) else _canonical(terms[:k])

    def is_base(self) -> bool:
        """Whether the element lies in the base field (integer exponents)."""
        return all(q.denominator == 1 for q, _ in self.terms)

    def in_half_lattice(self) -> bool:
        return all(q.denominator in (1, 2) for q, _ in self.terms)

    def tau_twist(self) -> "PuiseuxElement":
        """The order-2 automorphism t^{1/2} -> -t^{1/2}; exponents must lie in (1/2)Z."""
        if not self.in_half_lattice():
            raise ValueError("tau twist needs exponents in (1/2)Z")
        return _canonical(tuple((q, -c if q.denominator == 2 else c)
                                for q, c in self.terms))

    def truncated_inverse(self, precision: Rational) -> "PuiseuxElement":
        """Inverse of a nonzero element, correct modulo t^precision.

        Uses the geometric series on the unit part; the result r satisfies
        v(self * r - 1) >= precision - v(self) ... enough for disc images.
        """
        if not self.terms:
            raise ValueError("inverse of zero")
        precision = _q(precision)
        q0, c0 = self.terms[0]
        # self = c0 t^{q0} (1 + u) with v(u) > 0
        minus_u = ONE - self.monomial_div(c0, q0)
        inv = ONE
        acc = ONE
        bound = precision - q0  # exponents of the unit-part inverse we need
        while True:
            acc = (acc * minus_u).truncate(bound)
            if not acc:
                break
            inv = inv + acc
        return inv.monomial_div(c0, q0)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> List[List[str]]:
        return [[format_rational(q), format_rational(c)] for q, c in self.terms]

    @staticmethod
    def from_json(data: Sequence[Sequence[str]]) -> "PuiseuxElement":
        return PuiseuxElement((parse_rational(q), parse_rational(c)) for q, c in data)


_exponent = itemgetter(0)


def _canonical(terms: Terms) -> PuiseuxElement:
    """Wrap a term tuple that is already in canonical form, unchecked."""
    out = object.__new__(PuiseuxElement)
    out.terms = terms
    return out


def _merge(a: Terms, b: Terms) -> Terms:
    """Canonical terms of the sum of two canonical term tuples: one pass over
    both, dropping the coefficients that cancel."""
    if not (a and b):
        return a or b
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        qa, ca = a[i]
        qb, cb = b[j]
        if qa < qb:
            out.append(a[i])
            i += 1
        elif qb < qa:
            out.append(b[j])
            j += 1
        else:
            c = ca + cb
            if c:
                out.append((qa, c))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def format_rational(x) -> str:
    """Encode a rational (or INF) as a lowest-terms "p/q" or integer string."""
    if not isinstance(x, Q):
        if x == INF:
            return "inf"
        x = Q(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str):
    if s == "inf":
        return INF
    if "/" in s:
        p, q = s.split("/")
        return Q(int(p), int(q))
    return Q(int(s))


_TERM = re.compile(
    r"^(?:(?P<coef>-?\d+(?:/\d+)?)\s*\*?\s*)?"
    r"(?:t(?:\^(?:\{(?P<bexp>-?\d+(?:/\d+)?)\}|(?P<exp>-?\d+(?:/\d+)?)))?)?$"
)


def parse_puiseux(s) -> PuiseuxElement:
    """Parse "2*t^{1/2} - t + 3" style strings (also plain ints) into elements."""
    if isinstance(s, PuiseuxElement):
        return s
    if isinstance(s, int):
        return PuiseuxElement.const(s)
    text = str(s).replace(" ", "")
    if text in ("", "0"):
        if text == "0":
            return PuiseuxElement.zero()
        raise ValueError("empty element string")
    if text[0] not in "+-":
        text = "+" + text
    # signed terms; a +/- inside an exponent always follows ^, { or (
    pieces = re.findall(r"([+-])((?:[^+\-]|(?<=[\^{(])[+-])+)", text)
    if "".join(sign + term for sign, term in pieces) != text:
        raise ValueError(f"cannot parse element {s!r}")
    pairs = []
    for sign, term in pieces:
        m = _TERM.match(term)
        if not m:
            raise ValueError(f"cannot parse term {term!r}")
        coef = Q(1) if m.group("coef") is None else parse_rational(m.group("coef"))
        if "t" in term:
            expo = m.group("bexp") or m.group("exp")
            q = Q(1) if expo is None else parse_rational(expo)
        else:
            if m.group("coef") is None:
                raise ValueError(f"cannot parse term {term!r}")
            q = Q(0)
        pairs.append((q, -coef if sign == "-" else coef))
    return PuiseuxElement(pairs)


ZERO = PuiseuxElement.zero()
ONE = PuiseuxElement.one()
T = PuiseuxElement.t_power(1)

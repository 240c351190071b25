"""Small exact-rational vector helpers shared across modules."""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd
from typing import Iterable, Sequence, Tuple

Vector = Tuple[Q, ...]

_ZERO = Q(0)


def qvec(xs: Iterable) -> Vector:
    return tuple(x if isinstance(x, Q) else Q(x) for x in xs)


def dot(x: Vector, y: Vector) -> Q:
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return _sum_of_products(zip(x, y))


def sparse_dot(support: Sequence[int], values: Sequence[Q], y: Vector) -> Q:
    """x . y for x given by the indices and values of its nonzero entries."""
    return _sum_of_products(zip(values, map(y.__getitem__, support)))


def _sum_of_products(pairs: Iterable[Tuple[Q, Q]]) -> Q:
    # weights and dual rows are mostly zeros; skip those products.  The sum is
    # kept as one integer numerator over one integer denominator and reduced
    # once, not after every product and partial sum.
    num, den = 0, 1
    for a, b in pairs:
        an = a.numerator
        if an:
            bn = b.numerator
            if bn:
                d = a.denominator * b.denominator
                if d == den:
                    num += an * bn
                else:
                    num = num * d + an * bn * den
                    den *= d
    return Q(num, den) if num else _ZERO


def add(x: Vector, y: Vector) -> Vector:
    return tuple(a + b for a, b in zip(x, y))


def sub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def scale(c, x: Vector) -> Vector:
    c = c if isinstance(c, Q) else Q(c)
    return tuple(c * a for a in x)


def neg(x: Vector) -> Vector:
    return tuple(-a for a in x)


def is_zero(x: Vector) -> bool:
    return all(a == 0 for a in x)


def zero(dim: int) -> Vector:
    return (Q(0),) * dim


def primitive(x: Vector) -> Vector:
    """Positive rescaling to coprime integer entries (direction preserved)."""
    if is_zero(x):
        raise ValueError("no primitive form of the zero vector")
    denom = 1
    for a in x:
        denom = denom * a.denominator // gcd(denom, a.denominator)
    ints = [int(a * denom) for a in x]
    g = 0
    for n in ints:
        g = gcd(g, abs(n))
    return tuple(Q(n // g) for n in ints)


def line_rep(x: Vector) -> Vector:
    """Primitive form with positive first nonzero entry (dedupes +/- pairs)."""
    p = primitive(x)
    for a in p:
        if a != 0:
            return p if a > 0 else neg(p)
    return p

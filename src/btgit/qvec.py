"""Small exact-rational vector helpers shared across modules, and the
integer forms the exact kernels work on."""

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


def reduced_ints(v: Sequence[int]) -> Tuple[int, ...]:
    """An integer vector divided by the gcd of its entries; zero stays zero."""
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def primitive_ints(v: Sequence[Q]) -> Tuple[int, ...]:
    """Positive rescaling of a rational vector to coprime integers; the zero
    vector stays zero."""
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    return reduced_ints([x.numerator * (den // x.denominator) for x in v])


def as_fractions(rows: Iterable[Sequence[int]], den: int = 1) -> Tuple[Vector, ...]:
    """Integer rows divided by den, as Fraction tuples."""
    if den == 1:
        return tuple(tuple(map(Q, r)) for r in rows)
    return tuple(tuple(Q(n, den) for n in r) for r in rows)


def primitive(x: Vector) -> Vector:
    """Positive rescaling to coprime integer entries (direction preserved)."""
    if is_zero(x):
        raise ValueError("no primitive form of the zero vector")
    return tuple(map(Q, primitive_ints(x)))

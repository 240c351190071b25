"""Exact rational vector helpers."""

from fractions import Fraction as Q

import pytest
from helpers import rng

from btgit.qvec import dot


def test_dot_matches_naive_fraction_sum():
    r = rng(41)
    for _ in range(2000):
        dim = r.randint(0, 8)
        x, y = ([Q(r.randint(-9, 9), r.randint(1, 12)) if r.random() < 0.6
                 else Q(0) for _ in range(dim)] for _ in range(2))
        got = dot(x, y)
        assert got == sum((a * b for a, b in zip(x, y)), Q(0))
        assert type(got) is Q


def test_dot_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        dot((Q(1),), (Q(1), Q(2)))

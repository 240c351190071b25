"""Weight polytopes, torus stability criteria, and GIT chamber combinatorics."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property
from math import gcd, lcm
from operator import mul
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .polyhedra import (QPolytope, cone_contains, cone_h_rep,
                        cone_interior_contains, hull_member, tangent_cone)
from .qvec import Vector, as_fractions, dot, neg, qvec, reduced_ints
from .rootdata import Ray, RelativeDatum, group_relative, tuple_orbit
from .valfield import PuiseuxElement, parse_rational, format_rational


@dataclass(frozen=True)
class WeightedPoint:
    """Projective coordinates labeled by torus weights, scaled to min valuation 0."""

    entries: Tuple[Tuple[Vector, int, PuiseuxElement], ...]

    def __init__(self, entries):
        cleaned = tuple((qvec(w), int(i), c) for w, i, c in entries)
        vals = [c.valuation() for _, _, c in cleaned if c]
        if not vals:
            raise ValueError("all coordinates are zero")
        m = min(vals)
        if m != 0:
            cleaned = tuple((w, i, c.shift(-m)) for w, i, c in cleaned)
        object.__setattr__(self, "entries", cleaned)

    def __getstate__(self):
        # what point_data keeps on the point is rebuilt on first use
        return {"entries": self.entries}

    def to_json(self) -> dict:
        return {"entries": [{"weight": [format_rational(a) for a in w],
                             "index": i, "coord": c.to_json()}
                            for w, i, c in self.entries]}

    @staticmethod
    def from_json(data: dict) -> "WeightedPoint":
        return WeightedPoint([
            (tuple(parse_rational(a) for a in e["weight"]), e["index"],
             PuiseuxElement.from_json(e["coord"]))
            for e in data["entries"]])


def translate(x: WeightedPoint, vals: Sequence) -> WeightedPoint:
    """Act by a diagonal torus element with the given entry valuations."""
    v = qvec(vals)
    return WeightedPoint([(w, i, c.shift(dot(w, v))) for w, i, c in x.entries])


class PointData:
    """What a point determines under one relative datum, built on first use:
    its valuation profile, its residue table and residue polytopes, and its
    interval (stored by interval_A)."""

    def __init__(self, x: WeightedPoint, rel: RelativeDatum):
        profile: Dict[Vector, Q] = {}
        for w, _, c in x.entries:
            if c:
                rw = rel.restrict(w)
                v = c.valuation()
                if rw not in profile or v < profile[rw]:
                    profile[rw] = v
        self.rel = rel
        self.profile: Mapping[Vector, Q] = MappingProxyType(profile)
        self.residues: Dict[Tuple[int, ...], QPolytope] = {}
        self.interval = None  # the IntervalResult, once interval_A has run

    @cached_property
    def residue_table(self) -> Tuple[Tuple[Vector, ...], List[Tuple[int, ...]],
                                     List[int]]:
        """The profile's weights, sorted, with the weights and their
        valuations as integers over one common denominator (built by the
        first mu_residue call)."""
        weights = tuple(sorted(self.profile))
        vals = [self.profile[w] for w in weights]
        den = lcm(*(a.denominator for w in weights for a in w),
                  *(v.denominator for v in vals))
        rows = [tuple(a.numerator * (den // a.denominator) for a in w) for w in weights]
        offsets = [v.numerator * (den // v.denominator) for v in vals]
        return weights, rows, offsets


def point_data(x: WeightedPoint, rel: RelativeDatum) -> PointData:
    """The point's derived data under rel, kept on the point for the datum
    last asked.  model_relative shares one datum per group, but a datum
    built elsewhere can equal it without being it, so an equal datum counts
    as the same one."""
    data = x.__dict__.get("_data")
    if data is None or (data.rel is not rel and data.rel != rel):
        data = PointData(x, rel)
        object.__setattr__(x, "_data", data)
    return data


def valuation_profile(x: WeightedPoint, rel: RelativeDatum) -> Mapping[Vector, Q]:
    """Least valuation of the nonzero coordinates, per restricted weight
    (read-only: the point keeps it)."""
    return point_data(x, rel).profile


def mu_K(x: WeightedPoint, rel: RelativeDatum) -> QPolytope:
    """Hull of the restricted weights of all nonzero coordinates."""
    return QPolytope(valuation_profile(x, rel))


def mu_residue(x: WeightedPoint, rel: RelativeDatum, z: Sequence) -> QPolytope:
    """Hull of the restricted weights whose shifted valuation is minimal.

    A weight that repeats with a larger valuation never attains the minimum,
    so only each weight's least valuation is shifted.  The shifted values are
    compared as integers, scaled by the table's denominator and z's, and the
    point keeps one polytope per index set of the minimum."""
    zc = qvec(z)
    if len(zc) != rel.rank:
        raise ValueError("dimension mismatch")
    data = point_data(x, rel)
    weights, rows, offsets = data.residue_table
    den = lcm(*(a.denominator for a in zc))
    zi = [a.numerator * (den // a.denominator) for a in zc]
    shifted = [den * n + sum(map(mul, row, zi)) for row, n in zip(rows, offsets)]
    m = min(shifted)
    key = tuple(i for i, v in enumerate(shifted) if v == m)
    poly = data.residues.get(key)
    if poly is None:
        poly = data.residues[key] = QPolytope([weights[i] for i in key])
    return poly


def stability_status(x: WeightedPoint, rel: RelativeDatum) -> str:
    """The torus Hilbert-Mumford criterion (Mumford-Fogarty-Kirwan, GIT §2):
    x is stable when the origin lies in the interior of its weight polytope
    mu_K (in the whole space), strictly semistable when it lies in mu_K but
    not its interior, and unstable otherwise.  Both tests read the
    polytope's one description."""
    p = mu_K(x, rel)
    origin = (Q(0),) * rel.rank
    if hull_member(p, origin, "interior"):
        return "stable"
    if hull_member(p, origin):
        return "strictly_semistable"
    return "unstable"


def chi_status(x: WeightedPoint, rel: RelativeDatum, chi: Sequence) -> str:
    """Stability after shifting the reference point by a rational character:
    only the tangent cone of mu_K at the origin decides it."""
    target = neg(qvec(chi))
    if len(target) != rel.rank:
        raise ValueError("dimension mismatch")
    p = mu_K(x, rel)
    if not hull_member(p, (Q(0),) * rel.rank):
        return "unstable"
    cone = tangent_cone(p)
    if not cone_contains(cone, target):
        return "unstable"
    if cone_interior_contains(cone, target):
        return "stable"
    return "semistable"


def root_hyperplanes(rel: RelativeDatum) -> Tuple[Vector, ...]:
    """Primitive normals of all hyperplanes through 0 spanned by relative roots.

    Each such hyperplane is a Weyl translate of the span of all simple roots
    but one (Bourbaki, Lie VI §1), whose normal is a ray of the fundamental
    chamber; so the normals are the orbit of those rays, up to sign, which
    the datum keeps as integer tuples (RelativeDatum._root_lines).
    """
    return as_fractions(rel._root_lines)


@dataclass(frozen=True)
class ChamberId:
    """Cell of a weight in a hyperplane arrangement: zeros and side signs."""

    signs: Tuple[int, ...]

    def containing(self) -> Tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.signs) if s == 0)


def chamber_of(lam: Sequence, hyperplanes: Sequence[Vector],
               cone: Optional[Sequence[Vector]] = None) -> ChamberId:
    """Arrangement cell of a weight, optionally checked against an ample cone."""
    lamv = qvec(lam)
    if cone is not None:
        H = cone_h_rep([qvec(g) for g in cone], len(lamv))
        if not H.contains(lamv):
            raise ValueError("weight outside the closed ample cone")
    signs = []
    for h in hyperplanes:
        v = dot(h, lamv)
        signs.append(0 if v == 0 else (1 if v > 0 else -1))
    return ChamberId(tuple(signs))


def chamber_leq(lam_fine: Sequence, lam: Sequence,
                hyperplanes: Sequence[Vector]) -> bool:
    """Whether the cell of the first weight lies in the closure of the second's."""
    a = chamber_of(lam_fine, hyperplanes).signs
    b = chamber_of(lam, hyperplanes).signs
    return all(sa == 0 or sa == sb for sa, sb in zip(a, b))


def classify_regular_weights(family: Optional[str] = None,
                             rank: Optional[int] = None,
                             J: Sequence[int] = (),
                             preset: str = "split",
                             s: Optional[int] = None,
                             d: Optional[int] = None) -> Tuple[bool, bool]:
    """Decide if some ample weight keeps its whole orbit off every root hyperplane.

    Returns (table_answer, scan_answer): a closed-form case table, and an
    independent scan of the joint Weyl orbit of the fundamental weights
    omega_j (j in J); the two must agree.  The scan answers False when some
    tuple of the orbit has all its weights on one root hyperplane, and True
    otherwise.  No second orbit is needed for True: for a covector g pulled
    back from a hyperplane and base = 1 + max |g . w omega_k| over the orbit,
    g . w lambda = sum_k base^k (g . w omega_k) for lambda = sum_k base^k
    omega_k, and a sum of signed base-ary digits that are not all zero is
    not zero, so lambda's whole orbit stays off every hyperplane.
    """
    J = sorted(set(int(j) for j in J))
    rel = group_relative(preset, family, rank, s, d)
    datum = rel.datum
    node_count, step = (s, d) if preset == "sl_skew" else (datum.rank, 1)
    if not J or any(j < 1 or j > node_count for j in J):
        raise ValueError("J must be a nonempty subset of the node range")

    full = J == list(range(1, node_count + 1))
    if full:
        table = True
    elif preset == "nonsplit_C" and J == list(range(1, rank)):
        table = True
    elif preset == "sl_skew" or (preset == "split" and family == "A"):
        g = node_count + 1
        for j in J:
            g = gcd(g, j)
        table = g == 1
    else:
        table = False

    # The orbit runs on integer tuples: the weights over one common
    # denominator, and each hyperplane h pulled back once to a primitive
    # integer covector g with g . v a positive multiple of h . restrict(v).
    omegas = [datum.fundamental_weights[j * step - 1] for j in J]
    den = lcm(*(a.denominator for w in omegas for a in w))
    omegas = [tuple(a.numerator * (den // a.denominator) for a in w) for w in omegas]
    dual_rows = rel._dual_ints
    covectors = []
    for h in rel._root_lines:
        g = [0] * datum.ambient_dim
        for hk, row in zip(h, dual_rows):
            if hk:
                for i, a in row:
                    g[i] += hk * a
        covectors.append(reduced_ints(g))
    # A weight recurs in many orbit tuples, so it is paired with the
    # covectors once, into a bit mask of the covectors vanishing on it.  A
    # tuple lies in a hyperplane when the masks of its weights share a bit.
    zeros: Dict[Ray, int] = {}
    for tup in tuple_orbit(datum, [tuple(omegas)]):
        common = -1
        for v in tup:
            mask = zeros.get(v)
            if mask is None:
                mask = zeros[v] = sum(1 << i for i, g in enumerate(covectors)
                                      if not sum(map(mul, g, v)))
            common &= mask
        if common:
            return table, False
    return table, True

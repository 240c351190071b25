"""Root systems of classical families with Weyl groups and restricted data.

Absolute data lives in the standard ambient coordinates: family A_l in the
sum-zero subspace of Q^{l+1}, families B/C/D in Q^l, with the ambient dot
product as the invariant inner product.  Restricted (relative) data is
shipped as validated presets; apartment-facing quantities are expressed in
reduced coordinates of dimension equal to the relative rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction as Q
from math import factorial, gcd, lcm
from operator import mul
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from .polyhedra import QPolyhedron, cone_generators, rref
from .qvec import (Vector, _sum_of_products, add, as_fractions, dot,
                   primitive_ints, qvec, reduced_ints, scale, sub, zero)

Ray = Tuple[int, ...]  # a primitive integer vector, up to positive scaling


def reflect(v: Vector, alpha: Vector) -> Vector:
    """Reflection of v in the hyperplane orthogonal to alpha."""
    return sub(v, scale(2 * dot(v, alpha) / dot(alpha, alpha), alpha))


@dataclass(frozen=True)
class RootDatum:
    family: str
    rank: int
    ambient_dim: int
    simple_roots: Tuple[Vector, ...]
    all_roots: Tuple[Vector, ...]
    fundamental_weights: Tuple[Vector, ...]


class UnknownGroup(ValueError):
    """A preset, or a split family, outside the group table.  A known group
    with missing or out-of-range parameters (B1) raises a plain ValueError."""


_FAMILIES = ("A", "B", "C", "D")


def _ints(n: int, entries: Iterable[Tuple[int, int]]) -> Tuple[int, ...]:
    v = [0] * n
    for i, c in entries:
        v[i] = c
    return tuple(v)


def _root_ints(family: str, rank: int
               ) -> Tuple[List[Tuple[int, ...]], Set[Tuple[int, ...]]]:
    """The simple roots and the roots of a classical family, as integer
    tuples (see build_root_system)."""
    l = rank
    n = l + 1 if family == "A" else l
    simple = [_ints(n, ((i, 1), (i + 1, -1))) for i in range(n - 1)]
    if family == "A":
        return simple, {_ints(n, ((i, 1), (j, -1)))
                        for i in range(n) for j in range(n) if i != j}
    last = {"B": ((l - 1, 1),), "C": ((l - 1, 2),),
            "D": ((l - 2, 1), (l - 1, 1))}[family]
    simple.append(_ints(n, last))
    roots = {_ints(n, ((i, s), (j, t))) for i in range(n)
             for j in range(i + 1, n) for s in (1, -1) for t in (1, -1)}
    if family != "D":
        long = 1 if family == "B" else 2
        roots |= {_ints(n, ((i, s * long),)) for i in range(n) for s in (1, -1)}
    return simple, roots


def build_root_system(family: str, rank: int) -> RootDatum:
    """The root datum of a classical family, in closed form.

    With e_i the ambient unit vectors (Bourbaki, Lie IV-VI, Plates I-IV):
    the simple roots are e_i - e_{i+1} and, last, e_l (B), 2e_l (C) or
    e_{l-1} + e_l (D); the roots are e_i - e_j (A), or +-e_i +- e_j together
    with +-e_i (B) or +-2e_i (C); the fundamental weights are the partial
    sums e_1 + ... + e_k, made sum-zero for A and halved at the spin nodes
    of B and D.  The roots are written and sorted as integer tuples, and
    turned into Fractions once.
    """
    if family not in _FAMILIES:
        raise UnknownGroup(f"unsupported family {family!r}")
    if rank < 1 or (family != "A" and rank < 2):
        raise ValueError(f"unsupported rank {rank} for family {family}")
    l = rank
    n = l + 1 if family == "A" else l
    simple, roots = _root_ints(family, rank)
    if family == "A":
        weights = [tuple(Q(n - k, n) if i < k else Q(-k, n) for i in range(n))
                   for k in range(1, l + 1)]
    else:
        weights = [tuple(Q(int(i < k)) for i in range(n)) for k in range(1, l + 1)]
        half = Q(1, 2)
        if family == "B":
            weights[-1] = (half,) * l
        elif family == "D":
            weights[-2] = (half,) * (l - 1) + (-half,)
            weights[-1] = (half,) * l
    return RootDatum(family, rank, n, as_fractions(simple),
                     as_fractions(sorted(roots)), tuple(weights))


def _solve_columns(rows: Sequence[Sequence[Q]],
                   columns: Sequence[Vector]) -> List[Vector]:
    """The solution x of rows . x = b for each column b; rows square and nonsingular."""
    n = len(rows)
    red, _ = rref([list(r) + [b[i] for b in columns] for i, r in enumerate(rows)])
    return [tuple(red[i][n + k] for i in range(n)) for k in range(len(columns))]


def reflection_closure(seeds: Iterable, maps: Sequence[Callable]) -> Set:
    """Closure of the seeds under the maps, breadth first.

    With the simple reflections as maps this is the union of the seeds'
    Weyl-group orbits, since those reflections generate the group.
    """
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for f in maps:
                img = f(v)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def simple_shuffles(datum: RootDatum) -> List[Callable[[Vector], Vector]]:
    """The simple reflections of the datum, as shuffles of ambient coordinates.

    Reflecting in e_i - e_{i+1} swaps coordinates i and i+1; in e_l or 2e_l
    it negates the last coordinate (B, C); in e_{l-1} + e_l it swaps the last
    two and negates both (D).  So the Weyl group acts by permutations (A),
    signed permutations (B, C) and evenly signed permutations (D), and each
    shuffle gives the value `reflect` gives, with no arithmetic.
    """
    maps: List[Callable[[Vector], Vector]] = [
        lambda v, i=i: v[:i] + (v[i + 1], v[i]) + v[i + 2:]
        for i in range(datum.ambient_dim - 1)]
    if datum.family in ("B", "C"):
        maps.append(lambda v: v[:-1] + (-v[-1],))
    elif datum.family == "D":
        maps.append(lambda v: v[:-2] + (-v[-1], -v[-2]))
    return maps


def weyl_orbit(datum: RootDatum, weight: Vector) -> Tuple[Vector, ...]:
    """Full Weyl-group orbit of a weight, by closure under the simple shuffles."""
    if len(weight) != datum.ambient_dim:
        raise ValueError("weight has wrong ambient dimension")
    return tuple(sorted(reflection_closure([tuple(weight)], simple_shuffles(datum))))


def weyl_order(datum: RootDatum) -> int:
    """Order of the Weyl group: (l+1)! (A), 2^l l! (B, C), 2^(l-1) l! (D)."""
    l = datum.rank
    if datum.family == "A":
        return factorial(l + 1)
    if datum.family == "D":
        return 2 ** (l - 1) * factorial(l)
    return 2 ** l * factorial(l)


@dataclass(frozen=True)
class RelativeDatum:
    """Restriction data of a (possibly non-split) group in reduced coordinates.

    dual_matrix maps an absolute weight (ambient coordinates) to its reduced
    dual coordinates; apartment points use the paired primal coordinates, so
    that the natural pairing is the plain dot product.  gram is the
    W_K-invariant metric on primal coordinates, used for squared distances.
    """

    name: str
    datum: RootDatum
    rank: int
    dual_matrix: Tuple[Vector, ...]
    relative_roots: Tuple[Vector, ...]
    relative_simple: Tuple[Vector, ...]
    gamma: Tuple[Tuple[Vector, Q], ...]
    gram: Tuple[Vector, ...]

    @cached_property
    def _dual_support(self) -> Tuple[Tuple[Tuple[int, Q], ...], ...]:
        """The nonzero entries of each dual row, as (column, entry) pairs."""
        return tuple(tuple((j, x) for j, x in enumerate(row) if x)
                     for row in self.dual_matrix)

    def restrict(self, beta: Vector) -> Vector:
        """Reduced dual coordinates of the restriction of an absolute weight,
        read through the nonzero entries of each dual row."""
        if len(beta) != self.datum.ambient_dim:
            raise ValueError("dimension mismatch")
        return tuple(_sum_of_products((x, beta[j]) for j, x in row)
                     for row in self._dual_support)

    def gamma_of(self, alpha: Vector) -> Q:
        for root, step in self.gamma:
            if root == alpha:
                return step
        raise ValueError(f"{alpha} is not a relative root")


def relative_weyl_orbit(rel: RelativeDatum,
                        seeds: Iterable[Tuple[Ray, ...]]) -> Set[Tuple[Ray, ...]]:
    """Union of the orbits of tuples of apartment (primal) rays under the
    relative Weyl group, which acts on each ray of a tuple.

    A ray is a primitive integer vector, standing for the points that are
    positive multiples of it; the seeds must be given in that form.  The
    relative simple root a reflects z to z - (a . z) a^vee, with the coroot
    a^vee = 2x/(a . x) where gram x = a.  With A and X the primitive integer
    multiples of a and x, (A . X) z - 2(A . z) X is a positive multiple of
    that image, since A . X > 0 for the positive definite gram; so the
    reflected ray is its primitive form, and a ray with A . z = 0 is fixed.
    The group keeps the gram norm, so an element fixing a ray fixes its
    points: the ray orbits are the point orbits up to positive scaling.
    """
    xs = _solve_columns(rel.gram, rel.relative_simple)
    maps = []
    for a, x in zip(rel.relative_simple, xs):
        f = _ray_reflection(primitive_ints(a), primitive_ints(x))
        maps.append(lambda zs, f=f: tuple(map(f, zs)))
    return reflection_closure(seeds, maps)


def _ray_reflection(A: Ray, X: Ray) -> Callable[[Ray], Ray]:
    """z -> primitive((A . X) z - 2(A . z) X), reading only the nonzero
    entries of A and changing only those of X.

    The common factor of A . X and 2X is taken out first.  For every preset
    that leaves A . X = 1: the reflection preserves the integer lattice of
    primal coordinates, as a Weyl reflection preserves the coweight lattice
    (Humphreys 1990, 2.10; Bourbaki, Lie VI §1), so z is not rescaled."""
    ax = sum(map(mul, A, X))
    g = gcd(ax, *(2 * c for c in X))
    ax //= g
    support = tuple((k, c) for k, c in enumerate(A) if c)
    changes = tuple((k, 2 * c // g) for k, c in enumerate(X) if c)

    def reflect_ray(z: Ray) -> Ray:
        t = sum(c * z[k] for k, c in support)
        if not t:
            return z
        w = list(z) if ax == 1 else [ax * c for c in z]
        for k, c in changes:
            w[k] -= t * c
        return reduced_ints(w)

    return reflect_ray


def fundamental_rays(rel: RelativeDatum) -> List[Ray]:
    """Primitive integer rays of the fundamental chamber {z : a . z >= 0, a
    relative simple}."""
    return [primitive_ints(z) for z in
            cone_generators(QPolyhedron([(a, Q(0)) for a in rel.relative_simple],
                                        rel.rank))]


def _restricted(name: str, datum: RootDatum, dual: Sequence[Vector],
                simple: Sequence[Vector], gram: Sequence[Vector]) -> RelativeDatum:
    """Relative data of a restriction, given by its dual rows.

    The relative roots are the sorted nonzero restrictions of the absolute
    roots; a root's step is 1/2 exactly when twice the root is also a root,
    and 1 otherwise; the rank is the number of dual rows.  The restrictions
    are computed on integers: the integer roots of the datum's family, each
    read by its nonzero entries against the nonzero entries of the dual
    rows over their common denominator, gathered column by column.  They
    are sorted as integer tuples and turned into Fractions once.
    """
    dual = tuple(dual)
    den = lcm(*(x.denominator for r in dual for x in r))
    columns: List[List[Tuple[int, int]]] = [[] for _ in range(datum.ambient_dim)]
    for k, r in enumerate(dual):
        for j, x in enumerate(r):
            if x:
                columns[j].append((k, x.numerator * (den // x.denominator)))
    images = set()
    for a in _root_ints(datum.family, datum.rank)[1]:
        img = [0] * len(dual)
        for j, c in enumerate(a):
            if c:
                for k, y in columns[j]:
                    img[k] += c * y
        images.add(tuple(img))
    keys = sorted(v for v in images if any(v))
    roots = as_fractions(keys, den)
    gamma = tuple((a, Q(1, 2) if tuple(2 * c for c in v) in images else Q(1))
                  for a, v in zip(roots, keys))
    return RelativeDatum(name, datum, len(dual), dual, roots, tuple(simple),
                         gamma, tuple(gram))


def _identity(n: int) -> Tuple[Vector, ...]:
    return tuple(tuple(Q(1) if i == j else Q(0) for j in range(n)) for i in range(n))


def _split_relative(datum: RootDatum) -> RelativeDatum:
    if datum.family == "A":
        # the dual rows e_k - e_{k+1} are the simple roots, so the restricted
        # simple roots are their pairings and the gram is half of those
        dual = datum.simple_roots
        simple = _root_ints("A", datum.rank)[0]
        pairings = [[sum(map(mul, a, b)) for b in simple] for a in simple]
        simple, gram = as_fractions(pairings), as_fractions(pairings, 2)
    else:
        # the dual rows are the identity
        dual = gram = _identity(datum.rank)
        simple = datum.simple_roots
    return _restricted(f"split_{datum.family}{datum.rank}", datum, dual, simple, gram)


def _su3_relative() -> RelativeDatum:
    rel = _restricted("su3", build_root_system("A", 2), (qvec([1, 0, -1]),),
                      ((Q(1),),), ((Q(1),),))
    assert rel.relative_roots == ((Q(-2),), (Q(-1),), (Q(1),), (Q(2),))
    return rel


def _nonsplit_c_relative(rank: int) -> RelativeDatum:
    if rank < 2:
        raise ValueError("nonsplit_C needs rank >= 2")
    m = rank // 2
    rows = []
    for i in range(m):
        row = [Q(0)] * rank
        row[2 * i], row[2 * i + 1] = Q(1), Q(1)
        rows.append(tuple(row))
    # simple relative roots: f_i - f_{i+1} and the last one (2f_m, or f_m in
    # the odd case where f_m is multipliable)
    simple = []
    for i in range(m - 1):
        v = [Q(0)] * m
        v[i], v[i + 1] = Q(1), Q(-1)
        simple.append(tuple(v))
    last = [Q(0)] * m
    last[m - 1] = Q(1) if rank % 2 else Q(2)
    simple.append(tuple(last))
    return _restricted(f"nonsplit_C{rank}", build_root_system("C", rank), rows,
                       simple, _identity(m))


def _sl_skew_relative(s: int, d: int) -> RelativeDatum:
    """Restriction data of the special linear group of a degree-d skew field."""
    if s < 1 or d < 1:
        raise ValueError("need s >= 1 and d >= 1")
    n = (s + 1) * d
    datum = build_root_system("A", n - 1)
    if d == 1:
        return _split_relative(datum)
    rows = []
    for k in range(s):
        row = [Q(0)] * n
        for j in range(d):
            row[k * d + j] = Q(1)
            row[(k + 1) * d + j] = Q(-1)
        rows.append(tuple(row))
    small = _split_relative(build_root_system("A", s))
    return _restricted(f"sl_skew_{s}_{d}", datum, rows, small.relative_simple,
                       small.gram)


# the group table: each preset, the parameters it reads, and its constructor
_GROUPS = {
    "split": (("family", "rank"),
              lambda family, rank: _split_relative(build_root_system(family, rank))),
    "su3": ((), _su3_relative),
    "nonsplit_C": (("rank",), _nonsplit_c_relative),
    "sl_skew": (("s", "d"), _sl_skew_relative),
}


def group_relative(preset: str = "split", family: Optional[str] = None,
                   rank: Optional[int] = None, s: Optional[int] = None,
                   d: Optional[int] = None) -> RelativeDatum:
    """The relative datum of a group: one cached constructor per group.

    The checks run in one order: a preset, then a given split family,
    outside the table raises UnknownGroup; a parameter the preset reads but
    is not given raises ValueError; the constructor rejects out-of-range
    values (B1, nonsplit_C of rank 1) with ValueError.  The cache is keyed
    on the preset and the parameters it reads, so every call form of one
    group shares one datum.  proj(n) and grass(j,n) make the groups
    unbounded in number, so only the most recent are kept."""
    if preset not in _GROUPS:
        raise UnknownGroup(f"unsupported preset {preset!r}")
    if preset == "split" and family is not None and family not in _FAMILIES:
        raise UnknownGroup(f"unsupported family {family!r}")
    names = _GROUPS[preset][0]
    args = tuple({"family": family, "rank": rank, "s": s, "d": d}[name]
                 for name in names)
    if None in args:
        raise ValueError(f"{preset} data needs "
                         + " and ".join(f"'{name}'" for name in names))
    return _cached_relative(preset, args)


@lru_cache(maxsize=16)
def _cached_relative(preset: str, args: tuple) -> RelativeDatum:
    return _GROUPS[preset][1](*args)


def preset_relative(name: str, datum: Optional[RootDatum] = None,
                    rank: Optional[int] = None, s: Optional[int] = None,
                    d: Optional[int] = None) -> RelativeDatum:
    """Validated restriction presets: split, su3, nonsplit_C, sl_skew.  A
    given split datum is restricted afresh, else group_relative answers."""
    if name == "split" and datum is not None:
        return _split_relative(datum)
    return group_relative(name, rank=rank, s=s, d=d)


def dominant_weight(datum: RootDatum, J, coeffs) -> Tuple[Vector, bool]:
    """Weight sum over J of n_j * w_j; returns (weight, lies in the open cone).

    Coefficients must be nonnegative with at least one positive; the weight is
    in the open ample cone C(X) exactly when every listed coefficient is
    positive.
    """
    J = list(J)
    coeffs = [c if isinstance(c, Q) else Q(c) for c in coeffs]
    if not J or len(J) != len(coeffs):
        raise ValueError("J and coefficients must be nonempty and aligned")
    if any(j < 1 or j > datum.rank for j in J):
        raise ValueError("J out of range")
    if any(c < 0 for c in coeffs):
        raise ValueError("coefficients must be nonnegative")
    if all(c == 0 for c in coeffs):
        raise ValueError("all coefficients are zero")
    w = zero(datum.ambient_dim)
    for j, c in zip(J, coeffs):
        w = add(w, scale(c, datum.fundamental_weights[j - 1]))
    return w, all(c > 0 for c in coeffs)

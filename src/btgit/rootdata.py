"""Root systems of classical families with Weyl groups and restricted data.

Absolute data lives in the standard ambient coordinates: family A_l in the
sum-zero subspace of Q^{l+1}, families B/C/D in Q^l, with the ambient dot
product as the invariant inner product.  Restricted (relative) data is
shipped as validated presets, each given by its dual rows and relative type;
apartment-facing quantities are expressed in reduced coordinates of
dimension equal to the relative rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain, product
from fractions import Fraction as Q
from math import factorial
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from .qvec import (Vector, _sum_of_products, add, as_fractions,
                   primitive_ints, qvec, reduced_ints, scale, zero)

Ray = Tuple[int, ...]  # a primitive integer vector, up to positive scaling


@dataclass(frozen=True)
class RootDatum:
    """A classical root system, given by its family and rank.

    With e_i the ambient unit vectors (Bourbaki, Lie IV-VI, Plates I-IV):
    the simple roots are e_i - e_{i+1} and, last, e_l (B), 2e_l (C) or
    e_{l-1} + e_l (D); the roots are e_i - e_j (A), or +-e_i +- e_j together
    with +-e_i (B) or +-2e_i (C); the fundamental weights are the partial
    sums e_1 + ... + e_k, made sum-zero for A and halved at the spin nodes
    of B and D.  Each table is built on first read.
    """

    family: str
    rank: int

    @property
    def ambient_dim(self) -> int:
        return self.rank + 1 if self.family == "A" else self.rank

    @cached_property
    def simple_roots(self) -> Tuple[Vector, ...]:
        n, l = self.ambient_dim, self.rank
        simple = [_ints(n, ((i, 1), (i + 1, -1))) for i in range(n - 1)]
        if self.family != "A":
            simple.append(_ints(n, {"B": ((l - 1, 1),), "C": ((l - 1, 2),),
                                    "D": ((l - 2, 1), (l - 1, 1))}[self.family]))
        return as_fractions(simple)

    @cached_property
    def all_roots(self) -> Tuple[Vector, ...]:
        """The roots, written and sorted as integer tuples and turned into
        Fractions once."""
        n = self.ambient_dim
        return as_fractions(sorted(_ints(n, a) for a in _root_entries(self)))

    @cached_property
    def fundamental_weights(self) -> Tuple[Vector, ...]:
        n, l = self.ambient_dim, self.rank
        if self.family == "A":
            return tuple(tuple(Q(n - k, n) if i < k else Q(-k, n) for i in range(n))
                         for k in range(1, l + 1))
        weights = [tuple(Q(int(i < k)) for i in range(n)) for k in range(1, l + 1)]
        half = Q(1, 2)
        if self.family == "B":
            weights[-1] = (half,) * l
        elif self.family == "D":
            weights[-2] = (half,) * (l - 1) + (-half,)
            weights[-1] = (half,) * l
        return tuple(weights)


class UnknownGroup(ValueError):
    """A preset, or a split family, outside the group table.  A known group
    with missing or out-of-range parameters (B1) raises a plain ValueError."""


_FAMILIES = ("A", "B", "C", "D")


def _ints(n: int, entries: Iterable[Tuple[int, int]]) -> Tuple[int, ...]:
    v = [0] * n
    for i, c in entries:
        v[i] = c
    return tuple(v)


def _root_entries(datum: RootDatum) -> Iterable[Tuple[Tuple[int, int], ...]]:
    """The roots of the datum, each by its nonzero (coordinate, entry) pairs."""
    n = datum.ambient_dim
    if datum.family == "A":
        return (((i, 1), (j, -1)) for i in range(n) for j in range(n) if i != j)
    pairs = (((i, s), (j, t)) for i in range(n) for j in range(i + 1, n)
             for s in (1, -1) for t in (1, -1))
    if datum.family == "D":
        return pairs
    long = 1 if datum.family == "B" else 2
    return chain(pairs, (((i, s * long),) for i in range(n) for s in (1, -1)))


def build_root_system(family: str, rank: int) -> RootDatum:
    """The root datum of a classical family (see RootDatum)."""
    if family not in _FAMILIES:
        raise UnknownGroup(f"unsupported family {family!r}")
    if rank < 1 or (family != "A" and rank < 2):
        raise ValueError(f"unsupported rank {rank} for family {family}")
    return RootDatum(family, rank)


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
    signed permutations (B, C) and evenly signed permutations (D), with no
    arithmetic.
    """
    maps: List[Callable[[Vector], Vector]] = [
        lambda v, i=i: v[:i] + (v[i + 1], v[i]) + v[i + 2:]
        for i in range(datum.ambient_dim - 1)]
    if datum.family in ("B", "C"):
        maps.append(lambda v: v[:-1] + (-v[-1],))
    elif datum.family == "D":
        maps.append(lambda v: v[:-2] + (-v[-1], -v[-2]))
    return maps


def tuple_orbit(datum: RootDatum, seeds: Iterable[Tuple[Vector, ...]]
                ) -> Set[Tuple[Vector, ...]]:
    """Union of the Weyl orbits of tuples of ambient vectors, the group
    acting on each vector of a tuple: the closure under the simple shuffles."""
    maps = [lambda tup, f=f: tuple(map(f, tup)) for f in simple_shuffles(datum)]
    return reflection_closure(seeds, maps)


def weyl_orbit(datum: RootDatum, weight: Vector) -> Tuple[Vector, ...]:
    """Full Weyl-group orbit of a weight, sorted."""
    if len(weight) != datum.ambient_dim:
        raise ValueError("weight has wrong ambient dimension")
    return tuple(sorted(v for (v,) in tuple_orbit(datum, [(tuple(weight),)])))


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
    that the natural pairing is the plain dot product.  relative_type is the
    root datum of the relative root system; it fixes the relative simple
    roots, the W_K-invariant metric gram on primal coordinates (used for
    squared distances) and the relative Weyl tables, read in the type's
    ambient coordinates (see _from_type and _on_type).
    """

    name: str
    datum: RootDatum
    dual_matrix: Tuple[Vector, ...]
    relative_type: RootDatum

    @property
    def rank(self) -> int:
        return len(self.dual_matrix)

    @cached_property
    def _dual_ints(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """The nonzero entries of each dual row as (column, entry) pairs; the
        dual rows of every preset are integral."""
        if any(x.denominator != 1 for r in self.dual_matrix for x in r):
            raise ValueError("dual rows must be integral")
        return tuple(tuple((j, x.numerator) for j, x in enumerate(r) if x)
                     for r in self.dual_matrix)

    @cached_property
    def _root_keys(self) -> Tuple[Tuple[int, ...], ...]:
        """The relative roots as sorted integer tuples: the nonzero
        restrictions of the absolute roots, each read by its nonzero entries
        against the integer dual rows gathered column by column."""
        columns = [[] for _ in range(self.datum.ambient_dim)]
        for k, row in enumerate(self._dual_ints):
            for j, y in row:
                columns[j].append((k, y))
        images = set()
        for root in _root_entries(self.datum):
            img = [0] * self.rank
            for j, c in root:
                for k, y in columns[j]:
                    img[k] += c * y
            images.add(tuple(img))
        images.discard((0,) * self.rank)
        return tuple(sorted(images))

    @cached_property
    def relative_roots(self) -> Tuple[Vector, ...]:
        """The sorted nonzero restrictions of the absolute roots."""
        return as_fractions(self._root_keys)

    @cached_property
    def gamma(self) -> Tuple[Tuple[Vector, Q], ...]:
        """Each relative root with its step: 1/2 exactly when twice the root
        is also a root, and 1 otherwise."""
        keys = set(self._root_keys)
        return tuple((a, Q(1, 2) if tuple(2 * c for c in v) in keys else Q(1))
                     for a, v in zip(self.relative_roots, self._root_keys))

    def _from_type(self, x: Ray) -> Ray:
        """A point of the type's ambient space in primal coordinates: x for
        B, C and D (gram 1), z_k = x_1 + ... + x_k for A_s (on the coroots)."""
        if self.relative_type.family != "A":
            return x
        return tuple(accumulate(x[:-1]))

    def _on_type(self, c: Ray) -> Ray:
        """A covector on primal coordinates read on the type's ambient ones,
        up to a positive factor on sum-zero points: for A_s, y_i = c_i + ...
        + c_s and y_{s+1} = 0, made sum-zero as (s+1) y - sum(y)."""
        if self.relative_type.family != "A":
            return c
        y = tuple(accumulate(reversed(c)))[::-1] + (0,)
        return tuple(len(y) * v - sum(y) for v in y)

    @cached_property
    def relative_simple(self) -> Tuple[Vector, ...]:
        """The type's simple roots as covectors on primal coordinates: for
        A_s, e_i - e_{i+1} pairs with z as x_i - x_{i+1} = 2z_i - z_{i-1} -
        z_{i+1}, row i of the Cartan matrix."""
        t = self.relative_type
        if t.family != "A":
            return t.simple_roots
        l = t.rank
        return as_fractions(tuple(2 if i == j else -1 if abs(i - j) == 1 else 0
                                  for j in range(l)) for i in range(l))

    @cached_property
    def gram(self) -> Tuple[Vector, ...]:
        if self.relative_type.family == "A":
            return tuple(tuple(c / 2 for c in a) for a in self.relative_simple)
        return _identity(self.rank)

    @cached_property
    def _root_lines(self) -> Tuple[Ray, ...]:
        """The primitive normals of the root hyperplanes (the fundamental
        rays' orbits), first nonzero entry positive, sorted.  In the type's
        coordinates: the nonzero {0, +-1} vectors for B, C and BC_m, less
        those with l - 1 nonzero entries for D_l; for A_s, n = s + 1, the
        (n [i in S] - |S|)_i over the proper subsets S holding coordinate 0."""
        t = self.relative_type
        n = t.ambient_dim
        if t.family != "A":
            return tuple(v for v in product((-1, 0, 1), repeat=n)
                         if v > (0,) * n and (t.family != "D" or v.count(0) != 1))
        lines = []
        for bits in product((0, 1), repeat=n - 1):
            k = 1 + sum(bits)
            if k < n:
                x = (n - k,) + tuple(n * b - k for b in bits)
                lines.append(self._from_type(reduced_ints(x)))
        return tuple(sorted(lines))

    @cached_property
    def _chamber_lines(self) -> Tuple[Ray, ...]:
        """The relative roots up to sign, sorted, that chambers' sign vectors
        are read on: of each pair +-a the one with first nonzero entry < 0."""
        return tuple(v for v in self._root_keys if v < (0,) * self.rank)

    def nonnegative_chambers(self, c: Ray) -> List[Tuple[int, ...]]:
        """The sign vectors of the chambers on whose rays the integer
        character c is nonnegative, reverse sorted (all of them for c = 0).

        With c read as y on the type's coordinates, the chamber of w has
        rays w omega_k, and w^-1 is a signed ordering (i_k, e_k) of the
        coordinates (unsigned for A, evenly signed for D).  y . w omega_k is
        a positive multiple of the k-th prefix sum of u_k = e_k y_{i_k}, or
        for D_l's spin weights of sum(u) and sum(u) - 2u_l, whose mean is
        the (l-1)-th (Bjorner & Brenti 2005, ch. 8).  So a prefix with a
        negative sum is dropped; for A, B and C every other one extends.
        A chamber's sign on a line a is that of a . w x0, x0 the sum of the
        primitive fundamental weights."""
        t = self.relative_type
        n, spin = t.ambient_dim, t.family == "D"
        y = self._on_type(c)
        x0 = [sum(col) for col in zip(*map(primitive_ints, t.fundamental_weights))]
        # a classical root has at most two nonzero coordinates, i and j
        lines = [([(i, v) for i, v in enumerate(self._on_type(a)) if v] + [(0, 0)])[:2]
                 for a in self._chamber_lines]
        point, found = [0] * n, []

        def extend(k, free, total, odd, last):
            if k == n:
                if not spin or (not odd and total >= 2 * last):
                    found.append(tuple(1 if point[i] * v + point[j] * w > 0 else -1
                                       for (i, v), (j, w) in lines))
                return
            for i in free:
                rest = [j for j in free if j != i]
                for e in (1,) if t.family == "A" else (1, -1):
                    u = e * y[i]
                    if total + u >= 0:
                        point[i] = e * x0[k]
                        extend(k + 1, rest, total + u, odd ^ (e < 0), u)

        extend(0, range(n), 0, False, 0)
        return sorted(found, reverse=True)

    def restrict(self, beta: Vector) -> Vector:
        """Reduced dual coordinates of the restriction of an absolute weight,
        read through the nonzero integer entries of each dual row."""
        if len(beta) != self.datum.ambient_dim:
            raise ValueError("dimension mismatch")
        return tuple(_sum_of_products((y, beta[j]) for j, y in row)
                     for row in self._dual_ints)

    def gamma_of(self, alpha: Vector) -> Q:
        for root, step in self.gamma:
            if root == alpha:
                return step
        raise ValueError(f"{alpha} is not a relative root")


def _identity(n: int) -> Tuple[Vector, ...]:
    return tuple(tuple(Q(1) if i == j else Q(0) for j in range(n)) for i in range(n))


def _split_relative(datum: RootDatum) -> RelativeDatum:
    # the dual rows are the simple roots e_k - e_{k+1} for A, else the identity
    rows = datum.simple_roots if datum.family == "A" else _identity(datum.rank)
    return RelativeDatum(f"split_{datum.family}{datum.rank}", datum, rows, datum)


def _su3_relative() -> RelativeDatum:
    # BC_1, whose written simple root is B_1's
    return RelativeDatum("su3", build_root_system("A", 2), (qvec([1, 0, -1]),),
                         RootDatum("B", 1))


def _nonsplit_c_relative(rank: int) -> RelativeDatum:
    if rank < 2:
        raise ValueError("nonsplit_C needs rank >= 2")
    m = rank // 2
    rows = [_ints(rank, ((2 * i, 1), (2 * i + 1, 1))) for i in range(m)]
    # the relative root system is C_m, or BC_m for odd rank, whose written
    # simple roots are B_m's (f_m is multipliable)
    return RelativeDatum(f"nonsplit_C{rank}", build_root_system("C", rank),
                         as_fractions(rows), RootDatum("B" if rank % 2 else "C", m))


def _sl_skew_relative(s: int, d: int) -> RelativeDatum:
    """Restriction data of the special linear group of a degree-d skew field."""
    if s < 1 or d < 1:
        raise ValueError("need s >= 1 and d >= 1")
    n = (s + 1) * d
    datum = build_root_system("A", n - 1)
    if d == 1:
        return _split_relative(datum)
    rows = [_ints(n, [(k * d + j, 1) for j in range(d)]
                  + [((k + 1) * d + j, -1) for j in range(d)]) for k in range(s)]
    return RelativeDatum(f"sl_skew_{s}_{d}", datum, as_fractions(rows),
                         build_root_system("A", s))


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

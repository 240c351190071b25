"""Root systems of classical families with Weyl groups and restricted data.

Absolute data lives in the standard ambient coordinates: family A_l in the
sum-zero subspace of Q^{l+1}, families B/C/D in Q^l, with the ambient dot
product as the invariant inner product.  Restricted (relative) data is
shipped as validated presets; apartment-facing quantities are expressed in
reduced coordinates of dimension equal to the relative rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from .polyhedra import QPolyhedron, cone_generators, rref
from .qvec import Vector, add, dot, is_zero, qvec, scale, sub, zero

ROOT_COUNTS = {"A": lambda l: l * (l + 1), "B": lambda l: 2 * l * l,
               "C": lambda l: 2 * l * l, "D": lambda l: 2 * l * (l - 1)}

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


def _simple_basis(family: str, rank: int) -> List[Vector]:
    if family == "A":
        n = rank + 1
        basis = []
        for i in range(rank):
            v = [Q(0)] * n
            v[i], v[i + 1] = Q(1), Q(-1)
            basis.append(tuple(v))
        return basis
    basis = []
    for i in range(rank - 1):
        v = [Q(0)] * rank
        v[i], v[i + 1] = Q(1), Q(-1)
        basis.append(tuple(v))
    last = [Q(0)] * rank
    if family == "B":
        last[rank - 1] = Q(1)
    elif family == "C":
        last[rank - 1] = Q(2)
    elif family == "D":
        if rank < 2:
            raise ValueError("family D needs rank >= 2")
        last[rank - 2], last[rank - 1] = Q(1), Q(1)
    else:
        raise ValueError(f"unsupported family {family!r}")
    basis.append(tuple(last))
    return basis


def build_root_system(family: str, rank: int) -> RootDatum:
    """Build the full root datum by reflection closure of a simple basis."""
    if family not in ROOT_COUNTS:
        raise ValueError(f"unsupported family {family!r}")
    if rank < 1 or (family in ("B", "C") and rank < 2) or (family == "D" and rank < 2):
        raise ValueError(f"unsupported rank {rank} for family {family}")
    simple = _simple_basis(family, rank)
    all_roots = tuple(sorted(reflection_closure(simple, _simple_reflections(simple))))
    expected = ROOT_COUNTS[family](rank)
    if len(all_roots) != expected:
        raise AssertionError(f"{family}{rank}: {len(all_roots)} roots, expected {expected}")

    # Fundamental weights: solve 2(w_i, a_j)/(a_j, a_j) = delta_ij inside the
    # span of the simple roots (for family A that span is the sum-zero space).
    coeff_rows = [
        [2 * dot(ak, aj) / dot(aj, aj) for ak in simple] for aj in simple
    ]
    units = [tuple(Q(int(i == j)) for j in range(rank)) for i in range(rank)]
    weights = []
    for sol in _solve_columns(coeff_rows, units):
        w = zero(len(simple[0]))
        for c, a in zip(sol, simple):
            w = add(w, scale(c, a))
        weights.append(w)
    return RootDatum(family, rank, len(simple[0]), tuple(simple), all_roots, tuple(weights))


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


def _simple_reflections(simple: Sequence[Vector]) -> List[Callable[[Vector], Vector]]:
    return [lambda v, a=a: reflect(v, a) for a in simple]


def weyl_orbit(datum: RootDatum, weight: Vector) -> Tuple[Vector, ...]:
    """Full Weyl-group orbit of a weight, by closure under simple reflections."""
    if len(weight) != datum.ambient_dim:
        raise ValueError("weight has wrong ambient dimension")
    return tuple(sorted(reflection_closure([tuple(weight)],
                                           _simple_reflections(datum.simple_roots))))


def weyl_order(datum: RootDatum) -> int:
    """Order of the Weyl group, via the orbit of a regular weight."""
    rho = zero(datum.ambient_dim)
    for w in datum.fundamental_weights:
        rho = add(rho, w)
    return len(weyl_orbit(datum, rho))


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

    def restrict(self, beta: Vector) -> Vector:
        """Reduced dual coordinates of the restriction of an absolute weight."""
        return tuple(dot(row, beta) for row in self.dual_matrix)

    def gamma_of(self, alpha: Vector) -> Q:
        for root, step in self.gamma:
            if root == alpha:
                return step
        raise ValueError(f"{alpha} is not a relative root")


def relative_weyl_orbit(rel: RelativeDatum,
                        seeds: Iterable[Tuple[Vector, ...]]) -> Set[Tuple[Vector, ...]]:
    """Union of the orbits of tuples of apartment (primal) points under the
    relative Weyl group, which acts on each point of a tuple.

    The relative simple root a reflects z to z - (a . z) a^vee, with the
    coroot a^vee = 2x/(a . x) where gram x = a.
    """
    xs = _solve_columns(rel.gram, rel.relative_simple)
    coroots = [scale(2 / dot(a, x), x) for a, x in zip(rel.relative_simple, xs)]
    maps = [lambda zs, a=a, c=c: tuple(sub(z, scale(dot(a, z), c)) for z in zs)
            for a, c in zip(rel.relative_simple, coroots)]
    return reflection_closure(seeds, maps)


def fundamental_rays(rel: RelativeDatum) -> List[Vector]:
    """Primitive rays of the fundamental chamber {z : a . z >= 0, a relative simple}."""
    return cone_generators(QPolyhedron([(a, Q(0)) for a in rel.relative_simple], rel.rank))


def _restricted(name: str, datum: RootDatum, dual: Sequence[Vector],
                simple: Sequence[Vector], gram: Sequence[Vector]) -> RelativeDatum:
    """Relative data of a restriction, given by its dual rows.

    The relative roots are the sorted nonzero restrictions of the absolute
    roots; a root's step is 1/2 exactly when twice the root is also a root,
    and 1 otherwise; the rank is the number of dual rows.
    """
    dual = tuple(dual)
    images = {tuple(dot(r, a) for r in dual) for a in datum.all_roots}
    roots = tuple(sorted(v for v in images if not is_zero(v)))
    gamma = tuple((a, Q(1, 2) if scale(2, a) in images else Q(1)) for a in roots)
    return RelativeDatum(name, datum, len(dual), dual, roots, tuple(simple),
                         gamma, tuple(gram))


def _identity(n: int) -> Tuple[Vector, ...]:
    return tuple(tuple(Q(1) if i == j else Q(0) for j in range(n)) for i in range(n))


def _split_relative(datum: RootDatum) -> RelativeDatum:
    if datum.family == "A":
        # the dual rows e_k - e_{k+1} are the simple roots
        dual = datum.simple_roots
        gram = tuple(tuple(dot(a, b) / 2 for b in dual) for a in dual)
    else:
        dual = gram = _identity(datum.rank)
    simple = [tuple(dot(r, a) for r in dual) for a in datum.simple_roots]
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


def preset_relative(name: str, datum: Optional[RootDatum] = None,
                    rank: Optional[int] = None, s: Optional[int] = None,
                    d: Optional[int] = None) -> RelativeDatum:
    """Validated restriction presets: split, su3, nonsplit_C, sl_skew."""
    if name == "split":
        if datum is None:
            raise ValueError("split preset needs a root datum")
        return _split_relative(datum)
    if name == "su3":
        return _su3_relative()
    if name == "nonsplit_C":
        if rank is None:
            raise ValueError("nonsplit_C preset needs a rank")
        return _nonsplit_c_relative(rank)
    if name == "sl_skew":
        if s is None or d is None:
            raise ValueError("sl_skew preset needs s and d")
        return _sl_skew_relative(s, d)
    raise ValueError(f"unsupported preset {name!r}")


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

"""Concrete flag-variety point models with validated coordinates and actions."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from math import comb
from typing import Dict, Optional, Sequence, Tuple

from .qvec import Vector, add, dot, neg, qvec, zero
from .rootdata import RelativeDatum, group_relative
from .torusgit import WeightedPoint
from .valfield import PuiseuxElement, ZERO, ONE

PVec = Tuple[PuiseuxElement, ...]


class UnknownModel(ValueError):
    """A model name outside the table.

    A known prefix with malformed arguments, such as "grass(2)", raises a
    plain ValueError instead."""


# torus weights (e1, e2, -e2, -e1) of the defining representation of Sp4 on
# diag(s1, s2, 1/s2, 1/s1); the symplectic form is u1*v4 - u4*v1 + u2*v3 - u3*v2
_SP4_WEIGHTS = ((Q(1), Q(0)), (Q(0), Q(1)), (Q(0), Q(-1)), (Q(-1), Q(0)))
# the plane coordinates (p12, p13, p24, p34, p14) on the isotropic
# Grassmannian, where p23 = -p14 identically; they satisfy
# q0*q3 - q1*q2 - q4^2 = 0
_SP4_PLANE = ((0, 1), (0, 2), (1, 3), (2, 3), (0, 3))


def symplectic_form(u: PVec, v: PVec) -> PuiseuxElement:
    return u[0] * v[3] - u[3] * v[0] + u[1] * v[2] - u[2] * v[1]


def _pvec(raw) -> PVec:
    return tuple(c if isinstance(c, PuiseuxElement) else PuiseuxElement.const(c)
                 for c in raw)


def _nonzero(vec: PVec) -> bool:
    return any(bool(c) for c in vec)


# the models without arguments: (group, dim, factors, rows, factor models)
_FIXED_MODELS = {
    "sp4_line": (("split", "C", 2), 4, ("defining",), None, ()),
    "sp4_quadric": (("split", "C", 2), 4, ("plane",), None, ()),
    "sp4_flag": (("split", "C", 2), 4, ("defining", "plane"), (2, 4),
                 ("sp4_line", "sp4_quadric")),
    # the second factor is stored pre-twisted, so it carries dual weights
    "su3_pair": (("su3",), 3, ("defining", "dual"), (2, 3), ()),
    "sl3_flag": (("split", "A", 2), 3, ("defining", "dual"), (2, 3), ()),
}


def _parse_model(model: str) -> Tuple[str, Tuple[int, ...]]:
    """The kind of a model name and its integer arguments."""
    for kind, arity in (("proj", 1), ("grass", 2)):
        if model.startswith(kind + "("):
            parts = model[len(kind) + 1:-1].split(",")
            if not model.endswith(")") or len(parts) != arity:
                raise ValueError(f"malformed model {model!r}")
            return kind, tuple(int(a) for a in parts)
    if model in _FIXED_MODELS:
        return model, ()
    raise UnknownModel(f"unknown model {model!r}")


@dataclass(frozen=True)
class ModelSpec:
    """What a model name fixes: its group, weights and point shape.

    group is the preset of the group acting on the model; its defining
    representation has dim coordinates.  Each factor of a point weighs its
    coordinates by the defining weights, their negatives ("dual"), the sums
    of j of them for grass(j,n) ("wedge") or those over _SP4_PLANE ("plane").
    A JSON point lists rows = (count, length) coordinate rows, or, with one
    factor, one flat vector.  factor_models names each factor's own model.
    The weights are built once per model, behind a small LRU (model_spec),
    on first read; the group comes from group_relative's own cache.
    """

    kind: str
    args: Tuple[int, ...]
    group: Tuple
    dim: int
    factors: Tuple[str, ...]
    rows: Optional[Tuple[int, int]]
    factor_models: Tuple[str, ...]

    @property
    def relative(self) -> RelativeDatum:
        """Restriction data of the group acting on the model (one datum per
        group, shared by every model of that group)."""
        return group_relative(*self.group)

    @cached_property
    def defining_weights(self) -> Tuple[Vector, ...]:
        """Torus weights of the group's defining representation."""
        if self.kind.startswith("sp4_"):
            return _SP4_WEIGHTS
        return tuple(tuple(Q(int(k == i)) for k in range(self.dim))
                     for i in range(self.dim))

    @cached_property
    def factor_weights(self) -> Tuple[Tuple[Vector, ...], ...]:
        """Torus weights of the coordinates of each factor of a point."""
        w = self.defining_weights
        return tuple(_weigh(how, w, self.args) for how in self.factors)


def _weigh(how: str, w: Sequence[Vector], args) -> Tuple[Vector, ...]:
    """The weights of one factor, read from the defining weights w."""
    if how == "defining":
        return tuple(w)
    if how == "dual":
        return tuple(neg(v) for v in w)
    subsets = _SP4_PLANE if how == "plane" else combinations(range(len(w)), args[0])
    return tuple(reduce(add, (w[i] for i in s), zero(len(w[0]))) for s in subsets)


@lru_cache(maxsize=16)
def model_spec(model: str) -> ModelSpec:
    """The table entry of a model name, one per name, so each model's weight
    tables are built once.  proj(n) and grass(j,n) make the names unbounded
    in number, so only the most recent are kept.

    Raises UnknownModel for a name outside the table, and a plain ValueError
    for a known prefix with malformed arguments (on every call: a refusal is
    not kept)."""
    kind, args = _parse_model(model)
    if kind == "proj":
        (n,) = args
        if n < 2:
            raise ValueError(f"malformed model {model!r}: proj(n) needs n >= 2")
        return ModelSpec(kind, args, ("split", "A", n - 1), n, ("defining",), None, ())
    if kind == "grass":
        j, n = args
        return ModelSpec(kind, args, ("split", "A", n - 1), n, ("wedge",), (j, n), ())
    return ModelSpec(kind, args, *_FIXED_MODELS[kind])


@dataclass(frozen=True)
class ModelPoint:
    """A validated point of one of the supported flag varieties."""

    model: str
    data: Tuple[PVec, ...]

    def to_json(self) -> dict:
        return {"model": self.model,
                "data": [[c.to_json() for c in vec] for vec in self.data]}

    @staticmethod
    def from_json(doc: dict) -> "ModelPoint":
        raw = [[PuiseuxElement.from_json(c) for c in vec] for vec in doc["data"]]
        return make_point(doc["model"], raw if len(raw) > 1 else raw[0])


def model_relative(model: str) -> RelativeDatum:
    """Restriction data of the group acting on the model."""
    return model_spec(model).relative


def minors(rows: Sequence[PVec]) -> Dict[Tuple[int, ...], PuiseuxElement]:
    """Every nonzero k x k minor of a k-row matrix, keyed by its sorted columns.

    The minors are built one row at a time.  By Laplace expansion along the
    last row, the minor of the first r + 1 rows on the columns S + {c} sums,
    over its columns c, (-1)^#{s in S : s > c} times the entry in column c
    times the minor of the first r rows on S.  Zero entries and zero minors
    are skipped, and nothing is divided.
    """
    out = {(): ONE}
    for row in rows:
        entries = [(c, x) for c, x in enumerate(row) if x]
        grown = {}
        for cols, minor in out.items():
            for c, x in entries:
                if c in cols:
                    continue
                pos = bisect_left(cols, c)
                key = cols[:pos] + (c,) + cols[pos:]
                term = minor * x
                prev = grown.get(key, ZERO)
                grown[key] = prev - term if (len(cols) - pos) % 2 else prev + term
        out = {cols: minor for cols, minor in grown.items() if minor}
    return out


def _plucker(rows: Sequence[PVec], j: int, n: int) -> PVec:
    mm = minors(rows)
    return tuple(mm.get(cols, ZERO) for cols in combinations(range(n), j))


def _plucker_relations_hold(vec: PVec, j: int, n: int) -> bool:
    """Whether the minors lie on grass(j,n), by quadratic Plucker relations.

    The relation of a (j-1)-subset I and a (j+1)-subset J = (m_0 < m_1 < ...)
    is sum_l (-1)^l p[I + m_l] p[J - m_l] = 0, where p[I + m] is 0 when m is
    in I and otherwise the sorted minor with the sign of sorting.  Fix a
    nonzero minor p[K].  For each other L, taking I = K - k and J = L + k
    with k in K - L gives p[K] p[L] as a sum of products of minors nearer
    to K, so these relations fix every minor from p[K] and the j(n - j)
    minors one step from K.  The Plucker vector with those minors satisfies
    all of them, so they all hold exactly when the vector is decomposable.
    """
    p = dict(zip(combinations(range(n), j), vec))
    K = next((S for S, c in p.items() if c), None)
    if K is None:
        return True
    for L in p:
        k = next((x for x in K if x not in L), None)
        if k is None:
            continue
        I = tuple(x for x in K if x != k)
        J = tuple(sorted(L + (k,)))
        total = ZERO
        for l, m in enumerate(J):
            if m in I:
                continue
            a, b = p[tuple(sorted(I + (m,)))], p[J[:l] + J[l + 1:]]
            if a and b:
                # moving m to its sorted place in I passes the entries above it
                odd = (l + sum(i > m for i in I)) % 2
                total = total - a * b if odd else total + a * b
        if total:
            return False
    return True


def make_point(model: str, raw) -> ModelPoint:
    """Validate raw coordinates against the model's defining relations."""
    spec = model_spec(model)
    kind, args = spec.kind, spec.args
    if kind == "proj":
        (n,) = args
        vec = _pvec(raw)
        if len(vec) != n:
            raise ValueError(f"proj({n}) needs {n} coordinates")
        if not _nonzero(vec):
            raise ValueError("zero vector")
        return ModelPoint(model, (vec,))
    if kind == "grass":
        j, n = args
        m = len(list(raw))
        if m == j and all(hasattr(r, "__len__") and len(r) == n for r in raw):
            vec = _plucker([_pvec(r) for r in raw], j, n)
        else:
            vec = _pvec(raw)
            if len(vec) != comb(n, j):
                raise ValueError(f"grass({j},{n}) needs {j} rows or all minors")
            if not _plucker_relations_hold(vec, j, n):
                raise ValueError(f"the minors fail a Plucker relation of grass({j},{n})")
        if not _nonzero(vec):
            raise ValueError("zero vector")
        return ModelPoint(model, (vec,))
    if kind == "sp4_line":
        vec = _pvec(raw)
        if len(vec) != 4 or not _nonzero(vec):
            raise ValueError("sp4_line needs a nonzero 4-vector")
        return ModelPoint(model, (vec,))
    if kind == "sp4_quadric":
        vec = _pvec(raw)
        if len(vec) != 5 or not _nonzero(vec):
            raise ValueError("sp4_quadric needs a nonzero 5-vector")
        q = vec[0] * vec[3] - vec[1] * vec[2] - vec[4] * vec[4]
        if q:
            raise ValueError("q0*q3 - q1*q2 - q4^2 != 0")
        return ModelPoint(model, (vec,))
    # the two-factor models
    count, length = spec.rows
    vecs = tuple(_pvec(r) for r in raw)
    if len(vecs) != count or any(len(v) != length or not _nonzero(v) for v in vecs):
        raise ValueError(f"{model} needs {count} nonzero {length}-vectors")
    x, y = vecs
    if kind == "sp4_flag":
        if not _nonzero(_plucker([x, y], 2, 4)):
            raise ValueError("the two vectors do not span a plane")
        if symplectic_form(x, y):
            raise ValueError("u1*v4 - u4*v1 + u2*v3 - u3*v2 != 0")
    elif kind == "su3_pair":
        if sum((a * b.tau_twist() for a, b in zip(x, y)), ZERO):
            raise ValueError("x1*tau(y1) + x2*tau(y2) + x3*tau(y3) != 0")
    elif sum((a * b for a, b in zip(x, y)), ZERO):
        raise ValueError("v1*phi1 + v2*phi2 + v3*phi3 != 0")
    return ModelPoint(model, vecs)


def _plane_coords(p: ModelPoint) -> PVec:
    """The five independent minors (p12, p13, p24, p34, p14) of an sp4 flag."""
    u, v = p.data
    mm = dict(zip(combinations(range(4), 2), _plucker([u, v], 2, 4)))
    return tuple(mm[pair] for pair in _SP4_PLANE)


def _factor_views(p: ModelPoint):
    """(weights, coords) per factor of the point."""
    coords = (p.data[0], _plane_coords(p)) if p.model == "sp4_flag" else p.data
    return list(zip(model_spec(p.model).factor_weights, coords))


def weighted_coordinates(p: ModelPoint, factor: Optional[int] = None,
                         lam: Optional[Tuple[int, int]] = None) -> WeightedPoint:
    """Torus-weight-labeled coordinates of a point, for one factor or a product."""
    views = _factor_views(p)
    if lam is not None:
        if len(views) != 2:
            raise ValueError("product weights need a two-factor model")
        a, b = int(lam[0]), int(lam[1])
        if a < 0 or b < 0 or (a == 0 and b == 0):
            raise ValueError("weight coefficients must be nonnegative, not both 0")
        (w1, c1), (w2, c2) = views
        p1 = [c ** a for c in c1]
        p2 = [c ** b for c in c2]
        entries = []
        k = 0
        for wi, ci in zip(w1, p1):
            for wj, cj in zip(w2, p2):
                w = tuple(a * x + b * y for x, y in zip(wi, wj))
                entries.append((w, k, ci * cj))
                k += 1
        return WeightedPoint(entries)
    if factor is None:
        if len(views) != 1:
            raise ValueError("this model needs an explicit factor")
        factor = 1
    weights, coords = views[factor - 1]
    return WeightedPoint([(w, i, c) for i, (w, c) in enumerate(zip(weights, coords))])


def determinant(m: Sequence[PVec]) -> PuiseuxElement:
    """Determinant of a square matrix of field elements: its one full minor."""
    return minors(m).get(tuple(range(len(m))), ZERO)


def _mat_vec(m: Sequence[PVec], v: PVec) -> PVec:
    return tuple(sum((a * b for a, b in zip(row, v)), ZERO) for row in m)


def adjugate(m: Sequence[PVec]) -> Tuple[PVec, ...]:
    """Adjugate matrix; equals the inverse when the determinant is 1."""
    n = len(m)
    out = [[ZERO] * n for _ in range(n)]
    for j in range(n):
        # the minors of m without row j, one per deleted column i
        mm = minors([row for r, row in enumerate(m) if r != j])
        for i in range(n):
            cof = mm.get(tuple(c for c in range(n) if c != i), ZERO)
            out[i][j] = cof if (i + j) % 2 == 0 else -cof
    return tuple(tuple(row) for row in out)


def _pmat(raw) -> Tuple[PVec, ...]:
    return tuple(_pvec(row) for row in raw)


def act(g, p: ModelPoint) -> ModelPoint:
    """Translate a point by a group element, checking the group's constraints."""
    spec = model_spec(p.model)
    kind, size = spec.kind, spec.dim
    m = _pmat(g)
    # the matrix acts on the defining representation of the model's group
    if len(m) != size or any(len(row) != size for row in m):
        raise ValueError(f"need a {size}x{size} matrix")
    if kind in ("proj", "grass", "sl3_flag"):
        if determinant(m) != ONE:
            raise ValueError("matrix determinant must be 1")
        if kind == "proj":
            return ModelPoint(p.model, (_mat_vec(m, p.data[0]),))
        if kind == "sl3_flag":
            ginv_t = tuple(zip(*adjugate(m)))
            return ModelPoint(p.model,
                              (_mat_vec(m, p.data[0]), _mat_vec(ginv_t, p.data[1])))
        j, n = spec.args
        # exterior-power action: its entry at row set I and column set K is
        # the minor of g on the rows I and the columns K
        coords = dict(zip(combinations(range(n), j), p.data[0]))
        newc = tuple(sum((minor * coords[cols] for cols, minor
                          in minors([m[r] for r in rows_idx]).items()), ZERO)
                     for rows_idx in coords)
        return ModelPoint(p.model, (newc,))
    if kind in ("sp4_flag", "sp4_line"):
        cols = [tuple(m[i][j] for i in range(4)) for j in range(4)]
        for a in range(4):
            for b in range(a, 4):
                want = symplectic_form(
                    tuple(ONE if k == a else ZERO for k in range(4)),
                    tuple(ONE if k == b else ZERO for k in range(4)))
                if symplectic_form(cols[a], cols[b]) != want:
                    raise ValueError("matrix does not preserve the symplectic form")
        return ModelPoint(p.model, tuple(_mat_vec(m, vec) for vec in p.data))
    if kind == "su3_pair":
        if determinant(m) != ONE:
            raise ValueError("matrix determinant must be 1")
        mt = [[m[j][i].tau_twist() for j in range(3)] for i in range(3)]
        for i in range(3):
            for j in range(3):
                s = sum((mt[i][k] * m[k][j] for k in range(3)), ZERO)
                if s != (ONE if i == j else ZERO):
                    raise ValueError("matrix is not unitary for the fixed form")
        # the same matrix acts on the pre-twisted second factor
        return ModelPoint(p.model,
                          (_mat_vec(m, p.data[0]), _mat_vec(m, p.data[1])))
    raise ValueError(f"action on {p.model!r} is not supported")


def p_epsilon_member(g, eps: Sequence, model: str, rel: RelativeDatum) -> bool:
    """Parabolic-membership test: conjugation by the cocharacter stays bounded."""
    m = _pmat(g)
    ev = qvec(eps)
    pairings = [dot(rel.restrict(w), ev) for w in model_spec(model).defining_weights]
    return all(m[i][j].valuation() + pi - pj >= 0
               for i, pi in enumerate(pairings)
               for j, pj in enumerate(pairings) if m[i][j])


def project(p: ModelPoint, which: int) -> ModelPoint:
    """Forget one half of an sp4 flag: its line, or its plane on the quadric."""
    names = model_spec(p.model).factor_models
    if not names:
        raise ValueError("projection is defined for sp4_flag points")
    if which not in (1, 2):
        raise ValueError("factor must be 1 or 2")
    return make_point(names[which - 1], _factor_views(p)[which - 1][1])

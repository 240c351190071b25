"""Concrete flag-variety point models with validated coordinates and actions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import combinations, permutations
from typing import Optional, Sequence, Tuple

from .qvec import Vector, dot, qvec
from .rootdata import RelativeDatum, build_root_system, preset_relative
from .torusgit import WeightedPoint
from .valfield import PuiseuxElement, ZERO, ONE

PVec = Tuple[PuiseuxElement, ...]

# symplectic form u1*v4 - u4*v1 + u2*v3 - u3*v2 on coordinates of weights
# (e1, e2, -e2, -e1) for the diagonal torus diag(s1, s2, 1/s2, 1/s1)
_SP4_WEIGHTS = ((Q(1), Q(0)), (Q(0), Q(1)), (Q(0), Q(-1)), (Q(-1), Q(0)))
# plane coordinates (p12, p13, p24, p34, p14) on the isotropic Grassmannian,
# where p23 = -p14 identically; they satisfy q0*q3 - q1*q2 - q4^2 = 0
_SP4_PLANE_WEIGHTS = ((Q(1), Q(1)), (Q(1), Q(-1)), (Q(-1), Q(1)),
                      (Q(-1), Q(-1)), (Q(0), Q(0)))


def _std_weight(i: int, n: int) -> Vector:
    return tuple(Q(1) if k == i else Q(0) for k in range(n))


def symplectic_form(u: PVec, v: PVec) -> PuiseuxElement:
    return u[0] * v[3] - u[3] * v[0] + u[1] * v[2] - u[2] * v[1]


def _pvec(raw) -> PVec:
    out = []
    for c in raw:
        if isinstance(c, PuiseuxElement):
            out.append(c)
        else:
            out.append(PuiseuxElement.const(c))
    return tuple(out)


def _nonzero(vec: PVec) -> bool:
    return any(bool(c) for c in vec)


def _parse_model(model: str):
    if model.startswith("proj(") and model.endswith(")"):
        return "proj", (int(model[5:-1]),)
    if model.startswith("grass(") and model.endswith(")"):
        j, n = model[6:-1].split(",")
        return "grass", (int(j), int(n))
    if model in ("sp4_flag", "sp4_line", "sp4_quadric", "su3_pair", "sl3_flag"):
        return model, ()
    raise ValueError(f"unknown model {model!r}")


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
    kind, args = _parse_model(model)
    if kind == "proj":
        return preset_relative("split", datum=build_root_system("A", args[0] - 1))
    if kind == "grass":
        return preset_relative("split", datum=build_root_system("A", args[1] - 1))
    if kind.startswith("sp4"):
        return preset_relative("split", datum=build_root_system("C", 2))
    if kind == "su3_pair":
        return preset_relative("su3")
    return preset_relative("split", datum=build_root_system("A", 2))


def _plucker(rows: Sequence[PVec], j: int, n: int) -> PVec:
    return tuple(_det([[row[c] for c in cols] for row in rows])
                 for cols in combinations(range(n), j))


def make_point(model: str, raw) -> ModelPoint:
    """Validate raw coordinates against the model's defining relations."""
    kind, args = _parse_model(model)
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
            if len(vec) != len(list(combinations(range(n), j))):
                raise ValueError(f"grass({j},{n}) needs {j} rows or all minors")
            if (j, n) != (2, 4):
                raise ValueError("direct minor input is only validated for grass(2,4)")
            rel = vec[0] * vec[5] - vec[1] * vec[4] + vec[2] * vec[3]
            if rel:
                raise ValueError("p12*p34 - p13*p24 + p14*p23 != 0")
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
    if kind == "sp4_flag":
        u, v = _pvec(raw[0]), _pvec(raw[1])
        if len(u) != 4 or len(v) != 4:
            raise ValueError("sp4_flag needs two 4-vectors")
        minors = _plucker([u, v], 2, 4)
        if not _nonzero(minors):
            raise ValueError("the two vectors do not span a plane")
        if symplectic_form(u, v):
            raise ValueError("u1*v4 - u4*v1 + u2*v3 - u3*v2 != 0")
        return ModelPoint(model, (u, v))
    if kind == "su3_pair":
        x, y = _pvec(raw[0]), _pvec(raw[1])
        if len(x) != 3 or len(y) != 3 or not _nonzero(x) or not _nonzero(y):
            raise ValueError("su3_pair needs two nonzero 3-vectors")
        s = ZERO
        for a, b in zip(x, y):
            s = s + a * b.tau_twist()
        if s:
            raise ValueError("x1*tau(y1) + x2*tau(y2) + x3*tau(y3) != 0")
        return ModelPoint(model, (x, y))
    if kind == "sl3_flag":
        v, phi = _pvec(raw[0]), _pvec(raw[1])
        if len(v) != 3 or len(phi) != 3 or not _nonzero(v) or not _nonzero(phi):
            raise ValueError("sl3_flag needs two nonzero 3-vectors")
        s = ZERO
        for a, b in zip(v, phi):
            s = s + a * b
        if s:
            raise ValueError("v1*phi1 + v2*phi2 + v3*phi3 != 0")
        return ModelPoint(model, (v, phi))
    raise ValueError(f"unknown model {model!r}")


def _plane_coords(p: ModelPoint) -> PVec:
    """The five independent minors (p12, p13, p24, p34, p14) of an sp4 flag."""
    u, v = p.data
    mm = dict(zip(combinations(range(4), 2), _plucker([u, v], 2, 4)))
    return (mm[(0, 1)], mm[(0, 2)], mm[(1, 3)], mm[(2, 3)], mm[(0, 3)])


def _factor_views(p: ModelPoint):
    """(weights, coords) per factor of the model's defining representation."""
    kind, args = _parse_model(p.model)
    if kind == "proj":
        n = args[0]
        return [(tuple(_std_weight(i, n) for i in range(n)), p.data[0])]
    if kind == "grass":
        j, n = args
        ws = []
        for cols in combinations(range(n), j):
            w = [Q(0)] * n
            for c in cols:
                w[c] = Q(1)
            ws.append(tuple(w))
        return [(tuple(ws), p.data[0])]
    if kind == "sp4_line":
        return [(_SP4_WEIGHTS, p.data[0])]
    if kind == "sp4_quadric":
        return [(_SP4_PLANE_WEIGHTS, p.data[0])]
    if kind == "sp4_flag":
        return [(_SP4_WEIGHTS, p.data[0]),
                (_SP4_PLANE_WEIGHTS, _plane_coords(p))]
    if kind == "su3_pair":
        ws = tuple(_std_weight(i, 3) for i in range(3))
        # the second factor is stored pre-twisted, so it carries dual weights
        dual = tuple(tuple(-a for a in w) for w in ws)
        return [(ws, p.data[0]), (dual, p.data[1])]
    if kind == "sl3_flag":
        ws = tuple(_std_weight(i, 3) for i in range(3))
        dual = tuple(tuple(-a for a in w) for w in ws)
        return [(ws, p.data[0]), (dual, p.data[1])]
    raise ValueError(f"unknown model {p.model!r}")


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
        entries = []
        k = 0
        for i, wi in enumerate(w1):
            for j, wj in enumerate(w2):
                w = tuple(a * x + b * y for x, y in zip(wi, wj))
                entries.append((w, k, (c1[i] ** a) * (c2[j] ** b)))
                k += 1
        return WeightedPoint(entries)
    if factor is None:
        if len(views) != 1:
            raise ValueError("this model needs an explicit factor")
        factor = 1
    weights, coords = views[factor - 1]
    return WeightedPoint([(w, i, c) for i, (w, c) in enumerate(zip(weights, coords))])


def _det(m: Sequence[PVec]) -> PuiseuxElement:
    n = len(m)
    out = ZERO
    for perm in permutations(range(n)):
        sign = 1
        p = list(perm)
        for a in range(n):
            for b in range(a + 1, n):
                if p[a] > p[b]:
                    sign = -sign
        term = ONE
        for i in range(n):
            term = term * m[i][perm[i]]
        out = out + (term if sign > 0 else -term)
    return out


def _mat_vec(m: Sequence[PVec], v: PVec) -> PVec:
    out = []
    for row in m:
        s = ZERO
        for a, b in zip(row, v):
            s = s + a * b
        out.append(s)
    return tuple(out)


def adjugate(m: Sequence[PVec]) -> Tuple[PVec, ...]:
    """Adjugate matrix; equals the inverse when the determinant is 1."""
    n = len(m)
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [[m[r][c] for c in range(n) if c != i]
                   for r in range(n) if r != j]
            cof = _det(sub)
            out[i][j] = cof if (i + j) % 2 == 0 else -cof
    return tuple(tuple(row) for row in out)


def _pmat(raw) -> Tuple[PVec, ...]:
    return tuple(_pvec(row) for row in raw)


def act(g, p: ModelPoint) -> ModelPoint:
    """Translate a point by a group element, checking the group's constraints."""
    kind, args = _parse_model(p.model)
    m = _pmat(g)
    # the matrix acts on the defining representation of the model's group
    size = args[-1] if args else (4 if kind.startswith("sp4") else 3)
    if len(m) != size or any(len(row) != size for row in m):
        raise ValueError(f"need a {size}x{size} matrix")
    if kind in ("proj", "grass", "sl3_flag"):
        if _det(m) != ONE:
            raise ValueError("matrix determinant must be 1")
        if kind == "proj":
            return ModelPoint(p.model, (_mat_vec(m, p.data[0]),))
        if kind == "sl3_flag":
            ginv_t = tuple(tuple(adjugate(m)[j][i] for j in range(3))
                           for i in range(3))
            return ModelPoint(p.model,
                              (_mat_vec(m, p.data[0]), _mat_vec(ginv_t, p.data[1])))
        j, n = args
        # exterior-power action on the minors
        pairs = list(combinations(range(n), j))
        newc = []
        for rows_idx in pairs:
            s = ZERO
            for k, cols_idx in enumerate(pairs):
                sub = [[m[r][c] for c in cols_idx] for r in rows_idx]
                s = s + _det(sub) * p.data[0][k]
            newc.append(s)
        return ModelPoint(p.model, (tuple(newc),))
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
        if _det(m) != ONE:
            raise ValueError("matrix determinant must be 1")
        mt = [[m[j][i].tau_twist() for j in range(3)] for i in range(3)]
        for i in range(3):
            for j in range(3):
                s = ZERO
                for k in range(3):
                    s = s + mt[i][k] * m[k][j]
                if s != (ONE if i == j else ZERO):
                    raise ValueError("matrix is not unitary for the fixed form")
        # the same matrix acts on the pre-twisted second factor
        return ModelPoint(p.model,
                          (_mat_vec(m, p.data[0]), _mat_vec(m, p.data[1])))
    raise ValueError(f"action on {p.model!r} is not supported")


def p_epsilon_member(g, eps: Sequence, model: str, rel: RelativeDatum) -> bool:
    """Parabolic-membership test: conjugation by the cocharacter stays bounded."""
    kind, args = _parse_model(model)
    if kind in ("proj", "grass", "sl3_flag", "su3_pair"):
        n = args[0] if kind == "proj" else (args[1] if kind == "grass" else 3)
        weights = [_std_weight(i, n) for i in range(n)]
    elif kind.startswith("sp4"):
        weights = list(_SP4_WEIGHTS)
    else:
        raise ValueError(f"unknown model {model!r}")
    m = _pmat(g)
    ev = qvec(eps)
    for i, wi in enumerate(weights):
        for j, wj in enumerate(weights):
            if not m[i][j]:
                continue
            drop = dot(rel.restrict(wi), ev) - dot(rel.restrict(wj), ev)
            if m[i][j].valuation() + drop < 0:
                return False
    return True


def project(p: ModelPoint, which: int) -> ModelPoint:
    """Forget one half of an sp4 flag: its line, or its plane on the quadric."""
    if p.model != "sp4_flag":
        raise ValueError("projection is defined for sp4_flag points")
    if which == 1:
        return make_point("sp4_line", p.data[0])
    if which == 2:
        return make_point("sp4_quadric", _plane_coords(p))
    raise ValueError("factor must be 1 or 2")

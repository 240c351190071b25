"""The four benchmark workloads: seeded inputs, the timed operation, checks.

Every workload is a sequence of operations.  Operation ``i`` of a workload is
built from its own random stream, named by the workload, the seed and ``i``
(both operations of an ``apartment-lp`` point share one), so the first ``n``
operations are the same whatever the corpus length.  The
kind of operation ``i`` cycles through a fixed pattern, which keeps the mix
of kinds identical from seed to seed; the seed varies points, parameters and
coefficients within each kind.

A workload exposes four things:

* ``generate(seed, count, stream)`` builds the inputs (untimed);
* ``run(op)`` is one timed operation, a call into btgit's public API;
* ``encode(op, result)`` turns its result into canonical JSON for digests;
* ``check(op, result)`` lists the seed-independent correctness violations.
"""

from __future__ import annotations

import functools
import io
import json
import random
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Any, Dict, List, Optional, Sequence, Tuple

from btgit import cli
from btgit.interval import interval_A, interval_A_chi
from btgit.models import (ModelPoint, make_point, model_relative,
                          weighted_coordinates)
from btgit.polyhedra import (QPolyhedron, hull_member, hull_member_bruteforce,
                             hull_skeleton, minimax_face, polyhedron_vertices)
from btgit.rootdata import build_root_system, preset_relative, weyl_orbit
from btgit.torusgit import (classify_regular_weights, mu_K, mu_residue,
                            root_hyperplanes, stability_status)
from btgit.treebuilding import TreePoint, p_chi_data, ss_at
from btgit.valfield import (INF, ZERO, PuiseuxElement, format_rational,
                            parse_puiseux, parse_rational)

DEFAULT_SEED = 0


@dataclass
class Op:
    """One generated operation: its kind and the inputs handed to btgit."""

    index: int
    kind: str
    args: Dict[str, Any]


# -- seeded inputs ------------------------------------------------------------


def _rng(workload: str, seed: int, stream: str, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}/{index}")


def _coef(r: random.Random) -> int:
    return r.choice((-4, -3, -2, -1, 1, 2, 3, 4))


def rand_element(r: random.Random, max_terms: int = 3, denom: int = 2,
                 nonzero: bool = False, lo: int = -2, hi: int = 3
                 ) -> PuiseuxElement:
    """A sum of up to ``max_terms`` monomials with exponents in (1/denom)Z."""
    grid = [Q(n, denom) for n in range(lo * denom, hi * denom + 1)]
    while True:
        k = r.randint(1 if nonzero else 0, max_terms)
        out = PuiseuxElement((q, _coef(r)) for q in r.sample(grid, k))
        if out or not nonzero:
            return out


def rand_monomial(r: random.Random, denom: int = 2) -> PuiseuxElement:
    return PuiseuxElement.monomial(_coef(r), Q(r.randint(-2, 4), denom))


TWO_FACTOR = ("sp4_flag", "su3_pair", "sl3_flag")


def rand_point(r: random.Random, model: str, generic: bool = False,
               zeros: Optional[Tuple[int, int]] = None):
    """Raw coordinates of a valid point of one of the benchmark's models.

    A ``generic`` point has every torus-weight coordinate nonzero (for the
    two-factor models, with ``lam=(1,1)``), so its weight polytope, and the
    size of every LP and hull built from it, is the same for every seed.
    Such points are stable.  Otherwise coordinates are drawn with zeros
    allowed, as the tests draw them; ``zeros=(lo, hi)`` keeps only points
    with ``lo`` to ``hi`` zero torus-weight coordinates.
    """
    nz = generic
    while True:
        if model.startswith("proj("):
            n = int(model[5:-1])
            raw = [rand_element(r, nonzero=nz) for _ in range(n)]
        elif model == "grass(2,4)":
            raw = [[rand_element(r, max_terms=2, nonzero=nz) for _ in range(4)]
                   for _ in range(2)]
        elif model == "sp4_flag":
            # isotropic plane: solve the symplectic form for v1 over a
            # monomial pivot u4
            u = [rand_element(r, max_terms=2, denom=1, nonzero=nz)
                 for _ in range(3)]
            u.append(rand_monomial(r, denom=1))
            q4, c4 = u[3].terms[0]
            v = [ZERO] + [rand_element(r, max_terms=2, denom=1, nonzero=nz)
                          for _ in range(3)]
            v[0] = (u[0] * v[3] + u[1] * v[2] - u[2] * v[1]).monomial_div(c4, q4)
            raw = [u, v]
        elif model == "su3_pair":
            x = [rand_element(r, max_terms=2, nonzero=True) for _ in range(2)]
            x.append(rand_monomial(r))
            y = [rand_element(r, max_terms=2, nonzero=True) for _ in range(2)]
            s = x[0] * y[0].tau_twist() + x[1] * y[1].tau_twist()
            q3, c3 = x[2].terms[0]
            y.append((-s).monomial_div(c3, q3).tau_twist())
            raw = [x, y]
        elif model == "sl3_flag":
            v = [rand_element(r, max_terms=2, denom=1, nonzero=True),
                 rand_element(r, max_terms=2, denom=1, nonzero=nz),
                 rand_monomial(r, denom=1)]
            phi = [rand_element(r, max_terms=2, denom=1, nonzero=nz)
                   for _ in range(2)]
            q3, c3 = v[2].terms[0]
            phi.append((-(v[0] * phi[0] + v[1] * phi[1])).monomial_div(c3, q3))
            raw = [v, phi]
        else:
            raise ValueError(f"no sampler for {model!r}")
        try:
            p = make_point(model, raw)
        except ValueError:
            continue
        if generic or zeros:
            wp = weighted_coordinates(p, lam=(1, 1) if model in TWO_FACTOR
                                      else None)
            lo, hi = zeros or (0, 0)
            if not lo <= sum(not c for _, _, c in wp.entries) <= hi:
                continue
        return raw


def elem_str(e: PuiseuxElement) -> str:
    """Element in the CLI's string syntax, e.g. ``3*t^{1/2} - t^{2} + 1``."""
    if not e:
        return "0"
    parts = []
    for q, c in e.terms:
        parts.append(format_rational(c) if q == 0 else
                     f"{format_rational(c)}*t^{{{format_rational(q)}}}")
    return " + ".join(parts).replace("+ -", "- ")


def elem_json(r: random.Random, e: PuiseuxElement):
    """CLI encoding of an element: mostly strings, sometimes [q, c] pairs."""
    if r.random() < 0.2:
        return [[format_rational(q), format_rational(c)] for q, c in e.terms]
    return elem_str(e)


def _chi(r: random.Random, rank: int) -> Tuple[Q, ...]:
    while True:
        chi = tuple(Q(r.randint(-3, 3)) for _ in range(rank))
        if any(chi):
            return chi


# -- canonical encodings ----------------------------------------------------


def _vec(v) -> List[str]:
    return [format_rational(a) for a in v]


def _poly(p: Optional[QPolyhedron]):
    if p is None:
        return None
    return [[_vec(n), format_rational(o)] for n, o in p.halfspaces]


# -- independent exact helpers for the checks --------------------------------


def _rank(rows: Sequence[Sequence[Q]]) -> int:
    """Matrix rank by plain Gaussian elimination, independent of btgit."""
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _dot(x, y) -> Q:
    return sum((a * b for a, b in zip(x, y)), Q(0))


def _primitive_line(v) -> Tuple[Q, ...]:
    """Primitive integer direction, sign normalised: identifies a line."""
    den = 1
    for a in v:
        den = den * a.denominator // _gcd(den, a.denominator)
    ints = [int(a * den) for a in v]
    g = 0
    for n in ints:
        g = _gcd(g, abs(n))
    out = tuple(Q(n // g) for n in ints)
    first = next(a for a in out if a != 0)
    return out if first > 0 else tuple(-a for a in out)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


# -- CLI workloads -------------------------------------------------------------


def run_cli(command: str, text: str) -> Tuple[int, str]:
    """Serve one request through ``btgit.cli.main`` in this process.

    A request that escapes ``main`` with an exception is reported as exit
    code 1, like the console script would.
    """
    old = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, err
    try:
        code = cli.main(["--command", command])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc(file=err)
        code = 1
    finally:
        sys.stdin, sys.stdout, sys.stderr = old
    return code, out.getvalue()


# The four inputs that escape the CLI with a traceback at the baseline; the
# README promises exit 2 for each.  They run outside the timed loop.
CRASH_PROBES = (
    ("status", {"model": "grass(x,4)", "point": ["1", "1", "1", "1", "1", "1"]}),
    ("status", {"model": "proj(1)", "point": ["1"]}),
    ("status", {"model": "proj(2)", "point": ["1", "t^{1/0}"]}),
    ("models", {"model": "proj(2)", "point": ["1", "t"],
                "act": [["1", "0"], ["1"]]}),
)


def run_crash_probes() -> List[int]:
    return [run_cli(cmd, json.dumps(payload))[0] for cmd, payload in CRASH_PROBES]


class CliWorkload:
    """Requests sent in-process through the JSON CLI."""

    def run(self, op: Op):
        return run_cli(op.args["command"], op.args["text"])

    def encode(self, op: Op, result):
        code, out = result
        return [code, out]

    def check(self, op: Op, result) -> List[str]:
        code, out = result
        want = op.args["expect"]
        if code != want:
            return [f"exit {code}, expected {want}"]
        if code != 0:
            return [] if out == "" else ["output on a failed request"]
        try:
            doc = json.loads(out)
        except ValueError:
            return ["output is not JSON"]
        if cli.serialize(doc) != out:
            return ["output is not canonical JSON"]
        checker = getattr(self, "_check_" + op.args["command"], None)
        return checker(op, doc) if checker else []

    # seed-independent checks per command ---------------------------------

    def _check_classify(self, op, doc):
        return [] if doc["table"] == doc["scan"] else ["classify table != scan"]

    def _check_chambers(self, op, doc):
        hyps = [[parse_rational(a) for a in h] for h in doc["hyperplanes"]]
        errs = []
        for cell in doc["cells"]:
            w = [parse_rational(a) for a in cell["weight"]]
            signs = [(_dot(h, w) > 0) - (_dot(h, w) < 0) for h in hyps]
            if signs != cell["signs"]:
                errs.append("chamber signs disagree with the hyperplanes")
        return errs

    def _status_of(self, op):
        payload = json.loads(op.args["text"])
        p = make_point(payload["model"], [_decode(c) for c in payload["point"]])
        wp = weighted_coordinates(p)
        rel = model_relative(payload["model"])
        origin = (Q(0),) * rel.rank
        pts = mu_K(wp, rel).points
        return hull_member_bruteforce(pts, origin), wp, rel

    def _check_status(self, op, doc):
        if "chi" in json.loads(op.args["text"]):
            return []
        semistable, _, _ = self._status_of(op)
        if semistable != (doc["status"] != "unstable"):
            return ["status disagrees with the brute-force hull oracle"]
        return []

    def _check_interval(self, op, doc):
        semistable, wp, rel = self._status_of(op)
        errs = []
        if doc["empty"] != (not semistable):
            errs.append("interval empty but the point is semistable, or back")
        if not doc["empty"]:
            stable = stability_status(wp, rel) == "stable"
            if doc["bounded"] != stable:
                errs.append("interval bounded iff stable fails")
        return errs

    def _check_tree(self, op, doc):
        payload = json.loads(op.args["text"])
        x0, x1 = (_decode(c) for c in payload["point"])
        x = make_point("proj(2)", (x0, x1))
        if doc["interval"] == "empty":
            if doc["certificate"] == "radius_limited":
                b = parse_puiseux(doc["witness"][1][0])
                e = (x1 - b * x0).valuation() - x0.valuation()
                if not e / 2 > parse_rational(doc["radius"]):
                    return ["radius-limited walk stopped inside the radius"]
            return []
        errs = []
        for z in doc["interval"]:
            pt = TreePoint(parse_puiseux(z["b"]), parse_rational(z["u"]))
            if not ss_at(x, pt):
                errs.append("tree point is not semistable")
        return errs

    def _check_models(self, op, doc):
        try:
            ModelPoint.from_json(doc["point"])
        except ValueError:
            return ["models output is not a valid point"]
        return []


def _decode(c) -> PuiseuxElement:
    if isinstance(c, list):
        return PuiseuxElement((parse_rational(q), parse_rational(v)) for q, v in c)
    return parse_puiseux(c)


def _point_json(r: random.Random, raw) -> list:
    if raw and isinstance(raw[0], list):
        return [[elem_json(r, c) for c in row] for row in raw]
    return [elem_json(r, c) for c in raw]


_SPLIT_SMALL = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                ("C", 2), ("C", 3), ("D", 3))
_RANK_LE2 = (("A", 1), ("A", 2), ("B", 2), ("C", 2))


def _cli_small_request(kind: str, k: int, r: random.Random
                       ) -> Tuple[str, dict, int]:
    """(command, payload, expected exit code) for one small request.

    Group choices (family, rank, preset, subset size) follow the cycle
    number ``k`` rather than the seed, so every seed gets the same mix of
    request sizes; the seed picks points, weights, subsets and characters.
    """
    if kind == "rootsys":
        fam, rank = _SPLIT_SMALL[k % len(_SPLIT_SMALL)]
        return "rootsys", {"preset": "split", "family": fam, "rank": rank}, 0
    if kind == "rootsys_preset":
        payload = ({"preset": "su3"},
                   {"preset": "nonsplit_C", "rank": 2 + k // 3 % 2},
                   {"preset": "sl_skew", "s": 1, "d": 2})[k % 3]
        return "rootsys", payload, 0
    if kind == "classify":
        fam, rank = _SPLIT_SMALL[k % 7]
        J = sorted(r.sample(range(1, rank + 1), 1 + k // 7 % rank))
        return "classify", {"family": fam, "rank": rank, "J": J}, 0
    if kind == "classify_preset":
        payload = ({"preset": "su3", "J": [1, 2]},
                   {"preset": "su3", "J": [r.choice((1, 2))]},
                   {"preset": "nonsplit_C", "rank": 2,
                    "J": [r.choice((1, 2))]})[k % 3]
        return "classify", payload, 0
    if kind == "chambers":
        fam, rank = _RANK_LE2[k % 4]
        weights = [[format_rational(Q(r.randint(-5, 5), r.randint(1, 3)))
                    for _ in range(rank)] for _ in range(r.randint(1, 3))]
        return "chambers", {"preset": "split", "family": fam, "rank": rank,
                            "weights": weights}, 0
    if kind in ("status2", "status3", "interval2", "interval3"):
        # generic (stable), one zero coordinate (unstable), or unrestricted
        n = int(kind[-1])
        raw = rand_point(r, f"proj({n})", generic=k % 3 < 2)
        if k % 3 == 1:
            raw[r.randrange(n)] = ZERO
        payload = {"model": f"proj({n})", "point": _point_json(r, raw)}
        if kind.startswith("status") and k % 3 == 0:
            payload["chi"] = [format_rational(a) for a in _chi(r, n - 1)]
        return kind[:-1], payload, 0
    if kind == "tree":
        x1 = rand_element(r, max_terms=3, denom=r.choice((1, 2, 3)), nonzero=True)
        payload = {"point": ["1", elem_json(r, x1)], "R": r.randint(1, 4)}
        return "tree", payload, 0
    if kind == "models_act":
        n = 2 + k % 2
        raw = rand_point(r, f"proj({n})")
        g = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
        i, j = r.sample(range(n), 2)
        g[i][j] = elem_str(rand_element(r, max_terms=2, nonzero=True))
        return "models", {"model": f"proj({n})", "point": _point_json(r, raw),
                          "act": g}, 0
    if kind == "models_project":
        raw = rand_point(r, "sp4_flag")
        return "models", {"model": "sp4_flag", "point": _point_json(r, raw),
                          "project": r.choice(("sp4_line", "sp4_quadric"))}, 0
    if kind == "chi_preset":
        fam, rank = _RANK_LE2[k % 4]
        return "chi", {"preset": "split", "family": fam, "rank": rank,
                       "chi": [format_rational(a) for a in _chi(r, rank)]}, 0
    if kind == "chi_model":
        raw = rand_point(r, "proj(2)")
        return "chi", {"model": "proj(2)", "point": _point_json(r, raw),
                       "chi": [r.choice(("1", "-1", "2", "-3"))]}, 0
    if kind == "invalid":
        return (
            ("classify", {"family": "A", "rank": 2, "J": []}, 2),
            ("status", {"model": "proj(2)", "point": ["1", "t"], "extra": 1}, 2),
            ("interval", {"model": "proj(2)", "point": ["1", "t"],
                          "lam": [1, 1]}, 2),
            ("chambers", {"family": "A", "rank": 2, "weights": [["1/0x"]]}, 2),
        )[k % 4]
    if kind == "unsupported":
        return (
            ("classify", {"family": "E", "rank": 6, "J": [1]}, 3),
            ("status", {"model": "flag(7)", "point": ["1"]}, 3),
            ("rootsys", {"preset": "split", "family": "G", "rank": 2}, 3),
        )[k % 3]
    raise ValueError(kind)


class CliSmall(CliWorkload):
    name = "cli-small"
    pattern = ("rootsys", "status2", "classify", "interval2", "chambers",
               "tree", "models_act", "chi_preset", "rootsys_preset",
               "status3", "classify_preset", "interval3", "models_project",
               "chi_model", "invalid", "unsupported")

    def generate(self, seed: int, count: int, stream: str = "main") -> List[Op]:
        ops = []
        for i in range(count):
            r = _rng(self.name, seed, stream, i)
            kind = self.pattern[i % len(self.pattern)]
            command, payload, expect = _cli_small_request(
                kind, i // len(self.pattern), r)
            ops.append(Op(i, kind, {"command": command, "expect": expect,
                                    "text": json.dumps(payload)}))
        return ops


class TreeSeries(CliWorkload):
    """``tree`` requests whose walk runs to a radius R in the tens.

    ``[1 + a t : c + d t]`` has a series quotient with integer exponents, so
    the walk runs until it leaves the radius; in the ``exact`` kind a
    half-integer term ends it earlier with a singleton.  The pattern holds
    each radius stratum once per cycle.
    """

    name = "tree-series"
    # (R stratum, kind): R in [12 + 4s, 16 + 4s) for stratum s
    pattern = tuple(((i * 3) % 8, "exact" if i % 4 == 3 else "radius")
                    for i in range(8))

    def generate(self, seed: int, count: int, stream: str = "main") -> List[Op]:
        ops = []
        for i in range(count):
            r = _rng(self.name, seed, stream, i)
            stratum, kind = self.pattern[i % len(self.pattern)]
            R = 12 + 4 * stratum + r.randint(0, 3)
            a = r.choice((1, -1, 2, -2))
            x0 = PuiseuxElement([(0, 1), (1, a)])
            c = r.randint(1, 4)
            d = r.choice([k for k in range(-3, 4) if k != c * a])
            x1 = PuiseuxElement([(0, c), (1, d)])
            if kind == "exact":
                # the walk ends at exponent k + 1/2 with a singleton
                k = r.randint(R, 2 * R - 1)
                x1 = x1 + PuiseuxElement.monomial(_coef(r), Q(2 * k + 1, 2))
            payload = {"point": [elem_str(x0), elem_str(x1)], "R": R}
            ops.append(Op(i, kind, {"command": "tree", "expect": 0,
                                    "text": json.dumps(payload)}))
        return ops


# -- library workloads --------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _apartment_grid(rank: int, step: Q, radius: int) -> Tuple[Tuple[Q, ...], ...]:
    """Every point of ``step * Z^rank`` with coordinates in [-radius, radius]."""
    ticks = [step * k for k in range(-int(radius / step),
                                     int(radius / step) + 1)]
    out: List[Tuple[Q, ...]] = [()]
    for _ in range(rank):
        out = [p + (t,) for p in out for t in ticks]
    return tuple(out)


class ApartmentLP:
    """Acceptance criterion 1's work per point, plus stability and a character.

    Criterion 1 (``tests/test_acceptance.py``) takes 20 points each of
    ``proj(2)``, ``proj(3)`` and ``grass(2,4)``, computes ``interval_A`` once
    per point and tests the closure membership of ``mu_residue`` at every
    point of an apartment grid.  Here each point gives two operations:
    ``calls`` (``make_point``, ``weighted_coordinates``, ``stability_status``,
    ``interval_A`` and one ``interval_A_chi``) and ``sweep`` (``make_point``,
    ``weighted_coordinates``, then ``mu_residue`` + ``hull_member`` at every
    point of the criterion's grid of the model's rank).

    The criterion draws coordinates with zeros allowed.  The number of zero
    torus-weight coordinates decides whether a point is stable, strictly
    semistable or unstable, and its cost by up to a factor of a hundred.  So
    that every seed gets the same mix, the pattern fixes that number's range
    for each point (the stratum, ``z0`` for none, ``z2+`` for two or more),
    in about the proportions of the criterion's draws: two stable points of
    four for ``proj(2)`` and ``proj(3)``; one stable, one strictly
    semistable and two unstable for ``grass(2,4)``.  ``su3_pair``,
    ``sl3_flag`` and ``sp4_flag``, with ``lam=(1,1)``, come once per cycle,
    each in its most common stratum among stable or semistable points.
    """

    name = "apartment-lp"
    # (model, least and most zero torus-weight coordinates) of each point
    points = (("proj(2)", 0, 0), ("proj(3)", 0, 0), ("grass(2,4)", 0, 0),
              ("su3_pair", 0, 0),
              ("proj(2)", 1, 99), ("proj(3)", 1, 99), ("grass(2,4)", 1, 1),
              ("sl3_flag", 1, 4),
              ("proj(2)", 0, 0), ("proj(3)", 0, 0), ("grass(2,4)", 2, 99),
              ("sp4_flag", 1, 11),
              ("proj(2)", 1, 99), ("proj(3)", 1, 99), ("grass(2,4)", 2, 99))
    pattern = tuple(
        f"{model}/z{lo}{'' if lo == hi else '+' if hi == 99 else f'-{hi}'}"
        f"/{part}" for model, lo, hi in points for part in ("calls", "sweep"))
    # criterion 1's grid of each rank as (step, radius), from its models
    # proj(2), proj(3) and grass(2,4); the two-factor models take theirs too
    grids = {1: (Q(1, 25), 4), 2: (Q(1, 2), 4), 3: (Q(1, 3), 1)}

    def generate(self, seed: int, count: int, stream: str = "main") -> List[Op]:
        ops = []
        for i in range(count):
            # both operations of a point draw it from the same stream
            r = _rng(self.name, seed, stream, i // 2)
            kind = self.pattern[i % len(self.pattern)]
            model, lo, hi = self.points[i // 2 % len(self.points)]
            part = kind.rsplit("/", 1)[1]
            rank = model_relative(model).rank
            raw = rand_point(r, model, generic=hi == 0, zeros=(lo, hi))
            chi = _chi(r, rank)
            args = {"model": model, "raw": raw, "part": part,
                    "lam": (1, 1) if model in TWO_FACTOR else None}
            if part == "calls":
                args["chi"] = chi
            else:
                args["grid"] = _apartment_grid(rank, *self.grids[rank])
            ops.append(Op(i, kind, args))
        return ops

    @staticmethod
    def _weights(a):
        p = make_point(a["model"], a["raw"])
        rel = model_relative(a["model"])
        wp = (weighted_coordinates(p, lam=a["lam"]) if a["lam"]
              else weighted_coordinates(p))
        return wp, rel

    def run(self, op: Op):
        a = op.args
        wp, rel = self._weights(a)
        if a["part"] == "sweep":
            origin = (Q(0),) * rel.rank
            residues = [mu_residue(wp, rel, z) for z in a["grid"]]
            members = [hull_member(mu, origin, "closure") for mu in residues]
            return wp, rel, residues, members
        status = stability_status(wp, rel)
        res = interval_A(wp, rel)
        chi = None if res.is_empty() else interval_A_chi(wp, rel, a["chi"])
        return wp, rel, status, res, chi

    def encode(self, op: Op, result):
        if op.args["part"] == "sweep":
            wp, _, _, members = result
            return {"weights": wp.to_json(),
                    "residue_members": "".join("1" if m else "0"
                                               for m in members)}
        wp, _, status, res, chi = result
        return {
            "weights": wp.to_json(),
            "status": status,
            "c_star": format_rational(res.c_star),
            "bounded": res.bounded,
            "polyhedron": _poly(res.polyhedron),
            "singleton": (None if res.singleton is None
                          else _vec(res.singleton.coords)),
            "walls": [[_vec(a), format_rational(n)]
                      for a, n in sorted(res.wall_bounds.items())],
            "chi": (None if chi is None
                    else [format_rational(chi[0]), _poly(chi[1])]),
        }

    def check(self, op: Op, result) -> List[str]:
        if op.args["part"] == "sweep":
            return self._check_sweep(op, result)
        wp, rel, status, res, chi = result
        errs = []
        if res.is_empty() != (status == "unstable"):
            errs.append("interval empty iff unstable fails")
        if not res.is_empty() and res.bounded != (status == "stable"):
            errs.append("interval bounded iff stable fails")
        if res.bounded and chi is not None and chi[0] == INF:
            errs.append("unbounded character value on a bounded interval")
        return errs

    def _check_sweep(self, op: Op, result) -> List[str]:
        wp, rel, residues, members = result
        res = interval_A(wp, rel)
        origin = (Q(0),) * rel.rank
        errs = []
        for z, mu, member in zip(op.args["grid"], residues, members):
            if member != hull_member_bruteforce(mu.points, origin):
                errs.append(f"hull_member at {_vec(z)} disagrees with the "
                            "brute-force oracle")
            if res.contains(z) != member:
                errs.append(f"interval membership of {_vec(z)} disagrees "
                            "with the residue")
        return errs


_HULL_AMPLE = {"grass(2,4)": ((1,), None), "sl3_flag": ((0, 1), (1, 1)),
               "sp4_flag": ((0, 1), (1, 1))}
_RANK2 = (("split", "A", 2), ("split", "B", 2), ("split", "C", 2),
          ("nonsplit_C", None, 4), ("sl_skew", None, None))


def _rank2_relative(choice):
    preset, fam, n = choice
    if preset == "split":
        return preset_relative("split", datum=build_root_system(fam, n))
    if preset == "nonsplit_C":
        return preset_relative("nonsplit_C", rank=n)
    return preset_relative("sl_skew", s=2, d=2)


def _bounded_2d(poly: QPolyhedron) -> bool:
    """Whether a nonempty polyhedron in the plane is bounded.

    It is unbounded exactly when some direction d has n . d >= 0 for every
    normal n, and then an extreme such direction is perpendicular to one of
    the normals.
    """
    normals = [n for n, _ in poly.halfspaces if any(n)]
    for a, b in normals:
        for d in ((-b, a), (b, -a)):
            if all(_dot(n, d) >= 0 for n in normals):
                return False
    return True


class ChamberGeometry:
    """Root arrangements, regular-weight classification, hulls, vertices.

    One cycle of the pattern holds each root system and classification case
    once, so every whole cycle does the same mix of work.
    """

    name = "chamber-geometry"
    # (kind, parameter): root system; (root system, |J|); model; group.
    # Per cycle, 12 ops take under ~17 ms and 20 take more, so the median
    # falls inside the cluster of mid-sized ops rather than on the gap
    # between the two.  Above the p90 lie three ops per cycle: the sp4
    # hull, A5 and one of the two grass hulls, so the p90 falls inside a
    # cluster too.
    pattern = (
        ("roots", ("A", 3)), ("classify", (("A", 3), 1)), ("pchi", 0),
        ("vertices", "sl3_flag"), ("hull", "sl3_flag"), ("roots", ("B", 3)),
        ("classify", (("B", 3), 1)), ("pchi", 1), ("vertices", "sp4_flag"),
        ("roots", ("A", 4)), ("classify", (("A", 4), 1)), ("hull", "grass(2,4)"),
        ("pchi", 2), ("roots", ("C", 3)), ("classify", (("C", 3), 2)),
        ("pchi", 3), ("roots", ("D", 4)), ("classify", (("D", 4), 1)),
        ("hull", "grass(2,4)"), ("roots", ("A", 5)), ("vertices", "sl3_flag"),
        ("classify", (("A", 3), 2)), ("pchi", 4), ("roots", ("B", 4)),
        ("classify", (("B", 3), 3)), ("pchi", 1), ("hull", "sp4_flag"),
        ("classify", (("B", 3), 2)), ("pchi", 3), ("vertices", "sp4_flag"),
        ("classify", (("C", 2), 2)), ("pchi", 4),
    )

    def generate(self, seed: int, count: int, stream: str = "main") -> List[Op]:
        ops = []
        for i in range(count):
            r = _rng(self.name, seed, stream, i)
            kind, param = self.pattern[i % len(self.pattern)]
            if kind == "roots":
                args = {"type": param}
            elif kind == "classify":
                (fam, rank), size = param
                args = {"type": (fam, rank),
                        "J": sorted(r.sample(range(1, rank + 1), size))}
            elif kind == "hull":
                idx, lam = _HULL_AMPLE[param]
                p = make_point(param, rand_point(r, param, generic=True))
                wp = (weighted_coordinates(p, lam=lam) if lam
                      else weighted_coordinates(p))
                args = {"model": param, "wp": wp, "ample": idx}
            elif kind == "pchi":
                args = {"group": _RANK2[param], "chi": _chi(r, 2)}
            else:
                args = {"poly": self._bounded_interval(r, param)}
            ops.append(Op(i, kind, args))
        return ops

    @staticmethod
    def _bounded_interval(r: random.Random, model: str) -> QPolyhedron:
        """The semistable locus of a stable rank-2 point: a bounded polygon."""
        rel = model_relative(model)
        while True:
            p = make_point(model, rand_point(r, model, generic=True))
            forms: Dict[tuple, Any] = {}
            for w, _, c in weighted_coordinates(p, lam=(1, 1)).entries:
                if c:
                    rw = rel.restrict(w)
                    forms[rw] = min(forms.get(rw, INF), c.valuation())
            face = minimax_face(sorted(forms.items())).face
            if face is not None and _bounded_2d(face):
                return face

    def run(self, op: Op):
        a = op.args
        if op.kind == "roots":
            fam, rank = a["type"]
            rel = preset_relative("split", datum=build_root_system(fam, rank))
            return rel, root_hyperplanes(rel)
        if op.kind == "classify":
            fam, rank = a["type"]
            return classify_regular_weights(fam, rank, a["J"])
        if op.kind == "hull":
            rel = model_relative(a["model"])
            return rel, hull_skeleton(mu_K(a["wp"], rel))
        if op.kind == "pchi":
            rel = _rank2_relative(a["group"])
            return rel, p_chi_data(a["chi"], rel)
        return polyhedron_vertices(a["poly"])

    def encode(self, op: Op, result):
        if op.kind == "roots":
            return [_vec(h) for h in result[1]]
        if op.kind == "classify":
            return list(result)
        if op.kind == "hull":
            verts, edges = result[1]
            return [[_vec(v) for v in verts],
                    [[_vec(a), _vec(b), _vec(d)] for a, b, d in edges]]
        if op.kind == "pchi":
            data = result[1]
            return [[list(s) for s in data.chambers], _vec(data.delta),
                    _poly(data.tau)]
        return [_vec(v) for v in result]

    def check(self, op: Op, result) -> List[str]:
        a = op.args
        if op.kind == "roots":
            rel, hyps = result
            rank = rel.rank
            if a["type"][0] == "A" and len(hyps) != 2 ** rank - 1:
                return [f"A{rank} has {len(hyps)} root hyperplanes"]
            lines = {_primitive_line(h) for h in hyps}
            if len(lines) != len(hyps):
                return ["repeated root hyperplane"]
            for h in hyps:
                on = [r for r in rel.relative_roots if _dot(h, r) == 0]
                if _rank(on) != rank - 1:
                    return ["hyperplane not spanned by roots"]
            return []
        if op.kind == "classify":
            return [] if result[0] == result[1] else ["classify table != scan"]
        if op.kind == "hull":
            rel, (verts, edges) = result
            fw = rel.datum.fundamental_weights
            amb = fw[a["ample"][0]]
            for k in a["ample"][1:]:
                amb = tuple(x + y for x, y in zip(amb, fw[k]))
            allowed = {rel.restrict(w) for w in weyl_orbit(rel.datum, amb)}
            roots = {_primitive_line(r) for r in rel.relative_roots}
            errs = []
            if any(tuple(v) not in allowed for v in verts):
                errs.append("hull vertex outside the Weyl orbit")
            if any(_primitive_line(d) not in roots for _, _, d in edges):
                errs.append("hull edge not along a root")
            return errs
        if op.kind == "pchi":
            rel, data = result
            chi = a["chi"]
            errs = []
            if not data.chambers:
                errs.append("no chamber kept")
            if not data.tau.contains(data.delta) or _dot(chi, data.delta) < 0:
                errs.append("test direction outside the kept face")
            return errs
        poly = a["poly"]
        if not result:
            return ["bounded nonempty polyhedron without vertices"]
        for v in result:
            tight = [n for n, o in poly.halfspaces if _dot(n, v) == o]
            if not poly.contains(v) or _rank(tight) != poly.dim:
                return ["vertex is not a vertex"]
        return []


WORKLOADS = {w.name: w for w in (CliSmall(), ApartmentLP(), ChamberGeometry(),
                                 TreeSeries())}

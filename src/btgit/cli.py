"""JSON batch front-end: validated requests in, canonical JSON (and SVG) out."""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import re
import sys
from fractions import Fraction as Q
from importlib import resources
from typing import Callable, List, Optional, Sequence, Tuple

import jsonschema

from .interval import interval_A
from .models import (ModelPoint, ModelSpec, UnknownModel, act, make_point,
                     model_spec, project, weighted_coordinates)
from .polyhedra import QPolyhedron, WorkLimitExceeded, polyhedron_vertices
from .rootdata import RelativeDatum, UnknownGroup, group_relative
from .torusgit import (chamber_of, chi_status, classify_regular_weights,
                       root_hyperplanes, stability_status)
from .treebuilding import TREE_MODEL, interval_tree, p_chi_data
from .valfield import (INF, PuiseuxElement, format_rational, parse_puiseux,
                       parse_rational)

COMMANDS = ("rootsys", "classify", "chambers", "status", "interval",
            "tree", "models", "chi")


class ValidationFailure(Exception):
    """Bad payload; maps to exit status 2."""


class Unsupported(Exception):
    """Recognized request for a family or model outside scope; exit status 3."""


# -- request validation -------------------------------------------------------

def _load_schema(name: str) -> dict:
    root = resources.files("btgit").joinpath("schemas")
    schema = json.loads(root.joinpath(f"{name}.json").read_text())
    defs = json.loads(root.joinpath("defs.json").read_text())["$defs"]
    schema.setdefault("$defs", {}).update(defs)
    return schema


_DRAFT = "https://json-schema.org/draft/2020-12/schema"
_METADATA = frozenset(("$schema", "$id", "$defs"))
_REF_PREFIX = "#/$defs/"


def _is_integer(x) -> bool:
    # draft 2020-12: 1.0 is an integer, true is not
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or (isinstance(x, float) and x.is_integer())


def _is_number(x) -> bool:
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "integer": _is_integer,
}


def compile_schema(schema: dict) -> Callable[[object], bool]:
    """A predicate equal to draft 2020-12 validity under ``schema``.

    It knows exactly the keywords the request schemas use, and raises
    ValueError on any other, so a schema edit cannot slip past it.  Every
    definition under ``$defs`` compiles now; a ``$ref`` looks its definition
    up when called, so recursive definitions are safe.
    """
    if schema.get("$schema", _DRAFT) != _DRAFT:
        raise ValueError(f"schema dialect {schema['$schema']!r} has no compiled form")
    defs = schema.get("$defs", {})
    compiled = {}

    def keyword(key, value, node):
        if key == "$ref":
            name = value[len(_REF_PREFIX):] if value.startswith(_REF_PREFIX) else None
            if name not in defs:
                raise ValueError(f"$ref {value!r} is not a local definition")
            return lambda x: compiled[name](x)
        if key == "type":
            if not isinstance(value, str) or value not in _TYPES:
                raise ValueError(f"type {value!r} has no compiled form")
            return _TYPES[value]
        if key == "enum":
            if not all(isinstance(v, str) for v in value):
                raise ValueError("only enums of strings have a compiled form")
            options = frozenset(value)
            return lambda x: isinstance(x, str) and x in options
        if key == "pattern":
            search = re.compile(value).search
            return lambda x: not isinstance(x, str) or search(x) is not None
        if key == "minLength":
            return lambda x: not isinstance(x, str) or len(x) >= value
        if key == "minItems":
            return lambda x: not isinstance(x, list) or len(x) >= value
        if key == "maxItems":
            return lambda x: not isinstance(x, list) or len(x) <= value
        if key == "minimum":
            return lambda x: not _is_number(x) or not x < value
        if key == "prefixItems":
            heads = [build(sub) for sub in value]
            return lambda x: not isinstance(x, list) or all(
                f(y) for f, y in zip(heads, x))
        if key == "items":
            each, skip = build(value), len(node.get("prefixItems", ()))
            return lambda x: not isinstance(x, list) or all(
                each(x[i]) for i in range(skip, len(x)))
        if key == "oneOf":
            branches = [build(sub) for sub in value]
            return lambda x: sum(f(x) for f in branches) == 1
        if key == "properties":
            props = [(name, build(sub)) for name, sub in value.items()]
            return lambda x: not isinstance(x, dict) or all(
                f(x[name]) for name, f in props if name in x)
        if key == "additionalProperties" and value is False:
            known = frozenset(node.get("properties", ()))
            return lambda x: not isinstance(x, dict) or known.issuperset(x)
        if key == "required":
            return lambda x: not isinstance(x, dict) or all(k in x for k in value)
        raise ValueError(f"schema keyword {key!r} has no compiled form")

    def build(node):
        if not isinstance(node, dict):
            raise ValueError(f"schema {node!r} has no compiled form")
        checks = tuple(keyword(key, value, node) for key, value in node.items()
                       if key not in _METADATA)
        return lambda x: all(check(x) for check in checks)

    compiled.update((name, build(sub)) for name, sub in defs.items())
    return build(schema)


@functools.lru_cache(maxsize=None)
def _validator(command: str) -> Callable[[object], bool]:
    """The command's schema, compiled once per process into its predicate."""
    return compile_schema(_load_schema(command))


@functools.lru_cache(maxsize=None)
def _rejection_validator(command: str):
    """jsonschema's validator for the command's schema, which words the
    rejections; it is built on the first one."""
    schema = _load_schema(command)
    return jsonschema.validators.validator_for(schema)(schema)


def validate_payload(command: str, payload) -> None:
    if _validator(command)(payload):
        return
    # the error jsonschema.validate would raise: the best match of all errors
    exc = jsonschema.exceptions.best_match(
        _rejection_validator(command).iter_errors(payload))
    if exc is not None:
        raise ValidationFailure(f"payload: {exc.message}") from exc


# -- payload decoding ---------------------------------------------------------

def _rat(x) -> Q:
    if isinstance(x, str):
        try:
            v = parse_rational(x)
        except ZeroDivisionError as exc:
            raise ValidationFailure(f"zero denominator in {x!r}") from exc
        if v == INF:
            raise ValidationFailure("'inf' is not accepted on input")
        return v
    if _is_integer(x):  # the schemas admit 2.0 as an integer
        return Q(int(x))
    raise ValidationFailure(f"not a rational: {x!r}")


def _rat_vec(xs) -> tuple:
    return tuple(_rat(x) for x in xs)


def _element(x) -> PuiseuxElement:
    if isinstance(x, list):
        if not all(isinstance(term, list) and len(term) == 2 for term in x):
            raise ValidationFailure(f"not a list of [exponent, coefficient]: {x!r}")
        return PuiseuxElement((_rat(q), _rat(c)) for q, c in x)
    if isinstance(x, bool):
        raise ValidationFailure(f"not a coordinate: {x!r}")
    if isinstance(x, float) and x.is_integer():  # the schemas admit 1.0 as an integer
        x = int(x)
    try:
        return parse_puiseux(x)
    except ZeroDivisionError as exc:
        raise ValidationFailure(f"zero denominator in {x!r}") from exc


def _element_vec(xs) -> tuple:
    if not isinstance(xs, list):
        raise ValidationFailure("expected a list of coordinates")
    return tuple(_element(x) for x in xs)


def _count(payload, key: str) -> Optional[int]:
    """An integer field as an int: the schemas admit 2.0 as an integer.
    A count no index can reach (above sys.maxsize) is unsupported."""
    value = payload.get(key)
    if value is None:
        return None
    if value > sys.maxsize:
        raise Unsupported(f"unsupported {key} above {sys.maxsize}")
    return int(value)


def _relative(payload) -> RelativeDatum:
    return group_relative(payload.get("preset", "split"), payload.get("family"),
                          _count(payload, "rank"), _count(payload, "s"),
                          _count(payload, "d"))


def _decode_point(model: str, raw) -> Tuple[ModelSpec, ModelPoint]:
    """The model's table entry, and the point given as its coordinate rows or
    as one flat vector."""
    spec = model_spec(model)
    count, length = spec.rows or (0, 0)
    if len(raw) == count and all(isinstance(r, list) and len(r) == length
                                 for r in raw):
        coords = [_element_vec(r) for r in raw]
    elif len(spec.factors) == 1:
        coords = _element_vec(raw)
    else:
        raise ValidationFailure(f"{model} needs {count} coordinate rows of "
                                f"{length} entries")
    return spec, make_point(model, coords)


def _weighted_point(payload):
    """The request's group data and weighted coordinates; a two-factor point
    weighs its coordinates by lam, (1, 1) unless given."""
    spec, p = _decode_point(payload["model"], payload["point"])
    lam = payload.get("lam")
    if len(spec.factors) == 2:
        lam = tuple(lam) if lam is not None else (1, 1)
    elif lam is not None:
        raise ValidationFailure("'lam' only applies to two-factor models")
    return spec.relative, weighted_coordinates(p, lam=lam)


def _character(payload, rel: RelativeDatum) -> tuple:
    chi = _rat_vec(payload["chi"])
    if len(chi) != rel.rank:
        raise ValidationFailure(f"chi needs {rel.rank} entries")
    return chi


# -- output encoding ----------------------------------------------------------

def _fmt_vec(v) -> List[str]:
    return [format_rational(a) for a in v]


def _fmt_element(e: PuiseuxElement) -> str:
    if not e:
        return "0"
    parts = []
    for q, c in e.terms:
        if q == 0:
            term = format_rational(c)
        else:
            coef = "" if c == 1 else ("-" if c == -1 else format_rational(c) + "*")
            term = f"{coef}t^{{{format_rational(q)}}}" if q != 1 else f"{coef}t"
        parts.append(term)
    return " + ".join(parts).replace("+ -", "- ")


def _fmt_halfspaces(poly) -> List[dict]:
    return [{"normal": _fmt_vec(n), "offset": format_rational(o)}
            for n, o in poly.halfspaces]


# -- command handlers ---------------------------------------------------------

def _cmd_rootsys(payload) -> dict:
    rel = _relative(payload)
    return {
        "name": rel.name,
        "rank": rel.rank,
        "relative_roots": [_fmt_vec(a) for a in rel.relative_roots],
        "relative_simple": [_fmt_vec(a) for a in rel.relative_simple],
        "gamma": [{"root": _fmt_vec(a), "step": format_rational(s)}
                  for a, s in rel.gamma],
        "gram": [_fmt_vec(row) for row in rel.gram],
        "hyperplanes": [_fmt_vec(h) for h in root_hyperplanes(rel)],
    }


def _cmd_classify(payload) -> dict:
    table, scan = classify_regular_weights(
        family=payload.get("family"), rank=_count(payload, "rank"),
        J=payload["J"], preset=payload.get("preset", "split"),
        s=_count(payload, "s"), d=_count(payload, "d"))
    return {"table": table, "scan": scan}


def _cmd_chambers(payload) -> dict:
    rel = _relative(payload)
    hyps = root_hyperplanes(rel)
    cells = []
    for w in payload.get("weights", ()):
        wv = _rat_vec(w)
        if len(wv) == rel.datum.ambient_dim:
            wv = rel.restrict(wv)
        elif len(wv) != rel.rank:
            raise ValidationFailure(
                f"weights need {rel.rank} or {rel.datum.ambient_dim} entries")
        cid = chamber_of(wv, hyps)
        cells.append({"weight": _fmt_vec(wv), "signs": list(cid.signs),
                      "containing": list(cid.containing())})
    return {"rank": rel.rank, "hyperplanes": [_fmt_vec(h) for h in hyps],
            "cells": cells}


def _cmd_status(payload) -> dict:
    rel, wp = _weighted_point(payload)
    if "chi" in payload:
        return {"status": chi_status(wp, rel, _character(payload, rel))}
    return {"status": stability_status(wp, rel)}


def _cmd_interval(payload) -> dict:
    rel, wp = _weighted_point(payload)
    res = interval_A(wp, rel)
    out = {
        "rank": rel.rank,
        "empty": res.is_empty(),
        "c_star": format_rational(res.c_star),
        "bounded": res.bounded,
        "singleton": None,
        "halfspaces": [] if res.is_empty() else _fmt_halfspaces(res.polyhedron),
        "wall_bounds": [{"root": _fmt_vec(a), "sup": format_rational(n)}
                        for a, n in sorted(res.wall_bounds.items())],
    }
    if res.singleton is not None:
        out["singleton"] = _fmt_vec(res.singleton.coords)
        if rel.rank == 1:
            out["face"] = f"u={format_rational(res.singleton.coords[0])}"
    if "chi" in payload:
        if res.is_empty():
            raise ValidationFailure("chi shift needs a nonempty interval")
        n, face = res.chi_optimum(_character(payload, rel))
        out["chi_value"] = format_rational(n)
        out["chi_face"] = None if face is None else _fmt_halfspaces(face)
    return out


def _cmd_tree(payload) -> dict:
    coords = _element_vec(payload["point"])
    if len(coords) != 2:
        raise ValidationFailure("tree points live on the projective line")
    x = make_point(TREE_MODEL, coords)
    R = _rat(payload.get("R", 4))
    res = interval_tree(x, R)
    out = {
        "interval": "empty" if res.is_empty() else [
            {"b": _fmt_element(z.b), "u": format_rational(z.u)}
            for z in res.points],
        "certificate": res.certificate,
        "radius": None if res.radius is None else format_rational(res.radius),
        "witness": None,
    }
    if res.witness is not None:
        g = res.witness.g
        out["witness"] = [[_fmt_element(c) for c in row] for row in g]
        if g[0][1]:  # swap chart: degenerate end at [0:1]
            out["witness_end"] = "end [0:1]"
        else:
            out["witness_end"] = f"end [1:{out['witness'][1][0]}]"
    return out


def _cmd_models(payload) -> dict:
    spec, p = _decode_point(payload["model"], payload["point"])
    if "act" in payload:
        g = [_element_vec(row) for row in payload["act"]]
        p = act(g, p)
    if "project" in payload:
        # the projection targets are the models of the point's factors
        p = project(p, spec.factor_models.index(payload["project"]) + 1)
    return {"model": p.model, "point": p.to_json(),
            "display": [[_fmt_element(c) for c in vec] for vec in p.data]}


def _cmd_chi(payload) -> dict:
    if "model" in payload:
        if "point" not in payload:
            raise ValidationFailure("a model request needs a point")
        rel, wp = _weighted_point(payload)
    else:
        rel, wp = _relative(payload), None
    chiv = _character(payload, rel)
    data = p_chi_data(chiv, rel)
    out = {
        "rank": rel.rank,
        "chambers": [list(signs) for signs in data.chambers],
        "delta": _fmt_vec(data.delta),
        "tau_halfspaces": _fmt_halfspaces(data.tau),
    }
    if wp is not None:
        out["status"] = chi_status(wp, rel, chiv)
        res = interval_A(wp, rel)
        if res.is_empty():
            out["value"], out["face"] = format_rational(INF), None
        else:
            n, face = res.chi_optimum(chiv)
            out["value"] = format_rational(n)
            out["face"] = None if face is None else _fmt_halfspaces(face)
    return out


_HANDLERS = {
    "rootsys": _cmd_rootsys,
    "classify": _cmd_classify,
    "chambers": _cmd_chambers,
    "status": _cmd_status,
    "interval": _cmd_interval,
    "tree": _cmd_tree,
    "models": _cmd_models,
    "chi": _cmd_chi,
}


def run(command: str, payload) -> dict:
    """Validate one request and produce its JSON-able result.

    The library refuses a request by raising: a group or model outside its
    tables is unsupported, and any other ValueError is a bad payload."""
    if command not in _HANDLERS:
        raise ValidationFailure(f"unknown command {command!r}")
    validate_payload(command, payload)
    try:
        return _HANDLERS[command](payload)
    except (UnknownGroup, UnknownModel) as exc:
        raise Unsupported(str(exc)) from exc
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc


def serialize(result: dict) -> str:
    """Canonical byte-stable encoding: sorted keys, no float formatting."""
    return json.dumps(result, sort_keys=True, separators=(",", ":")) + "\n"


# -- SVG rendering ------------------------------------------------------------

_SVG_HEAD = ('<svg xmlns="http://www.w3.org/2000/svg" viewBox="-120 -120 240 240" '
             'width="480" height="480">')


def _pt(x: float, y: float) -> str:
    return f"{x:.2f},{-y:.2f}"  # math orientation: y grows upward


def render_svg(command: str, result: dict) -> bytes:
    """Deterministic figure for rank <= 2 interval/chambers/tree results."""
    if command == "chambers":
        return _svg_chambers(result)
    if command == "interval":
        return _svg_interval(result)
    if command == "tree":
        return _svg_tree(result)
    raise ValidationFailure(f"no rendering for command {command!r}")


def _svg_doc(body: List[str]) -> bytes:
    return ("\n".join([_SVG_HEAD] + body + ["</svg>"]) + "\n").encode()


def _svg_empty(label: str) -> bytes:
    return _svg_doc([
        '<circle cx="0" cy="0" r="6" fill="none" stroke="black"/>',
        '<line x1="-5" y1="5" x2="5" y2="-5" stroke="black"/>',
        f'<text x="0" y="20" text-anchor="middle" font-size="10">{label}</text>',
    ])


def _svg_chambers(result: dict) -> bytes:
    rank = result["rank"]
    if rank > 2:
        raise ValidationFailure("rendering needs rank <= 2")
    body = ['<line x1="-100" y1="0" x2="100" y2="0" stroke="#888"/>',
            '<line x1="0" y1="-100" x2="0" y2="100" stroke="#888"/>']
    rays = []
    if rank == 1:
        body.append('<circle cx="0" cy="0" r="3" fill="black"/>')
        rays = [0.0, math.pi]
    else:
        for k, h in enumerate(result["hyperplanes"]):
            a, b = (float(parse_rational(c)) for c in h)
            # the line where the normal (a, b) vanishes runs along (-b, a)
            n = math.hypot(a, b)
            dx, dy = -b / n, a / n
            body.append(f'<line x1="{100 * dx:.2f}" y1="{-100 * dy:.2f}" '
                        f'x2="{-100 * dx:.2f}" y2="{100 * dy:.2f}" stroke="black"/>')
            body.append(f'<text x="{108 * dx:.2f}" y="{-108 * dy:.2f}" '
                        f'text-anchor="middle" font-size="9">H{k}</text>')
            rays.extend([math.atan2(dy, dx), math.atan2(-dy, -dx)])
    rays = sorted(set(round(r, 9) for r in rays))
    for i, lo in enumerate(rays):
        hi = rays[(i + 1) % len(rays)] + (2 * math.pi if i + 1 == len(rays) else 0)
        mid = (lo + hi) / 2
        body.append(f'<text x="{70 * math.cos(mid):.2f}" y="{-70 * math.sin(mid):.2f}"'
                    f' text-anchor="middle" font-size="10">C{i}</text>')
    for cell in result.get("cells", ()):
        w = [float(parse_rational(c)) for c in cell["weight"]]
        x, y = (w[0], 0.0) if rank == 1 else (w[0], w[1])
        n = max(math.hypot(x, y), 1e-9)
        s = min(90.0 / n, 30.0)
        body.append(f'<circle cx="{s * x:.2f}" cy="{-s * y:.2f}" r="2.5" '
                    'fill="crimson"/>')
    return _svg_doc(body)


def _svg_interval(result: dict) -> bytes:
    rank = result["rank"]
    if rank > 2:
        raise ValidationFailure("rendering needs rank <= 2")
    if result["empty"]:
        return _svg_empty("empty")
    body = ['<line x1="-100" y1="0" x2="100" y2="0" stroke="#888"/>']
    if rank == 2:
        body.append('<line x1="0" y1="-100" x2="0" y2="100" stroke="#888"/>')
    if result["singleton"] is not None:
        v = [float(parse_rational(c)) for c in result["singleton"]]
        x, y = (v[0], 0.0) if rank == 1 else (v[0], v[1])
        s = 40.0
        body.append(f'<circle cx="{s * x:.2f}" cy="{-s * y:.2f}" r="4" fill="black"/>')
        body.append(f'<text x="{s * x:.2f}" y="{-s * y - 10:.2f}" '
                    f'text-anchor="middle" font-size="10">'
                    f'{"(" + ", ".join(result["singleton"]) + ")"}</text>')
        return _svg_doc(body)
    if not result["bounded"]:
        body.append('<text x="0" y="40" text-anchor="middle" font-size="10">'
                    'unbounded locus</text>')
        return _svg_doc(body)
    halves = tuple((tuple(parse_rational(c) for c in h["normal"]),
                    parse_rational(h["offset"])) for h in result["halfspaces"])
    verts = polyhedron_vertices(QPolyhedron(halves))
    pts = sorted((float(v[0]), float(v[1]) if rank == 2 else 0.0) for v in verts)
    s = 40.0
    if len(pts) == 2 or rank == 1:
        (x1, y1), (x2, y2) = pts[0], pts[-1]
        body.append(f'<line x1="{s * x1:.2f}" y1="{-s * y1:.2f}" x2="{s * x2:.2f}" '
                    f'y2="{-s * y2:.2f}" stroke="black" stroke-width="3"/>')
    else:
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        ring = sorted(pts, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
        path = " ".join(_pt(s * x, s * y) for x, y in ring)
        body.append(f'<polygon points="{path}" fill="#ddd" stroke="black"/>')
    return _svg_doc(body)


def _svg_tree(result: dict) -> bytes:
    if result["interval"] == "empty":
        return _svg_empty("empty tree locus")
    body = ['<line x1="0" y1="100" x2="0" y2="-100" stroke="black"/>',
            '<text x="0" y="112" text-anchor="middle" font-size="9">u=0</text>']
    for z in result["interval"]:
        u = float(parse_rational(z["u"]))
        y = 100.0 - 50.0 * u
        body.append(f'<circle cx="0" cy="{y:.2f}" r="4" fill="black"/>')
        body.append(f'<text x="10" y="{y:.2f}" font-size="10">'
                    f'b={z["b"]}, u={z["u"]}</text>')
    return _svg_doc(body)


# -- entry point --------------------------------------------------------------

def _read_payload(infile: str) -> str:
    if infile == "-":
        return sys.stdin.read()
    try:
        with open(infile) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationFailure(f"cannot read payload file {infile!r}: {exc}") from exc


def _write_file(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ValidationFailure(f"cannot write output file {path!r}: {exc}") from exc


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="btgit",
        description="Exact torus GIT computations: JSON requests in, "
                    "canonical JSON (and optional SVG) out.")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--in", dest="infile", default="-",
                        help="payload file, or - for stdin")
    parser.add_argument("--out", dest="outfile", default="-",
                        help="result file, or - for stdout")
    parser.add_argument("--svg", dest="svgfile",
                        help="also render the result (rank <= 2)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        text = _read_payload(args.infile)
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationFailure(f"payload is not JSON: {exc}") from exc
        result = run(args.command, payload)
        if args.svgfile:
            _write_file(args.svgfile, render_svg(args.command, result))
        doc = serialize(result)
        if args.outfile != "-":
            _write_file(args.outfile, doc.encode())
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # only a payload is nested without bound: json.loads, and the repr in
        # a rejection's wording, recurse on it; no computation recurses on it
        print("error: payload is nested too deeply", file=sys.stderr)
        return 2
    except (Unsupported, WorkLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.outfile == "-":
        sys.stdout.write(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())

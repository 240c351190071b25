"""JSON front-end: frozen outputs, exit codes, byte determinism, rendering."""

import ast
import copy
import io
import json
import random
import sys
import time
from fractions import Fraction as Q

import jsonschema
import pytest

from btgit import cli
from btgit.cli import (Unsupported, ValidationFailure, main, render_svg, run,
                       serialize)
from btgit.interval import interval_A, interval_A_chi
from btgit.models import (ModelPoint, make_point, model_relative,
                          weighted_coordinates)
from btgit.rootdata import build_root_system, preset_relative
from btgit.torusgit import chi_status, stability_status
from btgit.valfield import INF, format_rational, parse_puiseux


def test_rootsys_split_a2():
    out = run("rootsys", {"preset": "split", "family": "A", "rank": 2})
    assert out["rank"] == 2
    assert len(out["relative_roots"]) == 6
    assert len(out["relative_simple"]) == 2
    assert len(out["hyperplanes"]) == 3
    assert len(out["gram"]) == 2


def test_rootsys_su3_preset():
    out = run("rootsys", {"preset": "su3"})
    assert out["rank"] == 1
    assert {g["step"] for g in out["gamma"]} <= {"1/2", "1/1", "1"}
    assert len(out["relative_roots"]) == 4  # multipliable pair and its doubles


def test_classify_outputs():
    assert run("classify", {"family": "A", "rank": 3, "J": [2]}) == \
        {"table": False, "scan": False}
    assert run("classify", {"family": "A", "rank": 3, "J": [1]}) == \
        {"table": True, "scan": True}
    assert run("classify", {"preset": "su3", "J": [1, 2]}) == \
        {"table": True, "scan": True}


def test_chambers_with_ambient_weight():
    out = run("chambers", {"preset": "split", "family": "A", "rank": 2,
                           "weights": [[1, 0, -1]]})
    assert out["rank"] == 2 and len(out["hyperplanes"]) == 3
    cell = out["cells"][0]
    assert len(cell["containing"]) == 1  # the weight sits on exactly one wall


def test_status_command():
    out = run("status", {"model": "proj(2)", "point": ["1", "t^{1/2}"]})
    assert out == {"status": "stable"}
    out = run("status", {"model": "proj(2)", "point": ["1", "0"]})
    assert out == {"status": "unstable"}
    out = run("status", {"model": "proj(2)", "point": ["1", "t^{1/2}"],
                         "chi": ["1"]})
    assert out == {"status": "stable"}


def test_interval_frozen_example():
    out = run("interval", {"model": "proj(2)", "point": ["1", "t^{1/2}"]})
    assert out["c_star"] == "1/4" and out["bounded"] and not out["empty"]
    assert out["singleton"] == ["1/4"] and out["face"] == "u=1/4"
    sups = {w["root"][0]: w["sup"] for w in out["wall_bounds"]}
    assert sups == {"2": "1/2", "-2": "-1/2"}


def test_interval_empty_and_chi():
    out = run("interval", {"model": "proj(2)", "point": ["1", "0"]})
    assert out["empty"] and out["c_star"] == "inf" and out["singleton"] is None
    with pytest.raises(ValidationFailure):
        run("interval", {"model": "proj(2)", "point": ["1", "0"], "chi": ["1"]})
    out = run("interval", {"model": "proj(2)", "point": ["1", "t^{1/2}"],
                           "chi": ["3"]})
    assert out["chi_value"] == "3/4" and out["chi_face"] is not None


def test_tree_frozen_examples():
    out = run("tree", {"point": ["1", "t"], "R": 3})
    assert out["interval"] == "empty" and out["certificate"] == "exact"
    assert out["witness_end"] == "end [1:t]"
    out = run("tree", {"point": ["1", "t^{1/2}"]})
    assert out["interval"] == [{"b": "0", "u": "1/4"}]
    assert out["witness"] is None


def test_models_act_example():
    out = run("models", {"model": "proj(2)", "point": ["1", "1 + t^{1/2}"],
                         "act": [["1", "0"], ["-1", "1"]]})
    assert out["display"] == [["1", "t^{1/2}"]]
    assert ModelPoint.from_json(out["point"]).model == "proj(2)"


def test_models_project_example():
    flag = [["1", "0", "0", "0"], ["0", "1", "0", "0"]]
    out = run("models", {"model": "sp4_flag", "point": flag,
                         "project": "sp4_line"})
    assert out["model"] == "sp4_line"
    assert out["display"] == [["1", "0", "0", "0"]]
    out = run("models", {"model": "sp4_flag", "point": flag,
                         "project": "sp4_quadric"})
    assert out["model"] == "sp4_quadric" and len(out["display"][0]) == 5


def test_chi_group_request():
    out = run("chi", {"preset": "split", "family": "A", "rank": 1,
                      "chi": ["1"]})
    assert out["rank"] == 1 and len(out["chambers"]) == 1
    assert out["delta"] != ["0"]


def test_chi_model_request():
    rel = model_relative("grass(2,4)")
    chi = [format_rational(c) for c in rel.restrict((1, 1, 0, 0))]
    payload = {"model": "grass(2,4)",
               "point": ["1", "1", "0", "0", "-1", "-1"], "chi": chi}
    out = run("chi", payload)
    assert out["status"] == "semistable"
    assert out["value"] == "0" and out["face"] is not None
    generic = [format_rational(c) for c in rel.restrict((1, 0, 0, 0))]
    out = run("chi", dict(payload, chi=generic))
    assert out["value"] == "inf" and out["face"] is None


def test_unknown_family_and_model_are_unsupported():
    with pytest.raises(Unsupported):
        run("classify", {"family": "E", "rank": 6, "J": [1]})
    with pytest.raises(Unsupported):
        run("status", {"model": "flag(7)", "point": ["1"]})
    with pytest.raises(Unsupported):
        run("rootsys", {"preset": "split", "family": "G", "rank": 2})


def test_schema_violations_fail_validation():
    with pytest.raises(ValidationFailure):
        run("classify", {"family": "A", "rank": 2, "J": []})
    with pytest.raises(ValidationFailure):
        run("classify", {"family": "A", "rank": 2})
    with pytest.raises(ValidationFailure):
        run("status", {"model": "proj(2)", "point": ["1", "t"], "extra": 1})
    with pytest.raises(ValidationFailure):
        run("interval", {"model": "proj(2)", "point": ["1", "t"], "lam": [1, 1]})
    with pytest.raises(ValidationFailure):
        run("nonsense", {})


def test_exit_codes(tmp_path, capsys):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"family": "A", "rank": 3, "J": [2]}))
    assert main(["--command", "classify", "--in", str(req)]) == 0
    assert capsys.readouterr().out == '{"scan":false,"table":false}\n'
    req.write_text(json.dumps({"family": "E", "rank": 6, "J": [1]}))
    assert main(["--command", "classify", "--in", str(req)]) == 3
    req.write_text(json.dumps({"family": "A", "rank": 3, "J": []}))
    assert main(["--command", "classify", "--in", str(req)]) == 2
    req.write_text("not json at all")
    assert main(["--command", "classify", "--in", str(req)]) == 2


def test_parser_is_reused_across_requests(tmp_path, capsys):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"point": ["1 + t", "1"], "R": 2}))
    bad = ["--command", "tree", "--in", str(req), "--colour"]
    good = ["--command", "tree", "--in", str(req)]
    answer = ('{"certificate":"radius_limited","interval":"empty","radius":"2",'
              '"witness":[["1","0"],["1 - t + t^{2} - t^{3} + t^{4}","1"]],'
              '"witness_end":"end [1:1 - t + t^{2} - t^{3} + t^{4}]"}\n')
    for argv in (bad, good, bad, good):
        if argv is bad:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("usage: btgit ")
            assert err.endswith("btgit: error: unrecognized arguments: --colour\n")
        else:
            assert main(argv) == 0
            assert capsys.readouterr() == (answer, "")


@pytest.mark.parametrize("command,payload,env,code", [
    ("status", {"model": "grass(x,4)", "point": ["1", "1", "1", "1", "1", "1"]},
     None, 2),
    ("status", {"model": "proj(1)", "point": ["1"]}, None, 2),
    ("status", {"model": "proj(2)", "point": ["1", "t^{1/0}"]}, None, 2),
    ("status", {"model": "proj(2)", "point": ["1", "t"], "chi": ["1/0"]}, None, 2),
    ("models", {"model": "proj(2)", "point": ["1", "t"],
                "act": [["1", "0"], ["1"]]}, None, 2),
    ("models", {"model": "proj(2)", "point": ["1", "t"],
                "act": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
     None, 2),
    ("interval", {"model": "proj(2)", "point": ["1", "t^{1/2}"]},
     {"BTGIT_DD_RAY_LIMIT": "1"}, 3),
    ("status", {"model": "proj(2)", "point": ["1", "t^{1/2}"],
                "chi": ["1", "-1"]}, None, 2),
    ("interval", {"model": "proj(4)", "point": ["1", "t", "t^2", "1 + t"],
                  "chi": ["1"]}, None, 2),
    ("status", {"model": "sl3_flag", "point": [["1", "t", "1"],
                                                ["1", "1", "-1 - t"]],
                "lam": [0, 0]}, None, 2),
    ("rootsys", {"family": "A", "rank": 2 ** 63}, None, 3),
    ("rootsys", {"family": "A", "rank": 1e300}, None, 3),
    ("rootsys", {"preset": "sl_skew", "s": 1, "d": 10 ** 24}, None, 3),
    ("classify", {"preset": "sl_skew", "s": 1, "d": 10 ** 24, "J": [1]}, None, 3),
    # an unknown family is unsupported before a missing rank is invalid
    ("rootsys", {"family": "G"}, None, 3),
    ("chambers", {"family": "G"}, None, 3),
    ("chi", {"family": "G", "chi": ["1"]}, None, 3),
    ("classify", {"J": [1]}, None, 2),
    ("rootsys", {"family": "B", "rank": 1}, None, 2),
], ids=["malformed-grass", "proj-1", "zero-exponent-denominator",
        "zero-chi-denominator", "ragged-act", "act-size-mismatch",
        "pivot-limit", "short-chi", "long-chi", "zero-lam", "rank-2**63",
        "rank-1e300", "sl_skew-d-10**24", "classify-d-10**24",
        "rootsys-family-G", "chambers-family-G", "chi-family-G",
        "classify-no-family", "rootsys-B1"])
def test_bad_inputs_exit_without_output(tmp_path, capsys, monkeypatch,
                                        command, payload, env, code):
    for name, value in (env or {}).items():
        monkeypatch.setenv(name, value)
    req = tmp_path / "req.json"
    req.write_text(json.dumps(payload))
    assert main(["--command", command, "--in", str(req)]) == code
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["status", "interval", "models", "chi"])
def test_proj_1_is_malformed_for_every_command(tmp_path, capsys, command):
    payload = {"model": "proj(1)", "point": ["1"]}
    if command == "chi":
        payload["chi"] = ["1"]
    req = tmp_path / "req.json"
    req.write_text(json.dumps(payload))
    assert main(["--command", command, "--in", str(req)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "proj(1)" in err


def test_payload_file_is_closed(tmp_path, capsys, monkeypatch):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"family": "A", "rank": 3, "J": [2]}))
    opened = []

    def spy(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(cli, "open", spy, raising=False)
    assert main(["--command", "classify", "--in", str(req)]) == 0
    assert capsys.readouterr().out == '{"scan":false,"table":false}\n'
    assert len(opened) == 1 and opened[0].closed


@pytest.mark.parametrize("name,content", [
    ("missing.json", None), ("binary.json", b"\xff\xfe{"), ("folder", "dir"),
], ids=["missing", "not-utf8", "directory"])
def test_unreadable_payload_file_exits_2(tmp_path, capsys, name, content):
    path = tmp_path / name
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    assert main(["--command", "classify", "--in", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot read payload file")


def test_deeply_nested_payload_exits_2(tmp_path, capsys):
    # json.loads and the repr in a rejection's wording recurse on nesting;
    # the depths around the recursion limit reach each of them
    cases = [("tree", "[" * 100_000)]
    for depth in range(800, 1001):
        deep = "[" * depth + "]" * depth
        cases += [("tree", deep), ("tree", f'{{"point": [{deep}, "1"]}}'),
                  ("status", f'{{"model": "proj(2)", "point": [{deep}, "1"]}}')]
    req = tmp_path / "req.json"
    for command, text in cases:
        req.write_text(text)
        assert main(["--command", command, "--in", str(req)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), text[-40:]
    assert err == "error: payload is nested too deeply\n"


@pytest.mark.parametrize("flag", ["--out", "--svg"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, flag, target):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"model": "proj(2)", "point": ["1", "t^{1/2}"]}))
    path = tmp_path / "missing" / "x" if target == "missing-directory" else tmp_path
    assert main(["--command", "interval", "--in", str(req), flag, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot write output file")


def _generic_rows(k, n):
    """k rows of a generic point of grass(k,n): every Plucker coordinate is nonzero."""
    return [[f"{(j + 1) ** i} + t^{{{(i * j) % 3}/2}}" for j in range(n)]
            for i in range(k)]


# a dense unipotent upper-triangular element of SL(10)
UNIPOTENT10 = [["1" if i == j else "0" if j < i else f"{i + j} + t^{{1/2}}"
                for j in range(10)] for i in range(10)]


@pytest.mark.parametrize("command,payload,key,want", [
    ("rootsys", {"family": "A", "rank": 7}, "hyperplanes", 127),
    ("chi", {"family": "B", "rank": 4, "chi": [1, 1, 1, 1]}, "chambers", 144),
    ("chi", {"family": "D", "rank": 5, "chi": [1] * 5}, "chambers", 480),
    ("status", {"model": "grass(4,8)", "point": _generic_rows(4, 8)}, "status", "stable"),
    ("status", {"model": "proj(40)", "point": ["1"] + ["t"] * 39}, "status", "stable"),
    ("tree", {"point": ["1 + t", "1"], "R": 800}, "certificate", "radius_limited"),
    ("models", {"model": "proj(10)", "point": ["1"] + ["t^{1/2} + 1"] * 9,
                "act": UNIPOTENT10}, "model", "proj(10)"),
    ("models", {"model": "grass(6,12)", "point": _generic_rows(6, 12)},
     "model", "grass(6,12)"),
    ("models", {"model": "grass(7,14)", "point": _generic_rows(7, 14)},
     "model", "grass(7,14)"),
    ("rootsys", {"family": "A", "rank": 12}, "hyperplanes", 4095),
    ("status", {"model": "proj(80)", "point": ["1"] + ["t"] * 79}, "status", "stable"),
    ("interval", {"model": "grass(5,10)", "point": _generic_rows(5, 10)}, "singleton", 9),
], ids=["rootsys-A7", "chi-B4", "chi-D5", "status-grass48", "status-proj40",
        "tree-R800", "models-act-proj10", "models-grass612-rows",
        "models-grass714-rows", "rootsys-A12", "status-proj80", "interval-grass510"])
def test_chamber_requests_do_bounded_work(tmp_path, capsys, command, payload,
                                          key, want):
    req = tmp_path / "req.json"
    req.write_text(json.dumps(payload))
    start = time.monotonic()
    assert main(["--command", command, "--in", str(req)]) == 0
    assert time.monotonic() - start < 10
    got = json.loads(capsys.readouterr().out)[key]
    # an integer is the number of entries expected under the key
    assert (len(got) if isinstance(want, int) else got) == want


def test_serialize_is_byte_stable():
    payload = {"model": "proj(2)", "point": ["1", "t^{1/2}"]}
    a = serialize(run("interval", payload))
    b = serialize(run("interval", dict(payload)))
    assert a == b and a.endswith("\n") and '": ' not in a


def test_render_svg_deterministic():
    cases = [
        ("interval", {"model": "proj(2)", "point": ["1", "t^{1/2}"]}),
        ("interval", {"model": "proj(2)", "point": ["1", "0"]}),
        ("chambers", {"preset": "split", "family": "A", "rank": 2,
                      "weights": [[1, 0, -1]]}),
        ("tree", {"point": ["1", "t^{1/2}"]}),
        ("tree", {"point": ["1", "t"]}),
    ]
    for command, payload in cases:
        first = render_svg(command, run(command, payload))
        second = render_svg(command, run(command, dict(payload)))
        assert first == second
        assert first.startswith(b"<svg") and first.endswith(b"</svg>\n")


def test_render_svg_rejects_unrenderable():
    with pytest.raises(ValidationFailure):
        render_svg("classify", {"table": True, "scan": True})
    big = run("interval", {"model": "grass(2,4)",
                           "point": ["1", "1", "0", "0", "-1", "-1"]})
    with pytest.raises(ValidationFailure):
        render_svg("interval", big)


def test_cli_svg_output(tmp_path):
    req = tmp_path / "req.json"
    out = tmp_path / "res.json"
    svg = tmp_path / "fig.svg"
    req.write_text(json.dumps({"point": ["1", "t^{1/2}"]}))
    code = main(["--command", "tree", "--in", str(req), "--out", str(out),
                 "--svg", str(svg)])
    assert code == 0
    assert json.loads(out.read_text())["certificate"] == "exact"
    assert svg.read_bytes().startswith(b"<svg")


def _exit_and_stdout(tmp_path, capsys, command, payload):
    req = tmp_path / "req.json"
    req.write_text(json.dumps(payload))
    code = main(["--command", command, "--in", str(req)])
    return code, capsys.readouterr().out


NESTED = [["1", "t"], ["1", "1"]]


@pytest.mark.parametrize("command", ["status", "interval", "models"])
@pytest.mark.parametrize("model,point", [
    ("proj(2)", NESTED),
    ("grass(2,4)", NESTED),
    ("sp4_line", NESTED),
    ("sp4_quadric", NESTED),
    ("grass(2,4)", [["1", "0", "0"], ["0", "1", "0"]]),
    ("proj(2)", [[["1/2"]], "1"]),
    ("proj(2)", [[["1/2", "1", "3"]], "1"]),
    ("proj(2)", [[["1/2", "x"]], "1"]),
    ("proj(2)", ["1", True]),
], ids=["proj-nested", "grass-nested", "line-nested", "quadric-nested",
        "grass-short-rows", "one-entry-term", "three-entry-term",
        "non-rational-term", "boolean"])
def test_malformed_coordinates_exit_2(tmp_path, capsys, command, model, point):
    payload = {"model": model, "point": point}
    assert _exit_and_stdout(tmp_path, capsys, command, payload) == (2, "")


@pytest.mark.parametrize("command", ["status", "interval", "models", "chi"])
@pytest.mark.parametrize("model,code", [
    ("flag(7)", 3), ("sp4_linex", 3),
    ("grass(x,4)", 2), ("proj(2", 2), ("grass(2)", 2), ("grass(2,4", 2),
])
def test_model_names_unknown_or_malformed(tmp_path, capsys, command, model,
                                          code):
    payload = {"model": model, "point": ["1", "t"]}
    if command == "chi":
        payload["chi"] = ["1"]
    assert _exit_and_stdout(tmp_path, capsys, command, payload) == (code, "")


TWO_FACTOR = ("sp4_flag", "su3_pair", "sl3_flag")
SU3_POINT = [["1", "t^{1/2}", "1"], ["1", "t^{1/2}", "t - 1"]]
SL3_POINT = [["1", "t", "1"], ["1", "1", "-1 - t"]]
SP4_POINT = [["1", "1", "1", "1"], ["t", "1", "2", "t - 1"]]
GR35_POINT = [["1", "t", "0", "1", "2"], ["0", "1", "t^{1/2}", "3", "1"],
              ["1", "0", "1", "t", "-1"]]


@pytest.mark.parametrize("payload", [
    {"model": "proj(3)", "point": ["1", "t", "t^{-1}"]},
    {"model": "grass(2,4)", "point": ["1", "1", "0", "0", "-1", "-1"]},
    {"model": "grass(3,5)", "point": GR35_POINT},
    {"model": "sp4_line", "point": ["1", "t", "0", "1"]},
    {"model": "sp4_quadric", "point": ["1", "t", "t", "t^2", "0"]},
    {"model": "sp4_flag", "point": SP4_POINT},
    {"model": "sp4_flag", "point": SP4_POINT, "lam": [1, 2]},
    {"model": "su3_pair", "point": SU3_POINT},
    {"model": "su3_pair", "point": SU3_POINT, "lam": [2, 1]},
    {"model": "sl3_flag", "point": SL3_POINT},
    {"model": "sl3_flag", "point": SL3_POINT, "lam": [1, 0]},
], ids=lambda p: p["model"] + ("-lam" if "lam" in p else ""))
def test_every_model_answers_like_the_library(payload):
    model, raw = payload["model"], payload["point"]
    rows = isinstance(raw[0], list)
    coords = ([[parse_puiseux(c) for c in r] for r in raw] if rows
              else [parse_puiseux(c) for c in raw])
    x = make_point(model, coords)
    lam = tuple(payload.get("lam", (1, 1))) if model in TWO_FACTOR else None
    wp = weighted_coordinates(x, lam=lam)
    rel = model_relative(model)
    chi = [Q(c) for c in ("1", "-1", "2", "1")[:rel.rank]]
    with_chi = dict(payload, chi=[format_rational(c) for c in chi])

    assert run("status", payload) == {"status": stability_status(wp, rel)}
    assert run("status", with_chi) == {"status": chi_status(wp, rel, chi)}
    assert run("models", {"model": model, "point": raw})["point"] == x.to_json()

    res = interval_A(wp, rel)
    out = run("interval", with_chi)
    assert (out["empty"], out["bounded"], out["c_star"]) == \
        (res.is_empty(), res.bounded, format_rational(res.c_star))
    assert {tuple(w["root"]): w["sup"] for w in out["wall_bounds"]} == \
        {tuple(format_rational(c) for c in a): format_rational(n)
         for a, n in res.wall_bounds.items()}
    n, face = interval_A_chi(wp, rel, chi)
    assert out["chi_value"] == format_rational(n)
    assert (out["chi_face"] is None) == (face is None)

    out = run("chi", with_chi)
    assert out["status"] == chi_status(wp, rel, chi)
    assert out["value"] == format_rational(n if not res.is_empty() else INF)


def _fuzz_group(r: random.Random):
    """A valid group choice of each preset, small enough to answer at once,
    with its relative rank, node count and ambient dimension."""
    preset = r.choice(("split", "su3", "nonsplit_C", "sl_skew"))
    if preset == "split":
        family = r.choice("ABCD")
        payload = {"family": family, "rank": r.randint(1 if family == "A" else 2, 4)}
        if r.random() < 0.5:
            payload["preset"] = "split"
        rel = preset_relative("split", datum=build_root_system(family, payload["rank"]))
        nodes = payload["rank"]
    elif preset == "su3":
        payload, rel, nodes = {"preset": "su3"}, preset_relative("su3"), 2
    elif preset == "nonsplit_C":
        payload = {"preset": "nonsplit_C", "rank": r.randint(2, 5)}
        rel, nodes = preset_relative("nonsplit_C", rank=payload["rank"]), payload["rank"]
    else:
        payload = {"preset": "sl_skew", "s": r.randint(1, 3), "d": r.randint(1, 2)}
        rel = preset_relative("sl_skew", s=payload["s"], d=payload["d"])
        nodes = payload["s"]
    return payload, rel.rank, nodes, rel.datum.ambient_dim


def _fuzz_vector(r: random.Random, n: int):
    return [r.choice((r.randint(-4, 4), f"{r.randint(-6, 6)}/{r.randint(1, 4)}"))
            for _ in range(n)]


# near-valid values: each breaks the schema or the group's constraints, or
# is an integer-valued float, which the schemas admit as an integer
_FUZZ_BAD = {
    "rank": (0, -1, "2", 2.5, None, True, 2.0),
    "family": ("E", "G", "", "AB", 3),
    "preset": ("bogus", "Split", 1),
    "s": (0, -1, "1", 1.0),
    "d": (0, "2", None, 1.0),
    "J": ([], [0], [99], [1, 1], ["1"], [1.5], "1", [True]),
    "weights": ([["1/0"]], [["x"]], [[]], "1", [[1.5]], [[True]], [["1"] * 9]),
    "chi": ([0, 0], ["1/0"], ["abc"], [0.5], [], "1", ["1"] * 9),
    "bogus": (1,),
}


def _fuzz_group_request(r: random.Random):
    command = r.choice(("rootsys", "classify", "chambers", "chi"))
    payload, rank, nodes, ambient = _fuzz_group(r)
    if command == "classify":
        payload["J"] = sorted(r.sample(range(1, nodes + 1), r.randint(1, nodes)))
    elif command == "chambers":
        payload["weights"] = [_fuzz_vector(r, r.choice((rank, ambient)))
                              for _ in range(r.randint(0, 3))]
    elif command == "chi":
        payload["chi"] = _fuzz_vector(r, rank)
    if r.random() < 0.5:
        key = r.choice(sorted(_FUZZ_BAD))
        if key in payload and r.random() < 0.3:
            del payload[key]
        else:
            payload[key] = r.choice(_FUZZ_BAD[key])
    return command, payload


def _serve(monkeypatch, capsys, command, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    try:
        code = main(["--command", command])
    except Exception as exc:  # the CLI must answer every request itself
        pytest.fail(f"{command} {text}: {type(exc).__name__}: {exc}")
    out, err = capsys.readouterr()
    return code, out, err


def test_chamber_commands_fuzz(monkeypatch, capsys):
    """Seeded schema-valid and near-valid rootsys, classify, chambers and chi
    requests over all four presets: each exits 0, 2 or 3 without a
    traceback, writes nothing to stdout unless it answers, and answers the
    same bytes when repeated."""
    r = random.Random(1212)
    codes = set()
    for _ in range(160):
        command, payload = _fuzz_group_request(r)
        text = json.dumps(payload)
        code, out, err = _serve(monkeypatch, capsys, command, text)
        assert code in (0, 2, 3), (command, text)
        assert "Traceback" not in err, (command, text)
        assert (out == "") == (code != 0), (command, text)
        assert _serve(monkeypatch, capsys, command, text) == (code, out, err)
        codes.add(code)
    assert codes == {0, 2, 3}


def test_integer_valued_floats_answer_like_ints(tmp_path, capsys):
    """The schemas admit 2.0 as an integer, so counts (rank, s, d),
    rationals and coordinates given as integer-valued floats answer the
    same bytes as their int forms."""
    for command, payload, floats in [
        ("rootsys", {"family": "A", "rank": 2}, {"rank": 2.0}),
        ("rootsys", {"preset": "sl_skew", "s": 1, "d": 2}, {"s": 1.0}),
        ("rootsys", {"preset": "sl_skew", "s": 1, "d": 2}, {"s": 1.0, "d": 2.0}),
        ("rootsys", {"preset": "nonsplit_C", "rank": 3}, {"rank": 3.0}),
        ("classify", {"family": "A", "rank": 2, "J": [1]}, {"rank": 2.0}),
        ("classify", {"preset": "sl_skew", "s": 2, "d": 1, "J": [1]},
         {"s": 2.0, "d": 1.0}),
        ("chambers", {"family": "A", "rank": 2, "weights": [[1, "1/2"]]},
         {"rank": 2.0}),
        ("chi", {"family": "B", "rank": 2, "chi": ["1", "-1"]}, {"rank": 2.0}),
        ("chambers", {"family": "A", "rank": 2, "weights": [[1, 2]]},
         {"weights": [[1.0, 2]]}),
        ("chi", {"family": "A", "rank": 2, "chi": [1, 0]}, {"chi": [1.0, 0]}),
        ("tree", {"point": ["1 + t", 1], "R": 3}, {"point": ["1 + t", 1.0]}),
        ("tree", {"point": ["1 + t", 1], "R": 2}, {"R": 2.0}),
        ("tree", {"point": ["1 + t", [[0, 1]]], "R": 3},
         {"point": ["1 + t", [[0.0, 1.0]]]}),
        ("status", {"model": "proj(2)", "point": [1, "t"]},
         {"point": [1.0, "t"]}),
    ]:
        code, out = _exit_and_stdout(tmp_path, capsys, command, payload)
        assert code == 0 and out
        assert _exit_and_stdout(tmp_path, capsys, command,
                                dict(payload, **floats)) == (0, out), floats


# coordinates: valid ones, then ones the schema or the parser refuses
_FUZZ_COORDS = ("1", "t", "-1", "0", "t^{1/2}", "1 + t", "2*t^{-1}", "t^2",
                3, -2, [["1/2", "1"]], [[0, -2], ["1", 1]])
_FUZZ_BAD_COORDS = ("t^{1/0}", "", "x", "1\n", "t^{1/2}\n", True, 1.0, 2.5,
                    None, [], {}, [["1"]], [["1/2", "1", "3"]], [["1/2", "x"]],
                    [["1\n", "1"]], [[1.0, 1]])
_FUZZ_POINTS = {
    "proj(2)": ["1", "t"],
    "proj(3)": ["1", "t", "t^{-1}"],
    "grass(2,4)": ["1", "1", "0", "0", "-1", "-1"],
    "sp4_line": ["1", "t", "0", "1"],
    "sp4_quadric": ["1", "t", "t", "t^2", "0"],
    "sp4_flag": SP4_POINT,
    "su3_pair": SU3_POINT,
    "sl3_flag": SL3_POINT,
}
_FUZZ_BAD_MODELS = ("proj(1)", "grass(x,4)", "proj(2", "grass(2)", "grass(2,4",
                    "flag(7)", "sp4_linex", "", "proj(2)\n", 2, None, ["proj(2)"])
_FUZZ_LAMS = ([1, 1], [2, 1], [0, 3], [1.0, 2], [0, 0], [1], [1, 1, 1],
              [-1, 1], [True, 1], ["1", 1], [1.5, 1], "1")
_FUZZ_CHIS = (["1"], ["1", "-1"], [1, 0, "2/3"], ["-1/2", 2], ["1/0"], ["abc"],
              [0.5], [1.0], ["1\n"], [True], [], "1", ["1"] * 4)
_FUZZ_RADII = (1, 2, 4, "3/2", "-1", "0", 2.0, "1/0", "x", "2\n", True, None,
               [2])


def _fuzz_coordinate(r: random.Random):
    return r.choice(_FUZZ_COORDS if r.random() < 0.75 else _FUZZ_BAD_COORDS)


def _fuzz_point(r: random.Random, model):
    """The model's sample point with a few coordinates redrawn, sometimes
    reshaped: a row short or long, rows flattened or nested, no list."""
    point = copy.deepcopy(_FUZZ_POINTS.get(str(model), ["1", "t"]))
    rows = point if isinstance(point[0], list) else [point]
    for _ in range(r.randint(0, 2)):
        row = r.choice(rows)
        row[r.randrange(len(row))] = _fuzz_coordinate(r)
    shape = r.random()
    if shape < 0.05:
        return "1"
    if shape < 0.1:
        return []
    if shape < 0.15:
        r.choice(rows).pop()
    elif shape < 0.2:
        r.choice(rows).append(_fuzz_coordinate(r))
    elif shape < 0.25:
        return [c for row in rows for c in row] if rows is point else [point]
    return point


def _fuzz_act(r: random.Random, n: int):
    g = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    g[r.randrange(n)][r.randrange(n)] = _fuzz_coordinate(r)
    if r.random() < 0.2:
        g[-1] = g[-1][:-1]
    return g


def _fuzz_point_request(r: random.Random):
    """A schema-valid or near-valid request on a model point or a tree
    point: status, interval, tree, models, or chi on a model."""
    command = r.choice(("status", "interval", "tree", "models", "chi"))
    if command == "tree":
        payload = {"point": [_fuzz_coordinate(r)
                             for _ in range(r.choice((2, 2, 2, 1, 3)))]}
        if r.random() < 0.7:
            payload["R"] = r.choice(_FUZZ_RADII)
        if r.random() < 0.05:
            payload["point"] = r.choice(("1", [], None))
    else:
        model = r.choice(sorted(_FUZZ_POINTS) if r.random() < 0.85
                         else _FUZZ_BAD_MODELS)
        payload = {"model": model, "point": _fuzz_point(r, model)}
        if command != "models":
            if r.random() < 0.3:
                payload["lam"] = r.choice(_FUZZ_LAMS)
            if command == "chi" or r.random() < 0.4:
                payload["chi"] = r.choice(_FUZZ_CHIS)
        else:
            if r.random() < 0.3:
                payload["act"] = _fuzz_act(r, r.choice((2, 3, 4)))
            if r.random() < 0.3:
                payload["project"] = r.choice(
                    ("sp4_line", "sp4_quadric", "proj(2)", 1))
    if r.random() < 0.1:
        key = r.choice(sorted(payload) + ["bogus"])
        if key in payload:
            del payload[key]
        else:
            payload[key] = 1
    return command, payload


def _fuzz_request(r: random.Random):
    """A request for any of the eight commands."""
    return _fuzz_group_request(r) if r.random() < 0.35 else _fuzz_point_request(r)


def _jsonschema_accepts(command, payload) -> bool:
    validator, _ = cli._validator(command)
    return next(validator.iter_errors(payload), None) is None


def test_fuzz_verdicts_match_jsonschema_and_keep_the_exit_contract(monkeypatch,
                                                                    capsys):
    """Seeded requests over all eight commands: the compiled predicate
    accepts exactly what jsonschema accepts, and each request exits 0, 2 or
    3 without a traceback, with stdout empty unless it answers."""
    r = random.Random(1616)
    verdicts = {command: set() for command in cli.COMMANDS}
    codes = set()
    for _ in range(1000):
        command, payload = _fuzz_request(r)
        verdict = _jsonschema_accepts(command, payload)
        assert cli._validator(command)[1](payload) == verdict, (command, payload)
        verdicts[command].add(verdict)
        text = json.dumps(payload)
        code, out, err = _serve(monkeypatch, capsys, command, text)
        assert code in (0, 2, 3), (command, text)
        assert "Traceback" not in err, (command, text)
        assert (out == "") == (code != 0), (command, text)
        codes.add(code)
    assert all(seen == {True, False} for seen in verdicts.values()), verdicts
    assert codes == {0, 2, 3}


def _dict_literals():
    """Every dict literal of this file that evaluates on module names alone."""
    with open(__file__) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            try:
                yield eval(compile(ast.Expression(node), __file__, "eval"),
                           globals())
            except NameError:  # reads a local name
                continue


def test_request_literals_get_jsonschema_verdicts():
    """Every request literal of this file, under every command's schema,
    gets jsonschema's verdict from the compiled predicate."""
    literals = list(_dict_literals())
    assert len(literals) > 60
    for payload in literals:
        for command in cli.COMMANDS:
            assert cli._validator(command)[1](payload) == \
                _jsonschema_accepts(command, payload), (command, payload)


@pytest.mark.parametrize("schema,instance,valid", [
    ({"type": "integer"}, 1.0, True),
    ({"type": "integer"}, 2.5, False),
    ({"type": "integer"}, True, False),
    ({"type": "integer"}, float("inf"), False),
    ({"minimum": 1}, True, True),
    ({"minimum": 1}, 0.5, False),
    ({"minimum": 1}, "0", True),
    ({"type": "integer", "minimum": 1}, False, False),
    ({"pattern": "^-?[0-9]+$"}, "12\n", True),
    ({"pattern": "^-?[0-9]+$"}, "x12", False),
    ({"pattern": "[0-9]"}, "a1b", True),
    ({"pattern": "^a"}, 3, True),
    ({"minLength": 1}, "", False),
    ({"minLength": 1}, [], True),
    ({"minItems": 2, "maxItems": 2}, ["a", "b"], True),
    ({"minItems": 2, "maxItems": 2}, "a", True),
    ({"prefixItems": [{"type": "string"}], "items": {"type": "integer"}},
     ["a", 1, 2], True),
    ({"prefixItems": [{"type": "string"}], "items": {"type": "integer"}},
     [1, 1], False),
    ({"prefixItems": [{"type": "string"}], "items": {"type": "integer"}},
     ["a", "b"], False),
    ({"prefixItems": [{"type": "string"}]}, [], True),
    ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, -1, True),
    ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, 1, False),
    ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, -0.5, False),
    ({"enum": ["a", "b"]}, "a", True),
    ({"enum": ["a", "b"]}, ["a"], False),
    ({"properties": {"a": {"type": "string"}}, "required": ["a"],
      "additionalProperties": False}, {"a": "x"}, True),
    ({"properties": {"a": {"type": "string"}}, "required": ["a"],
      "additionalProperties": False}, {"a": "x", "b": 1}, False),
    ({"properties": {"a": {"type": "string"}}, "required": ["a"]}, {}, False),
    ({"properties": {"a": {"type": "string"}}, "required": ["a"]}, [1], True),
    ({"$defs": {"nest": {"type": "array", "items": {"$ref": "#/$defs/nest"}}},
      "$ref": "#/$defs/nest"}, [[], [[[]]]], True),
    ({"$defs": {"nest": {"type": "array", "items": {"$ref": "#/$defs/nest"}}},
      "$ref": "#/$defs/nest"}, [[], [[1]]], False),
])
def test_compiled_predicate_keeps_draft_2020_12_rules(schema, instance, valid):
    schema = dict(schema, **{"$schema": "https://json-schema.org/draft/2020-12/schema"})
    assert jsonschema.Draft202012Validator(schema).is_valid(instance) == valid
    assert cli.compile_schema(schema)(instance) == valid


@pytest.mark.parametrize("schema", [
    {"anyOf": [{"type": "string"}, {"type": "integer"}]},
    {"type": "integer", "exclusiveMinimum": 0},
    {"type": "string", "maxLength": 1},
    {"additionalProperties": {"type": "string"}},
    {"type": ["string", "integer"]},
    {"type": "null"},
    {"enum": [1, "a"]},
    {"items": True},
    {"$ref": "#/$defs/missing"},
    {"$ref": "btgit:defs#/$defs/vector"},
    {"$defs": {"unused": {"const": 1}}, "type": "object"},
    {"$schema": "http://json-schema.org/draft-07/schema#", "type": "string"},
])
def test_compiler_refuses_unsupported_keywords(schema):
    with pytest.raises(ValueError):
        cli.compile_schema(schema)


@pytest.mark.parametrize("command,payload,err", [
    ("classify", {"family": "A", "rank": 2, "J": []},
     "error: payload: [] should be non-empty\n"),
    ("status", {"model": "proj(2)", "point": ["1", "t"], "extra": 1},
     "error: payload: Additional properties are not allowed "
     "('extra' was unexpected)\n"),
    ("interval", {"model": "proj(2)", "point": ["1", "t"], "lam": [1, 1]},
     "error: 'lam' only applies to two-factor models\n"),
    ("chambers", {"family": "A", "rank": 2, "weights": [["1/0x"]]},
     "error: payload: '1/0x' does not match '^-?[0-9]+(/[0-9]+)?$'\n"),
    ("tree", {"point": ["1"]}, "error: payload: ['1'] is too short\n"),
    ("tree", {"point": ["1", "t", "t"]},
     "error: payload: ['1', 't', 't'] is too long\n"),
    ("rootsys", {"family": "A", "rank": True},
     "error: payload: True is not of type 'integer'\n"),
])
def test_rejections_keep_jsonschema_wording(monkeypatch, capsys, command,
                                            payload, err):
    assert _serve(monkeypatch, capsys, command, json.dumps(payload)) == (2, "", err)


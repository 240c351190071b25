"""Spans around calls into btgit's public functions, and the layer metrics.

The tracer replaces each listed function by a wrapper that records one span
per call: name, start, end, parent span and operation id.  A function is
replaced in every loaded module namespace that holds it (``from x import f``
copies the name) and, for methods, on the class.  Only calls made inside an
operation are recorded, not those of the benchmark's checks between
operations.  Spans stay in memory in flat arrays until the run ends;
``restore`` puts every original back.

Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# (module, qualified name): every layer boundary the benchmark traces.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("btgit.cli", "main"),
    ("btgit.cli", "run"),
    ("btgit.cli", "validate_payload"),
    ("btgit.cli", "serialize"),
    ("btgit.polyhedra", "solve_lp"),
    ("btgit.polyhedra", "hull_member"),
    ("btgit.polyhedra", "minimax_face"),
    ("btgit.polyhedra", "QPolyhedron.sup_linear"),
    ("btgit.polyhedra", "hull_skeleton"),
    ("btgit.polyhedra", "cone_generators"),
    ("btgit.polyhedra", "cone_h_rep"),
    ("btgit.polyhedra", "polyhedron_vertices"),
    ("btgit.polyhedra", "rref"),
    ("btgit.rootdata", "RelativeDatum.restrict"),
    ("btgit.rootdata", "weyl_orbit"),
    ("btgit.rootdata", "build_root_system"),
    ("btgit.valfield", "PuiseuxElement.__mul__"),
    ("btgit.valfield", "PuiseuxElement.__add__"),
    ("btgit.valfield", "PuiseuxElement.__sub__"),
    ("btgit.valfield", "PuiseuxElement.valuation"),
    ("btgit.valfield", "PuiseuxElement.truncated_inverse"),
    ("btgit.valfield", "parse_puiseux"),
    ("btgit.torusgit", "mu_K"),
    ("btgit.torusgit", "mu_residue"),
    ("btgit.torusgit", "stability_status"),
    ("btgit.torusgit", "chi_status"),
    ("btgit.torusgit", "root_hyperplanes"),
    ("btgit.torusgit", "classify_regular_weights"),
    ("btgit.interval", "interval_A"),
    ("btgit.interval", "interval_A_chi"),
    ("btgit.models", "make_point"),
    ("btgit.models", "weighted_coordinates"),
    ("btgit.models", "act"),
    ("btgit.models", "project"),
    ("btgit.treebuilding", "interval_tree"),
    ("btgit.treebuilding", "p_chi_data"),
    ("btgit.apartment", "ApartmentPoint.__post_init__"),
    ("btgit.apartment", "nu"),
    ("btgit.apartment", "simplex_id"),
    ("btgit.apartment", "is_vertex"),
    ("btgit.apartment", "distance"),
    ("btgit.apartment", "semi_convex_hull_sphere"),
)

ROOT = "bench.op"  # the root span of one operation


def span_name(module: str, qualname: str) -> str:
    return f"{module.split('.', 1)[1]}.{qualname}"


def _lp_observer(tracer: "Tracer", args, kwargs, result) -> None:
    """Count LP outcomes and the tableau size, computed from the arguments."""
    n = len(args[0])
    eq = kwargs.get("eq", args[1] if len(args) > 1 else ())
    ub = kwargs.get("ub", args[2] if len(args) > 2 else ())
    rows = len(eq) + len(ub)
    tracer.counters["polyhedra.solve_lp.cells"] += rows * (2 * n + len(ub) + rows + 1)
    tracer.counters[f"polyhedra.solve_lp.{result.status}"] += 1


def _hull_observer(tracer: "Tracer", args, kwargs, result) -> None:
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "closure")
    tracer.counters[f"polyhedra.hull_member.{mode}"] += 1


OBSERVERS: Dict[str, Callable] = {
    "polyhedra.solve_lp": _lp_observer,
    "polyhedra.hull_member": _hull_observer,
}


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names: List[str] = [ROOT]
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack: List[int] = [-1]
        self.op_id = -1
        self.counters: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def run_op(self, op_id: int, fn: Callable, arg):
        """Call ``fn(arg)`` as operation ``op_id`` under a root span."""
        self.op_id = op_id
        idx = self._open(0)
        try:
            return fn(arg)
        finally:
            self._close(idx)
            self.op_id = -1

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id < 0:  # outside an operation: the result checks
                return fn(*args, **kwargs)
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target where it is defined and wherever it was imported."""
        try:
            for module_name, qualname in TARGETS:
                module = sys.modules[module_name]
                name = span_name(module_name, qualname)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, original, self._wrap(name, original))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(name, original)
                for mod in list(sys.modules.values()):
                    space = getattr(mod, "__dict__", None)
                    if not isinstance(space, dict):
                        continue
                    for key, value in list(space.items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)
        except BaseException:
            self.restore()
            raise

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON header line with the names, then one line per span."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start_us", "end_us",
                                            "parent", "op"]}) + "\n")
            for i in range(len(self.name_id)):
                fh.write(f"[{self.name_id[i]},{(self.start[i] - t0) * 1e6:.1f},"
                         f"{(self.end[i] - t0) * 1e6:.1f},{self.parent[i]},"
                         f"{self.op[i]}]\n")

    # -- analysis -------------------------------------------------------------

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds."""
        n = len(self.name_id)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls, incl, self_t = Counter(), Counter(), Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            incl[name] += dur[i]
            self_t[name] += dur[i] - child[i]
        return calls, incl, self_t

    def nested_count(self, inner: str, outer: str) -> int:
        """Spans named ``inner`` with some ancestor span named ``outer``."""
        if inner not in self.names or outer not in self.names:
            return 0
        inner_id, outer_id = self.names.index(inner), self.names.index(outer)
        n = len(self.name_id)
        under = bytearray(n)  # parents open before children: one forward pass
        count = 0
        for i in range(n):
            p = self.parent[i]
            if p >= 0 and (under[p] or self.name_id[p] == outer_id):
                under[i] = 1
                if self.name_id[i] == inner_id:
                    count += 1
        return count


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer, ops: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of a traced run, each per operation: name -> (value, unit)."""
    calls, incl, self_t = tracer.totals()
    c = tracer.counters
    ms = 1000.0 / ops
    out: Dict[str, Tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def fn_metrics(fn, kinds):
        for kind in kinds:
            if kind == "calls":
                put(f"{fn}.calls", calls[fn] / ops, "calls/op")
            elif kind == "self_ms":
                put(f"{fn}.self_ms", self_t[fn] * ms, "ms/op")
            else:
                put(f"{fn}.incl_ms", incl[fn] * ms, "ms/op")

    # cli phases
    put("cli.main.calls", calls["cli.main"] / ops, "calls/op")
    put("cli.validate_payload.self_ms", self_t["cli.validate_payload"] * ms, "ms/op")
    put("cli.handler.incl_ms",
        (incl["cli.run"] - incl["cli.validate_payload"]) * ms, "ms/op")
    put("cli.serialize.self_ms", self_t["cli.serialize"] * ms, "ms/op")
    put("cli.parse_io.self_ms",
        (incl["cli.main"] - incl["cli.run"] - incl["cli.serialize"]) * ms, "ms/op")
    # polyhedra
    fn_metrics("polyhedra.solve_lp", ("calls", "self_ms"))
    lp = calls["polyhedra.solve_lp"]
    put("polyhedra.solve_lp.cells_computed",
        c["polyhedra.solve_lp.cells"] / lp if lp else 0.0, "cells/call")
    put("polyhedra.solve_lp.infeasible",
        c["polyhedra.solve_lp.infeasible"] / ops, "calls/op")
    put("polyhedra.solve_lp.unbounded",
        c["polyhedra.solve_lp.unbounded"] / ops, "calls/op")
    put("polyhedra.hull_member.closure.calls",
        c["polyhedra.hull_member.closure"] / ops, "calls/op")
    put("polyhedra.hull_member.interior.calls",
        c["polyhedra.hull_member.interior"] / ops, "calls/op")
    fn_metrics("polyhedra.hull_member", ("incl_ms",))
    for fn in ("minimax_face", "QPolyhedron.sup_linear", "hull_skeleton",
               "cone_generators", "cone_h_rep", "polyhedron_vertices"):
        fn_metrics(f"polyhedra.{fn}", ("calls", "incl_ms"))
    fn_metrics("polyhedra.rref", ("calls", "self_ms"))
    # rootdata
    for fn in ("RelativeDatum.restrict", "weyl_orbit", "build_root_system"):
        fn_metrics(f"rootdata.{fn}", ("calls", "self_ms"))
    # valfield
    for fn in ("__mul__", "__add__", "__sub__", "truncated_inverse"):
        fn_metrics(f"valfield.PuiseuxElement.{fn}", ("calls", "self_ms"))
    fn_metrics("valfield.PuiseuxElement.valuation", ("calls",))
    fn_metrics("valfield.parse_puiseux", ("calls", "self_ms"))
    # torusgit
    for fn in ("mu_K", "mu_residue", "stability_status", "chi_status",
               "root_hyperplanes", "classify_regular_weights"):
        fn_metrics(f"torusgit.{fn}", ("calls", "incl_ms"))
    # interval
    fn_metrics("interval.interval_A", ("calls", "self_ms", "incl_ms"))
    fn_metrics("interval.interval_A_chi", ("calls", "incl_ms"))
    ia = calls["interval.interval_A"]
    put("interval.lp_per_interval",
        tracer.nested_count("polyhedra.solve_lp", "interval.interval_A") / ia
        if ia else 0.0, "calls/call")
    # models
    for fn in ("make_point", "weighted_coordinates", "act", "project"):
        fn_metrics(f"models.{fn}", ("calls", "self_ms"))
    # treebuilding
    fn_metrics("treebuilding.interval_tree", ("calls", "self_ms", "incl_ms"))
    walks = calls["treebuilding.interval_tree"]
    put("treebuilding.mul_per_walk",
        tracer.nested_count("valfield.PuiseuxElement.__mul__",
                            "treebuilding.interval_tree") / walks
        if walks else 0.0, "calls/call")
    fn_metrics("treebuilding.p_chi_data", ("calls", "incl_ms"))
    # apartment: call counts only
    put("apartment.calls",
        sum(v for k, v in calls.items() if module_of(k) == "apartment") / ops,
        "calls/op")
    # self time per module, the benchmark's own glue included
    modules = ("cli", "polyhedra", "rootdata", "valfield", "torusgit",
               "interval", "models", "treebuilding", "apartment", "bench")
    per_module = Counter()
    for name, t in self_t.items():
        per_module[module_of(name)] += t
    for mod in modules:
        put(f"{mod}.self_ms", per_module[mod] * ms, "ms/op")
    return out


def top_self(tracer: Tracer, k: int = 5):
    """The ``k`` largest self times by function and by module, in seconds."""
    _, _, self_t = tracer.totals()
    per_module = Counter()
    for name, t in self_t.items():
        per_module[module_of(name)] += t
    return self_t.most_common(k), per_module.most_common(k)

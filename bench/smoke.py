#!/usr/bin/env python3
"""Smoke test of the benchmark itself; takes well under a minute.

    python3 bench/smoke.py

Checks that every workload runs at a tiny size with all its checks passing
(golden digests included), that a traced run gives the same outputs as an
untraced one and puts every wrapped function back, that the same seed gives
the same inputs, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

TINY = {"cli-small": 16, "apartment-lp": 12, "chamber-geometry": 16,
        "tree-series": 8}


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAIL: {message}")
    print(f"smoke: ok: {message}")


def targets_now():
    """Every attribute the tracer may patch, as currently bound."""
    import tracer
    out = {}
    for module_name, qualname in tracer.TARGETS:
        module = sys.modules[module_name]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            out[qualname] = getattr(module, cls_name).__dict__[attr]
        else:
            for name, mod in list(sys.modules.items()):
                space = getattr(mod, "__dict__", None)
                if isinstance(space, dict) and qualname in space:
                    out[f"{name}.{qualname}"] = space[qualname]
    return out


def main() -> int:
    run.bootstrap()
    import btgit.polyhedra
    from tracer import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS

    solve_lp = btgit.polyhedra.solve_lp
    before = targets_now()
    for name, wl in WORKLOADS.items():
        n = TINY[name]
        check(wl.generate(7, n) == wl.generate(7, n),
              f"{name}: the same seed gives the same inputs")
        check(wl.generate(7, n) != wl.generate(8, n),
              f"{name}: another seed gives other inputs")
        check(wl.generate(7, n) == wl.generate(7, 2 * n)[:n],
              f"{name}: inputs do not depend on the corpus length")

        ops = wl.generate(DEFAULT_SEED, n)
        plain = run.Checker(wl, DEFAULT_SEED)
        run.timed_loop(wl, ops, None, plain)
        check(plain.failed == 0 and len(run.load_golden(name)) >= n,
              f"{name}: {n} ops pass their checks and golden digests "
              f"{plain.errors[:3]}")

        tracer = Tracer()
        tracer.install()
        traced = run.Checker(wl, DEFAULT_SEED)
        try:
            run.timed_loop(wl, ops, None, traced, tracer=tracer)
        finally:
            tracer.restore()
        check(traced.digests == plain.digests,
              f"{name}: traced and untraced outputs are identical")
        check(len(tracer.name_id) > n, f"{name}: the traced run recorded spans")
        check(btgit.polyhedra.solve_lp is solve_lp and targets_now() == before,
              f"{name}: every wrapped function is restored")

    record = run.run_workload("cli-small", DEFAULT_SEED, 0, trace=False,
                              min_ops=16, corpus=16)
    check(record["failed"] == 0 and set(record["metrics"]) == {
        "setup_s", "throughput_ops_per_s", "latency_p50_ms", "latency_p90_ms",
        "peak_rss_mb"}, "a full untraced run reports the end-to-end metrics")

    run.OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        shutil.copytree(run.BENCH, scratch / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli-small",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        printed = bool(lines) and lines[-1].startswith("{")
        check(proc.returncode != 0 and not printed,
              "without src/ the benchmark fails and prints no result")
    finally:
        shutil.rmtree(scratch)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""btgit benchmark: one workload, one seed, a timed closed loop with one client.

    python3 bench/run.py --workload cli-small --seed 1 --seconds 16 --trace 0

Runs from the root of a source checkout: it imports btgit from ``src/``, so
nothing needs installing.  Every metric is printed as ``name value unit``
with its sample count, then a ``host`` line with the host fingerprint, and
last one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Times are scaled by a reference kernel timed between operations, which
divides out the drift of the machine's speed (see ``reference_seconds``).

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs the operations once untraced and once with spans around
every call into btgit's public functions, and reports the per-layer metrics
(per operation) and the tracing overhead; the spans are written to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
OUT = BENCH / "out"

MIN_OPS = 100          # so that ten samples lie beyond the p90
MIN_TRACED_OPS = 50    # enough operations for per-op layer figures
# Reported times are scaled to the machine speed at which the reference
# kernel takes this long (its time on the baseline machine when fast).
REF_SECONDS = 0.022
REF_INTERVAL = 0.5     # seconds between reference timings; a longer op is
                       # timed between two of its own
SETUP_RUNS = 11        # fresh subprocesses per setup_s measurement
CHILD_TIMEOUT = 120
# the btgit modules each workload calls into, imported by setup_s
SETUP_MODULES = {"cli-small": ("btgit.cli",), "tree-series": ("btgit.cli",),
                 "apartment-lp": ("btgit.models", "btgit.interval"),
                 "chamber-geometry": ("btgit.torusgit", "btgit.treebuilding",
                                      "btgit.models")}
CORPUS_CAP = {"cli-small": 1024, "apartment-lp": 256,
              "chamber-geometry": 256, "tree-series": 320}


class BenchError(Exception):
    """The benchmark cannot run here; nothing is printed as a result."""


def bootstrap() -> None:
    """Import btgit from the checkout's ``src/`` and nowhere else."""
    if not (SRC / "btgit" / "__init__.py").is_file():
        raise BenchError(f"no btgit sources under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import btgit
    if Path(btgit.__file__).resolve().parent != SRC / "btgit":
        raise BenchError(f"btgit imported from {btgit.__file__}, not {SRC}")


# -- host fingerprint -----------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "btgit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint() -> dict:
    from importlib.metadata import PackageNotFoundError, version
    try:
        js = version("jsonschema")
    except PackageNotFoundError:
        js = "missing"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "jsonschema": js,
            "commit": commit(), "source": source_digest()}


# -- measurement ------------------------------------------------------------------


def setup_child(workload: str) -> None:
    """In a fresh interpreter: import what the workload uses, serve one op.

    The op is the default seed's first, so set-up does not vary with the
    seed.  The reference kernel runs twice before and twice after, untimed,
    to measure the speed of the machine at that moment.
    """
    import importlib
    refs = [reference_seconds() for _ in range(2)]
    t0 = time.perf_counter()
    bootstrap()
    for module in SETUP_MODULES[workload]:
        importlib.import_module(module)
    t1 = time.perf_counter()
    from workloads import DEFAULT_SEED, WORKLOADS  # bench code: untimed
    wl = WORKLOADS[workload]
    op = wl.generate(DEFAULT_SEED, 1)[0]
    t2 = time.perf_counter()
    wl.run(op)
    t3 = time.perf_counter()
    refs += [reference_seconds() for _ in range(2)]
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2),
                      "ref_s": statistics.median(refs)}))


def measure_setup(workload: str):
    """Median scaled and raw set-up times over fresh subprocesses.

    Each is scaled by the reference kernel timed in its own subprocess.
    """
    values, raws = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-child",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise BenchError(f"setup subprocess failed:\n{proc.stderr}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        raws.append(child["setup_s"])
        values.append(child["setup_s"] * REF_SECONDS / child["ref_s"])
    return statistics.median(values), statistics.median(raws), len(values)


def reference_seconds() -> float:
    """Time one fixed run of exact rational arithmetic, independent of btgit.

    The machine's speed drifts by a third within minutes; this kernel,
    timed next to the workload, measures the drift so it can be divided out.
    """
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 3000):
        s += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - t0


def timed_loop(wl, ops, seconds, consume, min_ops: int = MIN_OPS,
               tracer=None):
    """Closed loop: each op starts when the previous one returned.

    Runs whole cycles of the workload's pattern until the ops' timed total
    reaches ``seconds`` and at least ``min_ops`` completed, or exactly
    ``len(ops)`` ops when ``seconds`` is None.  Whole cycles keep the mix of
    operation kinds the same in every run.  After each op, outside its
    timing, ``consume(op, result)`` checks the result (an exception counts
    as a result), which is then dropped: memory does not grow with the
    number of ops.  Between ops, untimed, the reference kernel runs at the
    start, at least every ``REF_INTERVAL`` seconds, and at the end.

    Returns the per-op latencies and each op's speed scale: ``REF_SECONDS``
    over the mean of the two reference times around the op.
    """
    cycle = len(wl.pattern)
    latencies, ref_before, refs = [], [], []
    run = wl.run
    gc.collect()
    refs.append(reference_seconds())
    last_ref = time.perf_counter()
    timed = 0.0
    i = 0
    while True:
        if seconds is None:
            if i == len(ops):
                break
        elif i % cycle == 0 and i >= min_ops and timed >= seconds:
            break
        op = ops[i % len(ops)]
        t0 = time.perf_counter()
        try:
            result = (run(op) if tracer is None
                      else tracer.run_op(i, run, op))
        except Exception as exc:  # a failed operation, checked below
            result = exc
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        timed += t1 - t0
        consume(op, result)
        del result
        ref_before.append(len(refs) - 1)
        if time.perf_counter() - last_ref >= REF_INTERVAL:
            refs.append(reference_seconds())
            last_ref = time.perf_counter()
        i += 1
    if ref_before and ref_before[-1] == len(refs) - 1:
        refs.append(reference_seconds())
    scales = [2 * REF_SECONDS / (refs[k] + refs[k + 1]) for k in ref_before]
    return latencies, scales


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden(workload: str):
    path = GOLDEN / f"{workload}.json"
    return json.loads(path.read_text())["digests"] if path.is_file() else []


class Checker:
    """Digests every result and checks each distinct op once.

    Called with each op and its result as they come, it keeps only the
    digests.  An op fails when it raised, when its own checks fail, when a
    repeat of its input gave a different result, or, for the default seed,
    when its digest differs from the golden one.
    """

    def __init__(self, wl, seed: int, golden=None):
        from workloads import DEFAULT_SEED
        if golden is None:
            golden = load_golden(wl.name) if seed == DEFAULT_SEED else []
        self.wl, self.golden = wl, golden
        self.verdict, self.first_digest = {}, {}
        self.failed, self.digests, self.errors = 0, [], []

    def __call__(self, op, result) -> None:
        if isinstance(result, Exception):
            errs = [f"raised {type(result).__name__}: {result}"]
            d = None
        else:
            d = digest(self.wl.encode(op, result))
            if op.index not in self.verdict:
                errs = list(self.wl.check(op, result))
                if op.index < len(self.golden) and self.golden[op.index] != d:
                    errs.append("output differs from the golden digest")
                self.verdict[op.index] = errs
                self.first_digest[op.index] = d
            errs = list(self.verdict[op.index])
            if d != self.first_digest[op.index]:
                errs.append("repeat of the same input gave another output")
        self.digests.append(d)
        if errs:
            self.failed += 1
            self.errors.extend(f"op {op.index} ({op.kind}): {e}" for e in errs)


def quantile(values, q: float) -> float:
    """Nearest-rank quantile: the ceil(q * n)-th smallest sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 min_ops: int = MIN_OPS, corpus: int = 0):
    """Measure one workload; returns a record with metrics and checks."""
    from workloads import WORKLOADS, run_crash_probes
    wl = WORKLOADS[name]
    ops = wl.generate(seed, corpus or CORPUS_CAP[name])
    # one op of each kind, from a stream of its own, lets lazy set-up finish;
    # of "model/stratum/part" kinds, one op of each model is enough
    warm = list({op.kind.split("/")[0]: op for op in
                 wl.generate(seed, len(wl.pattern), "warm")}.values())
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "host": fingerprint()}
    metrics, raw = {}, {}
    if not trace:
        value, raw["setup_s"], n = measure_setup(name)
        metrics["setup_s"] = (value, "s", n)
    for op in warm:
        try:
            wl.run(op)
        except Exception:
            pass  # the timed run reports it
    if trace:
        # half the time untraced, then the same operations traced
        seconds, min_ops = seconds / 2, min(min_ops, MIN_TRACED_OPS)
    checker = Checker(wl, seed)
    latencies, scales = timed_loop(wl, ops, seconds, checker, min_ops)
    scaled = [t * k for t, k in zip(latencies, scales)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, errors = checker.failed, checker.errors
    attempted = len(latencies)
    if not trace:
        metrics["throughput_ops_per_s"] = (attempted / sum(scaled), "ops/s",
                                           attempted)
        metrics["latency_p50_ms"] = (1000 * quantile(scaled, 0.5), "ms", attempted)
        metrics["latency_p90_ms"] = (1000 * quantile(scaled, 0.9), "ms", attempted)
        metrics["peak_rss_mb"] = (rss_mb, "MB", 1)
        raw.update(throughput_ops_per_s=attempted / sum(latencies),
                   latency_p50_ms=1000 * quantile(latencies, 0.5),
                   latency_p90_ms=1000 * quantile(latencies, 0.9))
    else:
        from tracer import Tracer, layer_metrics, top_self
        traced_ops = [ops[i % len(ops)] for i in range(attempted)]
        t_checker = Checker(wl, seed)
        tracer = Tracer()
        tracer.install()
        try:
            traced_lat, traced_scales = timed_loop(
                wl, traced_ops, None, t_checker, tracer=tracer)
        finally:
            tracer.restore()
        t_errors = t_checker.errors
        mismatch = sum(a != b for a, b in zip(checker.digests,
                                              t_checker.digests))
        if mismatch:
            t_errors.append(f"{mismatch} traced outputs differ from untraced")
        failed += max(t_checker.failed, mismatch)
        attempted += len(traced_lat)
        errors += t_errors
        for key, (value, unit) in layer_metrics(tracer, len(traced_lat)).items():
            metrics[key] = (value, unit, len(traced_lat))
        traced_s = sum(t * k for t, k in zip(traced_lat, traced_scales))
        metrics["trace.overhead"] = (sum(scaled) / traced_s, "ratio",
                                     len(traced_lat))
        metrics["cli.crash_probes.failed"] = (
            sum(code == 1 for code in run_crash_probes()), "count", 4)
        fns, mods = top_self(tracer)
        record["top_self_s"] = {"functions": fns, "modules": mods}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(path)
        record["spans_file"] = str(path)
    if name == "cli-small" and not trace:
        record["crash_probes_exit"] = run_crash_probes()
    record.update(attempted=attempted, failed=failed, errors=errors[:20],
                  failed_ratio=failed / attempted, digests=checker.digests,
                  raw_unscaled=raw, speed_scale=statistics.median(scales),
                  metrics={k: {"value": v, "unit": u, "n": n}
                           for k, (v, u, n) in metrics.items()})
    return record


def report(record) -> None:
    for key, m in record["metrics"].items():
        print(f"{key} {m['value']:.6g} {m['unit']} (n={m['n']})")
    for key, value in record["raw_unscaled"].items():
        print(f"unscaled {key} {value:.6g}")
    print(f"speed scale {record['speed_scale']:.4g} (REF_SECONDS over the "
          "reference kernel's time)")
    print(f"failed_ratio {record['failed_ratio']:.6g} ratio "
          f"(failed={record['failed']} of attempted={record['attempted']})")
    if "crash_probes_exit" in record:
        print("crash probes (expect exit 2): exit codes "
              f"{record['crash_probes_exit']}")
    if "top_self_s" in record:
        for label, rows in record["top_self_s"].items():
            print(f"largest self time by {label[:-1]}: " + ", ".join(
                f"{name} {t:.3f}s" for name, t in rows))
    for err in record["errors"]:
        print(f"check failed: {err}")
    print("host " + json.dumps(record["host"], sort_keys=True))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full record here")
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_child:
            setup_child(args.workload)
            return 0
        bootstrap()
        from workloads import WORKLOADS
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(WORKLOADS)}")
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())

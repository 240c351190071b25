#!/usr/bin/env python3
"""Record the golden output digests of every workload for the default seed.

    python3 bench/record_golden.py [workload ...]

Runs the first operations of each workload once, untimed, and writes their
result digests to ``bench/golden/<workload>.json``.  Re-record only when an
output is meant to change; ``run.py`` fails every operation whose digest
differs from the recorded one when it runs with the default seed.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv=None) -> int:
    run.bootstrap()
    from workloads import DEFAULT_SEED, WORKLOADS
    names = (sys.argv[1:] if argv is None else argv) or list(WORKLOADS)
    run.GOLDEN.mkdir(exist_ok=True)
    for name in names:
        wl = WORKLOADS[name]
        # a run repeats its corpus past CORPUS_CAP ops: all of them are covered
        ops = wl.generate(DEFAULT_SEED, run.CORPUS_CAP[name])
        checker = run.Checker(wl, DEFAULT_SEED, golden=[])
        run.timed_loop(wl, ops, None, checker)
        if checker.failed:
            print("\n".join(checker.errors), file=sys.stderr)
            return 1
        digests = checker.digests
        doc = {"workload": name, "seed": DEFAULT_SEED,
               "commit": run.commit(), "source": run.source_digest(),
               "digests": digests}
        path = run.GOLDEN / f"{name}.json"
        path.write_text(json.dumps(doc, indent=0) + "\n")
        print(f"{name}: {len(digests)} digests -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

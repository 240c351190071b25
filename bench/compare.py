#!/usr/bin/env python3
"""Compare two benchmark records written by ``run.py --record FILE``.

    python3 bench/compare.py base.json change.json

Refuses (exit 2) to compare records from different hosts: the fingerprint's
CPU count, Python version, platform and jsonschema version must match.  The
commit and source digest may differ; that is what is being compared.
"""

from __future__ import annotations

import json
import sys

HOST_KEYS = ("nproc", "python", "platform", "jsonschema")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.load(open(path)) for path in argv)
    differ = [k for k in HOST_KEYS if base["host"].get(k) != new["host"].get(k)]
    if differ:
        for k in differ:
            print(f"host differs in {k}: {base['host'].get(k)!r} vs "
                  f"{new['host'].get(k)!r}", file=sys.stderr)
        print("refusing to compare results from different hosts", file=sys.stderr)
        return 2
    for key in ("workload", "trace", "seconds"):
        if base[key] != new[key]:
            print(f"refusing to compare: {key} differs "
                  f"({base[key]!r} vs {new[key]!r})", file=sys.stderr)
            return 2
    if base["seed"] != new["seed"]:
        print(f"note: seeds differ ({base['seed']} vs {new['seed']})")
    print(f"{'metric':44s} {'base':>12s} {'change':>12s} {'ratio':>8s}")
    for name, m in base["metrics"].items():
        other = new["metrics"].get(name)
        if other is None:
            print(f"{name:44s} {m['value']:12.6g} {'missing':>12s}")
            continue
        ratio = other["value"] / m["value"] if m["value"] else float("nan")
        print(f"{name:44s} {m['value']:12.6g} {other['value']:12.6g} "
              f"{ratio:8.3f}  {m['unit']}")
    print(f"{'failed_ratio':44s} {base['failed_ratio']:12.6g} "
          f"{new['failed_ratio']:12.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

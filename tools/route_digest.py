#!/usr/bin/env python3
"""One SHA-256 per benchmark plan of its route JSON without timings.

Builds the requests of perfbench's plan workloads (``perfbench/workloads.py``)
for the given seeds, plans each one, and prints a line per plan: workload,
seed, label, and the SHA-256 of ``harness.route_json_without_timings``. A
plan that raises a ``SkyrouteError`` prints its error class and message
instead. Two checkouts that print the same lines plan the same routes,
byte for byte.

The plan-corridor weather is a CSV whose path is part of every request,
and so of the route JSON: give both runs one ``--csv-dir``. ``--root``
picks the checkout whose ``src/`` and ``perfbench/`` are imported, so one
copy of this script serves both sides:

    python3 tools/route_digest.py --csv-dir /tmp/wx --seeds 0 1 2 3 4 5 > new.txt
    python3 tools/route_digest.py --root ../parent --csv-dir /tmp/wx \\
        --seeds 0 1 2 3 4 5 > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

PLAN_WORKLOADS = ("plan-corridor", "plan-full")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--csv-dir", type=Path, required=True,
                   help="directory the strong-jet weather CSVs are written to")
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--root", type=Path,
                   default=Path(__file__).resolve().parents[1],
                   help="checkout to import (default: this script's)")
    args = p.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    import workloads
    from skyroute.errors import SkyrouteError
    from skyroute.harness import plan, route_json_without_timings

    csv_dir = args.csv_dir.resolve()
    for name in PLAN_WORKLOADS:
        for seed in args.seeds:
            for instance in workloads.build(name, seed,
                                            out_dir=csv_dir).plans:
                try:
                    doc = route_json_without_timings(plan(instance.request))
                except SkyrouteError as exc:
                    digest = f"{type(exc).__name__}: {exc}"
                else:
                    digest = hashlib.sha256(doc.encode()).hexdigest()
                print(name, seed, instance.label, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())

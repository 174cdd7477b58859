#!/usr/bin/env python3
"""One SHA-256 per benchmark plan of its route JSON without timings.

Builds the requests of perfbench's plan workloads (``perfbench/workloads.py``)
for the given seeds, plans each one, and prints a line per plan: workload,
seed, label, and the SHA-256 of ``harness.route_json_without_timings``. A
plan that raises a ``SkyrouteError`` prints its error class and message
instead. Two checkouts that print the same lines plan the same routes,
byte for byte.

After those lines come the edge lattices, which the workload sizes never
reach: MUC->BER at every I in {2, 3, 4}, J in {1, 3, 5} and H in {1, 2},
unconstrained and at w in {1, J}, in ``uniform`` and ``jet`` weather
(seed 0), with the great-circle guide and the policy guide of
``perfbench/policy.json`` (read, never written). They run the one-row,
no-interior-row and single-column branches of the lattice, the corridor
and the search.

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

#: The edge lattices' sizes, weathers and guides.
EDGE_I, EDGE_J, EDGE_H = (2, 3, 4), (1, 3, 5), (1, 2)
EDGE_WEATHERS = ("uniform", "jet")
EDGE_GUIDES = ("great_circle", "policy")


def edge_requests(root: Path):
    """(label, PlanRequest) of every edge lattice, in a fixed order."""
    from skyroute.harness import PlanRequest, resolve_point

    origin, destination = resolve_point("MUC"), resolve_point("BER")
    checkpoint = str(root / "perfbench" / "policy.json")
    for weather in EDGE_WEATHERS:
        for I in EDGE_I:
            for J in EDGE_J:
                for H in EDGE_H:
                    base = dict(origin=origin, destination=destination,
                                dims=(I, J, H), weather=weather)
                    size = f"{I}x{J}x{H}/{weather}"
                    yield (f"{size}/unconstrained",
                           PlanRequest(**base, unconstrained=True))
                    for w in sorted({1, J}):
                        for guide in EDGE_GUIDES:
                            yield (f"{size}/w={w}/{guide}",
                                   PlanRequest(**base, width=w,
                                               guide_kind=guide,
                                               checkpoint=checkpoint))


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

    def digest(request) -> str:
        try:
            doc = route_json_without_timings(plan(request))
        except SkyrouteError as exc:
            return f"{type(exc).__name__}: {exc}"
        return hashlib.sha256(doc.encode()).hexdigest()

    csv_dir = args.csv_dir.resolve()
    for name in PLAN_WORKLOADS:
        for seed in args.seeds:
            for instance in workloads.build(name, seed,
                                            out_dir=csv_dir).plans:
                print(name, seed, instance.label, digest(instance.request))
    for label, request in edge_requests(root):
        print("edge", label, digest(request))
    return 0


if __name__ == "__main__":
    sys.exit(main())

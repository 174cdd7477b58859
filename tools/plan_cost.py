#!/usr/bin/env python3
"""Median stage times and Python call counts of MUC-BER plans, small to large.

Plans MUC->BER in the built-in ``jet`` field, built once and passed to
every call, at seven lattice sizes: 3x1x1, 41x11x3, 81x21x5 and 161x41x1
unconstrained, 3x3x1 at w=3, and 81x21x5 and 161x41x1 at w=5. The two
small sizes cost what a plan costs before its lattice has a size; the two
large pairs give the hybrid/unconstrained ratios of ROADMAP item 8. Per
size it prints, as JSON, the median over ``--repeat`` in-process calls of
every ``timings`` stage and every ``timings["search"]`` stage, the median
number of minor page faults one call takes (the ``ru_minflt`` delta), the
``tracemalloc`` peak of one call in KB (the most it held at once beyond
what it started with, its working set; one traced call after the timed
rounds), and the number of Python-level calls of one plan that builds
its own field, which depends on the input alone. The
count sums ``cProfile``'s entries, one per code object: ``pstats``'
``total_calls`` keys functions by file, line and name, so it merges the
``__init__`` of different dataclasses and reads up to 16 lower, by an
amount that depends on the order they ran in. The calls run in rounds,
one plan of each size per round, so a slow stretch of the host spreads
over every size. The field's own build, ``make_weather("jet")``, is timed
the same way. ``--root`` picks the checkout whose ``src/`` is imported, so
one copy of this script serves both sides of a comparison. A checkout
with uncommitted changes (``git describe --dirty`` ends in ``-dirty``) is
refused, so that every number belongs to a commit:

    python3 tools/plan_cost.py --repeat 201 > new.json
    python3 tools/plan_cost.py --root ../parent --repeat 201 > old.json
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

#: (label, dims, width); width None is an unconstrained plan.
SIZES = (("3x1x1 unconstrained", (3, 1, 1), None),
         ("3x3x1 w=3", (3, 3, 1), 3),
         ("41x11x3 unconstrained", (41, 11, 3), None),
         ("81x21x5 unconstrained", (81, 21, 5), None),
         ("81x21x5 w=5", (81, 21, 5), 5),
         ("161x41x1 unconstrained", (161, 41, 1), None),
         ("161x41x1 w=5", (161, 41, 1), 5))


def _commit(root: Path) -> str | None:
    """`git describe --always --dirty` of the checkout, None outside git."""
    try:
        out = subprocess.run(["git", "-C", str(root), "describe", "--always",
                              "--dirty"], capture_output=True, text=True,
                             check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip() or None


def _medians(docs: list[dict]) -> dict:
    """Per stage, the median of `timings[stage]` over `docs`, with the
    search's own stages under "search"."""
    timings = [doc["timings"] for doc in docs]
    out = {k: statistics.median(t[k] for t in timings)
           for k in timings[0] if k != "search"}
    out["search"] = {k: statistics.median(t["search"][k] for t in timings)
                     for k in timings[0]["search"]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeat", type=int, default=101,
                   help="in-process calls per size (default: 101)")
    p.add_argument("--root", type=Path,
                   default=Path(__file__).resolve().parents[1],
                   help="checkout to import (default: this script's)")
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be >= 1")
    root = args.root.resolve()
    commit = _commit(root)
    if commit is not None and commit.endswith("-dirty"):
        p.error(f"{root} has uncommitted changes ({commit}); commit them, "
                "or measure a clean clone")
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    from skyroute.harness import PlanRequest, make_weather, plan, resolve_point

    origin, destination = resolve_point("MUC"), resolve_point("BER")
    field = make_weather("jet", origin, destination)
    requests = []
    for label, dims, width in SIZES:
        kwargs = dict(origin=origin, destination=destination, dims=dims,
                      weather="jet")
        if width is None:
            kwargs["unconstrained"] = True
        else:
            kwargs["width"] = width
        requests.append((label, PlanRequest(**kwargs)))

    for _label, req in requests:        # warm caches and lazy imports
        plan(req, field)
    docs = {label: [] for label, _ in requests}
    faults = {label: [] for label, _ in requests}
    weather_s = []
    for _ in range(args.repeat):
        t = time.perf_counter()
        make_weather("jet", origin, destination)
        weather_s.append(time.perf_counter() - t)
        for label, req in requests:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            docs[label].append(plan(req, field))
            faults[label].append(
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

    sizes = []
    for (label, req), (_l, dims, width) in zip(requests, SIZES):
        tracemalloc.start()
        plan(req, field)
        peak_kb = tracemalloc.get_traced_memory()[1] / 1024
        tracemalloc.stop()
        profile = cProfile.Profile()
        profile.runcall(plan, req)
        sizes.append({"label": label, "dims": list(dims), "width": width,
                      "calls": sum(e.callcount for e in profile.getstats()),
                      "median_minor_faults": statistics.median(faults[label]),
                      "tracemalloc_peak_kb": peak_kb,
                      "median_s": _medians(docs[label])})
    print(json.dumps({
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__, "cpu_count": os.cpu_count(),
                        "commit": commit},
        "route": "MUC-BER, weather jet (seed 0), field built once",
        "repeat": args.repeat,
        "make_weather_jet_s": statistics.median(weather_s),
        "sizes": sizes,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

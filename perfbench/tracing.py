"""Tracing from outside the package, for the per-layer metrics.

Each skyroute module imports its collaborators by name, so a call from
search to the performance model reads ``skyroute.search.fly_segment``.
The tracer replaces such module attributes with timing wrappers while it
is installed, which attributes every call to the module it was made
from. Each wrapped call is labelled ``<module>.<function>``, with
``@<caller module>`` appended when the caller is another module.

For every wrapped call the tracer aggregates count and time per (parent,
label) pair, where the parent is the innermost wrapped call still open,
and the self time of each label (its duration minus its wrapped
children). Stage functions (SPAN_LABELS) also leave a span: label,
start, end, the span that caused it, and the id of the operation (one
plan, or one PPO update) it belongs to. Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

#: Module whose attribute the caller reads -> functions wrapped there.
SITES = {
    "harness": ("plan", "make_weather", "build_lattice", "load_checkpoint",
                "roll_out", "build_corridor", "astar", "fly_segment",
                "great_circle_distance"),
    "search": ("nominal_mass_profile", "fly_segment", "route_cost",
               "successors", "is_reachable", "great_circle_distance"),
    "perfmodel": ("fly_segment", "great_circle_distance",
                  "intermediate_point", "sample"),
    "lattice": ("great_circle_distance", "intermediate_point"),
    "guide": ("extract_features", "forward", "great_circle_distance",
              "intermediate_point", "sample"),
    "trainer": ("train", "run_episode", "ppo_update", "extract_features",
                "forward", "fly_segment", "great_circle_distance"),
    "geo": ("great_circle_distance",),
}

#: Stage functions that record a span; the rest are hot callees that are
#: only aggregated.
SPAN_LABELS = frozenset({
    "harness.plan", "harness.make_weather", "lattice.build_lattice@harness",
    "guide.load_checkpoint@harness", "guide.roll_out@harness",
    "lattice.build_corridor@harness", "search.astar@harness",
    "search.nominal_mass_profile", "perfmodel.route_cost@search",
    "trainer.train", "trainer.run_episode", "trainer.ppo_update",
})

#: A span with this label closes an operation; later spans get a new id.
OP_BOUNDARIES = frozenset({"harness.plan", "trainer.ppo_update"})

BENCH = "bench"   # parent label of calls made by the benchmark itself


class Tracer:
    """Install with `with tracer:`; read `pairs`, `self_s` and `spans`."""

    def __init__(self):
        self.pairs: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.op_id = 0
        self._stack: list[list] = []      # [label, child seconds, span id]
        self._next_span = 1
        self._originals: list[tuple] = []
        self._wrappers = []
        for site, names in SITES.items():
            module = importlib.import_module(f"skyroute.{site}")
            for name in names:
                fn = getattr(module, name)
                home = fn.__module__.rsplit(".", 1)[-1]
                label = f"{home}.{name}" + ("" if home == site else f"@{site}")
                self._originals.append((module, name, fn))
                self._wrappers.append(self._wrap(fn, label))

    def __enter__(self):
        for (module, name, _fn), wrapper in zip(self._originals, self._wrappers):
            setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc):
        for module, name, fn in self._originals:
            setattr(module, name, fn)
        return False

    def _wrap(self, fn, label):
        stack = self._stack
        pairs = self.pairs
        self_s = self.self_s
        clock = time.perf_counter
        if label not in SPAN_LABELS:
            def hot(*args, **kwargs):
                frame = [label, 0.0, None]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    if stack:
                        parent = stack[-1]
                        parent[1] += dur
                        agg = pairs[(parent[0], label)]
                    else:
                        agg = pairs[(BENCH, label)]
                    agg[0] += 1
                    agg[1] += dur
                    self_s[label] += dur - frame[1]
            return hot

        def span(*args, **kwargs):
            span_id = self._next_span
            self._next_span += 1
            parent_span = next((f[2] for f in reversed(stack) if f[2]), None)
            parent = stack[-1][0] if stack else BENCH
            op_id = self.op_id
            frame = [label, 0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                agg = pairs[(parent, label)]
                agg[0] += 1
                agg[1] += dur
                self_s[label] += dur - frame[1]
                self.spans.append((op_id, span_id, parent_span, label, t0, t1))
                if label in OP_BOUNDARIES:
                    self.op_id += 1
        return span

    # -- queries -------------------------------------------------------

    def time_s(self, label: str) -> float:
        return sum(v[1] for (_p, l), v in self.pairs.items() if l == label)

    def count(self, label: str) -> int:
        return sum(v[0] for (_p, l), v in self.pairs.items() if l == label)

    def family_count(self, function: str) -> int:
        """Calls of `function` ("geo.intermediate_point") from every site."""
        return sum(v[0] for (_p, l), v in self.pairs.items()
                   if l.split("@")[0] == function)

    def children_s(self, parent: str) -> float:
        return sum(v[1] for (p, _l), v in self.pairs.items() if p == parent)

    def snapshot(self) -> tuple[dict, dict]:
        return ({k: tuple(v) for k, v in self.pairs.items()},
                dict(self.self_s))

    def write(self, path, extra: dict) -> None:
        doc = {
            **extra,
            "spans": [dict(zip(("op", "id", "parent", "label", "start_s",
                                "end_s"), s)) for s in self.spans],
            "pairs": [{"parent": p, "label": l, "count": v[0], "time_s": v[1]}
                      for (p, l), v in sorted(self.pairs.items())],
            "self_s": dict(sorted(self.self_s.items())),
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")

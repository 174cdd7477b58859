#!/usr/bin/env python3
"""skyroute benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload plan-full --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all       # the three workloads in turn

One client calls the program in a closed loop: the next call starts only
after the previous one returned and was checked. The loop cycles through
the workload's inputs until ``--seconds`` have passed and every input ran
at least once. Every output is checked (see check.py); a raised
``SkyrouteError`` or a failed check counts as a failed operation, any
other exception aborts the run.

``--trace 0`` reports the end-to-end metrics; the timed ones that go into
the JSON line are normalized by a calibration loop (see calibration_s)
so that a shared host's slow spells cancel out. ``--trace 1`` alternates an
untraced and a traced call of the same input and reports the per-layer
metrics of the traced calls (see tracing.py) plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

#: Separate processes that repeat set-up; setup_s is their median.
SETUP_REPEATS = 7

#: Tolerance of the check that astar's wrapped children plus its self
#: time add up to its span.
ACCOUNTING_TOL = 0.05

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Iterations of the calibration loop (about 2 ms).
CAL_ITERATIONS = 2500

#: Calibration time that maps a call's time to itself; the loop's typical
#: time on the idle 2-vCPU VM the benchmark was built on (Python 3.11).
CAL_REFERENCE_S = 0.002


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("plan-corridor", "plan-full", "train", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes (11x5x3, 2 pairs, 32 episodes)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- set-up -----------------------------------------------------------------

def setup(args):
    """Imports and input generation: everything before the first timed call."""
    import workloads
    sizes = workloads.TINY if args.tiny else workloads.FULL
    return workloads.build(args.workload, args.seed, sizes)


def setup_samples(args) -> tuple[list[float], list[float]]:
    """Seconds from process start to ready-to-call, in fresh processes, as
    (wall, normalized). Each process times the calibration loop right after
    its set-up, outside the measured interval, to normalize its own time."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"] + (["--tiny"] if args.tiny else [])
    wall, norm = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
        wall.append(seconds)
        norm.append(seconds * CAL_REFERENCE_S / float(rest))
    return wall, norm


# -- machine-speed calibration ------------------------------------------------

def calibration_s() -> float:
    """Seconds for a fixed pure-Python loop shaped like the planner's inner
    loops: float math, function calls and small allocations.

    Neighbours on a shared host slow every instruction stream by up to
    1.7x for seconds to minutes at a time. The loop runs between timed
    calls, so a call's time divided by the loop's time around it measures
    the program's cost with that slowdown taken out.
    """
    t0 = time.perf_counter()
    acc = 0.0
    recent = {}
    for i in range(CAL_ITERATIONS):
        lat = math.radians((i * 37) % 180 - 90)
        lon = math.radians((i * 91) % 360 - 180)
        s = math.sin(0.5 * lat) ** 2 + math.cos(lat) * math.sin(0.5 * lon) ** 2
        acc += math.asin(min(1.0, math.sqrt(s)))
        recent[i & 63] = (lat, lon, acc)
    return time.perf_counter() - t0


# -- operations and the closed loop -----------------------------------------

@dataclass
class Op:
    key: str
    call: object          # () -> result
    check: object         # result -> None, raises CheckFailed
    fingerprint: object   # result -> str, equal for equal outputs
    units: int            # plans or episodes completed by one call


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: Counter = field(default_factory=Counter)
    times: list = field(default_factory=list)        # untraced call seconds
    norm: list = field(default_factory=list)         # same, normalized
    units: int = 0
    first: dict = field(default_factory=dict)        # key -> first result
    fingerprints: dict = field(default_factory=dict)
    check_s: float = 0.0
    cal_s: float = 0.0
    overhead: list = field(default_factory=list)     # traced / untraced
    traced_results: list = field(default_factory=list)

    def fail(self, cls: str, detail: str) -> None:
        self.failed += 1
        self.errors[cls] += 1
        print(f"  failed: {cls}: {detail}", file=sys.stderr)


def make_ops(wl, reference: dict | None) -> list[Op]:
    import check
    from skyroute import harness, trainer

    if wl.train_config is not None:
        cfg = wl.train_config
        return [Op("train", lambda: trainer.train(cfg),
                   lambda result: check.check_train(result, cfg),
                   check.train_fingerprint, cfg.instances)]

    ops = []
    for inst in wl.plans:
        if reference is not None and inst.label not in reference:
            raise RuntimeError(f"reference has no entry for {inst.label}")
        expected = reference[inst.label] if reference is not None else None

        def check_first(doc, req=inst.request, expected=expected):
            check.check_plan(doc, req)
            if expected is not None:
                check.check_reference(doc, expected)

        ops.append(Op(inst.label, lambda req=inst.request: harness.plan(req),
                      check_first, check.plan_fingerprint, 1))
    return ops


def call(op: Op, tally: Tally) -> tuple[float | None, object]:
    """One checked call; returns (seconds, result), or (None, None) on failure."""
    from check import CheckFailed
    from skyroute.errors import SkyrouteError

    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        result = op.call()
    except SkyrouteError as exc:
        tally.fail(type(exc).__name__, f"{op.key}: {exc}")
        return None, None
    seconds = time.perf_counter() - t0
    c0 = time.perf_counter()
    try:
        fp = op.fingerprint(result)
        if op.key not in tally.fingerprints:
            op.check(result)
            tally.fingerprints[op.key] = fp
            tally.first[op.key] = result
        elif fp != tally.fingerprints[op.key]:
            raise CheckFailed("output differs from the first call on this input")
    except (CheckFailed, SkyrouteError) as exc:
        tally.fail(type(exc).__name__, f"{op.key}: {exc}")
        return None, None
    finally:
        tally.check_s += time.perf_counter() - c0
    return seconds, result


def schedule(ops: list[Op], seconds: float):
    """Ops in turn until `seconds` have passed and each ran once."""
    t_start = time.perf_counter()
    i = 0
    while i < len(ops) or time.perf_counter() - t_start < seconds:
        yield ops[i % len(ops)]
        i += 1


def timed_loop(ops: list[Op], seconds: float, tally: Tally) -> float:
    """Untraced closed loop with the calibration loop between calls.

    A call's normalized time is its time scaled by CAL_REFERENCE_S over
    the mean of the calibrations before and after it. Returns the wall
    time of the loop without checks and calibration.
    """
    cal = calibration_s()
    t_start = time.perf_counter()
    for op in schedule(ops, seconds):
        dt, _ = call(op, tally)
        c0 = time.perf_counter()
        cal_next = calibration_s()
        tally.cal_s += time.perf_counter() - c0
        if dt is not None:
            tally.times.append(dt)
            tally.norm.append(dt * CAL_REFERENCE_S / (0.5 * (cal + cal_next)))
            tally.units += op.units
        cal = cal_next
    return time.perf_counter() - t_start - tally.check_s - tally.cal_s


def traced_loop(ops: list[Op], seconds: float, tally: Tally, tracer) -> None:
    """Closed loop of an untraced and then a traced call per input."""
    from check import CheckFailed

    for op in schedule(ops, seconds):
        dt, _ = call(op, tally)
        if dt is None:
            continue
        before = tracer.snapshot()
        with tracer:
            traced_dt, result = call(op, tally)
        if traced_dt is None:
            continue
        tally.overhead.append(traced_dt / dt)
        tally.traced_results.append(result)
        if isinstance(result, dict):
            try:
                check_accounting(tracer, before)
            except CheckFailed as exc:
                tally.fail("CheckFailed", f"{op.key}: {exc}")


def check_accounting(tracer, before) -> None:
    """astar's wrapped children plus its self time must make up its span."""
    from check import CheckFailed

    pairs0, self0 = before
    label = "search.astar@harness"
    span = tracer.time_s(label) - sum(v[1] for (_p, l), v in pairs0.items()
                                      if l == label)
    children = tracer.children_s(label) - sum(
        v[1] for (p, _l), v in pairs0.items() if p == label)
    own = tracer.self_s[label] - self0.get(label, 0.0)
    if abs(children + own - span) > ACCOUNTING_TOL * span:
        raise CheckFailed(f"astar children {children:.6f} s + self {own:.6f} s "
                          f"!= span {span:.6f} s")


# -- metrics ----------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least ten samples above it, and its
    percentile; never below the median, so short runs report fewer than
    ten samples beyond it."""
    xs = sorted(samples)
    k = max(len(xs) - 11, (len(xs) - 1) // 2)
    return xs[k], 100.0 * (k + 1) / len(xs)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, tally: Tally, wall_s: float,
               setup: tuple[list[float], list[float]]):
    """(JSON metrics, printable rows) for an untraced run."""
    n = len(tally.times)
    p50 = statistics.median(tally.times) * 1000.0
    p50_norm = statistics.median(tally.norm) * 1000.0
    tail_ms, tail_pct = tail(tally.times)
    tail_ms *= 1000.0
    beyond = sum(t * 1000.0 > tail_ms for t in tally.times)
    rate = tally.units / wall_s
    setup_wall, setup_norm = setup
    setup_s = statistics.median(setup_norm)
    rss = peak_rss_mb()
    metrics = {
        "p50_norm_ms": (p50_norm, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    op = "plan" if wl.train_config is None else "train_call"
    rows = [
        (f"{op}_p50_ms", p50, "ms", f"n={n}", "-"),
        (f"{op}_p50_norm_ms", p50_norm, "ms", f"n={n}", "p50_norm_ms"),
        (f"{op}_tail_ms", tail_ms, "ms",
         f"n={n}, p{tail_pct:.1f}, {beyond} beyond", "-"),
    ]
    if wl.train_config is None:
        results = list(tally.first.values())
        rows += [
            ("plans_per_s", rate, "1/s", f"n={tally.units}", "-"),
            ("expanded_per_plan",
             statistics.fmean(r["search"]["expanded_nodes"] for r in results),
             "nodes", f"n={len(results)} pairs", "-"),
            ("fuel_kg_per_plan",
             statistics.fmean(r["totals"]["fuel_kg"] for r in results),
             "kg", f"n={len(results)} pairs", "-"),
        ]
    else:
        rows.append(("episodes_per_s", rate, "1/s", f"n={tally.units}", "-"))
    rows += [
        ("setup_wall_s", statistics.median(setup_wall), "s",
         f"n={len(setup_wall)} processes", "-"),
        ("setup_s", setup_s, "s", f"n={len(setup_norm)} processes", "setup_s"),
        ("peak_rss_mb", rss, "MB", "n=1", "peak_rss_mb"),
        ("failed_frac", tally.failed / tally.attempted, "ratio",
         f"{tally.failed}/{tally.attempted}", "-"),
    ]
    return metrics, rows


def per_layer(wl, tracer, tally: Tally):
    """(JSON metrics, printable rows) for a traced run."""
    plans = [r for r in tally.traced_results if isinstance(r, dict)]
    per_plan = 1.0 / len(plans) if plans else 0.0
    updates = 0
    if wl.train_config is not None:
        cfg = wl.train_config
        updates = (len(tally.traced_results)
                   * math.ceil(cfg.instances / cfg.rollout_episodes))
    per_update = 1.0 / updates if updates else 0.0
    per_op = per_plan or per_update

    def ms(label, scale):
        return 1000.0 * tracer.time_s(label) * scale

    expanded = sum(r["search"]["expanded_nodes"] for r in plans)
    generated = sum(r["search"]["generated_nodes"] for r in plans)
    edges = tracer.pairs.get(("search.astar@harness",
                              "perfmodel.fly_segment@search"), (0, 0.0))[0]
    overhead = (statistics.median(tally.overhead) - 1.0) * 100.0
    values = {
        "search.astar_ms": (ms("search.astar@harness", per_plan), "ms"),
        "search.self_ms": (1000.0 * tracer.self_s["search.astar@harness"]
                           * per_plan, "ms"),
        "search.expanded": (expanded * per_plan, "count"),
        "search.generated": (generated * per_plan, "count"),
        "search.expanded_ratio": (expanded / generated if generated else 0.0,
                                  "ratio"),
        "search.edges_costed_per_expanded": (edges / expanded if expanded
                                             else 0.0, "ratio"),
        "perfmodel.fly_segment_calls.search": (
            tracer.count("perfmodel.fly_segment@search") * per_plan, "count"),
        "perfmodel.fly_segment_ms.search": (
            ms("perfmodel.fly_segment@search", per_plan), "ms"),
        "perfmodel.refly_ms": (ms("perfmodel.route_cost@search", per_plan)
                               + ms("perfmodel.fly_segment@harness", per_plan),
                               "ms"),
        "harness.fuel_kg": (sum(r["totals"]["fuel_kg"] for r in plans)
                            * per_plan, "kg"),
        "geo.great_circle_distance_calls": (
            tracer.family_count("geo.great_circle_distance") * per_op, "count"),
        "geo.intermediate_point_calls": (
            tracer.family_count("geo.intermediate_point") * per_op, "count"),
        "weather.sample_calls": (
            tracer.family_count("weather.sample") * per_op, "count"),
        "weather.make_weather_ms": (ms("harness.make_weather", per_plan), "ms"),
        "lattice.build_ms": (ms("lattice.build_lattice@harness", per_plan), "ms"),
        "lattice.corridor_ms": (ms("lattice.build_corridor@harness", per_plan),
                                "ms"),
        "lattice.successors_calls": (
            tracer.count("lattice.successors@search") * per_plan, "count"),
        "lattice.is_reachable_calls": (
            tracer.count("lattice.is_reachable@search") * per_plan, "count"),
        "guide.rollout_ms": (ms("guide.roll_out@harness", per_plan), "ms"),
        "guide.load_checkpoint_ms": (ms("guide.load_checkpoint@harness",
                                        per_plan), "ms"),
        "guide.extract_features_calls": (
            tracer.family_count("guide.extract_features") * per_op, "count"),
        "guide.forward_ms.trainer": (ms("guide.forward@trainer", per_update),
                                     "ms"),
        "perfmodel.fly_segment_ms.trainer": (
            ms("perfmodel.fly_segment@trainer", per_update), "ms"),
        "trainer.rollout_ms": (ms("trainer.run_episode", per_update), "ms"),
        "trainer.update_ms": (ms("trainer.ppo_update", per_update), "ms"),
        "trainer.self_ms": (1000.0 * tracer.self_s["trainer.train"]
                            * per_update, "ms"),
        "harness.plan_self_ms": (1000.0 * tracer.self_s["harness.plan"]
                                 * per_plan, "ms"),
        "trace_overhead_pct": (overhead, "pct"),
    }
    basis = (f"per plan, n={len(plans)}" if plans
             else f"per PPO update, n={updates}")
    rows = [(name, v, unit, basis, name) for name, (v, unit) in values.items()
            if name != "trace_overhead_pct"]
    rows.append(("trace_overhead_pct", overhead, "pct",
                 f"median traced/untraced, n={len(tally.overhead)}",
                 "trace_overhead_pct"))
    return values, rows


def print_rows(rows) -> None:
    print(f"  {'metric':36s} {'value':>14s} {'unit':6s} {'samples':28s} json key")
    for name, value, unit, samples, key in rows:
        print(f"  {name:36s} {value:14.6g} {unit:6s} {samples:28s} {key}")


# -- entry points -----------------------------------------------------------

def run_one(args) -> int:
    import workloads

    wl = setup(args)
    if args.setup_probe:
        print("ready", flush=True)
        print(statistics.median(calibration_s() for _ in range(3)))
        return 0
    setup_times = setup_samples(args) if not args.trace else None

    reference = None
    if args.seed == workloads.REFERENCE_SEED and not args.tiny and wl.plans:
        with open(workloads.REFERENCE_PATH, encoding="utf-8") as f:
            reference = json.load(f)[wl.name]
    ops = make_ops(wl, reference)
    tally = Tally()
    metrics, rows = {}, []
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        traced_loop(ops, args.seconds, tally, tracer)
        path = workloads.OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        tracer.write(path, {"workload": wl.name, "seed": args.seed})
        if tally.traced_results:
            metrics, rows = per_layer(wl, tracer, tally)
    else:
        wall_s = timed_loop(ops, args.seconds, tally)
        if tally.times:
            metrics, rows = end_to_end(wl, tally, wall_s, setup_times)

    print(f"workload {wl.name}: {wl.description}; seed {args.seed}, "
          f"{args.seconds:g} s, closed loop, 1 client")
    if tally.errors:
        print(f"  failures by class: {dict(tally.errors)}")
    if args.trace:
        print(f"  spans and per-pair counters written to {path}")
    print_rows(rows)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    code = 0
    for name in ("plan-corridor", "plan-full", "train"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            code = 1
            continue
        results[name] = json.loads(lines[-1])
        code = code or int(not results[name]["correct"])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "skyroute" / "__init__.py").is_file():
        print(f"error: no skyroute sources at {SRC_DIR}", file=sys.stderr)
        return 2
    for var in THREAD_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC_DIR))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

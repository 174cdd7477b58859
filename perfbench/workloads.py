"""Seeded inputs for the three benchmark workloads.

The benchmark draws every input from ``--seed``; the program under test
only ever sees the generated requests. Why each workload exists:

plan-corridor
    Hybrid ``plan()`` at 81x21x5 with corridor width 5, the paper's
    headline operation. The corridor masks about 76% of each row, so
    guide, corridor and lattice build take their largest share here. The
    weather is a strong, narrow jet (100-120 m/s, 1.5-2 deg half-width)
    written once to CSV in set-up and read by every request as
    ``csv:<path>``, so each plan also pays a CSV parse. With the built-in
    ``jet`` weather every sampled optimum lies on the great-circle
    centerline, so no corridor could ever cost fuel; the strong jet moves
    the optimum off it for some pairs (6 to 8 of 40 sampled ones,
    depending on the core latitude). The guide alternates between
    ``great_circle`` and ``policy``;
    the policy reads a checkpoint frozen in this directory, so trainer
    changes cannot move this workload.
plan-full
    Unconstrained ``plan()`` at 41x11x3 with the built-in ``jet`` weather.
    No guide and no corridor: A* costs edges across the whole lattice,
    so this isolates the search and edge-costing layers. A guide or
    corridor change should show no change here, and fuel is the exact
    optimum of the graph.
train
    ``trainer.train`` with default hyperparameters and the default uniform
    field. No lattice and no search; the performance model is used with
    threaded mass and one substep per step. Only a trainer or rollout
    change should show here. N = 88 episodes, so the last of the six PPO
    updates has a partial batch.

Airport pairs are drawn stratified by great-circle distance: the 380
ordered pairs of the shipped 20-airport table are sorted by distance and
split into equal strata, and the seed picks one pair per stratum. Every
seed therefore sees the same spread of trip lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from skyroute import harness
from skyroute.geo import GeoPoint, great_circle_distance
from skyroute.harness import PlanRequest
from skyroute.trainer import TrainConfig
from skyroute.weather import make_jet_stream, save_csv

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

#: Frozen guide checkpoint; make_inputs.py documents how it was produced.
POLICY_CHECKPOINT = BENCH_DIR / "policy.json"

#: Per-instance results at REFERENCE_SEED; written by make_inputs.py.
REFERENCE_PATH = BENCH_DIR / "reference.json"
REFERENCE_SEED = 0

#: Covers every lattice of the airport table and any guide rollout from it
#: (three policy steps reach at most 0.6 trip lengths from the origin).
STRONG_JET_BBOX = (20.0, 80.0, -50.0, 70.0)


@dataclass(frozen=True)
class PlanSpec:
    """Sizes of one planning workload."""

    dims: tuple[int, int, int]
    width: int | None          # None: unconstrained search
    weather: str               # "jet" (built in) or "strong-jet" (CSV)
    instances: int             # distinct airport pairs per seed


@dataclass(frozen=True)
class Sizes:
    plan_corridor: PlanSpec
    plan_full: PlanSpec
    train_episodes: int


FULL = Sizes(plan_corridor=PlanSpec((81, 21, 5), 5, "strong-jet", 12),
             plan_full=PlanSpec((41, 11, 3), None, "jet", 12),
             train_episodes=88)

#: For the benchmark's own smoke test only.
TINY = Sizes(plan_corridor=PlanSpec((11, 5, 3), 3, "strong-jet", 2),
             plan_full=PlanSpec((11, 5, 3), None, "jet", 2),
             train_episodes=32)


@dataclass
class PlanInstance:
    label: str                 # "WAW-LHR/policy"
    request: PlanRequest


@dataclass
class Workload:
    """Everything a run needs, built in set-up."""

    name: str
    description: str
    plans: list[PlanInstance]          # empty for train
    train_config: TrainConfig | None   # None for plan workloads


def airport_pairs(rng: np.random.Generator, count: int) -> list[tuple[str, str]]:
    """`count` ordered airport pairs, one per distance stratum, in seeded order."""
    airports = harness.load_airports()

    def distance(pair):
        a, b = (GeoPoint(*airports[code]) for code in pair)
        return great_circle_distance(a, b)

    pairs = sorted(((a, b) for a in sorted(airports) for b in sorted(airports)
                    if a != b), key=lambda p: (distance(p), p))
    strata = np.array_split(np.arange(len(pairs)), count)
    chosen = [pairs[int(rng.choice(stratum))] for stratum in strata]
    return [chosen[int(k)] for k in rng.permutation(count)]


def write_strong_jet(rng: np.random.Generator, seed: int, path: Path) -> None:
    fld = make_jet_stream(STRONG_JET_BBOX,
                          core_lat=float(rng.uniform(46.0, 54.0)),
                          core_speed=float(rng.uniform(100.0, 120.0)),
                          half_width=float(rng.uniform(1.5, 2.0)),
                          seed=seed)
    save_csv(fld, str(path))


def _plan_workload(name: str, spec: PlanSpec, seed: int,
                   out_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    pairs = airport_pairs(rng, spec.instances)
    if spec.weather == "strong-jet":
        csv_path = out_dir / f"{name}-seed{seed}-jet.csv"
        write_strong_jet(rng, seed, csv_path)
        weather = f"csv:{csv_path}"
    else:
        weather = spec.weather
    plans = []
    for k, (a, b) in enumerate(pairs):
        kwargs = dict(origin=harness.resolve_point(a),
                      destination=harness.resolve_point(b),
                      dims=spec.dims, weather=weather, seed=seed)
        if spec.width is None:
            kwargs["unconstrained"] = True
            label = f"{a}-{b}"
        else:
            guide = "great_circle" if k % 2 == 0 else "policy"
            kwargs.update(width=spec.width, guide_kind=guide)
            if guide == "policy":
                kwargs["checkpoint"] = str(POLICY_CHECKPOINT)
            label = f"{a}-{b}/{guide}"
        plans.append(PlanInstance(label, PlanRequest(**kwargs)))
    I, J, H = spec.dims
    mode = "unconstrained" if spec.width is None else f"w={spec.width}"
    description = (f"{I}x{J}x{H} {mode}, weather {spec.weather}, "
                   f"{spec.instances} airport pairs")
    return Workload(name, description, plans, None)


def build(name: str, seed: int, sizes: Sizes = FULL,
          out_dir: Path = OUT_DIR) -> Workload:
    """Generate the inputs of workload `name` from `seed`."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if name == "plan-corridor":
        return _plan_workload(name, sizes.plan_corridor, seed, out_dir)
    if name == "plan-full":
        return _plan_workload(name, sizes.plan_full, seed, out_dir)
    if name == "train":
        cfg = TrainConfig(seed=seed, instances=sizes.train_episodes)
        return Workload(name, f"train() with N={cfg.instances} episodes, "
                        f"{math.ceil(cfg.instances / cfg.rollout_episodes)} "
                        "PPO updates, uniform field", [], cfg)
    raise ValueError(f"unknown workload: {name}")

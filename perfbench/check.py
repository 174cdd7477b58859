"""Output checks for the benchmark.

A plan passes when its waypoints start at the origin and end at the
destination, its fuel is finite and positive, and ``totals.fuel_kg``
equals ``perfmodel.route_cost`` over the returned waypoints to
FUEL_REL_TOL. At REFERENCE_SEED every instance's ``expanded_nodes`` and
``fuel_kg`` must also match the committed reference. A training run
passes when every log row is finite and there are ceil(N /
rollout_episodes) updates. Repeats of an input must reproduce the first
output exactly (timings aside).
"""

from __future__ import annotations

import json
import math

from skyroute.geo import GeoPoint
from skyroute.harness import make_weather, route_json_without_timings
from skyroute.perfmodel import AircraftState, route_cost
from skyroute.trainer import LOG_COLUMNS

#: Relative tolerance between reported fuel and a fresh re-fly, and
#: between reported fuel and the reference.
FUEL_REL_TOL = 1e-9

#: Endpoint tolerance in degrees.
POSITION_TOL_DEG = 1e-9


class CheckFailed(Exception):
    """An output failed a benchmark check."""


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_plan(doc: dict, req) -> None:
    """Raise CheckFailed unless `doc` is a valid plan for `req`."""
    wps = [GeoPoint(w["lat_deg"], w["lon_deg"], w["alt_m"])
           for w in doc["waypoints"]]
    if len(wps) < 2:
        raise CheckFailed(f"{len(wps)} waypoints")
    for name, got, want in (("origin", wps[0], req.origin),
                            ("destination", wps[-1], req.destination)):
        if (abs(got.lat_deg - want.lat_deg) > POSITION_TOL_DEG
                or abs(got.lon_deg - want.lon_deg) > POSITION_TOL_DEG):
            raise CheckFailed(f"route does not end at the {name}: {got}")
    fuel = doc["totals"]["fuel_kg"]
    if not (math.isfinite(fuel) and fuel > 0.0):
        raise CheckFailed(f"fuel {fuel!r} is not finite and positive")
    field = make_weather(req.weather, req.origin, req.destination, req.seed)
    refly, _ = route_cost(req.aircraft,
                          AircraftState(wps[0], req.aircraft.ref_mass_kg),
                          wps, field, req.substeps)
    if not _close(fuel, refly, FUEL_REL_TOL):
        raise CheckFailed(f"totals.fuel_kg {fuel!r} != route_cost {refly!r}")


def check_reference(doc: dict, expected: dict) -> None:
    """Raise CheckFailed unless effort and fuel match the reference entry."""
    got = doc["search"]["expanded_nodes"]
    if got != expected["expanded_nodes"]:
        raise CheckFailed(f"expanded_nodes {got} != reference "
                          f"{expected['expanded_nodes']}")
    fuel = doc["totals"]["fuel_kg"]
    if not _close(fuel, expected["fuel_kg"], FUEL_REL_TOL):
        raise CheckFailed(f"fuel_kg {fuel!r} != reference {expected['fuel_kg']!r}")


def plan_fingerprint(doc: dict) -> str:
    return route_json_without_timings(doc)


def check_train(result, cfg) -> None:
    """Raise CheckFailed unless `train()` returned a complete, finite log."""
    _params, log = result
    updates = math.ceil(cfg.instances / cfg.rollout_episodes)
    if len(log.rows) != updates:
        raise CheckFailed(f"{len(log.rows)} updates, expected {updates}")
    if len(log.episode_rewards) != cfg.instances:
        raise CheckFailed(f"{len(log.episode_rewards)} episodes, "
                          f"expected {cfg.instances}")
    for row in log.rows:
        for key in LOG_COLUMNS:
            if not math.isfinite(row[key]):
                raise CheckFailed(f"update {row['update_index']}: {key} = {row[key]!r}")


def train_fingerprint(result) -> str:
    _params, log = result
    return json.dumps(log.rows, sort_keys=True)

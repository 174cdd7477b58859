"""Surrogate aircraft performance model.

Fuel flow is proportional to mass with a linear temperature term; wind is
additive along track. Deterministic and monotone by construction, with
closed forms that unit tests can pin exactly. A segment flies in
`substeps` pieces, each its segment plus a fraction: the weather at the
mid fraction, the wind along the track's direction at the start fraction,
in closed form from the endpoints (`geo.along_track`). Each piece burns a
fixed share of the mass it starts with (`_burn`), so a segment flown from
mass m burns m times a share that its geometry fixes.

`fly_segment` flies one segment and is the reference, and `fly_leg` is
its body on plain floats. That body is the only source of flight errors
(OutOfDomain, Infeasible) and the trainer's stepper; `fly_segment`
re-flies the legs `thread_legs` refuses. The array forms split
a flight into its mass-free part and one multiply per segment, so that one
geometry pass serves several masses (the search flies its lattice once):
- `substep_geometry` repeats `fly_segment`'s geometry, weather lookups and
  burned shares over arrays of segments, as a `Geometry` of per-segment
  arrays. It uses the array forms of the same `geo` formulas, so the two
  differ only where numpy rounds sin/cos/asin/atan2 differently from libm.
- `segments_fuel` is each segment's start mass times its share, NaN where
  `fly_segment` would refuse the segment (the search's absent edges).
- `thread_legs` carries mass along consecutive legs, one multiply a leg;
  `fly_route` is `substep_geometry` and `thread_legs` in one call.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import Infeasible, parsing
from .files import replacing
# intermediate_point and sample are unused here; they stay because
# perfbench/tracing.py wraps them by name.
from .geo import (EARTH_RADIUS_M, GeoPoint, along_track, along_tracks,
                  azimuth, great_circle_distance, great_circle_distances,
                  initial_bearings, intermediate_point, intermediate_points,
                  track_point)
from .weather import (ISA_TEMPERATURE_K, MAX_TEMPERATURE_K, MIN_TEMPERATURE_K,
                      WeatherField, sample, sample_at, sample_many)

#: Ground-speed floor (m/s) preventing division blow-up under absurd headwind.
GROUND_SPEED_FLOOR_MS = 20.0

DEFAULT_SUBSTEPS = 4


@dataclass(frozen=True)
class AircraftSpec:
    """Cruise performance parameters, SI units."""

    ref_mass_kg: float
    empty_mass_kg: float
    max_mass_kg: float
    tas_ms: float
    base_fuel_flow_kgps: float
    temp_sensitivity: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if not (0.0 < self.empty_mass_kg < self.ref_mass_kg <= self.max_mass_kg):
            raise ValueError("require 0 < empty_mass < ref_mass <= max_mass")
        if not (150.0 <= self.tas_ms <= 300.0):
            raise ValueError("tas_ms must lie in [150, 300]")
        if self.base_fuel_flow_kgps <= 0.0:
            raise ValueError("base_fuel_flow_kgps must be positive")
        # Flow > 0 at every temperature a field accepts: burned shares grow.
        if min(1.0 + self.temp_sensitivity * (t - ISA_TEMPERATURE_K)
               for t in (MIN_TEMPERATURE_K, MAX_TEMPERATURE_K)) <= 0.0:
            raise ValueError("temp_sensitivity: flow must stay positive in [180, 330] K")

    @classmethod
    def from_dict(cls, raw: dict) -> "AircraftSpec":
        names = [f.name for f in fields(cls)]
        missing = [k for k in names if k not in raw]
        if missing:
            raise ValueError(f"aircraft spec missing fields: {missing}")
        unknown = [k for k in raw if k not in names]
        if unknown:
            raise ValueError(f"aircraft spec has unknown fields: {unknown}")
        for k in names:
            # float() would take true as 1.0 and "230" as 230.0, and raise
            # OverflowError on an integer beyond a float's range.
            if (type(raw[k]) not in (int, float)
                    or not abs(raw[k]) <= sys.float_info.max):
                raise ValueError(f"{k} must be a finite number, "
                                 f"got {raw[k]!r}")
        return cls(**{k: float(raw[k]) for k in names})

    @classmethod
    def from_json(cls, path: str) -> "AircraftSpec":
        """Read a spec file; one that is not a valid spec raises ConfigError."""
        with open(path, encoding="utf-8") as f, parsing(path):
            return cls.from_dict(json.load(f))

    def to_json(self, path: str) -> None:
        """Write the spec as JSON; `path` is replaced whole
        (files.replacing)."""
        with replacing(path) as f:
            json.dump(asdict(self), f, indent=2, sort_keys=True)
            f.write("\n")


@dataclass(frozen=True)
class AircraftState:
    """Position plus current mass."""

    position: GeoPoint
    mass_kg: float


@dataclass(frozen=True)
class SegmentResult:
    """Outcome of flying one great-circle segment."""

    fuel_kg: float
    time_s: float
    end_state: AircraftState
    gs_floor_hit: bool = False


def default_spec() -> AircraftSpec:
    """Narrow-body-scale fixture parameters shipped with the package."""
    from importlib.resources import files
    raw = json.loads(files("skyroute.data").joinpath("default_aircraft.json")
                     .read_text(encoding="utf-8"))
    return AircraftSpec.from_dict(raw)


def fuel_flow_kgps(spec: AircraftSpec, mass_kg: float, temperature_k: float) -> float:
    """Instantaneous fuel flow at the given mass and ambient temperature."""
    return (spec.base_fuel_flow_kgps
            * (mass_kg / spec.ref_mass_kg)
            * (1.0 + spec.temp_sensitivity * (temperature_k - ISA_TEMPERATURE_K)))


def _burn(spec: AircraftSpec, burned, temperature_k, dt):
    """A segment's burned share of its start mass after one more piece."""
    return burned + fuel_flow_kgps(spec, 1.0, temperature_k) * dt * (1.0 - burned)


def fly_segment(spec: AircraftSpec, state: AircraftState, to: GeoPoint,
                field: WeatherField, substeps: int = DEFAULT_SUBSTEPS) -> SegmentResult:
    """Fly the great-circle track from state.position to `to`.

    Piece k of `substeps` runs from fraction k/substeps of the track to
    (k+1)/substeps. Ground speed is TAS plus the wind at its midpoint along
    the track's direction at its start (floored); each piece burns its
    share of the mass left (`_burn`).
    """
    start = state.position
    fuel, time, floor_hit = fly_leg(
        spec, start.lat_deg, start.lon_deg, to.lat_deg, to.lon_deg,
        great_circle_distance(start, to), state.mass_kg, field, substeps)
    return SegmentResult(fuel, time, AircraftState(to, state.mass_kg - fuel),
                         floor_hit)


def fly_leg(spec: AircraftSpec, lat0: float, lon0: float, lat1: float,
            lon1: float, total: float, mass: float, field: WeatherField,
            substeps: int) -> tuple[float, float, bool]:
    """`fly_segment` on plain floats: (fuel, time, ground-speed floor hit)
    of the leg (lat0, lon0) -> (lat1, lon1) flown from `mass`, given total
    = the leg's haversine distance."""
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if total == 0.0:
        return 0.0, 0.0, False

    bearing = azimuth(lat0, lon0, lat1, lon1)
    delta = total / EARTH_RADIUS_M
    burned, time, floor_hit = 0.0, 0.0, False
    for k in range(substeps):
        # The piece's midpoint, as intermediate_point(start, to, ...) gives it.
        wind_east, wind_north, temperature = sample_at(field, *track_point(
            lat0, lon0, lat1, lon1, delta,
            (k / substeps + (k + 1) / substeps) / 2.0))
        gs = spec.tas_ms + along_track(lat0, bearing, k / substeps * delta,
                                       wind_east, wind_north)
        if gs < GROUND_SPEED_FLOOR_MS:
            gs = GROUND_SPEED_FLOOR_MS
            floor_hit = True
        dt = total / substeps / gs
        burned = _burn(spec, burned, temperature, dt)
        if mass - mass * burned < spec.empty_mass_kg:
            raise Infeasible(f"mass would drop below empty mass "
                             f"({mass - mass * burned:.1f} < {spec.empty_mass_kg})")
        time += dt
    return mass * burned, time, floor_hit


#: Most pieces `substep_geometry` works on at once: it cuts longer batches
#: into blocks of segments, so its few dozen temporary arrays stay small.
#: A block costs about 0.1 ms of fixed numpy calls. Against 2048, 8192 made
#: MUC-BER plans 5-21% faster (41x11x3 fits one block, 161x41x1 takes 9)
#: and raised their peak RSS by 0.1-0.8 MB.
BLOCK_POINTS = 8192


class Geometry(NamedTuple):
    """The mass-free part of flying n segments, as `fly_segment` computes it.

    Off the grid the time and burned share are NaN, and so is the share of
    a segment that burns all its mass. A zero-length segment burns nothing."""

    length: np.ndarray          # (n,) meters
    time: np.ndarray            # (n,) seconds, the sum of the pieces'
    burned: np.ndarray          # (n,) share of the start mass burned
    floor: np.ndarray           # (n,) some piece's ground speed floored

    def take(self, index) -> "Geometry":
        """The geometry of segments `index`, in that order."""
        return Geometry(*(a[index] for a in self))


def segments_fuel(spec: AircraftSpec, mass, geometry: Geometry) -> np.ndarray:
    """Fuel of each segment of `geometry` flown from mass[n], each as
    `fly_segment` flies it.

    NaN marks a segment `fly_segment` would refuse: a piece's midpoint lies
    off the grid or the mass falls below the empty mass. Only `fly_segment`
    says which error that is.
    """
    fuel = mass * geometry.burned
    return np.where((mass - fuel >= spec.empty_mass_kg)
                    | (geometry.length == 0.0), fuel, np.nan)   # 0 kg at any mass


def substep_geometry(spec: AircraftSpec, lat0, lon0, lat1, lon1,
                     field: WeatherField, substeps: int) -> Geometry:
    """The `Geometry` of the 1-D arrays of segments (lat0, lon0) -> (lat1,
    lon1), block by block of at most BLOCK_POINTS pieces. A segment's
    geometry does not depend on the other segments of its batch.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    k = np.arange(substeps)[:, None]
    start, mid = k / substeps, (k / substeps + (k + 1) / substeps) / 2.0
    step = max(1, BLOCK_POINTS // substeps)
    blocks = []
    for lo in range(0, max(lat0.size, 1), step):
        ends = [a[lo:lo + step] for a in (lat0, lon0, lat1, lon1)]
        total = great_circle_distances(*ends)
        delta = total / EARTH_RADIUS_M
        wx = sample_many(field, *intermediate_points(*ends, mid, delta))
        gs = spec.tas_ms + along_tracks(ends[0], initial_bearings(*ends),
                                        start * delta, wx.wind_east,
                                        wx.wind_north)
        dts = total / substeps / np.maximum(gs, GROUND_SPEED_FLOOR_MS)
        time = burned = 0.0
        for dt, temperature in zip(dts, wx.temperature):
            burned = _burn(spec, burned, temperature, dt)
            burned = np.where(burned < 1.0, burned, np.nan)   # emptied
            time = time + dt
        moving = total > 0.0        # a zero-length segment samples nowhere
        blocks.append((total, np.where(moving, time, 0.0), np.where(moving, burned, 0.0),
                       moving & (gs < GROUND_SPEED_FLOOR_MS).any(axis=0)))
    return Geometry(*(np.concatenate(parts) for parts in zip(*blocks)))


def fly_route(spec: AircraftSpec, initial_state: AircraftState,
              route: list[GeoPoint], field: WeatherField,
              substeps: int = DEFAULT_SUBSTEPS) -> list[SegmentResult]:
    """Fly route[0] -> route[1] -> ... leg by leg from initial_state's mass.

    Each leg is flown as `fly_segment` flies it from the previous leg's end
    state: `substep_geometry` gives all legs' geometry in one pass, and
    `thread_legs` threads mass through it.
    """
    if len(route) < 2:
        raise ValueError("route must contain at least 2 waypoints")
    lat = np.array([p.lat_deg for p in route])
    lon = np.array([p.lon_deg for p in route])
    geometry = substep_geometry(spec, lat[:-1], lon[:-1], lat[1:], lon[1:],
                                field, substeps)
    return thread_legs(spec, initial_state, route, geometry, field, substeps)


def thread_legs(spec: AircraftSpec, initial_state: AircraftState,
                route: list[GeoPoint], geometry: Geometry,
                field: WeatherField, substeps: int) -> list[SegmentResult]:
    """`fly_route` over precomputed geometry: leg n of `geometry` is route[n]
    -> route[n + 1], at `substeps` substeps.

    Each leg burns its share of the mass the previous leg left. A leg that
    would end below the empty mass (or is off the grid) is flown again
    with `fly_segment`: that raises the leg's error or, if it can fly the
    leg, gives its result.
    """
    state = AircraftState(route[0], initial_state.mass_kg)
    legs = []
    for wp, time, burned, hit in zip(
            route[1:], geometry.time.tolist(), geometry.burned.tolist(),
            geometry.floor.tolist()):
        mass = state.mass_kg
        fuel = mass * burned
        if mass - fuel >= spec.empty_mass_kg:
            leg = SegmentResult(fuel, time, AircraftState(wp, mass - fuel), hit)
        else:                                   # below empty, or NaN
            leg = fly_segment(spec, state, wp, field, substeps)
        legs.append(leg)
        state = leg.end_state
    return legs


def route_cost(spec: AircraftSpec, initial_state: AircraftState,
               route: list[GeoPoint], field: WeatherField,
               substeps: int = DEFAULT_SUBSTEPS) -> tuple[float, AircraftState]:
    """Total fuel over a waypoint sequence and the state at its end."""
    legs = fly_route(spec, initial_state, route, field, substeps)
    return sum(leg.fuel_kg for leg in legs), legs[-1].end_state

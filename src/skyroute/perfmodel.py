"""Surrogate aircraft performance model.

Segment fuel burn uses a mass-power-law fuel flow with a linear
temperature term and additive along-track wind. Deterministic and
monotone by construction, with closed forms that unit tests can pin
exactly.

`fly_segment` flies one segment, is the reference, and is the only
source of flight errors (OutOfDomain, Infeasible); `fly_route` is the one
loop that threads mass along waypoints; `fly_segments` repeats
`fly_segment`'s arithmetic over arrays, for the edge-cost tables, and
marks with NaN each segment `fly_segment` would refuse.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import Infeasible
from .geo import (GeoPoint, great_circle_distance, great_circle_distances,
                  initial_bearing, initial_bearings, intermediate_point,
                  intermediate_points)
from .weather import ISA_TEMPERATURE_K, WeatherField, sample, sample_many

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
    mass_exponent: float
    temp_sensitivity: float

    def __post_init__(self):
        if not (self.empty_mass_kg < self.ref_mass_kg <= self.max_mass_kg):
            raise ValueError("require empty_mass < ref_mass <= max_mass")
        if not (150.0 <= self.tas_ms <= 300.0):
            raise ValueError("tas_ms must lie in [150, 300]")
        if self.base_fuel_flow_kgps <= 0.0:
            raise ValueError("base_fuel_flow_kgps must be positive")

    @classmethod
    def from_dict(cls, raw: dict) -> "AircraftSpec":
        names = [f.name for f in fields(cls)]
        missing = [k for k in names if k not in raw]
        if missing:
            raise ValueError(f"aircraft spec missing fields: {missing}")
        return cls(**{k: float(raw[k]) for k in names})

    @classmethod
    def from_json(cls, path: str) -> "AircraftSpec":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
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
            * (mass_kg / spec.ref_mass_kg) ** spec.mass_exponent
            * (1.0 + spec.temp_sensitivity * (temperature_k - ISA_TEMPERATURE_K)))


def fly_segment(spec: AircraftSpec, state: AircraftState, to: GeoPoint,
                field: WeatherField, substeps: int = DEFAULT_SUBSTEPS) -> SegmentResult:
    """Fly the great-circle track from state.position to `to`.

    The track is split into `substeps` equal pieces; wind and temperature
    are sampled at each piece midpoint, ground speed is TAS plus the
    along-track wind component (floored), and mass is updated after
    every piece.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    start = state.position
    total = great_circle_distance(start, to)
    if total == 0.0:
        end = AircraftState(GeoPoint(to.lat_deg, to.lon_deg, to.alt_m), state.mass_kg)
        return SegmentResult(0.0, 0.0, end)

    piece_len = total / substeps
    mass = state.mass_kg
    fuel = 0.0
    time = 0.0
    floor_hit = False
    p0 = start
    for k in range(substeps):
        f0 = k / substeps
        f1 = (k + 1) / substeps
        p1 = intermediate_point(start, to, f1)
        mid = intermediate_point(start, to, (f0 + f1) / 2.0)
        wx = sample(field, mid)
        bearing = initial_bearing(p0, p1)
        along = wx.wind_east * math.sin(bearing) + wx.wind_north * math.cos(bearing)
        gs = spec.tas_ms + along
        if gs < GROUND_SPEED_FLOOR_MS:
            gs = GROUND_SPEED_FLOOR_MS
            floor_hit = True
        dt = piece_len / gs
        df = fuel_flow_kgps(spec, mass, wx.temperature) * dt
        mass -= df
        if mass < spec.empty_mass_kg:
            raise Infeasible(
                f"mass would drop below empty mass ({mass:.1f} < {spec.empty_mass_kg})")
        fuel += df
        time += dt
        p0 = p1

    end = AircraftState(GeoPoint(to.lat_deg, to.lon_deg, to.alt_m), mass)
    return SegmentResult(fuel, time, end, floor_hit)


def fly_segments(spec: AircraftSpec, lat0, lon0, mass0, lat1, lon1,
                 field: WeatherField, substeps: int = DEFAULT_SUBSTEPS) -> np.ndarray:
    """Fuel of many segments at once, each flown as `fly_segment` flies it.

    Segment n runs from (lat0[n], lon0[n]) at mass mass0[n] to (lat1[n],
    lon1[n]); the arguments broadcast to one 1-D shape. The substep loop
    runs once over all segments. NaN marks a segment `fly_segment` would
    refuse: a substep midpoint lies off the grid (the NaN of `sample_many`
    reaches the fuel) or the mass falls below the empty mass. Only
    `fly_segment` says which error that is.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    lat0, lon0, mass, lat1, lon1 = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (lat0, lon0, mass0, lat1, lon1)))
    total = great_circle_distances(lat0, lon0, lat1, lon1)
    piece_len = total / substeps
    fuel = np.zeros_like(total)
    too_light = np.zeros(total.shape, dtype=bool)
    p0 = (lat0, lon0)
    for k in range(substeps):
        f0 = k / substeps
        f1 = (k + 1) / substeps
        p1 = intermediate_points(lat0, lon0, lat1, lon1, f1)
        mid = intermediate_points(lat0, lon0, lat1, lon1, (f0 + f1) / 2.0)
        wx = sample_many(field, *mid)
        bearing = initial_bearings(*p0, *p1)
        along = wx.wind_east * np.sin(bearing) + wx.wind_north * np.cos(bearing)
        gs = np.maximum(spec.tas_ms + along, GROUND_SPEED_FLOOR_MS)
        dt = piece_len / gs
        df = fuel_flow_kgps(spec, mass, wx.temperature) * dt
        mass = mass - df
        too_light |= mass < spec.empty_mass_kg
        fuel = fuel + df
        p0 = p1
    # A zero-length segment costs nothing and samples nowhere.
    return np.where(total > 0.0, np.where(too_light, np.nan, fuel), 0.0)


def fly_route(spec: AircraftSpec, initial_state: AircraftState,
              route: list[GeoPoint], field: WeatherField,
              substeps: int = DEFAULT_SUBSTEPS) -> list[SegmentResult]:
    """Fly route[0] -> route[1] -> ... leg by leg from initial_state's mass."""
    if len(route) < 2:
        raise ValueError("route must contain at least 2 waypoints")
    state = AircraftState(route[0], initial_state.mass_kg)
    legs = []
    for wp in route[1:]:
        legs.append(fly_segment(spec, state, wp, field, substeps))
        state = legs[-1].end_state
    return legs


def route_cost(spec: AircraftSpec, initial_state: AircraftState,
               route: list[GeoPoint], field: WeatherField,
               substeps: int = DEFAULT_SUBSTEPS) -> tuple[float, AircraftState]:
    """Total fuel over a waypoint sequence and the state at its end."""
    legs = fly_route(spec, initial_state, route, field, substeps)
    return sum(leg.fuel_kg for leg in legs), legs[-1].end_state

"""Surrogate aircraft performance model.

Segment fuel burn uses a mass-power-law fuel flow with a linear
temperature term and additive along-track wind. Deterministic and
monotone by construction, with closed forms that unit tests can pin
exactly.

`fly_segment` flies one segment with threaded mass and is the reference;
`fly_segments` repeats its arithmetic over arrays of segments for the
search's edge-cost tables.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, SkyrouteError
from .geo import (GeoPoint, great_circle_distance, great_circle_distances,
                  initial_bearing, initial_bearings, intermediate_point,
                  intermediate_points)
from .weather import (ISA_TEMPERATURE_K, WeatherField, outside_grid, sample,
                      sample_many)

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
        fields = ("ref_mass_kg", "empty_mass_kg", "max_mass_kg", "tas_ms",
                  "base_fuel_flow_kgps", "mass_exponent", "temp_sensitivity")
        missing = [k for k in fields if k not in raw]
        if missing:
            raise ValueError(f"aircraft spec missing fields: {missing}")
        return cls(**{k: float(raw[k]) for k in fields})

    @classmethod
    def from_json(cls, path: str) -> "AircraftSpec":
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({
                "ref_mass_kg": self.ref_mass_kg,
                "empty_mass_kg": self.empty_mass_kg,
                "max_mass_kg": self.max_mass_kg,
                "tas_ms": self.tas_ms,
                "base_fuel_flow_kgps": self.base_fuel_flow_kgps,
                "mass_exponent": self.mass_exponent,
                "temp_sensitivity": self.temp_sensitivity,
            }, f, indent=2, sort_keys=True)
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
    for k in range(substeps):
        f0 = k / substeps
        f1 = (k + 1) / substeps
        p0 = intermediate_point(start, to, f0)
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
            raise _below_empty(spec, mass)
        fuel += df
        time += dt

    end = AircraftState(GeoPoint(to.lat_deg, to.lon_deg, to.alt_m), mass)
    return SegmentResult(fuel, time, end, floor_hit)


def _below_empty(spec: AircraftSpec, mass_kg: float) -> Infeasible:
    return Infeasible(
        f"mass would drop below empty mass ({mass_kg:.1f} < {spec.empty_mass_kg})")


def fly_segments(spec: AircraftSpec, lat0, lon0, mass0, lat1, lon1,
                 field: WeatherField, substeps: int = DEFAULT_SUBSTEPS
                 ) -> tuple[np.ndarray, dict[int, SkyrouteError]]:
    """Fuel of many segments at once, each flown as `fly_segment` flies it.

    Segment n runs from (lat0[n], lon0[n]) at mass mass0[n] to (lat1[n],
    lon1[n]); the arguments broadcast to one 1-D shape. The substep loop
    runs once over all segments. Returns the fuel per segment and, by
    segment index, the error `fly_segment` would raise for it: the first
    substep whose midpoint lies off the grid (OutOfDomain) or whose mass
    falls below the empty mass (Infeasible). Those segments hold NaN fuel.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    lat0, lon0, mass, lat1, lon1 = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (lat0, lon0, mass0, lat1, lon1)))
    total = great_circle_distances(lat0, lon0, lat1, lon1)
    piece_len = total / substeps
    fuel = np.zeros_like(total)
    # A zero-length segment costs nothing and samples nowhere.
    flying = total > 0.0
    failed = np.zeros(total.shape, dtype=bool)
    errors: dict[int, SkyrouteError] = {}
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
        active = flying & ~failed
        off_grid = active & np.isnan(wx.temperature)
        for n in np.flatnonzero(off_grid):
            errors[int(n)] = outside_grid(field, mid[0][n], mid[1][n])
        too_light = active & ~off_grid & (mass < spec.empty_mass_kg)
        for n in np.flatnonzero(too_light):
            errors[int(n)] = _below_empty(spec, mass[n])
        failed = failed | off_grid | too_light
        fuel = fuel + df
        p0 = p1
    return np.where(failed, np.nan, np.where(flying, fuel, 0.0)), errors


def route_cost(spec: AircraftSpec, initial_state: AircraftState,
               route: list[GeoPoint], field: WeatherField,
               substeps: int = DEFAULT_SUBSTEPS) -> tuple[float, AircraftState]:
    """Total fuel over a waypoint sequence, state threaded through."""
    if len(route) < 2:
        raise ValueError("route must contain at least 2 waypoints")
    state = AircraftState(route[0], initial_state.mass_kg)
    total = 0.0
    for wp in route[1:]:
        result = fly_segment(spec, state, wp, field, substeps)
        total += result.fuel_kg
        state = result.end_state
    return total, state

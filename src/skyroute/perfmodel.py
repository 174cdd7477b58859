"""Surrogate aircraft performance model.

Segment fuel burn uses a fuel flow proportional to mass with a linear
temperature term, and additive along-track wind. Deterministic and
monotone by construction, with closed forms that unit tests can pin
exactly. A segment flies in `substeps` pieces, each its segment plus a
fraction: the weather at the mid fraction, the wind along the track's
direction at the start fraction, in closed form from the endpoints
(`geo.along_track`).

`fly_segment` flies one segment and is the reference. It is the only
source of flight errors (OutOfDomain, Infeasible), re-flies the legs
`fly_route` refuses, and is the trainer's stepper. `fly_segments` repeats
its arithmetic over arrays, for the edge-cost tables, through the array
forms of the same `geo` formulas, so the two differ only where numpy rounds
sin/cos/asin/atan2 differently from the C library. It marks with NaN each
segment `fly_segment` would refuse, which the search takes as an absent
edge. `fly_route` is the one loop that
threads mass along waypoints: it takes the geometry and weather of all
legs from the same array code in one pass, then threads mass through them
in one plain-float loop.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ConfigError, Infeasible
from .geo import (EARTH_RADIUS_M, GeoPoint, along_track, along_tracks,
                  great_circle_distance, great_circle_distances,
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
        unknown = [k for k in raw if k not in names]
        if unknown:
            raise ValueError(f"aircraft spec has unknown fields: {unknown}")
        return cls(**{k: float(raw[k]) for k in names})

    @classmethod
    def from_json(cls, path: str) -> "AircraftSpec":
        """Read a spec file; one that is not a valid spec raises ConfigError."""
        with open(path, encoding="utf-8") as f:
            try:
                return cls.from_dict(json.load(f))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"aircraft spec {path}: {exc}") from exc

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
            * (mass_kg / spec.ref_mass_kg)
            * (1.0 + spec.temp_sensitivity * (temperature_k - ISA_TEMPERATURE_K)))


def fly_segment(spec: AircraftSpec, state: AircraftState, to: GeoPoint,
                field: WeatherField, substeps: int = DEFAULT_SUBSTEPS) -> SegmentResult:
    """Fly the great-circle track from state.position to `to`.

    Piece k of `substeps` runs from fraction k/substeps of the track to
    (k+1)/substeps. Ground speed is TAS plus the wind at its midpoint along
    the track's direction at its start (floored); mass drops after each.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    start = state.position
    total = great_circle_distance(start, to)
    if total == 0.0:
        end = AircraftState(GeoPoint(to.lat_deg, to.lon_deg, to.alt_m), state.mass_kg)
        return SegmentResult(0.0, 0.0, end)

    bearing = initial_bearing(start, to)
    mass = state.mass_kg
    fuel = 0.0
    time = 0.0
    floor_hit = False
    for k in range(substeps):
        mid = intermediate_point(start, to, (k / substeps + (k + 1) / substeps) / 2.0)
        wx = sample(field, mid)
        sigma = k / substeps * (total / EARTH_RADIUS_M)
        gs = spec.tas_ms + along_track(start.lat_deg, bearing, sigma,
                                       wx.wind_east, wx.wind_north)
        if gs < GROUND_SPEED_FLOOR_MS:
            gs = GROUND_SPEED_FLOOR_MS
            floor_hit = True
        dt = total / substeps / gs
        df = fuel_flow_kgps(spec, mass, wx.temperature) * dt
        mass -= df
        if mass < spec.empty_mass_kg:
            raise Infeasible(
                f"mass would drop below empty mass ({mass:.1f} < {spec.empty_mass_kg})")
        fuel += df
        time += dt

    end = AircraftState(GeoPoint(to.lat_deg, to.lon_deg, to.alt_m), mass)
    return SegmentResult(fuel, time, end, floor_hit)


#: Most pieces `_substep_geometry` works on at once: it cuts longer batches
#: into blocks of segments, so its few dozen temporary arrays stay small
#: (all 4 substeps of a 41x11x3 lattice's 1,320 segments at once raised a
#: plan's peak RSS by about 0.5 MB).
BLOCK_POINTS = 2048


def fly_segments(spec: AircraftSpec, lat0, lon0, mass0, lat1, lon1,
                 field: WeatherField, substeps: int = DEFAULT_SUBSTEPS) -> np.ndarray:
    """Fuel of many segments at once, each flown as `fly_segment` flies it.

    Segment n runs from (lat0[n], lon0[n]) at mass mass0[n] to (lat1[n],
    lon1[n]); the arguments broadcast to one shape, which the result has.
    NaN marks a segment `fly_segment` would refuse: a substep midpoint lies
    off the grid (the NaN of `sample_many` reaches the fuel) or the mass
    falls below the empty mass. Only `fly_segment` says which error that is.
    """
    args = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (lat0, lon0, mass0, lat1, lon1)))
    lat0, lon0, mass, lat1, lon1 = (a.ravel() for a in args)
    total, dt, temperature, _floor = _substep_geometry(
        spec, lat0, lon0, lat1, lon1, field, substeps)
    fuel = np.zeros_like(total)
    too_light = np.zeros(total.shape, dtype=bool)
    for k in range(substeps):
        df = fuel_flow_kgps(spec, mass, temperature[k]) * dt[k]
        mass = mass - df
        too_light |= mass < spec.empty_mass_kg
        fuel = fuel + df
    # A zero-length segment costs nothing and samples nowhere.
    fuel = np.where(total > 0.0, np.where(too_light, np.nan, fuel), 0.0)
    return fuel.reshape(args[0].shape)


def _substep_geometry(spec: AircraftSpec, lat0, lon0, lat1, lon1,
                      field: WeatherField, substeps: int):
    """The mass-free part of flying 1-D arrays of segments, at once.

    Returns each segment's length and, as (substeps, segments) arrays,
    each substep's duration, temperature and whether its ground speed was
    floored, all as `fly_segment` computes them, block by block of at most
    BLOCK_POINTS pieces. Off the grid the duration and temperature are NaN.
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
        wx = sample_many(field, *intermediate_points(*ends, mid))
        sigma = start * (total / EARTH_RADIUS_M)
        gs = spec.tas_ms + along_tracks(ends[0], initial_bearings(*ends), sigma,
                                        wx.wind_east, wx.wind_north)
        dt = total / substeps / np.maximum(gs, GROUND_SPEED_FLOOR_MS)
        blocks.append((total, dt, wx.temperature, gs < GROUND_SPEED_FLOOR_MS))
    return [np.concatenate(parts, axis=-1) for parts in zip(*blocks)]


def fly_route(spec: AircraftSpec, initial_state: AircraftState,
              route: list[GeoPoint], field: WeatherField,
              substeps: int = DEFAULT_SUBSTEPS) -> list[SegmentResult]:
    """Fly route[0] -> route[1] -> ... leg by leg from initial_state's mass.

    Each leg is flown as `fly_segment` flies it from the previous leg's end
    state. The geometry and weather of all legs come from
    `_substep_geometry`, and one loop threads mass through them in
    `fly_segment`'s order of operations. A leg that loop refuses (off the
    grid, or below the empty mass) is flown again with `fly_segment`: that
    raises the leg's error or, if it can fly the leg, gives its result.
    """
    if len(route) < 2:
        raise ValueError("route must contain at least 2 waypoints")
    lat = np.array([p.lat_deg for p in route])
    lon = np.array([p.lon_deg for p in route])
    total, dt, temperature, floor = _substep_geometry(
        spec, lat[:-1], lon[:-1], lat[1:], lon[1:], field, substeps)
    state = AircraftState(route[0], initial_state.mass_kg)
    legs = []
    for wp, length, dts, temps, hit in zip(
            route[1:], total.tolist(), dt.T.tolist(), temperature.T.tolist(),
            floor.any(axis=0).tolist()):
        if length == 0.0:           # costs nothing and samples nowhere
            dts, hit = [], False
        mass = state.mass_kg
        fuel = time = 0.0
        for step_dt, temp in zip(dts, temps):
            df = fuel_flow_kgps(spec, mass, temp) * step_dt
            mass -= df
            if not mass >= spec.empty_mass_kg:     # below empty, or NaN
                leg = fly_segment(spec, state, wp, field, substeps)
                break
            fuel += df
            time += step_dt
        else:
            leg = SegmentResult(fuel, time, AircraftState(
                GeoPoint(wp.lat_deg, wp.lon_deg, wp.alt_m), mass), hit)
        legs.append(leg)
        state = leg.end_state
    return legs


def route_cost(spec: AircraftSpec, initial_state: AircraftState,
               route: list[GeoPoint], field: WeatherField,
               substeps: int = DEFAULT_SUBSTEPS) -> tuple[float, AircraftState]:
    """Total fuel over a waypoint sequence and the state at its end."""
    legs = fly_route(spec, initial_state, route, field, substeps)
    return sum(leg.fuel_kg for leg in legs), legs[-1].end_state

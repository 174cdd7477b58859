"""Surrogate aircraft performance model.

Fuel flow is proportional to mass with a linear temperature term; wind is
additive along track. Deterministic and monotone by construction, with
closed forms that unit tests can pin exactly. A segment flies in
`substeps` pieces, each its segment plus a fraction: the weather at the
mid fraction, the wind along the track's direction at the start fraction
(`_piece_fractions` lists both for the scalar and the array flights).
Both come from the endpoints' unit vectors a and b (`geo.unit_vector`):
the point at fraction f is `geo.slerp_point` of sin((1 - f) delta) a +
sin(f delta) b, and the track's direction there is (a x b) x that point
(`geo.heading`, `geo.along_track`). Each piece burns a fixed share of the
mass it starts with (`_burn`), so a segment flown from mass m burns m
times a share that its geometry fixes.

`fly_segment` flies one segment and is the reference, and `fly_leg` is
its body on plain floats. That body is the only source of flight errors
(OutOfDomain, Infeasible), the trainer's stepper, and what re-flies the
legs `thread_legs` refuses. The array forms split a flight into its
mass-free part and one multiply per segment, so that one geometry pass
serves several masses (the search flies its lattice once):
- `substep_geometry` repeats `fly_segment`'s geometry, weather lookups and
  burned shares over arrays of segments, as a `Geometry` of per-segment
  arrays. It uses the array forms of the same `geo` formulas, so the two
  differ only where numpy rounds sin/cos/asin/atan2/hypot differently from
  libm. A caller that has the segments' unit vectors passes them in.
  It is `gathered_geometry` of each segment's own ends; the search calls
  that with its lattice's nodes, whose positions and unit vectors it
  takes once, and each edge's two node numbers. Its weather lookup is
  `weather.sample_into`, `sample_many` written into given arrays, whose
  cell index on an axis of n nodes is `axis[1:-1].searchsorted(x,
  "right")`, `sample_at`'s bisect over the inner nodes. A batch flies in
  blocks of at most `BLOCK_POINTS` pieces, each block's ends gathered
  when it flies and its geometry written into the result, made once; a
  batch that fits one block is flown without slicing. Each array
  operation is one ufunc or ndarray method: masks are written in place,
  the pieces' times summed in order by one in-place `np.add.accumulate`,
  and the fractions' columns made once per substep count. A small plan's
  geometry is a few hundred such calls, whose fixed cost is most of its
  time.
- `segments_fuel` is each segment's start mass times its share, NaN where
  `fly_segment` would refuse the segment (the search's absent edges).
- `thread_legs` carries mass along consecutive legs, one multiply a leg,
  and returns them as columns (`Legs`), with no object per leg. It is the
  one such loop: the search's nominal masses and winning path go through
  it, and `fly_route` is `substep_geometry` and `thread_legs` in one call,
  with a `SegmentResult` per leg.

The geometry pass keeps a small working set, because glibc hands the
freed top of its heap back to the system (heap trimming) and the next plan
faults those pages in again, about 1.7 us a page: a pass that held some
twenty piece-sized arrays (one block's substeps x segments doubles) made
a 41x11x3 plan re-fault about a hundred pages. So a block's gathered
ends, its sines, the weather lookup's work and its three values go into
arrays that each thread keeps from one block and one call to the next
(`_work_arrays`: eight piece-sized and ten of the block's segments),
sized by the largest block flown so far, and every later step writes
into an array the pass already holds. What a call allocates afresh is its
result, the lookup's cell indices, the slerped positions (let go of
before the flight) and the temporaries inside the shared `geo` formulas:
at most eight piece-sized arrays at once beyond its result.
"""

from __future__ import annotations

import json
import math
import sys
import threading
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import Infeasible, parsing
from .files import replacing
# intermediate_point and sample are unused here; they stay because
# perfbench/tracing.py wraps them by name.
from .geo import (EARTH_RADIUS_M, GeoPoint, along_track, along_tracks,
                  great_circle_distance, great_circle_distances, haversine,
                  heading, headings, intermediate_point, slerp_point,
                  slerp_points, unit_vector, unit_vectors)
from .weather import (ISA_TEMPERATURE_K, MAX_TEMPERATURE_K, MIN_TEMPERATURE_K,
                      WeatherField, sample, sample_at, sample_into,
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


def _burn(burned, c):
    """A segment's burned share of its start mass after one more piece,
    which burns c = flow(1 kg) dt of the mass it starts with."""
    return burned + c * (1.0 - burned)


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

    a, b = unit_vector(lat0, lon0), unit_vector(lat1, lon1)
    direction = heading(a, b)
    delta = total / EARTH_RADIUS_M
    sin = math.sin
    (mids, _, _), (starts, _, _) = _piece_fractions(substeps)
    burned, time, floor_hit = 0.0, 0.0, False
    for mid, start in zip(mids, starts):
        # The piece's midpoint, as intermediate_point(start, to, ...) gives it.
        wind_east, wind_north, temperature = sample_at(field, *slerp_point(
            lon0, lon1, a, b, sin((1.0 - mid) * delta), sin(mid * delta)))
        along, norm = along_track(*direction, sin((1.0 - start) * delta),
                                  sin(start * delta), wind_east, wind_north)
        gs = spec.tas_ms + along / norm if norm else spec.tas_ms
        if gs < GROUND_SPEED_FLOOR_MS:
            gs = GROUND_SPEED_FLOOR_MS
            floor_hit = True
        dt = total / substeps / gs
        burned = _burn(burned, fuel_flow_kgps(spec, 1.0, temperature) * dt)
        if mass - mass * burned < spec.empty_mass_kg:
            raise Infeasible(f"mass would drop below empty mass "
                             f"({mass - mass * burned:.1f} < {spec.empty_mass_kg})")
        time += dt
    return mass * burned, time, floor_hit


@lru_cache(maxsize=16)
def _piece_fractions(substeps: int):
    """The fractions along a segment whose sines `fly_leg` and
    `substep_geometry` take: the mids (k + 1/2)/substeps, where the
    weather is sampled, and the starts k/substeps, where the wind is taken
    along the track, with the end 1 after them. Each comes as a tuple f,
    and for `_fraction_sines` as a read-only (n, 1) column with the column
    of 1 - f, or None where 1 - f is f reversed bit for bit: then
    sin((1 - f) delta) is sin(f delta) reversed, and each sine serves two
    points."""
    mids = tuple((k / substeps + (k + 1) / substeps) / 2.0
                 for k in range(substeps))
    starts = tuple(k / substeps for k in range(substeps + 1))
    kinds = []
    for f in (mids, starts):
        column = np.array(f)[:, None]
        rest = None if tuple(1.0 - x for x in f) == f[::-1] else 1.0 - column
        for values in (column, rest):
            if values is not None:
                values.flags.writeable = False
        kinds.append((f, column, rest))
    return tuple(kinds)


def _fraction_sines(delta, f, rest, fa, fb):
    """(sin((1 - f) delta), sin(f delta)) as (n, E) arrays, for the n
    fractions of column f, 1 - f in column `rest` (`_piece_fractions`),
    and the E segments' delta, written into the (n, E) arrays fa and fb
    (fa unused where `rest` is None)."""
    np.sin(np.multiply(f, delta, out=fb), out=fb)
    if rest is None:
        return fb[::-1], fb
    return np.sin(np.multiply(rest, delta, out=fa), out=fa), fb


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
        return Geometry._make(a.take(index) for a in self)


def segments_fuel(spec: AircraftSpec, mass, geometry: Geometry) -> np.ndarray:
    """Fuel of each segment of `geometry` flown from mass[n], each as
    `fly_segment` flies it.

    NaN marks a segment `fly_segment` would refuse: a piece's midpoint lies
    off the grid or the mass falls below the empty mass. Only `fly_segment`
    says which error that is.
    """
    fuel = mass * geometry.burned
    fuel[~((mass - fuel >= spec.empty_mass_kg)
           | (geometry.length == 0.0))] = np.nan    # 0 kg at any mass
    return fuel


def substep_geometry(spec: AircraftSpec, lat0, lon0, lat1, lon1,
                     field: WeatherField, substeps: int,
                     ends=None) -> Geometry:
    """The `Geometry` of the 1-D arrays of segments (lat0, lon0) -> (lat1,
    lon1): `gathered_geometry` of each segment's own ends.

    `ends`, the segments' start and end unit vectors, each three arrays
    (x, y, z) as `geo.unit_vectors` gives them, are computed here unless
    the caller has them.
    """
    # The gathers write into float arrays: whole degrees come as floats.
    lat0, lon0, lat1, lon1 = (np.asarray(x, dtype=float)
                              for x in (lat0, lon0, lat1, lon1))
    if ends is None:
        ends = unit_vectors(lat0, lon0), unit_vectors(lat1, lon1)
    every = np.arange(lat0.size)
    return gathered_geometry(spec, (lat0, lon0, *ends[0]), every,
                             (lat1, lon1, *ends[1]), every, field, substeps)


def gathered_geometry(spec: AircraftSpec, starts, first, ends, second,
                      field: WeatherField, substeps: int) -> Geometry:
    """The `Geometry` of the segments from point first[n] of `starts` to
    point second[n] of `ends`, each five float arrays (lat, lon, x, y, z):
    the points' positions and their unit vectors, as `geo.unit_vectors`
    gives them. Every index must be in range: the gathers clip, and do not
    check.

    It flies block by block of at most BLOCK_POINTS pieces: a block's ends
    are gathered into this thread's working arrays and its geometry is
    written into its part of the result, so no array the size of the
    batch's segments is made but the result. A segment's geometry does not
    depend on the other segments of its batch.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    n = first.size
    out = Geometry(np.empty(n), np.empty(n), np.empty(n),
                   np.empty(n, dtype=bool))
    step = max(1, BLOCK_POINTS // substeps)
    if n <= step:
        _block_geometry(spec, starts, first, ends, second, field, substeps,
                        out)
        return out
    for lo in range(0, n, step):
        block = slice(lo, lo + step)
        _block_geometry(spec, starts, first[block], ends, second[block],
                        field, substeps, Geometry._make(x[block] for x in out))
    return out


#: Each thread's working arrays for `_block_geometry` (`_work_arrays`).
_work = threading.local()


def _work_arrays(substeps: int, n: int):
    """The arrays `_block_geometry` writes into for a block of n segments,
    in five lists: the segments' ends, ten (n,) arrays (lat, lon, x, y, z
    of the starts, then of the ends); the mids' and the starts' sines, two
    each, the starts' (substeps + 1, n) and the mids' their first substeps
    rows; three (substeps, n) for the weather; and five (substeps, n) for
    the lookup's work, the mids' sines, free once the positions are
    slerped, and three more. They are this thread's own and kept from one
    block and one call to the next, so that a plan re-faults none of the
    heap a plan before it freed; they grow to the largest block flown so
    far, and no array a call returns is one of them."""
    key = substeps, n
    if getattr(_work, "key", None) != key:
        size = (8 * substeps + 12) * n
        base = getattr(_work, "base", None)
        if base is None or base.size < size:
            base = _work.base = np.empty(size)
        cut, cut2 = 10 * n, (2 * substeps + 12) * n
        start_sines = list(base[cut:cut2].reshape(2, substeps + 1, n))
        mid_sines = [rows[:substeps] for rows in start_sines]
        pieces = list(base[cut2:size].reshape(6, substeps, n))
        _work.key = key
        _work.arrays = (list(base[:cut].reshape(10, n)), mid_sines,
                        start_sines, pieces[:3], mid_sines + pieces[3:])
    return _work.arrays


def _block_geometry(spec: AircraftSpec, starts, first, ends, second,
                    field: WeatherField, substeps: int, out: Geometry) -> None:
    """`gathered_geometry` of one block of segments, written into `out`."""
    (_, *mid_f), (_, *start_f) = _piece_fractions(substeps)
    gathered, mid_sines, start_sines, weather, lookup = _work_arrays(
        substeps, first.size)
    lat_a, lon_a, *a = [p.take(first, out=x, mode="clip")
                        for p, x in zip(starts, gathered)]
    lat_b, lon_b, *b = [p.take(second, out=x, mode="clip")
                        for p, x in zip(ends, gathered[5:])]
    total = out.length
    total[...] = great_circle_distances(lat_a, lon_a, lat_b, lon_b)
    delta = total / EARTH_RADIUS_M
    lat, lon = slerp_points(lon_a, lon_b, a, b,
                            *_fraction_sines(delta, *mid_f, *mid_sines))
    sample_into(field, lat, lon, weather, lookup)
    del lat, lon                    # the lookup's inputs, before the flight
    wind_east, wind_north, temperature = weather
    start_fa, start_fb = _fraction_sines(delta, *start_f, *start_sines)
    along, norm = along_tracks(*headings(a, b), start_fa[:substeps],
                               start_fb[:substeps], wind_east, wind_north)
    # The wind along the track where it has a direction, else none; then
    # the ground speed, floored, and each piece's time.
    headed = norm > 0.0
    np.divide(along, norm, out=along, where=headed)
    along[np.logical_not(headed, out=headed)] = 0.0
    gs = np.add(along, spec.tas_ms, out=along)
    floored = gs < GROUND_SPEED_FLOOR_MS
    dts = np.maximum(gs, GROUND_SPEED_FLOOR_MS, out=gs)
    np.divide(total / substeps, dts, out=dts)
    burns = fuel_flow_kgps(spec, 1.0, temperature)
    burns *= dts
    # The pieces' times summed in order, as a loop from 0.0 sums them:
    # 0.0 + dt is dt for every dt but -0.0, and no time is -0.0.
    out.time[...] = np.add.accumulate(dts, out=dts)[-1]
    burned = 0.0
    for c in burns:
        burned = _burn(burned, c)
        burned[burned >= 1.0] = np.nan      # emptied; NaN stays NaN
    out.burned[...] = burned
    still = np.logical_not(total > 0.0)     # a zero-length segment samples nowhere
    out.time[still] = out.burned[still] = 0.0
    np.logical_or.reduce(floored, axis=0, out=out.floor)
    out.floor[still] = False


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
    legs = thread_legs(spec, initial_state.mass_kg, lat.tolist(),
                       lon.tolist(), geometry, field, substeps)
    return [SegmentResult(fuel, time, AircraftState(to, mass), hit)
            for to, fuel, time, hit, mass in zip(
                route[1:], legs.fuel, legs.time, legs.floor, legs.mass[1:])]


class Legs(NamedTuple):
    """Consecutive legs flown from a start mass, as columns."""

    fuel: list[float]           # kg, per leg
    time: list[float]           # seconds, per leg
    floor: list[bool]           # per leg: some piece's ground speed floored
    mass: list[float]           # kg at the start of each leg, then at the end


def thread_legs(spec: AircraftSpec, mass: float, lat: list[float],
                lon: list[float], geometry: Geometry, field: WeatherField,
                substeps: int) -> Legs:
    """Fly (lat[0], lon[0]) -> (lat[1], lon[1]) -> ... from `mass`, each leg
    as `fly_segment` flies it from the mass the previous leg left; leg n's
    geometry is `geometry`'s n-th, at `substeps` substeps.

    Each leg burns its share of the mass left. A leg that would end below
    the empty mass (or is off the grid) is flown again with `fly_leg`: that
    raises the leg's error or, if it can fly the leg, gives its result.
    """
    fuels, masses = [], [mass]
    times, floors = geometry.time.tolist(), geometry.floor.tolist()
    for n, burned in enumerate(geometry.burned.tolist()):
        fuel = mass * burned
        if not mass - fuel >= spec.empty_mass_kg:       # below empty, or NaN
            ends = lat[n], lon[n], lat[n + 1], lon[n + 1]
            fuel, times[n], floors[n] = fly_leg(
                spec, *ends, haversine(*ends), mass, field, substeps)
        mass = mass - fuel
        fuels.append(fuel)
        masses.append(mass)
    return Legs(fuels, times, floors, masses)


def route_cost(spec: AircraftSpec, initial_state: AircraftState,
               route: list[GeoPoint], field: WeatherField,
               substeps: int = DEFAULT_SUBSTEPS) -> tuple[float, AircraftState]:
    """Total fuel over a waypoint sequence and the state at its end."""
    legs = fly_route(spec, initial_state, route, field, substeps)
    return sum(leg.fuel_kg for leg in legs), legs[-1].end_state

"""Planning front-end and the two sensitivity benchmarks.

`plan` wires guide -> corridor -> row DP for one request and returns a
JSON-ready summary. The row DP (`search.row_dp`) gives A*'s path, cost
and effort counts over the edges the aircraft can fly.
`make_weather` parses a `csv:` file once per content: it reads the file
on every call and reuses the last field parsed while the bytes match.
A policy guide's checkpoint is read and parsed the same way.

The two sweeps share one driver and emit schema-stable CSV rows with
timings, fuel, and node-expansion counts of a hybrid run next to its
baseline:

- `bench_fwd` sweeps the number of forward rows; the baseline is the
  unconstrained solver on the same lattice.
- `bench_width` sweeps the corridor width; the baseline is the full-width
  (w = J) hybrid run, so the w = J row compares that run with itself and
  has pct_diff exactly 0.

Only `SkyrouteError` counts as a sweep failure; any other exception
propagates.
"""

from __future__ import annotations

import csv
import json
import statistics
from collections.abc import Callable
from dataclasses import astuple, dataclass, field as dc_field, replace
from typing import TypeVar

from .errors import ConfigError, SkyrouteError, parsing
from .files import replacing
from .geo import GeoPoint, great_circle_distance
# load_checkpoint, astar and fly_segment are unused here; they stay because
# perfbench/tracing.py wraps them by name.
from .guide import (GUIDE_KINDS, GuideConfig, PolicyParams, load_checkpoint,
                    parse_checkpoint, roll_out)
from .lattice import build_corridor, build_lattice
from .perfmodel import (AircraftSpec, AircraftState, default_spec, fly_segment,
                        DEFAULT_SUBSTEPS)
from .search import Stages, astar, row_dp
from .weather import (ISA_TEMPERATURE_K, WeatherField, make_jet_stream,
                      make_uniform, parse_csv)

DEFAULT_DIMS = (41, 11, 3)
DEFAULT_WIDTH = 5
DEFAULT_CRUISE_ALT_M = 10_000.0

#: Fraction of trip length used as the lattice's lateral half-width.
DEFAULT_LATERAL_FRACTION = 0.15

BENCH_COLUMNS = ["param_value", "solver_time_s", "solver_time_std",
                 "hybrid_time_s", "hybrid_time_std", "guide_time_s",
                 "fuel_solver_kg", "fuel_hybrid_kg",
                 "expanded_solver", "expanded_hybrid", "pct_diff"]

#: Timing keys stripped when comparing route JSON for determinism.
TIMING_KEYS = ("timings",)

DEFAULT_ROUTE_SET = [("FRA", "CDG"), ("LHR", "AMS"), ("ARN", "CPH"),
                     ("FCO", "VIE"), ("BCN", "BRU")]


def load_airports() -> dict[str, tuple[float, float]]:
    from importlib.resources import files
    raw = json.loads(files("skyroute.data").joinpath("airports.json")
                     .read_text(encoding="utf-8"))
    return {k: tuple(v) for k, v in raw.items()}


def resolve_point(text: str) -> GeoPoint:
    """Parse 'lat,lon[,alt]' or an airport code into a GeoPoint, at
    DEFAULT_CRUISE_ALT_M where no altitude is given."""
    if "," in text:
        parts = text.split(",")
        if len(parts) not in (2, 3):
            raise ConfigError(f"cannot parse coordinates: {text!r}")
        try:
            return GeoPoint(float(parts[0]), float(parts[1]),
                            float(parts[2]) if len(parts) == 3
                            else DEFAULT_CRUISE_ALT_M)
        except ValueError as exc:
            raise ConfigError(
                f"invalid coordinates {text!r}: {exc}") from None
    airports = load_airports()
    code = text.strip().upper()
    if code not in airports:
        raise ConfigError(f"unknown airport code: {code}")
    lat, lon = airports[code]
    return GeoPoint(lat, lon, DEFAULT_CRUISE_ALT_M)


@dataclass
class PlanRequest:
    """Everything needed to plan one route.

    Lattice dims, substeps, a guide kind or a seed that no plan could use
    raise ConfigError naming the field.
    """

    origin: GeoPoint
    destination: GeoPoint
    dims: tuple[int, int, int] = DEFAULT_DIMS
    width: int = DEFAULT_WIDTH
    guide_kind: str = "great_circle"
    checkpoint: str | None = None
    weather: str = "uniform"
    aircraft: AircraftSpec = dc_field(default_factory=default_spec)
    substeps: int = DEFAULT_SUBSTEPS
    seed: int = 0
    unconstrained: bool = False

    def __post_init__(self):
        I, J, H = self.dims
        if I < 2:
            raise ConfigError(f"dims: forward rows I must be >= 2, got {I}")
        if J < 1 or J % 2 == 0:
            raise ConfigError(f"dims: lateral columns J must be odd and "
                              f">= 1, got {J}")
        if H < 1:
            raise ConfigError(f"dims: altitude levels H must be >= 1, got {H}")
        if self.substeps < 1:
            raise ConfigError(f"substeps must be >= 1, got {self.substeps}")
        if self.guide_kind not in GUIDE_KINDS:
            raise ConfigError(f"guide_kind must be one of {GUIDE_KINDS}, "
                              f"got {self.guide_kind!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def make_weather(spec_text: str, origin: GeoPoint, destination: GeoPoint,
                 seed: int = 0) -> WeatherField:
    """Build the weather field for a request: uniform | jet | csv:<path>.

    Synthetic fields cover the route bounding box with generous padding
    so guide rollouts cannot leave the domain. A `csv:` file is read on
    every call but parsed once per content: when its bytes equal those
    of the last file parsed, the field parsed then is returned.
    """
    lat_min = min(origin.lat_deg, destination.lat_deg)
    lat_max = max(origin.lat_deg, destination.lat_deg)
    lon_min = min(origin.lon_deg, destination.lon_deg)
    lon_max = max(origin.lon_deg, destination.lon_deg)
    trip_deg = great_circle_distance(origin, destination) / 111_000.0
    pad = max(5.0, 1.2 * trip_deg)
    bbox = (max(lat_min - pad, -89.0), min(lat_max + pad, 89.0),
            max(lon_min - pad, -179.0), min(lon_max + pad, 179.0))
    if spec_text == "uniform":
        return make_uniform(0.0, 0.0, ISA_TEMPERATURE_K, bbox)
    if spec_text == "jet":
        core_lat = 0.5 * (origin.lat_deg + destination.lat_deg) + 1.5
        return make_jet_stream(bbox, core_lat=core_lat, core_speed=40.0,
                               half_width=4.0, seed=seed)
    if spec_text.startswith("csv:"):
        return _parse_once(spec_text[4:], parse_csv)
    raise ConfigError(f"unknown weather source: {spec_text!r} "
                      "(expected uniform | jet | csv:<path>)")


T = TypeVar("T")

#: Per parser, the last file content it parsed and what it returned. No
#: caller changes a result: fields are read-only, and `roll_out` changes
#: neither a checkpoint's weights nor its guide config.
_parsed: dict[Callable[[bytes], object], tuple[bytes, object]] = {}


def _parse_once(path: str, parse: Callable[[bytes], T]) -> T:
    """parse(the bytes of the file at `path`), called only if they are new
    to `parse`; a failure names the file (`errors.parsing`)."""
    with open(path, "rb") as f:
        raw = f.read()
    # One read of the slot: callers that race on a new file may each
    # parse it, but each gets what the bytes it read parse to.
    last = _parsed.get(parse)
    if last is None or last[0] != raw:
        # A file that fails to parse raises here and is never kept.
        with parsing(path):
            last = _parsed[parse] = (raw, parse(raw))
    return last[1]


def _guide_route(req: PlanRequest, field: WeatherField):
    cfg = GuideConfig(guide_kind=req.guide_kind)
    params: PolicyParams | None = None
    if req.guide_kind == "policy":
        if not req.checkpoint:
            raise ConfigError("policy guide requires a checkpoint path")
        params, cfg = _parse_once(req.checkpoint, parse_checkpoint)
    return roll_out(cfg, params, req.origin, req.destination, field)


def plan(req: PlanRequest, field: WeatherField | None = None) -> dict:
    """Run the full pipeline for one request and return the route summary.

    `timings` holds the wall time of each stage; `total_s` is their sum.
    `timings["search"]` splits `search_s` into the search's own stages,
    which sum to it.
    """
    clock = Stages()
    field = field or make_weather(req.weather, req.origin, req.destination,
                                  req.seed)
    clock.lap("weather_s")
    I, J, H = req.dims
    halfwidth = DEFAULT_LATERAL_FRACTION * great_circle_distance(
        req.origin, req.destination)
    lattice = build_lattice(req.origin, req.destination, I, J, H, halfwidth)
    clock.lap("lattice_s")
    corridor = None
    if req.unconstrained:
        clock.times.update(guide_s=0.0, corridor_s=0.0)
    else:
        coarse = _guide_route(req, field)
        clock.lap("guide_s")
        corridor = build_corridor(lattice, coarse, req.width)
        clock.lap("corridor_s")

    result = row_dp(lattice, corridor, req.aircraft,
                    AircraftState(req.origin, req.aircraft.ref_mass_kg), field,
                    req.substeps)

    stages = {**clock.times, "search_s": result.wall_time_s}
    return {
        "request": {
            "origin": [req.origin.lat_deg, req.origin.lon_deg, req.origin.alt_m],
            "destination": [req.destination.lat_deg, req.destination.lon_deg,
                            req.destination.alt_m],
            "dims": list(req.dims),
            "width": None if req.unconstrained else req.width,
            "guide_kind": None if req.unconstrained else req.guide_kind,
            "weather": req.weather,
            "substeps": req.substeps,
            "seed": req.seed,
        },
        "waypoints": [{"lat_deg": p.lat_deg, "lon_deg": p.lon_deg,
                       "alt_m": p.alt_m} for p in result.geo_path],
        "segments": [{"fuel_kg": leg.fuel_kg, "time_s": leg.time_s,
                      "gs_floor_hit": leg.gs_floor_hit}
                     for leg in result.segments],
        "totals": {"fuel_kg": result.total_fuel_kg,
                   "search_cost_kg": result.search_cost_kg},
        "search": {"expanded_nodes": result.expanded_nodes,
                   "generated_nodes": result.generated_nodes},
        "timings": {**stages, "total_s": sum(stages.values()),
                    "search": result.stages},
    }


def route_json_without_timings(doc: dict) -> str:
    """Canonical serialization with wall-time fields removed."""
    trimmed = {k: v for k, v in doc.items() if k not in TIMING_KEYS}
    return json.dumps(trimmed, sort_keys=True)


def _sweep(requests: list[PlanRequest], values: list[int], apply, baseline,
           repetitions: int) -> list[dict]:
    """One row per value: hybrid `apply(req, value)` against its baseline.

    `baseline` maps the hybrid request to the solver request it is compared
    with. Plans are memoized per (route, repetition, request), so a
    baseline shared across values is planned once per repetition, and a
    hybrid request equal to its baseline is the baseline run itself. Only
    `SkyrouteError` counts as a failure of a (route, repetition) pair.
    Fewer than one repetition raises ConfigError.
    """
    if repetitions < 1:
        raise ConfigError(f"repetitions must be >= 1, got {repetitions}")
    fields = [make_weather(r.weather, r.origin, r.destination, r.seed)
              for r in requests]
    memo: dict[tuple, dict] = {}

    def run(i: int, rep: int, req: PlanRequest) -> dict:
        key = (i, rep, astuple(req))
        if key not in memo:
            memo[key] = plan(req, fields[i])
        return memo[key]

    rows = []
    for value in values:
        pairs, route_fuels, failures = [], [], 0
        for i, req in enumerate(requests):
            hybrid_req = apply(req, value)
            fuels = []
            for rep in range(repetitions):
                try:
                    solver = run(i, rep, baseline(hybrid_req))
                    hybrid = run(i, rep, hybrid_req)
                except SkyrouteError:
                    failures += 1
                    continue
                pairs.append((solver, hybrid))
                fuels.append(hybrid["totals"]["fuel_kg"])
            if fuels:
                route_fuels.append(sum(fuels) / len(fuels))
        if not pairs:
            rows.append({"param_value": value, "failures": failures})
            continue
        solver_times = [s["timings"]["total_s"] for s, _ in pairs]
        hybrid_times = [h["timings"]["total_s"] for _, h in pairs]
        series = {
            "solver_time_s": solver_times,
            "hybrid_time_s": hybrid_times,
            "guide_time_s": [h["timings"]["guide_s"] for _, h in pairs],
            "fuel_solver_kg": [s["totals"]["fuel_kg"] for s, _ in pairs],
            "fuel_hybrid_kg": [h["totals"]["fuel_kg"] for _, h in pairs],
            "expanded_solver": [s["search"]["expanded_nodes"] for s, _ in pairs],
            "expanded_hybrid": [h["search"]["expanded_nodes"] for _, h in pairs],
        }
        row = {"param_value": value,
               **{k: sum(xs) / len(xs) for k, xs in series.items()},
               "solver_time_std": statistics.pstdev(solver_times),
               "hybrid_time_std": statistics.pstdev(hybrid_times)}
        st, ht = row["solver_time_s"], row["hybrid_time_s"]
        row["pct_diff"] = (ht - st) / st * 100.0
        if failures:
            row["failures"] = failures
        if len(requests) == 2 and len(route_fuels) == 2:
            row["fuel_route1_kg"], row["fuel_route2_kg"] = route_fuels
        rows.append(row)
    return rows


def bench_fwd(requests: list[PlanRequest],
              fwd_list: list[int] | None = None,
              repetitions: int = 1) -> list[dict]:
    """Sweep the number of forward rows I at fixed J, H and width.

    The baseline of each row is the unconstrained solver on the same
    I x J x H lattice.
    """
    return _sweep(requests, fwd_list or list(range(11, 52, 5)),
                  lambda req, fwd: replace(req, dims=(fwd, *req.dims[1:])),
                  lambda req: replace(req, unconstrained=True), repetitions)


def bench_width(requests: list[PlanRequest],
                w_list: list[int] | None = None,
                repetitions: int = 1) -> list[dict]:
    """Sweep the corridor width w at fixed lattice dims.

    The baseline of every row is the full-width (w = J) hybrid run, whose
    graph coincides with the unconstrained one. At w = J the hybrid request
    is the baseline request, so that row is the baseline run compared with
    itself: pct_diff is exactly 0 and the fuels are equal, for any number
    of repetitions.
    """
    J = requests[0].dims[1] if requests else DEFAULT_DIMS[1]
    return _sweep(requests, w_list or list(range(1, J + 1)),
                  lambda req, w: replace(req, width=w),
                  lambda req: replace(req, width=req.dims[1]), repetitions)


def write_bench_csv(rows: list[dict], path: str) -> None:
    """Schema-stable CSV; optional columns appended after the fixed set.
    `path` is replaced whole (files.replacing)."""
    extra = [k for k in ("fuel_route1_kg", "fuel_route2_kg", "failures")
             if any(k in r for r in rows)]
    with replacing(path) as f:
        writer = csv.DictWriter(f, fieldnames=BENCH_COLUMNS + extra,
                                restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in BENCH_COLUMNS + extra})


def read_bench_csv(path: str) -> list[dict]:
    """Parse a benchmark CSV back into typed rows (round-trip partner)."""
    out = []
    with open(path, newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            typed = {}
            for k, v in row.items():
                if v == "" or v is None:
                    continue
                typed[k] = int(v) if k in ("param_value", "failures") \
                    else float(v)
            out.append(typed)
    return out


def default_requests(weather: str = "jet", seed: int = 0,
                     routes=DEFAULT_ROUTE_SET, **overrides) -> list[PlanRequest]:
    """One request per (origin, destination) pair of `routes`, each an
    airport code or 'lat,lon[,alt]'; by default the shipped 5-route
    benchmark set."""
    return [PlanRequest(origin=resolve_point(a), destination=resolve_point(b),
                        weather=weather, seed=seed, **overrides)
            for a, b in routes]

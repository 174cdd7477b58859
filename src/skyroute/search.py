"""A* over the (optionally corridor-masked) lattice, plus a DP oracle.

Edge costs come from the performance model evaluated at a precomputed
per-row nominal mass (A* needs state-independent edge costs); the
winning path is then flown once with threaded mass for the reported fuel.
The heuristic is a provable lower bound on remaining fuel per meter,
so the search is optimal within the graph it is given.

An edge (i, j, h) -> (i+1, j', h') costs the same for every h and h':
the row's nominal mass is fixed, the weather is 2-D, distance ignores
altitude, and all levels of a column share one lat/lon. So each search
costs every edge it may relax in one `fly_segments` call, as an
(I-1, J, 3) table indexed by row, column and j' - j + 1. The column
windows that mask the table are the searches' only reachability rule.
An edge the batch refuses holds NaN; relaxing it flies it with
`fly_segment`, the only source of flight errors, which raises its error.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from .errors import NoPath
# great_circle_distance, is_reachable and route_cost are unused here; they
# stay because perfbench/tracing.py wraps them by name.
from .geo import GeoPoint, great_circle_distance, great_circle_distances
from .lattice import Corridor, Lattice, NodeIndex, is_reachable, successors
from .perfmodel import (AircraftSpec, AircraftState, SegmentResult, fly_route,
                        fly_segment, fly_segments, route_cost,
                        DEFAULT_SUBSTEPS)
from .weather import WeatherField


@dataclass
class SearchResult:
    """Optimal path, its flown legs, and search-effort statistics."""

    node_path: list[NodeIndex]
    geo_path: list[GeoPoint]
    segments: list[SegmentResult]   # winning path flown with threaded mass
    total_fuel_kg: float       # sum of the legs, as route_cost sums them
    search_cost_kg: float      # objective value under nominal-mass edge costs
    expanded_nodes: int
    generated_nodes: int
    wall_time_s: float
    final_state: AircraftState


def nominal_mass_profile(lattice: Lattice, spec: AircraftSpec,
                         initial_state: AircraftState, field: WeatherField,
                         substeps: int) -> list[float]:
    """Mass at the start of each row, estimated by flying the centerline."""
    cj, ch = lattice.center_column, lattice.center_level
    centerline = [lattice.node((i, cj, ch)) for i in range(lattice.dims[0])]
    legs = fly_route(spec, initial_state, centerline, field, substeps)
    return [initial_state.mass_kg] + [leg.end_state.mass_kg for leg in legs]


def min_specific_burn(spec: AircraftSpec, field: WeatherField) -> float:
    """Lower bound on fuel per meter of ground distance, from field extremes."""
    w_max = field.max_wind_speed()
    dt_max = field.max_temp_deviation()
    flow_min = (spec.base_fuel_flow_kgps
                * (spec.empty_mass_kg / spec.ref_mass_kg) ** spec.mass_exponent
                * max(0.0, 1.0 - abs(spec.temp_sensitivity) * dt_max))
    return flow_min / (spec.tas_ms + w_max)


def _start_and_goal(lattice: Lattice, corridor: Corridor | None):
    if corridor is not None:
        start = corridor.start_node
    else:
        start = (0, lattice.center_column, lattice.center_level)
    goal = (lattice.dims[0] - 1, lattice.center_column, lattice.center_level)
    return start, goal


def _column_windows(lattice: Lattice, corridor: Corridor | None,
                    start: NodeIndex) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the first and last column the search can reach."""
    I, J, _H = lattice.dims
    lo = np.zeros(I, dtype=int)
    hi = np.full(I, J - 1)
    if corridor is not None:
        lo[:] = corridor.j_min
        hi[:] = lo + corridor.width - 1
    lo[0] = hi[0] = start[1]
    lo[I - 1] = hi[I - 1] = lattice.center_column
    return lo, hi


def _edge_costs(lattice: Lattice, lo: np.ndarray, hi: np.ndarray,
                spec: AircraftSpec, masses: list[float], field: WeatherField,
                substeps: int):
    """Nominal-mass cost of every edge between reachable columns.

    All edges are flown in one `fly_segments` call. Returns `cost(u, v)`.
    An edge the batch marked NaN is flown again with `fly_segment` when
    it is relaxed, which raises its OutOfDomain or Infeasible, as flying
    the edges one by one would.
    """
    I, J, _H = lattice.dims
    col = np.arange(J)[:, None]
    target = np.broadcast_to(col + np.arange(-1, 2), (I - 1, J, 3)).copy()
    target[I - 2] = lattice.center_column      # every column enters the goal
    mask = ((lo[:-1, None, None] <= col) & (col <= hi[:-1, None, None])
            & (lo[1:, None, None] <= target) & (target <= hi[1:, None, None]))
    mask[I - 2, :, 0::2] = False
    rows, cols, slots = np.nonzero(mask)
    to_cols = target[rows, cols, slots]
    fuel = fly_segments(
        spec, lattice.lat_deg[rows, cols], lattice.lon_deg[rows, cols],
        np.asarray(masses)[rows], lattice.lat_deg[rows + 1, to_cols],
        lattice.lon_deg[rows + 1, to_cols], field, substeps)
    table = np.full(mask.shape, np.nan)
    table[mask] = fuel
    costs = table.tolist()
    last = I - 1

    def cost(u: NodeIndex, v: NodeIndex) -> float:
        i, j, _h = u
        slot = 1 if v[0] == last else v[1] - j + 1
        c = costs[i][j][slot]
        if c != c:
            c = fly_segment(spec, AircraftState(lattice.node(u), masses[i]),
                            lattice.node(v), field, substeps).fuel_kg
        return c

    return cost


def _heuristics(lattice: Lattice, spec: AircraftSpec,
                field: WeatherField) -> list[list[float]]:
    """Admissible cost-to-go per (row, column); 0 at the goal."""
    dest = lattice.destination
    h = great_circle_distances(lattice.lat_deg, lattice.lon_deg, dest.lat_deg,
                               dest.lon_deg) * min_specific_burn(spec, field)
    h[-1] = 0.0
    return h.tolist()


def _finish(lattice: Lattice, spec: AircraftSpec, initial_state: AircraftState,
            field: WeatherField, substeps: int, node_path: list[NodeIndex],
            search_cost: float, expanded: int, generated: int,
            t0: float) -> SearchResult:
    geo_path = [lattice.node(idx) for idx in node_path]
    legs = fly_route(spec, initial_state, geo_path, field, substeps)
    return SearchResult(node_path, geo_path, legs,
                        sum(leg.fuel_kg for leg in legs), search_cost, expanded,
                        generated, time.perf_counter() - t0, legs[-1].end_state)


def astar(lattice: Lattice, corridor: Corridor | None, spec: AircraftSpec,
          initial_state: AircraftState, field: WeatherField,
          substeps: int = DEFAULT_SUBSTEPS) -> SearchResult:
    """Minimum-fuel path under nominal-mass edge costs.

    Ties on f are broken toward larger g (deeper nodes), then smaller j,
    then smaller h, for run-to-run determinism.
    """
    t0 = time.perf_counter()
    masses = nominal_mass_profile(lattice, spec, initial_state, field, substeps)
    start, goal = _start_and_goal(lattice, corridor)
    lo, hi = _column_windows(lattice, corridor, start)
    cost = _edge_costs(lattice, lo, hi, spec, masses, field, substeps)
    h_table = _heuristics(lattice, spec, field)
    row_lo, row_hi = lo.tolist(), hi.tolist()

    def heuristic(idx: NodeIndex) -> float:
        return h_table[idx[0]][idx[1]]

    g_score: dict[NodeIndex, float] = {start: 0.0}
    parent: dict[NodeIndex, NodeIndex] = {}
    closed: set[NodeIndex] = set()
    open_heap: list[tuple] = []
    heapq.heappush(open_heap, (heuristic(start), 0.0, start[1], start[2], start))
    expanded = 0
    generated = 1

    while open_heap:
        f, neg_g, _j, _h, u = heapq.heappop(open_heap)
        if u in closed:
            continue
        if -neg_g > g_score.get(u, float("inf")):
            continue
        closed.add(u)
        expanded += 1
        if u == goal:
            path = [u]
            while path[-1] != start:
                path.append(parent[path[-1]])
            path.reverse()
            return _finish(lattice, spec, initial_state, field, substeps,
                           path, g_score[goal], expanded, generated, t0)
        for v in successors(lattice, u):
            if not row_lo[v[0]] <= v[1] <= row_hi[v[0]] or v in closed:
                continue
            g_new = g_score[u] + cost(u, v)
            if g_new < g_score.get(v, float("inf")):
                g_score[v] = g_new
                parent[v] = u
                heapq.heappush(open_heap,
                               (g_new + heuristic(v), -g_new, v[1], v[2], v))
                generated += 1
    raise NoPath("corridor disconnects origin from destination")


def dp_oracle(lattice: Lattice, corridor: Corridor | None, spec: AircraftSpec,
              initial_state: AircraftState, field: WeatherField,
              substeps: int = DEFAULT_SUBSTEPS) -> SearchResult:
    """Exhaustive layer-by-layer dynamic program over the same edge costs."""
    I, J, H = lattice.dims
    if I * J * H > 50_000:
        raise ValueError("dp_oracle limited to I*J*H <= 50,000")
    t0 = time.perf_counter()
    masses = nominal_mass_profile(lattice, spec, initial_state, field, substeps)
    start, goal = _start_and_goal(lattice, corridor)
    lo, hi = _column_windows(lattice, corridor, start)
    cost = _edge_costs(lattice, lo, hi, spec, masses, field, substeps)
    row_lo, row_hi = lo.tolist(), hi.tolist()

    best: dict[NodeIndex, float] = {start: 0.0}
    parent: dict[NodeIndex, NodeIndex] = {}
    expanded = 0
    generated = 0
    for i in range(I - 1):
        layer = sorted(idx for idx in best if idx[0] == i)
        for u in layer:
            expanded += 1
            for v in successors(lattice, u):
                if not row_lo[v[0]] <= v[1] <= row_hi[v[0]]:
                    continue
                g_new = best[u] + cost(u, v)
                generated += 1
                if g_new < best.get(v, float("inf")):
                    best[v] = g_new
                    parent[v] = u
    if goal not in best:
        raise NoPath("corridor disconnects origin from destination")
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    path.reverse()
    return _finish(lattice, spec, initial_state, field, substeps,
                   path, best[goal], expanded, generated, t0)

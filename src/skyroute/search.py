"""Minimum-fuel search over the (optionally corridor-masked) lattice.

`row_dp` is the solver `plan` runs; the heap-based `astar` is the
reference it is tested against.

Edge costs come from the performance model evaluated at a precomputed
per-row nominal mass (the searches need state-independent edge costs);
the winning path is then flown once with threaded mass for the reported
fuel. Both the nominal masses (from the centerline) and that flight come
from `fly_route`, which flies all legs' geometry in one array pass and
threads mass in one loop. The heuristic is a provable lower bound on remaining fuel per
meter, so the search is optimal within the graph it is given.

An edge (i, j, h) -> (i+1, j', h') costs the same for every h and h':
the row's nominal mass is fixed, the weather is 2-D, distance ignores
altitude, and all levels of a column share one lat/lon. So both searches
read one table, `_edge_table`, indexed by row, column and j' - j + 1,
that costs every edge in one `fly_segments` call. Its +inf entries are
the absent edges, and the searches' only reachability rule: edges outside
the column windows, and edges the aircraft cannot fly (the batch refuses
them: they leave the weather grid, or fall below the empty mass at the
row's nominal mass). The plan is the optimum over the edges it can fly.

`row_dp` takes one numpy min-plus step per row over that table and reads
A*'s result from the g-table. Two rules make that result independent of
the order A* pops nodes in:
- `generated_nodes` counts distinct nodes: a node counts once, when an
  expanded node first gives it a finite g.
- On an equal g, a node keeps the predecessor with the smaller (j, h).
The heuristic is strictly consistent (every edge costs more than
`min_specific_burn` times its great-circle length), so every predecessor
that attains a node's g has the smaller f and is expanded before it, and
A* expands exactly the nodes with g + h < C*, plus the goal.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from math import inf

import numpy as np

from .errors import NoPath
# great_circle_distance, is_reachable, fly_segment and route_cost are unused
# here; they stay because perfbench/tracing.py wraps them by name.
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
                * (spec.empty_mass_kg / spec.ref_mass_kg)
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


def _edge_table(lattice: Lattice, lo: np.ndarray, hi: np.ndarray,
                spec: AircraftSpec, masses: list[float], field: WeatherField,
                substeps: int) -> np.ndarray:
    """Nominal-mass cost of every edge between reachable columns.

    All edges are flown in one `fly_segments` call. The (I-1, J, 3) table
    is indexed by row, column and j' - j + 1; edges into the goal use slot
    1. Absent edges hold +inf: those outside the column windows, and those
    the batch refuses (NaN), which `fly_segment` would raise on.
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
    table = np.full(mask.shape, np.inf)
    table[mask] = np.where(np.isnan(fuel), np.inf, fuel)
    return table


def _no_path(lo: np.ndarray, hi: np.ndarray) -> NoPath:
    """The error when no finite path reaches the goal, naming its cause.

    Moves change the column by at most 1, so the columns the windows
    alone let a path reach form one interval per row; the corridor is to
    blame when some row's interval is empty, and refused edges otherwise.
    """
    a = b = int(lo[0])
    for row_lo, row_hi in zip(lo[1:-1].tolist(), hi[1:-1].tolist()):
        a, b = max(a - 1, row_lo), min(b + 1, row_hi)
        if a > b:
            return NoPath("corridor disconnects origin from destination")
    return NoPath("refused edges (off the weather grid, or below the empty "
                  "mass) disconnect origin from destination")


def _heuristics(lattice: Lattice, spec: AircraftSpec,
                field: WeatherField) -> np.ndarray:
    """Admissible cost-to-go per (row, column); 0 at the goal."""
    dest = lattice.destination
    h = great_circle_distances(lattice.lat_deg, lattice.lon_deg, dest.lat_deg,
                               dest.lon_deg) * min_specific_burn(spec, field)
    h[-1] = 0.0
    return h


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

    The heap pops ties on f toward larger g, so the goal comes before any
    other node with f = C*. A node counts as generated once, when it first
    gets a finite g, and on an equal g it keeps the predecessor with the
    smaller (j, h); neither depends on the pop order. A successor is
    reachable when its `_edge_table` entry is finite.
    """
    t0 = time.perf_counter()
    masses = nominal_mass_profile(lattice, spec, initial_state, field, substeps)
    start, goal = _start_and_goal(lattice, corridor)
    lo, hi = _column_windows(lattice, corridor, start)
    costs = _edge_table(lattice, lo, hi, spec, masses, field,
                        substeps).tolist()
    h_table = _heuristics(lattice, spec, field).tolist()
    last = lattice.dims[0] - 1

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
        if -neg_g > g_score.get(u, inf):
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
        i, j, _h = u
        for v in successors(lattice, u):
            c = costs[i][j][1 if v[0] == last else v[1] - j + 1]
            if c == inf or v in closed:
                continue
            g_new = g_score[u] + c
            g_old = g_score.get(v)
            if g_old is None or g_new < g_old:
                generated += g_old is None
                g_score[v] = g_new
                parent[v] = u
                heapq.heappush(open_heap,
                               (g_new + heuristic(v), -g_new, v[1], v[2], v))
            elif g_new == g_old and u[1:] < parent[v][1:]:
                parent[v] = u
    raise _no_path(lo, hi)


def row_dp(lattice: Lattice, corridor: Corridor | None, spec: AircraftSpec,
           initial_state: AircraftState, field: WeatherField,
           substeps: int = DEFAULT_SUBSTEPS) -> SearchResult:
    """`astar`'s result, effort counts included, from a row-by-row DP.

    g[i+1][j'] = min over s of g[i][j] + table[i][j][s] takes one numpy
    step per row and adds in A*'s order, so the cost is bit-identical to
    A*'s. All levels of a column share g and h, so A* expands a column
    (nlev(i) levels of row i, those within i steps of H // 2) exactly when
    g + h < C*. From that:

    - expanded: those nodes, plus the goal.
    - generated: the start, nlev(i) levels of every row-i column that an
      expanded column reaches by an in-window edge, and the goal.
    - path: a node's parent column is the first argmin of g(u) + cost(u, v)
      over its predecessors in ascending column order; the goal's is the
      first argmin into it. The smaller level wins too, so interior row i
      is reported at level max(0, H // 2 - i).
    """
    t0 = time.perf_counter()
    masses = nominal_mass_profile(lattice, spec, initial_state, field, substeps)
    start, goal = _start_and_goal(lattice, corridor)
    lo, hi = _column_windows(lattice, corridor, start)
    table = _edge_table(lattice, lo, hi, spec, masses, field, substeps)
    I, J, H = lattice.dims
    ch = lattice.center_level

    # Rows 0..I-2 get one +inf column on each side. The edge into (i+1, j')
    # through slot s leaves padded column src[j', s] = j' - s + 2.
    slots = np.arange(3)
    src = np.arange(J)[:, None] - slots + 2
    padded = np.full((I - 1, J + 2, 3), np.inf)
    padded[:, 1:-1] = table
    incoming = padded[:, src, slots]
    g = np.full((I - 1, J + 2), np.inf)
    g[0, start[1] + 1] = 0.0
    cand = np.empty((I - 2, J, 3))      # g(u) + cost(u, v), v in rows 1..I-2
    for i in range(I - 2):
        np.add(g[i, src], incoming[i], out=cand[i])
        cand[i].min(axis=1, out=g[i + 1, 1:-1])
    into_goal = g[I - 2, 1:-1] + table[I - 2, :, 1]
    c_star = float(into_goal.min())
    if c_star == np.inf:
        raise _no_path(lo, hi)

    h = np.zeros((I - 1, J + 2))
    h[:, 1:-1] = _heuristics(lattice, spec, field)[:-1]
    expanded = g + h < c_star
    reached = (expanded[:-1, src] & (incoming[:-1] < np.inf)).any(axis=2)
    rows = np.arange(I - 1)
    nlev = np.minimum(H - 1, ch + rows) - np.maximum(0, ch - rows) + 1
    n_expanded = int(nlev @ expanded.sum(axis=1)) + 1
    n_generated = int(nlev[1:] @ reached.sum(axis=1)) + 2  # start, goal

    # Slots reversed put the sources in ascending column order.
    parent_rows = (np.arange(J) - 1 + cand[..., ::-1].argmin(axis=2)).tolist()
    j = int(into_goal.argmin())
    path = [goal, (I - 2, j, max(0, ch - I + 2))]
    for i in range(I - 3, -1, -1):
        j = parent_rows[i][j]
        path.append((i, j, max(0, ch - i)))
    path.reverse()
    return _finish(lattice, spec, initial_state, field, substeps, path,
                   c_star, n_expanded, n_generated, t0)

"""Minimum-fuel search over the (optionally corridor-masked) lattice.

`row_dp` is the solver `plan` runs; the heap-based `astar` is the
reference it is tested against.

Edge costs are the fuel at a per-row nominal mass (the searches need
state-independent edge costs). The heuristic is a provable lower bound on
remaining fuel per meter, so the search is optimal within the graph it
is given.

Each search flies its lattice's mass-free geometry once (`_fly_lattice`):
one `substep_geometry` pass gives every window edge and centerline leg
its time and the share of its start mass it burns. Three stages multiply
those shares by masses: the nominal masses, a float loop m <- m - m b
along the centerline legs, as `nominal_mass_profile` finds them; the
edge table at each row's mass; and the winning path along its legs, as
`fly_route` flies it, its waypoints read off the lattice in one pass. A
leg's geometry does not depend on its batch, so all three equal what
their own flights would give. `SearchResult.stages` times each stage.

Every search runs from (0, c, H // 2) to (I - 1, c, H // 2), c the centre
column: every row-0 node is the origin and every row-(I-1) node the
destination. Row i of the start's cone holds columns c ± i.

An edge (i, j, h) -> (i+1, j', h') costs the same for every h and h':
the row's nominal mass is fixed, the weather is 2-D, distance ignores
altitude, and all levels of a column share one lat/lon. So both searches
read one table, `_edge_table`, indexed by row, column and j' - j + 1.
Its +inf entries are the absent edges, and the searches' only
reachability rule: edges outside the column windows (a row's corridor
window within the start's cone), and edges the aircraft cannot fly (the
batch refuses them: they leave the weather grid, or fall below the empty
mass at the row's nominal mass). The plan is the optimum over the edges
it can fly. Every column of the windows is on a path from the start, so
only refused edges can leave no path.

`row_dp` takes one numpy min-plus step per row over that table, reading
row i's g through a strided view rather than a copy, and reads A*'s
result from the g-table, with the heuristic computed only where g is
finite. Two rules make that result independent of
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
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NoPath
# great_circle_distance, is_reachable, fly_segment and route_cost are unused
# here; they stay because perfbench/tracing.py wraps them by name.
from .geo import GeoPoint, great_circle_distance, great_circle_distances
from .lattice import Corridor, Lattice, NodeIndex, is_reachable, successors
from .perfmodel import (AircraftSpec, AircraftState, Geometry, SegmentResult,
                        fly_route, fly_segment, route_cost, segments_fuel,
                        substep_geometry, thread_legs, DEFAULT_SUBSTEPS)
from .weather import WeatherField

#: The `NoPath` message: the windows always leave a path.
_REFUSED = ("refused edges (off the weather grid, or below the empty mass) "
            "disconnect origin from destination")


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
    final_state: AircraftState
    stages: dict[str, float]   # wall seconds of each stage, in order

    @property
    def wall_time_s(self) -> float:
        return sum(self.stages.values())


class Stages:
    """Wall time of consecutive stages; `lap(name)` ends the stage `name`."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self._t = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.times[name] = now - self._t
        self._t = now


def nominal_mass_profile(lattice: Lattice, spec: AircraftSpec,
                         initial_state: AircraftState, field: WeatherField,
                         substeps: int) -> list[float]:
    """Mass at the start of each row, estimated by flying the centerline.

    The searches read the same masses off their `_LatticeFlight`.
    """
    route = [lattice.node(idx) for idx in _centerline(lattice)]
    legs = fly_route(spec, initial_state, route, field, substeps)
    return [initial_state.mass_kg] + [leg.end_state.mass_kg for leg in legs]


def _centerline(lattice: Lattice) -> list[NodeIndex]:
    cj, ch = lattice.center_column, lattice.center_level
    return [(i, cj, ch) for i in range(lattice.dims[0])]


def min_specific_burn(spec: AircraftSpec, field: WeatherField) -> float:
    """Lower bound on fuel per meter of ground distance, from field extremes."""
    w_max = field.max_wind_speed()
    dt_max = field.max_temp_deviation()
    flow_min = (spec.base_fuel_flow_kgps
                * (spec.empty_mass_kg / spec.ref_mass_kg)
                * max(0.0, 1.0 - abs(spec.temp_sensitivity) * dt_max))
    return flow_min / (spec.tas_ms + w_max)


def _column_windows(lattice: Lattice, corridor: Corridor | None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the first and last column the search can reach: the
    corridor's window, within the start's cone of c ± i in row i.

    A corridor whose row-0 window leaves out the start raises ValueError.
    """
    I, J, _H = lattice.dims
    c = lattice.center_column
    rows = np.arange(I)
    lo, hi = np.maximum(c - rows, 0), np.minimum(c + rows, J - 1)
    if corridor is not None:
        if not corridor.j_min[0] <= c <= corridor.j_max(0):
            raise ValueError(f"row 0's window leaves out the start column {c}")
        j_min = np.asarray(corridor.j_min)
        lo = np.maximum(lo, j_min)
        hi = np.minimum(hi, j_min + corridor.width - 1)
    lo[I - 1] = hi[I - 1] = c
    return lo, hi


class _LatticeFlight(NamedTuple):
    """The mass-free flight of a plan's lattice, computed once per plan.

    `geometry` holds every window edge and every centerline leg, flown in
    one `substep_geometry` pass. `index` gives each such edge's position in
    it by row, column and slot j' - j + 1 (edges into the goal use slot 1),
    and -1 elsewhere; `window` marks the window edges.
    """

    lattice: Lattice
    spec: AircraftSpec
    field: WeatherField
    substeps: int
    window: np.ndarray
    index: np.ndarray
    geometry: Geometry

    def fly(self, initial_state: AircraftState, node_path: list[NodeIndex]
            ) -> tuple[list[GeoPoint], list[SegmentResult]]:
        """A path through every row, flown from initial_state's mass as
        `fly_route` flies it, and its waypoints."""
        lattice = self.lattice
        cols = np.array([j for _i, j, _h in node_path])
        rows = np.arange(cols.size)
        inner = rows[1:-1], cols[1:-1]
        alts = lattice.alts_m
        route = [lattice.origin,
                 *(GeoPoint(lat, lon, alts[h]) for lat, lon, (_i, _j, h) in zip(
                     lattice.lat_deg[inner].tolist(),
                     lattice.lon_deg[inner].tolist(), node_path[1:-1])),
                 lattice.destination]
        legs = rows[:-1]
        slots = np.where(legs == legs[-1], 1, np.diff(cols) + 1)
        geometry = self.geometry.take(self.index[legs, cols[:-1], slots])
        return route, thread_legs(self.spec, initial_state, route, geometry,
                                  self.field, self.substeps)


def _fly_lattice(lattice: Lattice, corridor: Corridor | None,
                 spec: AircraftSpec, field: WeatherField,
                 substeps: int) -> _LatticeFlight:
    """Fly the geometry of the window edges and the centerline legs."""
    lo, hi = _column_windows(lattice, corridor)
    I, J, _H = lattice.dims
    col = np.arange(J)[:, None]
    target = np.broadcast_to(col + np.arange(-1, 2), (I - 1, J, 3)).copy()
    target[I - 2] = lattice.center_column      # every column enters the goal
    window = ((lo[:-1, None, None] <= col) & (col <= hi[:-1, None, None])
              & (lo[1:, None, None] <= target)
              & (target <= hi[1:, None, None]))
    window[I - 2, :, 0::2] = False
    flown = window.copy()
    flown[:, lattice.center_column, 1] = True  # a corridor may leave these out
    rows, cols, slots = np.nonzero(flown)
    to_cols = target[rows, cols, slots]
    index = np.full(flown.shape, -1)
    index[flown] = np.arange(rows.size)
    geometry = substep_geometry(
        spec, lattice.lat_deg[rows, cols], lattice.lon_deg[rows, cols],
        lattice.lat_deg[rows + 1, to_cols], lattice.lon_deg[rows + 1, to_cols],
        field, substeps)
    return _LatticeFlight(lattice, spec, field, substeps, window, index,
                          geometry)


def _nominal_masses(flight: _LatticeFlight,
                    initial_state: AircraftState) -> list[float]:
    """`nominal_mass_profile`, threaded along the flown centerline legs.

    Each leg takes its share of the mass left, as `thread_legs` does. A
    leg that would end below the empty mass, or whose share is NaN, sends
    the whole centerline through `fly`, which re-flies that leg with
    `fly_segment`: that raises its error or gives its result.
    """
    I = flight.lattice.dims[0]
    legs = flight.index[np.arange(I - 1), flight.lattice.center_column, 1]
    mass = initial_state.mass_kg
    masses = [mass]
    for burned in flight.geometry.burned[legs].tolist():
        fuel = mass * burned
        if not mass - fuel >= flight.spec.empty_mass_kg:   # below empty, or NaN
            _route, flown = flight.fly(initial_state,
                                       _centerline(flight.lattice))
            return [initial_state.mass_kg] + [leg.end_state.mass_kg
                                              for leg in flown]
        mass = mass - fuel
        masses.append(mass)
    return masses


def _edge_table(flight: _LatticeFlight, masses: list[float]) -> np.ndarray:
    """Nominal-mass cost of every window edge.

    The (I-1, J, 3) table is indexed as `flight.index`. All window edges
    are costed in one `segments_fuel` call, at their row's mass. Absent
    edges hold +inf: those outside the column windows, and those the
    batch refuses (NaN), which `fly_segment` would raise on.
    """
    rows = np.nonzero(flight.window)[0]
    fuel = segments_fuel(flight.spec, np.asarray(masses)[rows],
                         flight.geometry.take(flight.index[flight.window]))
    table = np.full(flight.window.shape, np.inf)
    table[flight.window] = np.where(np.isnan(fuel), np.inf, fuel)
    return table


def _heuristics(lattice: Lattice, spec: AircraftSpec, field: WeatherField,
                lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Admissible cost-to-go of nodes at (lat, lon) other than the goal."""
    dest = lattice.destination
    return great_circle_distances(lat, lon, dest.lat_deg, dest.lon_deg) \
        * min_specific_burn(spec, field)


def _finish(flight: _LatticeFlight, initial_state: AircraftState,
            node_path: list[NodeIndex], search_cost: float, expanded: int,
            generated: int, stages: Stages) -> SearchResult:
    """Fly the winning path along its legs' flown geometry."""
    stages.lap("solve_s")
    geo_path, legs = flight.fly(initial_state, node_path)
    stages.lap("path_s")
    return SearchResult(node_path, geo_path, legs,
                        sum(leg.fuel_kg for leg in legs), search_cost, expanded,
                        generated, legs[-1].end_state, stages.times)


def _prepare(lattice: Lattice, corridor: Corridor | None, spec: AircraftSpec,
             initial_state: AircraftState, field: WeatherField,
             substeps: int) -> tuple[Stages, _LatticeFlight, np.ndarray]:
    """The stages both searches share: the lattice's flight, the nominal
    masses and the edge table."""
    stages = Stages()
    flight = _fly_lattice(lattice, corridor, spec, field, substeps)
    stages.lap("geometry_s")
    masses = _nominal_masses(flight, initial_state)
    stages.lap("masses_s")
    table = _edge_table(flight, masses)
    stages.lap("table_s")
    return stages, flight, table


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
    stages, flight, table = _prepare(lattice, corridor, spec, initial_state,
                                     field, substeps)
    last = lattice.dims[0] - 1
    c, ch = lattice.center_column, lattice.center_level
    start, goal = (0, c, ch), (last, c, ch)
    costs = table.tolist()
    h = _heuristics(lattice, spec, field, lattice.lat_deg, lattice.lon_deg)
    h[-1] = 0.0
    h_table = h.tolist()

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
            return _finish(flight, initial_state, path, g_score[goal],
                           expanded, generated, stages)
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
    raise NoPath(_REFUSED)


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
    stages, flight, table = _prepare(lattice, corridor, spec, initial_state,
                                     field, substeps)
    I, J, H = lattice.dims
    c, ch = lattice.center_column, lattice.center_level

    # Rows 0..I-2 get one +inf column on each side. The edge into (i+1, j')
    # through slot s leaves padded column src[j', s] = j' - s + 2.
    slots = np.arange(3)
    src = np.arange(J)[:, None] - slots + 2
    padded = np.full((I - 1, J + 2, 3), np.inf)
    padded[:, 1:-1] = table
    incoming = padded[:, src, slots]
    g = np.full((I - 1, J + 2), np.inf)
    g[0, c + 1] = 0.0
    # g_src[i, j', s] = g[i, src[j', s]], a view: no copy per row.
    step = g.strides[1]
    g_src = as_strided(g[:, 2:], shape=(I - 1, J, 3),
                       strides=(g.strides[0], step, -step), writeable=False)
    cand = np.empty((I - 2, J, 3))      # g(u) + cost(u, v), v in rows 1..I-2
    # Row i writes row i + 1 of g, which g_src reads on the next pass. The
    # ufuncs are called directly: ndarray.min goes through Python-level
    # numpy code on every call.
    add, row_min = np.add, np.minimum.reduce
    for g_row, cost_row, cand_row, g_next in zip(g_src, incoming, cand,
                                                 g[1:, 1:-1]):
        add(g_row, cost_row, out=cand_row)
        row_min(cand_row, axis=1, out=g_next)
    into_goal = g[I - 2, 1:-1] + table[I - 2, :, 1]
    c_star = float(into_goal.min())
    if c_star == np.inf:
        raise NoPath(_REFUSED)

    # A node with an infinite g is never expanded, so h is computed only
    # where g is finite.
    g_in = g[:, 1:-1]
    finite = g_in < np.inf
    expanded = np.zeros(g.shape, dtype=bool)
    expanded[:, 1:-1][finite] = g_in[finite] + _heuristics(
        lattice, spec, field, lattice.lat_deg[:-1][finite],
        lattice.lon_deg[:-1][finite]) < c_star
    reached = (expanded[:-1, src] & (incoming[:-1] < np.inf)).any(axis=2)
    rows = np.arange(I - 1)
    nlev = np.minimum(H - 1, ch + rows) - np.maximum(0, ch - rows) + 1
    n_expanded = int(nlev @ expanded.sum(axis=1)) + 1
    n_generated = int(nlev[1:] @ reached.sum(axis=1)) + 2  # start, goal

    # Slots reversed put the sources in ascending column order.
    parent_rows = (np.arange(J) - 1 + cand[..., ::-1].argmin(axis=2)).tolist()
    j = int(into_goal.argmin())
    path = [(I - 1, c, ch), (I - 2, j, max(0, ch - I + 2))]
    for i in range(I - 3, -1, -1):
        j = parent_rows[i][j]
        path.append((i, j, max(0, ch - i)))
    path.reverse()
    return _finish(flight, initial_state, path, c_star, n_expanded,
                   n_generated, stages)

"""Minimum-fuel search over the (optionally corridor-masked) lattice.

`row_dp` is the solver `plan` runs; the heap-based `astar` is the
reference it is tested against.

Edge costs are the fuel at a per-row nominal mass (the searches need
state-independent edge costs). The heuristic is a provable lower bound on
remaining fuel per meter (`min_specific_burn`), so the search is optimal
within the graph it is given.

Each search flies its lattice's mass-free geometry once (`_fly_lattice`):
one `substep_geometry` pass gives every window edge and centerline leg
its time and the share of its start mass it burns. It takes the unit
vector of each node a flown edge touches once, and gathers the two of
each edge, which gives the geometry `substep_geometry` gives the edges'
lat/lon, bit for bit: `fly_route` re-flies a plan's waypoints exactly.
Three stages multiply those shares by masses: the nominal masses along
the centerline legs, as `nominal_mass_profile` finds them; the edge table
at each row's mass; and the winning path along its legs, as `fly_route`
flies it. The first and last thread mass through `perfmodel.thread_legs`.
The path stays plain float columns from the lattice to the result: its
waypoints' lat/lon read off the lattice rows in one pass, endpoints
included, and its legs' fuel, time, floor hits and masses. A leg's
geometry does not depend on its batch, so all three equal what their own
flights would give.
`SearchResult.stages` times each stage.

Index work that depends on the dims alone is read off the lattice's
`lattice.Shape`, built once per (I, J, H) and cached: the start's cone
and its edge set (the windows, the edge index, the edges' nodes and the
nodes they touch, the window edges' rows and the centre legs), and the
row DP's source, level and parent-column tables. A corridor's windows
and edge set are built per plan by the same `lattice.window_edges`; the
positions, the flight, the masses, the table, g and h are never cached.
The bookkeeping around the flight is written one ufunc or ndarray method
per array operation, with no Python-level numpy wrapper (`np.where`,
`np.clip`, `np.full`, `as_strided`) and no array formed twice. On a
small lattice these calls, not the arithmetic, are most of a plan's time.
The weather lookup inside the flight finds each point's cell by
`weather.sample_many`'s rule, the bisect over each axis's inner nodes.

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

from .errors import NoPath
# great_circle_distance, is_reachable, fly_segment and route_cost are unused
# here; they stay because perfbench/tracing.py wraps them by name.
from .geo import great_circle_distance, great_circle_distances, unit_vectors
from .lattice import (Corridor, EdgeSet, Lattice, NodeIndex, is_reachable,
                      successors, window_edges)
from .perfmodel import (AircraftSpec, AircraftState, Geometry, Legs,
                        fly_route, fly_segment, fuel_flow_kgps, route_cost,
                        segments_fuel, substep_geometry, thread_legs,
                        DEFAULT_SUBSTEPS)
from .weather import WeatherField

#: The three slots of an edge table's row, in `row_dp`'s source lookup.
_SLOTS = np.arange(3)
_SLOTS.flags.writeable = False

#: The `NoPath` message: the windows always leave a path.
_REFUSED = ("refused edges (off the weather grid, or below the empty mass) "
            "disconnect origin from destination")


@dataclass
class SearchResult:
    """Optimal path as float columns, its flown legs, and search-effort
    statistics."""

    node_path: list[NodeIndex]
    lat_deg: list[float]       # the path's waypoints, origin first
    lon_deg: list[float]
    alt_m: list[float]
    legs: Legs                 # the waypoints flown as fly_route flies them
    total_fuel_kg: float       # sum of the legs, as route_cost sums them
    search_cost_kg: float      # objective value under nominal-mass edge costs
    expanded_nodes: int
    generated_nodes: int
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
    cj, ch = lattice.center_column, lattice.center_level
    route = [lattice.node((i, cj, ch)) for i in range(lattice.dims[0])]
    legs = fly_route(spec, initial_state, route, field, substeps)
    return [initial_state.mass_kg] + [leg.end_state.mass_kg for leg in legs]


def min_specific_burn(spec: AircraftSpec, field: WeatherField) -> float:
    """Lower bound on fuel per meter of ground distance, from field extremes.

    The flow is linear in the temperature, and a piece's bilinear
    temperature lies between the field's coldest and warmest, so the
    smaller flow at those two bounds it; `AircraftSpec` keeps both
    positive."""
    flow_min = min(fuel_flow_kgps(spec, spec.empty_mass_kg, t)
                   for t in field.temperature_range())
    return flow_min / (spec.tas_ms + field.max_wind_speed())


def _column_windows(lattice: Lattice, corridor: Corridor
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the first and last column the search can reach: the
    corridor's window, within the start's cone (`Shape.lo`, `Shape.hi`).

    A corridor whose row-0 window leaves out the start raises ValueError.
    """
    shape = lattice.shape
    c = shape.center_column
    if not corridor.j_min[0] <= c <= corridor.j_max(0):
        raise ValueError(f"row 0's window leaves out the start column {c}")
    j_min = np.asarray(corridor.j_min)
    lo = np.maximum(shape.lo, j_min)
    hi = np.minimum(shape.hi, j_min + corridor.width - 1)
    lo[-1] = hi[-1] = c
    return lo, hi


class _LatticeFlight(NamedTuple):
    """The mass-free flight of a plan's lattice, computed once per plan.

    `geometry` holds every flown edge of `edges`, the window edges and the
    centerline legs, in one `substep_geometry` pass, in the order of
    `edges.index`.
    """

    lattice: Lattice
    spec: AircraftSpec
    field: WeatherField
    substeps: int
    edges: EdgeSet
    geometry: Geometry

    def fly(self, mass: float, node_path: list[NodeIndex]
            ) -> tuple[list[float], list[float], list[float], Legs]:
        """A path through every row, flown from `mass` as `fly_route` flies
        it: its waypoints' latitudes, longitudes and altitudes, and its
        legs. Rows 0 and I-1 of the lattice hold the origin's and the
        destination's positions; their altitudes are the endpoints' own."""
        lattice = self.lattice
        cols = np.array([j for _i, j, _h in node_path])
        rows = np.arange(cols.size)
        lat = lattice.lat_deg[rows, cols].tolist()
        lon = lattice.lon_deg[rows, cols].tolist()
        alts = lattice.alts_m
        alt = [alts[h] for _i, _j, h in node_path]
        alt[0], alt[-1] = lattice.origin.alt_m, lattice.destination.alt_m
        slots = cols[1:] - cols[:-1]
        slots += 1
        slots[-1] = 1                   # the last leg enters the goal
        geometry = self.geometry.take(
            self.edges.index[rows[:-1], cols[:-1], slots])
        return lat, lon, alt, thread_legs(self.spec, mass, lat, lon, geometry,
                                          self.field, self.substeps)


def _fly_lattice(lattice: Lattice, corridor: Corridor | None,
                 spec: AircraftSpec, field: WeatherField,
                 substeps: int) -> _LatticeFlight:
    """Fly the geometry of the window edges and the centerline legs.

    An unconstrained plan flies its shape's cone; a corridor's edge set is
    built per plan. The unit vector of each node a flown edge touches is
    taken once, and each edge gathers its two.
    """
    edges = lattice.shape.cone if corridor is None else window_edges(
        lattice.shape.target, *_column_windows(lattice, corridor))
    lat, lon = lattice.lat_deg.ravel(), lattice.lon_deg.ravel()
    vectors = unit_vectors(lat.take(edges.touched), lon.take(edges.touched))
    src, dst = edges.src, edges.dst
    geometry = substep_geometry(
        spec, lat.take(src), lon.take(src), lat.take(dst), lon.take(dst),
        field, substeps, ([c.take(edges.src_node) for c in vectors],
                          [c.take(edges.dst_node) for c in vectors]))
    return _LatticeFlight(lattice, spec, field, substeps, edges, geometry)


def _nominal_masses(flight: _LatticeFlight,
                    initial_state: AircraftState) -> list[float]:
    """`nominal_mass_profile`: `thread_legs` along the flown centerline
    legs. The centre column's rows 0 and I-1 are the origin and the
    destination."""
    lattice, c = flight.lattice, flight.lattice.center_column
    return thread_legs(flight.spec, initial_state.mass_kg,
                       lattice.lat_deg[:, c].tolist(),
                       lattice.lon_deg[:, c].tolist(),
                       flight.geometry.take(flight.edges.centre_pos),
                       flight.field, flight.substeps).mass


def _edge_table(flight: _LatticeFlight, masses: list[float]) -> np.ndarray:
    """Nominal-mass cost of every window edge.

    The (I-1, J, 3) table is indexed as `flight.edges.index`. All window
    edges are costed in one `segments_fuel` call, at their row's mass.
    Absent edges hold +inf: those outside the column windows, and those
    the batch refuses (NaN), which `fly_segment` would raise on.
    """
    edges = flight.edges
    fuel = segments_fuel(flight.spec,
                         np.array(masses).take(edges.window_rows),
                         flight.geometry.take(edges.window_pos))
    fuel[np.isnan(fuel)] = np.inf
    table = np.empty(edges.window.shape)
    table.fill(np.inf)
    table[edges.window] = fuel
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
    lat, lon, alt, legs = flight.fly(initial_state.mass_kg, node_path)
    stages.lap("path_s")
    return SearchResult(node_path, lat, lon, alt, legs, sum(legs.fuel),
                        search_cost, expanded, generated, stages.times)


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
    shape = lattice.shape
    I, J, _H = shape.dims
    c, ch = shape.center_column, shape.center_level

    # Rows 0..I-2 get one +inf column on each side. The edge into (i+1, j')
    # through slot s leaves padded column src[j', s] = j' - s + 2.
    src = shape.dp_src
    padded = np.empty((I - 1, J + 2, 3))
    padded.fill(np.inf)
    padded[:, 1:-1] = table
    incoming = padded[:, src, _SLOTS]
    g = np.empty((I - 1, J + 2))
    g.fill(np.inf)
    g[0, c + 1] = 0.0
    # g_src[i, j', s] = g[i, src[j', s]], a view: no copy per row.
    step = g.itemsize
    g_src = np.ndarray((I - 1, J, 3), buffer=g, offset=2 * step,
                       strides=(g.strides[0], step, -step))
    g_src.flags.writeable = False
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
    j = int(into_goal.argmin())         # the goal's parent column
    c_star = float(into_goal[j])
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
    reached = np.logical_or.reduce(
        expanded[:-1, src] & (incoming[:-1] < np.inf), axis=2)
    # Row i's levels are those within i steps of H // 2: min(2i + 1, H).
    nlev = shape.dp_levels
    n_expanded = int(nlev @ np.add.reduce(expanded, axis=1)) + 1
    n_generated = int(nlev[1:] @ np.add.reduce(reached, axis=1)) + 2  # start, goal

    # Slots reversed put the sources in ascending column order.
    parent_rows = (shape.dp_parent_base
                   + cand[..., ::-1].argmin(axis=2)).tolist()
    path = [(I - 1, c, ch), (I - 2, j, max(0, ch - I + 2))]
    for i in range(I - 3, -1, -1):
        j = parent_rows[i][j]
        path.append((i, j, max(0, ch - i)))
    path.reverse()
    return _finish(flight, initial_state, path, c_star, n_expanded,
                   n_generated, stages)

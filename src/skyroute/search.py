"""Minimum-fuel search over the (optionally corridor-masked) lattice.

`row_dp` is the solver `plan` runs. The heap-based `astar` and the
Python-loop `dp_oracle` are the references it is tested against.

Edge costs come from the performance model evaluated at a precomputed
per-row nominal mass (the searches need state-independent edge costs);
the winning path is then flown once with threaded mass for the reported
fuel. The heuristic is a provable lower bound on remaining fuel per
meter, so the search is optimal within the graph it is given.

An edge (i, j, h) -> (i+1, j', h') costs the same for every h and h':
the row's nominal mass is fixed, the weather is 2-D, distance ignores
altitude, and all levels of a column share one lat/lon. So each search
costs every edge it may relax in one `fly_segments` call, as an
(I-1, J, 3) table indexed by row, column and j' - j + 1. The column
windows that mask the table are the searches' only reachability rule.
An edge the batch refuses holds NaN; relaxing it flies it with
`fly_segment`, the only source of flight errors, which raises its error.

`row_dp` takes one numpy min-plus step per row over that table and reads
A*'s result from the g-table. The heuristic is consistent, so A* expands
exactly the nodes with g + h < C*; `expanded_nodes` counts them, plus the
goal. `generated_nodes` counts A*'s pushes: per node, the strict falls of
its best g over its expanded predecessors in A*'s pop order (f, -g, j, h).
Ties go as in A*: a node's parent is the first predecessor in pop order
that attains its g, and the smaller level wins, so interior row i lies at
level max(0, H // 2 - i). A table with a NaN inside the windows is solved
by `astar` instead, so flight errors stay lazy.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, replace

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


def _edge_table(lattice: Lattice, lo: np.ndarray, hi: np.ndarray,
                spec: AircraftSpec, masses: list[float], field: WeatherField,
                substeps: int) -> np.ndarray:
    """Nominal-mass cost of every edge between reachable columns.

    All edges are flown in one `fly_segments` call. The (I-1, J, 3) table
    is indexed by row, column and j' - j + 1; edges into the goal use slot
    1. Edges outside the column windows hold +inf, and edges the batch
    refuses hold NaN.
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
    table[mask] = fuel
    return table


def _edge_costs(lattice: Lattice, lo: np.ndarray, hi: np.ndarray,
                spec: AircraftSpec, masses: list[float], field: WeatherField,
                substeps: int):
    """`cost(u, v)` of an edge between reachable columns, from `_edge_table`.

    An edge the batch marked NaN is flown again with `fly_segment` when
    it is relaxed, which raises its OutOfDomain or Infeasible, as flying
    the edges one by one would.
    """
    costs = _edge_table(lattice, lo, hi, spec, masses, field,
                        substeps).tolist()
    last = lattice.dims[0] - 1

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

    Ties on f are broken toward larger g (deeper nodes), then smaller j,
    then smaller h, for run-to-run determinism.
    """
    t0 = time.perf_counter()
    masses = nominal_mass_profile(lattice, spec, initial_state, field, substeps)
    start, goal = _start_and_goal(lattice, corridor)
    lo, hi = _column_windows(lattice, corridor, start)
    cost = _edge_costs(lattice, lo, hi, spec, masses, field, substeps)
    h_table = _heuristics(lattice, spec, field).tolist()
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


def _falls(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """How A* would relax a node from candidates taken in last-axis order.

    Returns, per sequence, how often the running minimum (from +inf)
    strictly falls, which is one push each, and the position of the last
    fall, which is the parent A* keeps.
    """
    best = np.minimum.accumulate(vals, axis=-1)
    before = np.concatenate([np.full(vals.shape[:-1] + (1,), np.inf),
                             best[..., :-1]], axis=-1)
    falls = vals < before
    last = falls.shape[-1] - 1 - np.argmax(falls[..., ::-1], axis=-1)
    return falls.sum(axis=-1), last


def row_dp(lattice: Lattice, corridor: Corridor | None, spec: AircraftSpec,
           initial_state: AircraftState, field: WeatherField,
           substeps: int = DEFAULT_SUBSTEPS) -> SearchResult:
    """`astar`'s result, effort counts included, from a row-by-row DP.

    g[i+1][j'] = min over s of g[i][j] + table[i][j][s] takes one numpy
    step per row and adds in A*'s order, so the cost is bit-identical to
    A*'s. All levels of a column share g and h, and the heuristic is
    consistent, so A* pops, in (f, -g, j, h) order, exactly the nodes with
    g + h < C* before the goal. The rest follows from that order:

    - expanded: those nodes, nlev(i) levels per column of row i, plus the
      goal; nlev(i) counts the levels within i steps of H // 2.
    - generated: 1, plus per node the strict falls of the running minimum
      of g(u) + cost(u, v) over its expanded predecessor columns in pop
      order (only those popped before it, if it is expanded itself),
      weighted like the expansions; the goal counts once.
    - path: a node's parent column is the first predecessor in pop order
      that attains its g. A* pops the levels of a column smallest first,
      so interior row i is reported at level max(0, H // 2 - i).

    If the batch refused an edge inside the windows (a NaN entry), the
    reference `astar` runs instead: it flies such an edge only when it
    relaxes it, and `fly_segment` raises the edge's error.
    """
    t0 = time.perf_counter()
    masses = nominal_mass_profile(lattice, spec, initial_state, field, substeps)
    start, goal = _start_and_goal(lattice, corridor)
    lo, hi = _column_windows(lattice, corridor, start)
    table = _edge_table(lattice, lo, hi, spec, masses, field, substeps)
    if np.isnan(table).any():
        result = astar(lattice, corridor, spec, initial_state, field, substeps)
        return replace(result, wall_time_s=time.perf_counter() - t0)
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
        raise NoPath("corridor disconnects origin from destination")

    h = np.zeros((I - 1, J + 2))
    h[:, 1:-1] = _heuristics(lattice, spec, field)[:-1]
    f = g + h
    expanded = f < c_star
    rows = np.arange(I - 1)
    nlev = np.minimum(H - 1, ch + rows) - np.maximum(0, ch - rows) + 1

    # Predecessors of the interior nodes, in A*'s pop order per node.
    pf, pg = f[:-1, src], g[:-1, src]
    pj = np.broadcast_to(src, pf.shape)
    vf, vg = f[1:, 1:-1, None], g[1:, 1:-1, None]
    popped_before = (pf < vf) | ((pf == vf) & (
        (pg > vg) | ((pg == vg) & (pj < np.arange(1, J + 1)[:, None]))))
    live = expanded[:-1, src] & (~expanded[1:, 1:-1, None] | popped_before)
    order = np.lexsort((pj, -pg, pf))
    falls, last = _falls(np.take_along_axis(np.where(live, cand, np.inf),
                                            order, axis=-1))
    parent = np.arange(J) + 1 - np.take_along_axis(
        order, last[..., None], axis=-1)[..., 0]
    # Into the goal, from every column of row I-2.
    gl, fl = g[I - 2, 1:-1], f[I - 2, 1:-1]
    goal_order = np.lexsort((np.arange(J), -gl, fl))
    goal_falls, goal_last = _falls(np.where(expanded[I - 2, 1:-1], into_goal,
                                            np.inf)[goal_order])

    n_expanded = int(nlev @ expanded.sum(axis=1)) + 1
    n_generated = 1 + int(nlev[1:] @ falls.sum(axis=1)) + int(goal_falls)
    j = int(goal_order[goal_last])
    path = [goal, (I - 2, j, max(0, ch - I + 2))]
    parent_rows = parent.tolist()
    for i in range(I - 3, -1, -1):
        j = parent_rows[i][j]
        path.append((i, j, max(0, ch - i)))
    path.reverse()
    return _finish(lattice, spec, initial_state, field, substeps, path,
                   c_star, n_expanded, n_generated, t0)


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

"""Search lattice construction, adjacency, and corridor masking.

The lattice is an (I, J, H) node matrix between origin and destination.
Row 0 and row I-1 hold identical nodes (the endpoints); interior rows
spread J columns laterally around the great-circle track and H altitude
levels across ALT_BAND_M. All H levels of a column share one
lat/lon, so positions are stored once per column. Each row's track point
and bearing come from `_track`: `geo.track_points`, the scalar body that
`intermediate_point` runs, and `azimuth` (numpy's trig can round apart
from libm's); the columns of all rows come from one array pass,
`displace_many`. A corridor restricts each row to a window of w
consecutive columns around a coarse guide route, built in one array
pass; consecutive windows, like path nodes, are one column apart at most.
Every search starts at row 0's centre column and middle level, and row
0's window always holds that column.

What depends on the dims alone is worked out once per (I, J, H) by
`shape`, a bounded cache of read-only `Shape`s that every `Lattice`
carries: the centre column and level, the column offsets in half-widths,
the level altitudes, the start's cone of c ± i columns in row i, each
slot's target column, the row DP's index tables, and the cone's edge set
(`window_edges`), built when an unconstrained plan first needs it. The
key is the dims and nothing else: the trip, the weather, the guide, the
corridor and the half-width never enter it, so the column positions, a
corridor's windows and its edge set are built per plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DegenerateTrip, NoSuccessors, WidthOutOfRange
# great_circle_distance and intermediate_point are unused here; they stay
# because perfbench/tracing.py wraps them by name.
from .geo import (GeoPoint, _copy, azimuth, displace_many,
                  great_circle_distance,
                  great_circle_distances, intermediate_point,
                  intermediate_points, track_points)

NodeIndex = tuple[int, int, int]

#: Lowest and highest of the H altitude levels (meters).
ALT_BAND_M = (9_000.0, 11_000.0)

#: How many lattice shapes `shape` keeps. A process plans few sizes (a
#: width sweep keeps one); a 161x41x5 shape holds about 1.3 MB of indices.
SHAPE_CACHE_SIZE = 8


@dataclass(frozen=True)
class CoarseRoute:
    """Guide trajectory of n waypoints, origin first and destination last."""

    waypoints: tuple[GeoPoint, ...]

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise ValueError("coarse route needs at least 2 waypoints")
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            if a.same_position(b):
                raise ValueError("consecutive coarse waypoints coincide")

    @property
    def n(self) -> int:
        return len(self.waypoints)


class EdgeSet(NamedTuple):
    """The edges of a lattice's column windows, and where a flight finds
    them.

    Edge (i, j, s) leaves column j of row i through slot s = j' - j + 1;
    every edge into the goal row uses slot 1. The flown edges are the
    window edges plus the centre column's slot-1 legs, which a corridor
    may leave out, numbered in row-major (row, column, slot) order. Nodes
    are flat indices into the (I, J) column arrays. Every array is
    read-only.
    """

    window: np.ndarray       # (I-1, J, 3) bool: the edge lies in the windows
    index: np.ndarray        # (I-1, J, 3): a flown edge's number, -1 elsewhere
    touched: np.ndarray      # the nodes a flown edge touches, ascending
    src_node: np.ndarray     # each flown edge's start's place in `touched`
    dst_node: np.ndarray     # and its end's
    window_rows: np.ndarray  # each window edge's row, in row-major order
    window_pos: np.ndarray   # and its number among the flown edges
    centre_pos: np.ndarray   # (I-1,) the number of each row's centre leg


@dataclass(frozen=True, eq=False)
class Shape:
    """What the dims of an (I, J, H) lattice fix, whatever its trip.

    `lo` and `hi` bound the start's cone, c ± i in row i clipped to the
    grid, and row I-1 holds only the goal column c. `target[i, j, s]` is
    the column slot s of (i, j) enters, c in the last row. The row DP pads
    every row with one +inf column on each side: `dp_src[j', s]` =
    j' - s + 2 is the padded column the edge into (i+1, j') through slot s
    leaves, `dp_levels[i]` = min(2i + 1, H) the levels of row i, and
    `dp_parent_base[j']` = j' - 1 the column that reversed slot 0 leaves.
    Every array is read-only; `shape` builds one per dims.
    """

    dims: tuple[int, int, int]
    center_column: int
    center_level: int
    offsets: np.ndarray          # (J,) column offsets in half-widths
    alts_m: tuple[float, ...]    # the H level altitudes
    lo: np.ndarray               # (I,) first column of the cone per row
    hi: np.ndarray               # (I,) and its last
    target: np.ndarray           # (I-1, J, 3)
    dp_src: np.ndarray           # (J, 3)
    dp_levels: np.ndarray        # (I-1,)
    dp_parent_base: np.ndarray   # (J,)

    @cached_property
    def cone(self) -> EdgeSet:
        """`window_edges` of the cone, built when an unconstrained plan
        first asks: a corridor plan never reads it."""
        return window_edges(self.target, self.lo, self.hi)


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def window_edges(target: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> EdgeSet:
    """The edge set of the column windows `lo`..`hi` (per row, inclusive)
    on the lattice whose slot targets are `target`."""
    n_rows, J, _slots = target.shape
    c = (J - 1) // 2
    col = np.arange(J)[:, None]
    window = ((lo[:-1, None, None] <= col) & (col <= hi[:-1, None, None])
              & (lo[1:, None, None] <= target)
              & (target <= hi[1:, None, None]))
    window[n_rows - 1, :, 0::2] = False
    flown = window.copy()
    flown[:, c, 1] = True
    edges = flown.ravel().nonzero()[0]
    index = np.empty(flown.shape, dtype=int)
    index.fill(-1)
    index.flat[edges] = np.arange(edges.size)
    src = edges // 3
    dst = (src // J + 1) * J + target.ravel().take(edges)
    touched = np.zeros((n_rows + 1) * J, dtype=bool)
    touched[src] = touched[dst] = True
    node = touched.cumsum() - 1         # a touched node's place in touched
    out = EdgeSet(window, index, touched.nonzero()[0],
                  node.take(src), node.take(dst), window.nonzero()[0],
                  index[window], index[:, c, 1])
    _read_only(*out)
    return out


# typed: a dim of another type (a float, say) builds its own Shape, so it
# fails or passes as it would uncached.
@lru_cache(maxsize=SHAPE_CACHE_SIZE, typed=True)
def shape(I: int, J: int, H: int) -> Shape:
    """The `Shape` of an (I, J, H) lattice, from a cache of the
    `SHAPE_CACHE_SIZE` most recently used ones; `shape.__wrapped__` builds
    it afresh."""
    if I < 2 or J < 1 or J % 2 == 0 or H < 1:
        raise ValueError("require I >= 2, odd J >= 1, H >= 1")
    alt_lo, alt_hi = ALT_BAND_M
    if H == 1:
        alts = (0.5 * (alt_lo + alt_hi),)
    else:
        alts = tuple(alt_lo + h * (alt_hi - alt_lo) / (H - 1) for h in range(H))
    c = (J - 1) // 2
    offsets = (np.arange(J) - c) / max(c, 1)
    rows = np.arange(I)
    lo, hi = np.maximum(c - rows, 0), np.minimum(c + rows, J - 1)
    lo[I - 1] = hi[I - 1] = c
    target = np.add(np.arange(J)[:, None], np.arange(-1, 2),
                    out=np.empty((I - 1, J, 3), dtype=int))
    target[I - 2] = c                   # every column enters the goal
    dp_src = np.arange(2, J + 2)[:, None] - np.arange(3)
    dp_levels = np.minimum(np.arange(1, 2 * I - 2, 2), H)
    dp_parent_base = np.arange(-1, J - 1)
    _read_only(offsets, lo, hi, target, dp_src, dp_levels, dp_parent_base)
    return Shape((I, J, H), c, H // 2, offsets, alts, lo, hi, target,
                 dp_src, dp_levels, dp_parent_base)


@dataclass
class Lattice:
    """The (I, J, H) node matrix: its `Shape` and its column positions.

    `lat_deg` and `lon_deg` are (I, J) arrays of column positions (rows 0
    and I-1 repeat the origin and the destination).
    """

    shape: Shape
    lat_deg: np.ndarray
    lon_deg: np.ndarray
    origin: GeoPoint
    destination: GeoPoint

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.shape.dims

    @property
    def alts_m(self) -> tuple[float, ...]:
        return self.shape.alts_m

    @property
    def center_column(self) -> int:
        return self.shape.center_column

    @property
    def center_level(self) -> int:
        return self.shape.center_level

    def node(self, idx: NodeIndex) -> GeoPoint:
        i, j, h = idx
        if i == 0:
            return self.origin
        if i == self.dims[0] - 1:
            return self.destination
        return GeoPoint(float(self.lat_deg[i, j]), float(self.lon_deg[i, j]),
                        self.alts_m[h])


@dataclass
class Corridor:
    """Per-row column windows of fixed width w, at most one column apart
    from row to row."""

    j_min: tuple[int, ...]   # per row, inclusive
    width: int

    def __post_init__(self):
        if any(abs(b - a) > 1 for a, b in zip(self.j_min, self.j_min[1:])):
            raise ValueError("consecutive windows more than one column apart")

    def j_max(self, i: int) -> int:
        return self.j_min[i] + self.width - 1


def _track(origin: GeoPoint, destination: GeoPoint,
           I: int) -> tuple[list[float], list[float], list[float]]:
    """Latitudes, longitudes and bearings to the destination of the I-2
    interior track points, row i at fraction i/(I-1)."""
    points = track_points(origin.lat_deg, origin.lon_deg, destination.lat_deg,
                          destination.lon_deg,
                          [i / (I - 1) for i in range(1, I - 1)])
    return ([lat for lat, _ in points], [lon for _, lon in points],
            [azimuth(lat, lon, destination.lat_deg, destination.lon_deg)
             for lat, lon in points])


def build_lattice(origin: GeoPoint, destination: GeoPoint, I: int, J: int, H: int,
                  lateral_halfwidth_m: float) -> Lattice:
    """Construct the lattice; see module docstring for the layout."""
    if origin.same_position(destination):
        raise DegenerateTrip("origin and destination coincide")
    layout = shape(I, J, H)
    if not (math.isfinite(lateral_halfwidth_m) and lateral_halfwidth_m >= 0.0):
        raise ValueError("lateral_halfwidth_m must be finite and >= 0: "
                         f"{lateral_halfwidth_m}")
    offsets = layout.offsets * lateral_halfwidth_m
    # A column at offset 0 (the centre; every column at half-width 0) is
    # the track point itself and never goes through displace_many.
    moved = offsets != 0.0
    track_lat, track_lon, bearing = _track(origin, destination, I)
    # Lateral unit vector: 90 degrees right of the local track bearing.
    perp_e = np.array([math.cos(b) for b in bearing])[:, None]
    perp_n = np.array([-math.sin(b) for b in bearing])[:, None]
    # Each row's point in every column, then the moved columns displaced.
    row_lat = np.array([origin.lat_deg, *track_lat, destination.lat_deg])
    row_lon = np.array([origin.lon_deg, *track_lon, destination.lon_deg])
    row_lat, row_lon = row_lat[:, None], row_lon[:, None]
    lat, lon = row_lat.repeat(J, axis=1), row_lon.repeat(J, axis=1)
    side = offsets[moved]
    if side.size:
        lat[1:-1, moved], lon[1:-1, moved] = displace_many(
            row_lat[1:-1], row_lon[1:-1], perp_e * side, perp_n * side)
    return Lattice(layout, lat, lon, origin, destination)


def successors(lattice: Lattice, idx: NodeIndex) -> list[NodeIndex]:
    """Forward adjacency: next row, |dj| <= 1, |dh| <= 1.

    Transitions into the final row collapse to the single logical
    destination node, since all row I-1 nodes are identical.
    """
    I, J, H = lattice.dims
    i, j, h = idx
    if i >= I - 1:
        raise NoSuccessors(f"node {idx} is in the final row")
    if i + 1 == I - 1:
        return [(I - 1, lattice.center_column, lattice.center_level)]
    out = []
    for dj in (-1, 0, 1):
        jj = j + dj
        if not (0 <= jj < J):
            continue
        for dh in (-1, 0, 1):
            hh = h + dh
            if 0 <= hh < H:
                out.append((i + 1, jj, hh))
    return out


def _guide_points(coarse: CoarseRoute, rows: np.ndarray,
                  I: int) -> tuple[np.ndarray, np.ndarray]:
    """Guide points (lat, lon) of the given rows of an I-row lattice. Row i
    lies i/(I-1) of the way along the coarse route's m = n-1 segments, as
    lattice row i lies along the trip: on segment floor(i*m/(I-1)), clamped
    to m-1, at in-segment fraction (i*m - seg*(I-1))/(I-1). Row I-1 is the
    destination."""
    m = coarse.n - 1
    scaled = rows * m
    seg = np.minimum(scaled // (I - 1), m - 1)
    waypoints = np.array([(p.lat_deg, p.lon_deg) for p in coarse.waypoints])
    start, end = waypoints.take(seg, axis=0), waypoints.take(seg + 1, axis=0)
    return intermediate_points(start[:, 0], start[:, 1], end[:, 0],
                               end[:, 1], (scaled - seg * (I - 1)) / (I - 1))


def build_corridor(lattice: Lattice, coarse: CoarseRoute, w: int) -> Corridor:
    """Per-row windows of w columns around the guide's nearest column.

    Among columns within 1e-9 m of a row's nearest, the one nearest the
    centre wins, lower j first. Windows are shifted inward to fit [0, J-1],
    and each moves at most one column from the previous row's, as a path
    does: where the guide turns faster, the corridor lags behind it. Every
    row-0 column is the origin, so the centre column wins there, and the
    shift never moves it out of row 0's window (w <= J, J odd).
    """
    I, J, H = lattice.dims
    if not (1 <= w <= J):
        raise WidthOutOfRange(f"width {w} outside [1, {J}]")
    guide_lat, guide_lon = _guide_points(coarse, np.arange(I), I)
    dist = great_circle_distances(lattice.lat_deg, lattice.lon_deg,
                                  guide_lat[:, None], guide_lon[:, None])
    nearest = np.minimum.reduce(dist, axis=1, keepdims=True)
    nearest += 1e-9
    # Each near column's distance from the centre, and J at the others.
    off_center = np.empty(dist.shape, dtype=int)
    off_center.fill(J)
    c = lattice.center_column
    _copy(np.abs(np.arange(-c, J - c)), out=off_center, where=dist <= nearest)
    wanted = np.minimum(np.maximum(off_center.argmin(axis=1) - (w - 1) // 2,
                                   0), J - w).tolist()
    j_min = wanted[:1]
    for lo in wanted[1:]:
        j_min.append(min(max(lo, j_min[-1] - 1), j_min[-1] + 1))
    return Corridor(tuple(j_min), w)


def is_reachable(corridor: Corridor, idx: NodeIndex, I: int) -> bool:
    """True iff the node's column lies in its row window.

    Rows 0 and I-1 are always reachable (identical endpoint nodes).
    """
    i, j, _h = idx
    if i == 0 or i == I - 1:
        return True
    return corridor.j_min[i] <= j <= corridor.j_max(i)

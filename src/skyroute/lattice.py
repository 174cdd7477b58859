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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass
class Lattice:
    """The (I, J, H) node matrix plus its build parameters.

    `lat_deg` and `lon_deg` are (I, J) arrays of column positions (rows 0
    and I-1 repeat the origin and the destination); `alts_m` holds the H
    level altitudes.
    """

    dims: tuple[int, int, int]
    lat_deg: np.ndarray
    lon_deg: np.ndarray
    alts_m: tuple[float, ...]
    origin: GeoPoint
    destination: GeoPoint

    def node(self, idx: NodeIndex) -> GeoPoint:
        i, j, h = idx
        if i == 0:
            return self.origin
        if i == self.dims[0] - 1:
            return self.destination
        return GeoPoint(float(self.lat_deg[i, j]), float(self.lon_deg[i, j]),
                        self.alts_m[h])

    @property
    def center_column(self) -> int:
        return (self.dims[1] - 1) // 2

    @property
    def center_level(self) -> int:
        return self.dims[2] // 2


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
    if I < 2 or J < 1 or J % 2 == 0 or H < 1:
        raise ValueError("require I >= 2, odd J >= 1, H >= 1")
    alt_lo, alt_hi = ALT_BAND_M
    if not (math.isfinite(lateral_halfwidth_m) and lateral_halfwidth_m >= 0.0):
        raise ValueError("lateral_halfwidth_m must be finite and >= 0: "
                         f"{lateral_halfwidth_m}")
    if H == 1:
        alts = (0.5 * (alt_lo + alt_hi),)
    else:
        alts = tuple(alt_lo + h * (alt_hi - alt_lo) / (H - 1) for h in range(H))

    center = (J - 1) // 2
    half = max(center, 1)
    offsets = (np.arange(J) - center) / half * lateral_halfwidth_m
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
    return Lattice((I, J, H), lat, lon, alts, origin, destination)


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

"""Search lattice construction, adjacency, and corridor masking.

The lattice is an (I, J, H) node matrix between origin and destination.
Row 0 and row I-1 hold identical nodes (the endpoints); interior rows
spread J columns laterally around the great-circle track and H altitude
levels across ALT_BAND_M. All H levels of a column share one
lat/lon, so positions are stored once per column. Each row's track point
and bearing come from `geo.track_points`, the scalar formulas that
`intermediate_point` and `azimuth` run (numpy's trig can round
apart from libm's); the columns of all rows come from one array pass,
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
from .geo import (GeoPoint, displace_many, great_circle_distance,
                  great_circle_distances, intermediate_point,
                  intermediate_points, track_points as _track)

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
    lat = np.empty((I, J))
    lon = np.empty((I, J))
    lat[0], lon[0] = origin.lat_deg, origin.lon_deg
    lat[I - 1], lon[I - 1] = destination.lat_deg, destination.lon_deg
    track_lat = np.array(track_lat)[:, None]
    track_lon = np.array(track_lon)[:, None]
    lat[1:-1], lon[1:-1] = track_lat, track_lon
    side = offsets[moved]
    lat[1:-1, moved], lon[1:-1, moved] = displace_many(
        track_lat, track_lon, perp_e * side, perp_n * side)
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
    seg = np.minimum(rows * m // (I - 1), m - 1)
    lat, lon = np.array([(p.lat_deg, p.lon_deg) for p in coarse.waypoints]).T
    return intermediate_points(lat[seg], lon[seg], lat[seg + 1], lon[seg + 1],
                               (rows * m - seg * (I - 1)) / (I - 1))


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
    near = dist <= dist.min(axis=1, keepdims=True) + 1e-9
    off_center = np.where(near, np.abs(np.arange(J) - lattice.center_column),
                          J)
    wanted = np.clip(off_center.argmin(axis=1) - (w - 1) // 2, 0,
                     J - w).tolist()
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

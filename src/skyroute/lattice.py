"""Search lattice construction, adjacency, and corridor masking.

The lattice is an (I, J, H) node matrix between origin and destination.
Row 0 and row I-1 hold identical nodes (the endpoints); interior rows
spread J columns laterally around the great-circle track and H altitude
levels across the configured band. All H levels of a column share one
lat/lon, so positions are stored once per column. A corridor restricts
each row to a window of w consecutive columns around a coarse guide route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTrip, NoSuccessors, WidthOutOfRange
# great_circle_distance is unused here; it stays because
# perfbench/tracing.py wraps it by name.
from .geo import (GeoPoint, great_circle_distance, great_circle_distances,
                  initial_bearing, intermediate_point, displace, PlaneVector)

NodeIndex = tuple[int, int, int]


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
    lateral_halfwidth_m: float

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

    def all_indices(self):
        I, J, H = self.dims
        for i in range(I):
            for j in range(J):
                for h in range(H):
                    yield (i, j, h)


@dataclass
class Corridor:
    """Per-row reachable column windows of fixed width w."""

    j_min: tuple[int, ...]   # per row, inclusive
    width: int
    start_node: NodeIndex

    def j_max(self, i: int) -> int:
        return self.j_min[i] + self.width - 1


def build_lattice(origin: GeoPoint, destination: GeoPoint, I: int, J: int, H: int,
                  lateral_halfwidth_m: float,
                  alt_band: tuple[float, float] = (9_000.0, 11_000.0)) -> Lattice:
    """Construct the lattice; see module docstring for the layout."""
    if origin.same_position(destination):
        raise DegenerateTrip("origin and destination coincide")
    if I < 2 or J < 1 or J % 2 == 0 or H < 1:
        raise ValueError("require I >= 2, odd J >= 1, H >= 1")
    alt_lo, alt_hi = alt_band
    if alt_hi < alt_lo:
        raise ValueError("alt_band must be (low, high)")
    if not (math.isfinite(alt_hi) and alt_lo >= 0.0):
        raise ValueError(f"alt_band must be finite and >= 0: {alt_band}")
    if H == 1:
        alts = (0.5 * (alt_lo + alt_hi),)
    else:
        alts = tuple(alt_lo + h * (alt_hi - alt_lo) / (H - 1) for h in range(H))

    center = (J - 1) // 2
    half = max(center, 1)
    lat = np.empty((I, J))
    lon = np.empty((I, J))
    lat[0], lon[0] = origin.lat_deg, origin.lon_deg
    lat[I - 1], lon[I - 1] = destination.lat_deg, destination.lon_deg
    for i in range(1, I - 1):
        track_pt = intermediate_point(origin, destination, i / (I - 1))
        bearing = initial_bearing(track_pt, destination)
        # Lateral unit vector: 90 degrees right of the local track bearing.
        perp_e = math.cos(bearing)
        perp_n = -math.sin(bearing)
        for j in range(J):
            offset = (j - center) / half * lateral_halfwidth_m
            if offset == 0.0:
                base = track_pt
            else:
                base = displace(track_pt, PlaneVector(perp_e * offset, perp_n * offset))
            lat[i, j], lon[i, j] = base.lat_deg, base.lon_deg
    return Lattice((I, J, H), lat, lon, alts, origin, destination,
                   lateral_halfwidth_m)


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


def _coarse_row_point(coarse: CoarseRoute, i: int, I: int) -> GeoPoint:
    """Guide point for row i: piecewise interpolation along the coarse route.

    With m = n-1 segments and s = I/m kept rational, the segment index is
    p = floor(i*m/I) (clamped) and the in-segment fraction (i*m mod I)/I.
    """
    m = coarse.n - 1
    p = min((i * m) // I, m - 1)
    frac = (i * m - p * I) / I
    return intermediate_point(coarse.waypoints[p], coarse.waypoints[p + 1], frac)


def build_corridor(lattice: Lattice, coarse: CoarseRoute, w: int) -> Corridor:
    """Per-row windows of w columns centered on the guide's nearest column.

    Windows are shifted inward to fit [0, J-1]; a forward pass limits the
    center shift between consecutive rows so at least one adjacency
    transition always exists between windows (connectivity).
    """
    I, J, H = lattice.dims
    if not (1 <= w <= J):
        raise WidthOutOfRange(f"width {w} outside [1, {J}]")
    center = lattice.center_column

    targets = [_coarse_row_point(coarse, i, I) for i in range(I)]
    dist = great_circle_distances(
        lattice.lat_deg, lattice.lon_deg,
        np.array([[t.lat_deg] for t in targets]),
        np.array([[t.lon_deg] for t in targets])).tolist()
    j_min: list[int] = []
    prev_min: int | None = None
    for i in range(I):
        best_j = center
        best_d = math.inf
        for j, d in enumerate(dist[i]):
            # Ties broken toward the lattice centerline.
            if d < best_d - 1e-9 or (abs(d - best_d) <= 1e-9
                                     and abs(j - center) < abs(best_j - center)):
                best_d = d
                best_j = j
        lo = best_j - (w - 1) // 2
        lo = min(max(lo, 0), J - w)
        if prev_min is not None:
            # Keep |window shift| <= w so consecutive windows stay connectable.
            lo = min(max(lo, prev_min - w), prev_min + w)
            lo = min(max(lo, 0), J - w)
        j_min.append(lo)
        prev_min = lo

    start = (0, j_min[0] + (w - 1) // 2, lattice.center_level)
    return Corridor(tuple(j_min), w, start)


def is_reachable(corridor: Corridor, idx: NodeIndex, I: int) -> bool:
    """True iff the node's column lies in its row window.

    Rows 0 and I-1 are always reachable (identical endpoint nodes).
    """
    i, j, _h = idx
    if i == 0 or i == I - 1:
        return True
    return corridor.j_min[i] <= j <= corridor.j_max(i)

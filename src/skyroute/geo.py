"""Geodesic and planar-rotation primitives.

Spherical earth (R = 6,371,000 m). Local planar work uses an
equirectangular projection scaled by the cosine of the mid-latitude, for
displacements up to 6,000 km. Beyond that distance `displacement` gives
the great-circle distance along the initial bearing instead, and
`displace_at` refuses the step. Rotation angles are radians,
counter-clockwise positive.

Each formula has one function on plain floats, positions as (lat, lon)
degrees: `haversine`, `azimuth`, `displacement`, `displace_at`,
`rotate_by`, `trip_rotation` and `track_points`. The guide's rollout, the
trainer and the lattice's track call these. Four object forms stay in the
package, each a wrapper over its float body, because `skyroute.__all__`
and perfbench's tracer name them: `great_circle_distance` (over
`haversine`) and `intermediate_point` (`track_points` at one fraction,
with altitude) here, `weather.sample` and `perfmodel.fly_segment`.

Points along a track, and a flight's direction, are computed on n-vectors
(Gade, "A Non-singular Horizontal Position Representation", J. Navigation
63(3), 2010): `unit_vector` is a position's unit vector from the earth's
centre. `slerp_point` gives the point a fraction f along the great circle
from unit vector a to b, of delta radians, as the direction of
sin((1 - f) delta) a + sin(f delta) b. `heading` and `along_track` give
the wind along the track from its normal n = a x b: the track's direction
at a point p of it is n x p, with no azimuth and no trig of a bearing.
`track_points` and `intermediate_points` go through `slerp_point`, and
so do `perfmodel`'s flights, which take each leg's unit vectors once; a
flight samples the weather exactly where `intermediate_point` puts a
piece's midpoint. A direction taken from a x b is good to about 1e-16 /
delta radians: to 1e-12 on a 1 km leg. A leg whose two unit vectors
coincide (under about 1e-9 m), or whose direction underflows (under about
1e-70 m), has none.

`great_circle_distances`, `initial_bearings`, `unit_vectors`,
`intermediate_points`, `slerp_points`, `headings`, `along_tracks` and
`displace_many` are the array forms of the float functions: they take
lat/lon arrays in degrees, or unit vectors as (x, y, z) arrays, and
broadcast them. The two forms share one body per formula (`_formulas`,
built over `math` and over numpy), so they differ only where numpy's
sin/cos/asin/atan2/hypot round differently from the C library's (a few
ulp), and in their guards: the scalar forms return early or raise where
the array forms mask. Where numpy's sin and cos round apart from the C
library's, the two forms' unit vectors do too, and the directions of
legs under a few kilometres differ by more than rounding.
`intermediate_points` also takes an array of fractions; `displace_many`
refuses what `displace_at` refuses from a valid `GeoPoint`, with the same
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTrip, DistanceOutOfRange

EARTH_RADIUS_M = 6_371_000.0

#: Planar projection validity bound (meters).
MAX_PLANAR_DISTANCE_M = 6_000_000.0


def normalize_lon(lon_deg: float) -> float:
    """Wrap a longitude into (-180, 180]."""
    lon = math.fmod(lon_deg, 360.0)
    if lon <= -180.0:
        lon += 360.0
    elif lon > 180.0:
        lon -= 360.0
    return lon


def _normalize_lons(lon_deg: np.ndarray) -> np.ndarray:
    """Array form of normalize_lon. Longitudes all within (-180, 180), the
    usual case, are left as they are; otherwise a longitude moved up by 360
    lands in (0, 180], so the second step never moves it back."""
    lon = np.asarray(np.fmod(lon_deg, 360.0))     # scalars too
    if np.maximum.reduce(np.abs(lon), axis=None, initial=0.0) < 180.0:
        return lon                                  # NaN takes the steps
    np.add(lon, 360.0, out=lon, where=lon <= -180.0)
    np.subtract(lon, 360.0, out=lon, where=lon > 180.0)
    return lon


#: `_copy(src, out=dst, where=mask)` writes src's bits into dst where mask
#: holds, broadcasting src and mask as `np.copyto` does, in one ufunc call.
_copy = np.positive


@dataclass(frozen=True)
class GeoPoint:
    """Position as latitude/longitude in degrees plus altitude in meters."""

    lat_deg: float
    lon_deg: float
    alt_m: float = 0.0

    def __post_init__(self):
        if not (-90.0 <= self.lat_deg <= 90.0):
            raise ValueError(f"latitude out of range: {self.lat_deg}")
        if not math.isfinite(self.lon_deg):
            raise ValueError(f"longitude not finite: {self.lon_deg}")
        if not (math.isfinite(self.alt_m) and self.alt_m >= 0.0):
            raise ValueError(f"altitude must be finite and >= 0: {self.alt_m}")
        object.__setattr__(self, "lon_deg", normalize_lon(self.lon_deg))

    def same_position(self, other: "GeoPoint") -> bool:
        """True if lat/lon coincide (altitude ignored)."""
        return self.lat_deg == other.lat_deg and self.lon_deg == other.lon_deg


def _formulas(m, asin, atan2, minimum, normalize_lon):
    """The formulas that have a scalar and an array form, each written once,
    over `math` for floats or numpy for arrays (numpy before 2.0 has no
    asin or atan2). The library functions are closure variables, so a
    scalar call costs what a body written against `math` costs. A unit
    vector is a tuple (x, y, z) of floats or of arrays."""
    radians, degrees, sin, cos, sqrt, hypot = (
        m.radians, m.degrees, m.sin, m.cos, m.sqrt, m.hypot)

    def distance(lat1, lon1, lat2, lon2):
        """Haversine distance in meters."""
        phi1 = radians(lat1)
        phi2 = radians(lat2)
        dphi = radians(lat2 - lat1)
        dlam = radians(normalize_lon(lon2 - lon1))
        s = sin(dphi / 2.0) ** 2 + cos(phi1) * cos(phi2) * sin(dlam / 2.0) ** 2
        return 2.0 * EARTH_RADIUS_M * asin(minimum(1.0, sqrt(s)))

    def azimuth(lat1, lon1, lat2, lon2):
        """Forward azimuth, radians clockwise from north."""
        phi1 = radians(lat1)
        phi2 = radians(lat2)
        dphi = radians(lat2 - lat1)
        dlam = radians(normalize_lon(lon2 - lon1))
        y = sin(dlam) * cos(phi2)
        # cos(phi1)sin(phi2) - sin(phi1)cos(phi2)cos(dlam), without cancellation
        x = sin(dphi) + 2.0 * sin(phi1) * cos(phi2) * sin(dlam / 2.0) ** 2
        return atan2(y, x)

    def unit_vector(lat, lon):
        """The n-vector of (lat, lon) degrees: the unit vector from the
        earth's centre, x toward (0, 0) and z toward the north pole."""
        phi = radians(lat)
        lam = radians(lon)
        cos_phi = cos(phi)
        return cos_phi * cos(lam), cos_phi * sin(lam), sin(phi)

    def slerp(a, b, fa, fb):
        """(lat, lon) of fa a + fb b: the point a fraction f along the great
        circle of delta radians from unit vector a to b, given fa =
        sin((1 - f) delta) and fb = sin(f delta). Their common divisor
        sin(delta) is left out, since lat and lon depend on the direction
        only; the point is undefined where delta is 0."""
        x = fa * a[0] + fb * b[0]
        y = fa * a[1] + fb * b[1]
        z = fa * a[2] + fb * b[2]
        return degrees(atan2(z, hypot(x, y))), degrees(atan2(y, x))

    def heading(a, b):
        """The direction terms of the great circle from unit vector a to b,
        from its normal n = a x b, |n| = sin(delta): (east, north_a,
        north_b) = (|n| n_z, (n x a)_z, (n x b)_z). At p = fa a + fb b the
        track's direction is n x p; with fa and fb as in `slerp`, times
        cos(lat) and sin(delta)^2 its east part is `east` everywhere
        (Clairaut's relation) and its north part fa north_a + fb north_b.
        All three are 0 where a x b is."""
        nx = a[1] * b[2] - a[2] * b[1]
        ny = a[2] * b[0] - a[0] * b[2]
        nz = a[0] * b[1] - a[1] * b[0]
        return (sqrt(nx * nx + ny * ny + nz * nz) * nz, nx * a[1] - ny * a[0],
                nx * b[1] - ny * b[0])

    def along_track(east, north_a, north_b, fa, fb, wind_east, wind_north):
        """(w . d, |d|) for the wind w and `heading`'s direction d of the
        track at fa a + fb b: the wind along the track is their ratio,
        where |d| is not 0. |d| is 0 where a x b is, and underflows to it
        on tracks under about 1e-77 radians."""
        north = fa * north_a + fb * north_b
        return (wind_east * east + wind_north * north,
                sqrt(east * east + north * north))

    def lat_step(lat_deg, north_m):
        """Latitude north_m meters north of lat_deg, and the cosine of the
        mid-latitude, which scales an east step."""
        dlat = degrees(north_m / EARTH_RADIUS_M)
        return lat_deg + dlat, cos(radians(lat_deg + 0.5 * dlat))

    return (distance, azimuth, unit_vector, slerp, heading, along_track,
            lat_step)


(haversine, azimuth, unit_vector, _slerp, heading, along_track,
 _lat_step) = _formulas(math, math.asin, math.atan2, min, normalize_lon)
(great_circle_distances, initial_bearings, unit_vectors, _slerps, headings,
 along_tracks, _lat_steps) = _formulas(np, np.arcsin, np.arctan2, np.minimum,
                                       _normalize_lons)


def great_circle_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Haversine distance in meters; altitude ignored."""
    return haversine(a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg)


def slerp_point(lon1, lon2, a, b, fa, fb):
    """(lat, lon) of fa a + fb b (`_slerp`) on the track from unit vector
    a, at longitude lon1, to b, at lon2; the longitude wrapped into
    (-180, 180]. A track on one meridian keeps its longitude exactly."""
    lat, lon = _slerp(a, b, fa, fb)
    if lon1 == lon2:
        return lat, normalize_lon(lon1)
    # atan2 in degrees lies in [-180, 180], where wrapping into (-180, 180]
    # only moves -180.
    return lat, 180.0 if lon == -180.0 else lon


def intermediate_point(a: GeoPoint, b: GeoPoint, fraction: float) -> GeoPoint:
    """Point at the given fraction along the great circle a->b.

    Altitude is interpolated linearly. fraction 0 returns a, 1 returns b.
    When a and b share a longitude the track is a meridian arc, and the
    point keeps that longitude exactly (wrapped into (-180, 180]).
    """
    if fraction <= 0.0:
        return a
    if fraction >= 1.0:
        return b
    (lat, lon), = track_points(a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg,
                               (fraction,))
    return GeoPoint(lat, lon, a.alt_m + fraction * (b.alt_m - a.alt_m))


def track_points(lat1: float, lon1: float, lat2: float, lon2: float,
                 fractions) -> list[tuple[float, float]]:
    """(lat, lon) of the points at each of `fractions`, all in (0, 1),
    along the great circle (lat1, lon1) -> (lat2, lon2), on plain floats.
    Distinct points too close for the haversine give the start point."""
    delta = haversine(lat1, lon1, lat2, lon2) / EARTH_RADIUS_M
    if delta == 0.0:
        return [(lat1, lon1)] * len(fractions)
    a, b = unit_vector(lat1, lon1), unit_vector(lat2, lon2)
    return [slerp_point(lon1, lon2, a, b, math.sin((1.0 - f) * delta),
                        math.sin(f * delta)) for f in fractions]


def slerp_points(lon1, lon2, a, b, fa, fb) -> tuple[np.ndarray, np.ndarray]:
    """Array form of slerp_point."""
    lat, lon = _slerps(a, b, fa, fb)
    lon = np.asarray(lon)
    lon[lon == -180.0] = 180.0
    meridian = np.equal(lon1, lon2)
    if np.logical_or.reduce(meridian, axis=None):
        _copy(_normalize_lons(lon1), out=lon, where=meridian)
    return lat, lon


def intermediate_points(lat1, lon1, lat2, lon2,
                        fraction) -> tuple[np.ndarray, np.ndarray]:
    """Array form of intermediate_point.

    `fraction` is a scalar or an array that broadcasts against the pairs.
    Returns (lat, lon) arrays in degrees; fraction 0 returns the start
    points and 1 the end points, and a zero-length pair its start point.
    Pairs on one meridian keep its longitude, as in the scalar form.
    """
    delta = great_circle_distances(lat1, lon1, lat2, lon2) / EARTH_RADIUS_M
    lat, lon = slerp_points(lon1, lon2, unit_vectors(lat1, lon1),
                            unit_vectors(lat2, lon2),
                            np.sin((1.0 - fraction) * delta),
                            np.sin(fraction * delta))
    # lat and lon have the shape of all inputs together: each copy below
    # broadcasts an input into them where its mask holds, the last winning.
    lat = np.asarray(lat)
    for mask, lat_at, lon_at in ((delta == 0.0, lat1, lon1),
                                 (np.greater_equal(fraction, 1.0), lat2, lon2),
                                 (np.less_equal(fraction, 0.0), lat1, lon1)):
        _copy(lat_at, out=lat, where=mask)
        _copy(lon_at, out=lon, where=mask)
    return lat, lon


def displacement(lat1: float, lon1: float, lat2: float, lon2: float,
                 d: float) -> tuple[float, float]:
    """(east, north) meters of point 2 relative to point 1, given d =
    their haversine distance.

    Within MAX_PLANAR_DISTANCE_M: the equirectangular projection scaled by
    cos of the mid-latitude, the exact inverse of displace_at. Beyond it:
    the great-circle distance along the initial bearing.
    """
    if d > MAX_PLANAR_DISTANCE_M:
        theta = azimuth(lat1, lon1, lat2, lon2)
        return d * math.sin(theta), d * math.cos(theta)
    dlat = lat2 - lat1
    dlon = normalize_lon(lon2 - lon1)
    mid_lat = math.radians(lat1 + 0.5 * dlat)
    north = math.radians(dlat) * EARTH_RADIUS_M
    east = math.radians(dlon) * math.cos(mid_lat) * EARTH_RADIUS_M
    return east, north


def displace_at(lat: float, lon: float, east_m: float,
                north_m: float) -> tuple[float, float]:
    """Move (lat, lon) by a planar vector; inverse of displacement within
    MAX_PLANAR_DISTANCE_M. Returns (lat, lon), the longitude wrapped into
    (-180, 180] as GeoPoint wraps it.

    A non-finite vector raises ValueError. A step beyond the projection's
    bound, or one that passes a pole, raises DistanceOutOfRange.
    """
    if not (math.isfinite(east_m) and math.isfinite(north_m)):
        # Kept word for word: step_at and displace_many refuse with it.
        raise ValueError("PlaneVector components must be finite")
    if math.hypot(east_m, north_m) > MAX_PLANAR_DISTANCE_M:
        raise DistanceOutOfRange(
            "displacement exceeds 6,000 km projection validity bound")
    lat2, cos_mid = _lat_step(lat, north_m)
    if abs(cos_mid) < 1e-9:
        raise DistanceOutOfRange("projection degenerate near the poles")
    if not -90.0 <= lat2 <= 90.0:
        raise DistanceOutOfRange(f"step passes a pole: latitude {lat2}")
    return lat2, normalize_lon(
        lon + math.degrees(east_m / (EARTH_RADIUS_M * cos_mid)))


def displace_many(lat_deg, lon_deg, east_m, north_m) -> tuple[np.ndarray, np.ndarray]:
    """Array form of displace_at: (lat, lon) arrays in degrees.

    Origins (lat_deg, lon_deg) and vectors (east_m, north_m) broadcast.
    If an element's origin is no valid GeoPoint, or `displace_at` would
    refuse its step, raises what those raise for the first such element in
    row-major order.
    """
    # A non-finite step's cos warns here; the checks below refuse it.
    with np.errstate(divide="ignore", invalid="ignore"):
        lat, cos_mid = _lat_steps(lat_deg, north_m)
        lon = _normalize_lons(
            lon_deg + np.degrees(east_m / (EARTH_RADIUS_M * cos_mid)))
    # numpy's hypot and cos may round apart from math's, so the checks keep
    # a margin and scalar `displace_at` decides each element near a bound.
    # A NaN latitude or cos_mid makes the longitude NaN, and the first
    # check, over the shape of all inputs together, flags it.
    near = np.logical_not(np.isfinite(lon))
    near |= np.hypot(east_m, north_m) > MAX_PLANAR_DISTANCE_M * (1 - 1e-9)
    near |= np.abs(cos_mid) < 2e-9
    near |= np.abs(lat) > 90.0
    if np.logical_or.reduce(near, axis=None):
        args = np.broadcast_arrays(lat_deg, lon_deg, east_m, north_m)
        for n in np.flatnonzero(near):
            lat0, lon0, east, north = (float(a.flat[n]) for a in args)
            GeoPoint(lat0, lon0)        # refuses an invalid origin
            displace_at(lat0, lon0, east, north)
    return lat, lon


def trip_rotation(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Angle phi such that rotating the displacement of point 2 from
    point 1 by phi (`rotate_by` with cos(phi), sin(phi)) points due north:
    east component 0, north component > 0."""
    east, north = displacement(lat1, lon1, lat2, lon2,
                               haversine(lat1, lon1, lat2, lon2))
    if math.hypot(east, north) == 0.0:
        raise DegenerateTrip("origin and destination coincide")
    return 0.5 * math.pi - math.atan2(north, east)


def rotate_by(east: float, north: float, c: float,
              s: float) -> tuple[float, float]:
    """Counter-clockwise rotation of (east, north) by phi, given c, s =
    cos(phi), sin(phi)."""
    return c * east - s * north, s * east + c * north

"""Geodesic and planar-rotation primitives.

Spherical earth (R = 6,371,000 m). Local planar work uses an
equirectangular projection scaled by the cosine of the mid-latitude, for
displacements up to 6,000 km. Beyond that distance `displacement` gives
the great-circle distance along the initial bearing instead, and
`displace_at` refuses the step. Rotation angles are radians,
counter-clockwise positive.

Each formula has one function on plain floats, positions as (lat, lon)
degrees: `haversine`, `azimuth`, `displacement`, `displace_at`,
`rotate_by`, `trip_rotation` and `track_point`. The guide's rollout, the
trainer and the lattice's track call these. Four object forms stay in the
package, each a wrapper over its float body, because `skyroute.__all__`
and perfbench's tracer name them: `great_circle_distance` (over
`haversine`) and `intermediate_point` (over `track_point`, with altitude)
here, `weather.sample` and `perfmodel.fly_segment`.

`great_circle_distances`, `initial_bearings`, `intermediate_points`,
`displace_many` and `along_tracks` are the array forms of the float
functions: they take lat/lon arrays in degrees and broadcast them. The two
forms share one body per formula (`_formulas`, built over `math` and over
numpy), so they differ only where numpy's sin/cos/asin/atan2 round
differently from the C library's (a few ulp), and in their guards: the
scalar forms return early or raise where the array forms mask.
`intermediate_points` also takes an array of fractions and, from a caller
that has them, the pairs' angular distances; `displace_many` refuses what
`displace_at` refuses from a valid `GeoPoint`, with the same error.
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
    """Array form of normalize_lon."""
    lon = np.fmod(lon_deg, 360.0)
    return np.where(lon <= -180.0, lon + 360.0,
                    np.where(lon > 180.0, lon - 360.0, lon))


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
    scalar call costs what a body written against `math` costs."""
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

    def slerp(lat1, lon1, lat2, lon2, delta, fraction):
        """(lat, lon) at `fraction` along the great circle of `delta` radians
        from point 1 to point 2; undefined where delta is 0."""
        phi1 = radians(lat1)
        lam1 = radians(lon1)
        phi2 = radians(lat2)
        lam2 = radians(lon2)
        sd = sin(delta)
        fa = sin((1.0 - fraction) * delta) / sd
        fb = sin(fraction * delta) / sd
        cos_phi1 = cos(phi1)
        cos_phi2 = cos(phi2)
        x = fa * cos_phi1 * cos(lam1) + fb * cos_phi2 * cos(lam2)
        y = fa * cos_phi1 * sin(lam1) + fb * cos_phi2 * sin(lam2)
        z = fa * sin(phi1) + fb * sin(phi2)
        return degrees(atan2(z, hypot(x, y))), degrees(atan2(y, x))

    def lat_step(lat_deg, north_m):
        """Latitude north_m meters north of lat_deg, and the cosine of the
        mid-latitude, which scales an east step."""
        dlat = degrees(north_m / EARTH_RADIUS_M)
        return lat_deg + dlat, cos(radians(lat_deg + 0.5 * dlat))

    def along_track(lat_deg, bearing, sigma, wind_east, wind_north):
        """Wind component along the great circle that leaves latitude
        lat_deg on azimuth `bearing`, at angle sigma (radians) along it."""
        phi0 = radians(lat_deg)
        # The track's direction times cos(lat) at sigma is (east, north);
        # east is constant on a great circle (Clairaut).
        east = sin(bearing) * cos(phi0)
        north0 = cos(bearing) * cos(phi0)
        north = cos(sigma) * north0 - sin(phi0) * sin(sigma)
        return (wind_east * east + wind_north * north) / hypot(east, north)

    return distance, azimuth, slerp, lat_step, along_track


haversine, azimuth, _slerp, _lat_step, along_track = _formulas(
    math, math.asin, math.atan2, min, normalize_lon)
(great_circle_distances, initial_bearings, _slerps, _lat_steps,
 along_tracks) = _formulas(np, np.arcsin, np.arctan2, np.minimum,
                           _normalize_lons)


def great_circle_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Haversine distance in meters; altitude ignored."""
    return haversine(a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg)


def track_point(lat1, lon1, lat2, lon2, delta, fraction):
    """`intermediate_point`'s (lat, lon) at 0 < fraction < 1 on plain
    floats, given delta = the pair's distance / EARTH_RADIUS_M."""
    if delta == 0.0:        # distinct points the haversine cannot resolve
        return lat1, lon1
    lat, lon = _slerp(lat1, lon1, lat2, lon2, delta, fraction)
    return lat, normalize_lon(lon1 if lon1 == lon2 else lon)


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
    lat, lon = track_point(a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg,
                           great_circle_distance(a, b) / EARTH_RADIUS_M,
                           fraction)
    return GeoPoint(lat, lon, a.alt_m + fraction * (b.alt_m - a.alt_m))


def track_points(a: GeoPoint, b: GeoPoint,
                 n: int) -> tuple[list[float], list[float], list[float]]:
    """Latitudes, longitudes and bearings to b of the n-2 interior points
    i/(n-1) of the way along a->b: what `intermediate_point` and
    `azimuth` give, without building a GeoPoint per point."""
    lat1, lon1, lat2, lon2 = a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg
    delta = haversine(lat1, lon1, lat2, lon2) / EARTH_RADIUS_M
    points = [track_point(lat1, lon1, lat2, lon2, delta, i / (n - 1))
              for i in range(1, n - 1)]
    return ([lat for lat, _ in points], [lon for _, lon in points],
            [azimuth(lat, lon, lat2, lon2) for lat, lon in points])


def intermediate_points(lat1, lon1, lat2, lon2, fraction,
                        delta=None) -> tuple[np.ndarray, np.ndarray]:
    """Array form of intermediate_point.

    `fraction` is a scalar or an array that broadcasts against the pairs.
    Returns (lat, lon) arrays in degrees; fraction 0 returns the start
    points and 1 the end points, and a zero-length pair its start point.
    Pairs on one meridian keep its longitude, as in the scalar form.
    `delta`, the pairs' great-circle distances over EARTH_RADIUS_M, is
    computed here unless the caller already has it.
    """
    if delta is None:
        delta = great_circle_distances(lat1, lon1, lat2, lon2) / EARTH_RADIUS_M
    with np.errstate(divide="ignore", invalid="ignore"):
        lat, lon = _slerps(lat1, lon1, lat2, lon2, delta, fraction)
    lon = np.where(np.equal(lon1, lon2), _normalize_lons(lon1),
                   _normalize_lons(lon))
    same = delta == 0.0
    lat, lon = np.where(same, lat1, lat), np.where(same, lon1, lon)
    at_start = np.less_equal(fraction, 0.0)
    at_end = np.greater_equal(fraction, 1.0)
    return (np.where(at_start, lat1, np.where(at_end, lat2, lat)),
            np.where(at_start, lon1, np.where(at_end, lon2, lon)))


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
    near = ((np.hypot(east_m, north_m) > MAX_PLANAR_DISTANCE_M * (1 - 1e-9))
            | ~(np.abs(cos_mid) >= 2e-9) | ~(np.abs(lat) <= 90.0)
            | ~np.isfinite(lon))
    if near.any():
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

"""Geodesic and planar-rotation primitives.

Spherical earth (R = 6,371,000 m). Local planar work uses an
equirectangular projection scaled by the cosine of the mid-latitude, for
displacements up to 6,000 km. Beyond that distance `local_displacement`
gives the great-circle distance along the initial bearing instead, and
`displace` refuses the step. Rotation angles are radians,
counter-clockwise positive.

`great_circle_distances`, `initial_bearings`, `intermediate_points`,
`displace_many` and `along_tracks` are the array forms of the scalar
functions: they take lat/lon arrays in degrees and broadcast them. The two
forms share one body per formula (`_formulas`, built over `math` and over
numpy), so they differ only where numpy's sin/cos/asin/atan2 round
differently from the C library's (a few ulp), and in their guards: the
scalar forms return early or raise where the array forms mask.
`intermediate_points` also takes an array of fractions and, from a caller
that has them, the pairs' angular distances; `displace_many` refuses what
`displace` refuses, with the same error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTrip, DistanceOutOfRange

EARTH_RADIUS_M = 6_371_000.0

#: Planar projection validity bound (meters).
MAX_PLANAR_DISTANCE_M = 6_000_000.0


def _normalize_lon(lon_deg: float) -> float:
    """Wrap a longitude into (-180, 180]."""
    lon = math.fmod(lon_deg, 360.0)
    if lon <= -180.0:
        lon += 360.0
    elif lon > 180.0:
        lon -= 360.0
    return lon


def _normalize_lons(lon_deg: np.ndarray) -> np.ndarray:
    """Array form of _normalize_lon."""
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
        object.__setattr__(self, "lon_deg", _normalize_lon(self.lon_deg))

    def same_position(self, other: "GeoPoint") -> bool:
        """True if lat/lon coincide (altitude ignored)."""
        return self.lat_deg == other.lat_deg and self.lon_deg == other.lon_deg


@dataclass(frozen=True)
class PlaneVector:
    """Displacement on the local tangent plane, meters east/north."""

    east_m: float
    north_m: float

    def __post_init__(self):
        if not (math.isfinite(self.east_m) and math.isfinite(self.north_m)):
            raise ValueError("PlaneVector components must be finite")

    def norm(self) -> float:
        return math.hypot(self.east_m, self.north_m)

    def scaled(self, factor: float) -> "PlaneVector":
        return PlaneVector(self.east_m * factor, self.north_m * factor)


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


_distance, _azimuth, _slerp, _lat_step, along_track = _formulas(
    math, math.asin, math.atan2, min, _normalize_lon)
(great_circle_distances, initial_bearings, _slerps, _lat_steps,
 along_tracks) = _formulas(np, np.arcsin, np.arctan2, np.minimum,
                           _normalize_lons)


def great_circle_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Haversine distance in meters; altitude ignored."""
    return _distance(a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg)


def initial_bearing(a: GeoPoint, b: GeoPoint) -> float:
    """Forward azimuth from a to b, radians clockwise from north."""
    return _azimuth(a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg)


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
    alt = a.alt_m + fraction * (b.alt_m - a.alt_m)
    delta = great_circle_distance(a, b) / EARTH_RADIUS_M
    if delta == 0.0:
        return GeoPoint(a.lat_deg, a.lon_deg, alt)
    lat, lon = _slerp(a.lat_deg, a.lon_deg, b.lat_deg, b.lon_deg, delta,
                      fraction)
    if a.lon_deg == b.lon_deg:
        lon = _normalize_lon(a.lon_deg)
    return GeoPoint(lat, lon, alt)


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


def local_displacement(origin: GeoPoint, target: GeoPoint) -> PlaneVector:
    """East/north meters of target relative to origin.

    Within MAX_PLANAR_DISTANCE_M: the equirectangular projection scaled by
    cos of the mid-latitude, the exact inverse of displace. Beyond it: the
    great-circle distance along the initial bearing.
    """
    d = great_circle_distance(origin, target)
    if d > MAX_PLANAR_DISTANCE_M:
        theta = initial_bearing(origin, target)
        return PlaneVector(d * math.sin(theta), d * math.cos(theta))
    dlat = target.lat_deg - origin.lat_deg
    dlon = _normalize_lon(target.lon_deg - origin.lon_deg)
    mid_lat = math.radians(origin.lat_deg + 0.5 * dlat)
    north = math.radians(dlat) * EARTH_RADIUS_M
    east = math.radians(dlon) * math.cos(mid_lat) * EARTH_RADIUS_M
    return PlaneVector(east, north)


def displace(origin: GeoPoint, v: PlaneVector) -> GeoPoint:
    """Move origin by a planar vector; inverse of local_displacement
    within MAX_PLANAR_DISTANCE_M.

    The altitude stays origin.alt_m. A step that passes a pole raises
    DistanceOutOfRange, as one beyond the projection's bound does.
    """
    if v.norm() > MAX_PLANAR_DISTANCE_M:
        raise DistanceOutOfRange(
            "displacement exceeds 6,000 km projection validity bound")
    lat, cos_mid = _lat_step(origin.lat_deg, v.north_m)
    if abs(cos_mid) < 1e-9:
        raise DistanceOutOfRange("projection degenerate near the poles")
    if not -90.0 <= lat <= 90.0:
        raise DistanceOutOfRange(f"step passes a pole: latitude {lat}")
    lon = origin.lon_deg + math.degrees(v.east_m / (EARTH_RADIUS_M * cos_mid))
    return GeoPoint(lat, lon, origin.alt_m)


def displace_many(lat_deg, lon_deg, east_m, north_m) -> tuple[np.ndarray, np.ndarray]:
    """Array form of displace for positions: (lat, lon) arrays in degrees.

    Origins (lat_deg, lon_deg) and vectors (east_m, north_m) broadcast.
    If `displace` would refuse any element, raises what it raises for the
    first such element in row-major order.
    """
    lat, cos_mid = _lat_steps(lat_deg, north_m)
    with np.errstate(divide="ignore", invalid="ignore"):
        lon = _normalize_lons(
            lon_deg + np.degrees(east_m / (EARTH_RADIUS_M * cos_mid)))
    # numpy's hypot and cos may round apart from math's, so the checks keep
    # a margin and scalar `displace` decides each element near a bound.
    near = ((np.hypot(east_m, north_m) > MAX_PLANAR_DISTANCE_M * (1 - 1e-9))
            | ~(np.abs(cos_mid) >= 2e-9) | ~(np.abs(lat) <= 90.0)
            | ~np.isfinite(lon))
    if near.any():
        args = np.broadcast_arrays(lat_deg, lon_deg, east_m, north_m)
        for n in np.flatnonzero(near):
            lat0, lon0, east, north = (float(a.flat[n]) for a in args)
            displace(GeoPoint(lat0, lon0), PlaneVector(east, north))
    return lat, lon


def trip_rotation(origin: GeoPoint, destination: GeoPoint) -> float:
    """Angle phi such that rotate(local_displacement(origin, destination), phi)
    points due north (east component 0, north component > 0)."""
    if origin.same_position(destination):
        raise DegenerateTrip("origin and destination coincide")
    d = local_displacement(origin, destination)
    if d.norm() == 0.0:
        raise DegenerateTrip("origin and destination coincide")
    return 0.5 * math.pi - math.atan2(d.north_m, d.east_m)


def rotate(v: PlaneVector, phi: float) -> PlaneVector:
    """Counter-clockwise rotation by phi radians."""
    c = math.cos(phi)
    s = math.sin(phi)
    return PlaneVector(c * v.east_m - s * v.north_m,
                       s * v.east_m + c * v.north_m)


def rotate_inverse(v: PlaneVector, phi: float) -> PlaneVector:
    """Inverse of rotate: rotation by -phi."""
    return rotate(v, -phi)

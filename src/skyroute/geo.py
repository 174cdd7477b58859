"""Geodesic and planar-rotation primitives.

Spherical earth (R = 6,371,000 m). Local planar work uses an
equirectangular projection scaled by the cosine of the mid-latitude,
valid for displacements up to 6,000 km. Rotation angles are radians,
counter-clockwise positive.

`great_circle_distances`, `initial_bearings` and `intermediate_points`
are the array forms of the scalar functions: they take lat/lon arrays in
degrees, broadcast them, and repeat the scalar arithmetic operation for
operation, so they differ from it only where numpy's sin/cos/asin/atan2
round differently from the C library's (a few ulp).
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


def great_circle_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Haversine distance in meters; altitude ignored."""
    phi1 = math.radians(a.lat_deg)
    phi2 = math.radians(b.lat_deg)
    dphi = math.radians(b.lat_deg - a.lat_deg)
    dlam = math.radians(_normalize_lon(b.lon_deg - a.lon_deg))
    s = (math.sin(dphi / 2.0) ** 2
         + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(s)))


def great_circle_distances(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Array form of great_circle_distance: haversine meters, element-wise."""
    phi1 = np.radians(lat1)
    phi2 = np.radians(lat2)
    dphi = np.radians(np.subtract(lat2, lat1))
    dlam = np.radians(_normalize_lons(np.subtract(lon2, lon1)))
    s = (np.sin(dphi / 2.0) ** 2
         + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def initial_bearing(a: GeoPoint, b: GeoPoint) -> float:
    """Forward azimuth from a to b, radians clockwise from north."""
    phi1 = math.radians(a.lat_deg)
    phi2 = math.radians(b.lat_deg)
    dlam = math.radians(_normalize_lon(b.lon_deg - a.lon_deg))
    y = math.sin(dlam) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlam)
    return math.atan2(y, x)


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
    phi1 = math.radians(a.lat_deg)
    lam1 = math.radians(a.lon_deg)
    phi2 = math.radians(b.lat_deg)
    lam2 = math.radians(b.lon_deg)
    delta = great_circle_distance(a, b) / EARTH_RADIUS_M
    if delta == 0.0:
        return GeoPoint(a.lat_deg, a.lon_deg,
                        a.alt_m + fraction * (b.alt_m - a.alt_m))
    sd = math.sin(delta)
    fa = math.sin((1.0 - fraction) * delta) / sd
    fb = math.sin(fraction * delta) / sd
    x = fa * math.cos(phi1) * math.cos(lam1) + fb * math.cos(phi2) * math.cos(lam2)
    y = fa * math.cos(phi1) * math.sin(lam1) + fb * math.cos(phi2) * math.sin(lam2)
    z = fa * math.sin(phi1) + fb * math.sin(phi2)
    lat = math.degrees(math.atan2(z, math.hypot(x, y)))
    if a.lon_deg == b.lon_deg:
        lon = _normalize_lon(a.lon_deg)
    else:
        lon = math.degrees(math.atan2(y, x))
    return GeoPoint(lat, lon, a.alt_m + fraction * (b.alt_m - a.alt_m))


def initial_bearings(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Array form of initial_bearing: radians clockwise from north."""
    phi1 = np.radians(lat1)
    phi2 = np.radians(lat2)
    dlam = np.radians(_normalize_lons(np.subtract(lon2, lon1)))
    y = np.sin(dlam) * np.cos(phi2)
    x = (np.cos(phi1) * np.sin(phi2)
         - np.sin(phi1) * np.cos(phi2) * np.cos(dlam))
    return np.arctan2(y, x)


def intermediate_points(lat1, lon1, lat2, lon2,
                        fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """Array form of intermediate_point for one shared fraction.

    Returns (lat, lon) arrays in degrees; fraction 0 returns the start
    points and 1 the end points, and a zero-length pair its start point.
    Pairs on one meridian keep its longitude, as in the scalar form.
    """
    if fraction <= 0.0:
        return np.asarray(lat1, dtype=float), np.asarray(lon1, dtype=float)
    if fraction >= 1.0:
        return np.asarray(lat2, dtype=float), np.asarray(lon2, dtype=float)
    phi1 = np.radians(lat1)
    lam1 = np.radians(lon1)
    phi2 = np.radians(lat2)
    lam2 = np.radians(lon2)
    delta = great_circle_distances(lat1, lon1, lat2, lon2) / EARTH_RADIUS_M
    with np.errstate(divide="ignore", invalid="ignore"):
        sd = np.sin(delta)
        fa = np.sin((1.0 - fraction) * delta) / sd
        fb = np.sin(fraction * delta) / sd
    cos_phi1 = np.cos(phi1)
    cos_phi2 = np.cos(phi2)
    x = fa * cos_phi1 * np.cos(lam1) + fb * cos_phi2 * np.cos(lam2)
    y = fa * cos_phi1 * np.sin(lam1) + fb * cos_phi2 * np.sin(lam2)
    z = fa * np.sin(phi1) + fb * np.sin(phi2)
    lat = np.degrees(np.arctan2(z, np.hypot(x, y)))
    lon = _normalize_lons(np.degrees(np.arctan2(y, x)))
    lon = np.where(np.equal(lon1, lon2), _normalize_lons(lon1), lon)
    same = delta == 0.0
    return np.where(same, lat1, lat), np.where(same, lon1, lon)


def local_displacement(origin: GeoPoint, target: GeoPoint) -> PlaneVector:
    """East/north meters of target relative to origin.

    Equirectangular projection scaled by cos of the mid-latitude;
    exact inverse of displace. Raises DistanceOutOfRange beyond 6,000 km.
    """
    if great_circle_distance(origin, target) > MAX_PLANAR_DISTANCE_M:
        raise DistanceOutOfRange(
            "displacement exceeds 6,000 km projection validity bound")
    dlat = target.lat_deg - origin.lat_deg
    dlon = _normalize_lon(target.lon_deg - origin.lon_deg)
    mid_lat = math.radians(origin.lat_deg + 0.5 * dlat)
    north = math.radians(dlat) * EARTH_RADIUS_M
    east = math.radians(dlon) * math.cos(mid_lat) * EARTH_RADIUS_M
    return PlaneVector(east, north)


def displace(origin: GeoPoint, v: PlaneVector, alt_delta_m: float = 0.0) -> GeoPoint:
    """Move origin by a planar vector; inverse of local_displacement.

    Altitude becomes origin.alt_m + alt_delta_m, clamped at 0.
    """
    if v.norm() > MAX_PLANAR_DISTANCE_M:
        raise DistanceOutOfRange(
            "displacement exceeds 6,000 km projection validity bound")
    dlat = math.degrees(v.north_m / EARTH_RADIUS_M)
    lat = origin.lat_deg + dlat
    mid_lat = math.radians(origin.lat_deg + 0.5 * dlat)
    cos_mid = math.cos(mid_lat)
    if abs(cos_mid) < 1e-9:
        raise DistanceOutOfRange("projection degenerate near the poles")
    lon = origin.lon_deg + math.degrees(v.east_m / (EARTH_RADIUS_M * cos_mid))
    return GeoPoint(lat, lon, max(0.0, origin.alt_m + alt_delta_m))


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
